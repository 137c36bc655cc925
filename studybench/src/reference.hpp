// The reference workload: a fixed piece of work that does not use the
// library, timed beside every pass.
//
// On a shared host the speed a process gets drifts with its neighbours'
// load, by a quarter and more over minutes, and no run length averages
// that out. The drift slows the reference and the pass alike, so a pass's
// time divided by the reference time measured next to it stays put, while
// a change to the library moves that quotient exactly as it moves the
// pass. The reference mixes what the library spends its time on: small
// string allocations, hashing into a map, sorting. It is compiled in its
// own target without the library's options, so no change to the library's
// sources or options can move it.
#pragma once

#include <cstddef>

namespace studybench {

struct ReferenceTime {
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU time, all threads
};

/// Runs the reference workload once on each of `lanes` threads at the same
/// time, as a pass on that many lanes would use them.
ReferenceTime time_reference(std::size_t lanes);

}  // namespace studybench
