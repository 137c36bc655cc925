// A recovery::Mechanism decorator that times one trial from outside the
// library.
//
// run_matrix calls a roster entry's factory once per trial, runs the trial
// against the mechanism it returns, and destroys it when the trial ends.
// The decorator forwards every call to the real mechanism and records spans
// for the phases of that lifetime:
//
//   trial          factory call .. destruction (one per attached trial)
//     start        factory call .. attach: Environment, make_app,
//                  SimApp::start and fault arming inside run_trial
//     attach       the mechanism's initial checkpoint
//     checkpoint   each on_item_success call
//     recover.<m>  each recover call (value 1 when the app came back)
//     prepare_retry
//
// Workload items are the trial's self time. The decorator lives as long as
// run_matrix's per-trial mechanism, so with observers attached (study)
// start also holds the construction of the trial's telemetry, forensics
// and coverage records, and the trial's self time also holds their
// per-trial copies and merges. run_matrix also creates one
// probe per roster entry that is asked is_generic() and never attached;
// those are recorded as "probe". A trial whose app fails to start is never
// attached either and is recorded as "start_failure".
#pragma once

#include <vector>

#include "harness/experiment.hpp"
#include "spans.hpp"

namespace studybench {

/// The roster with every factory wrapped; trial spans are parented to
/// `parent`. The returned factories may be called from any lane.
std::vector<faultstudy::harness::NamedMechanism> timed_roster(
    const std::vector<faultstudy::harness::NamedMechanism>& roster,
    spans::SpanId parent);

/// Span names the decorator records, interned on first use.
struct TrialSpanNames {
  std::uint16_t trial, probe, start_failure, start, attach, checkpoint,
      prepare_retry;
};
const TrialSpanNames& trial_span_names();

/// "recover.<mechanism>" for a roster entry.
std::uint16_t recover_span_name(const std::string& mechanism);

}  // namespace studybench
