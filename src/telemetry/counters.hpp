// The plain per-trial counter struct the trial event stream writes into
// (obs/event.hpp decides which event bumps which field).
//
// Everything in this header is a plain struct of integers. A trial is
// single-threaded, so increments need no atomics; parallel sweeps give every
// matrix cell its own struct in a per-index slot (the cell's repeats
// accumulate into it) and fold serially in index order (the determinism
// contract, DESIGN.md §8), which is what keeps aggregated telemetry
// bit-identical across thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace faultstudy::telemetry {

/// What the simulated environment, the application, and the recovery
/// machinery did during one trial.
struct TrialCounters {
  // Process table.
  std::uint64_t proc_spawns = 0;
  std::uint64_t proc_spawn_failures = 0;  ///< table full
  std::uint64_t proc_kills = 0;
  std::uint64_t procs_marked_hung = 0;
  std::uint64_t peak_procs = 0;
  // Descriptor table.
  std::uint64_t fds_acquired = 0;
  std::uint64_t fd_acquire_failures = 0;  ///< pool exhausted
  std::uint64_t fds_released = 0;
  std::uint64_t peak_fds = 0;
  // Disk.
  std::uint64_t disk_writes = 0;
  std::uint64_t disk_bytes_written = 0;
  std::uint64_t disk_write_failures = 0;  ///< no space / file-size limit
  std::uint64_t disk_truncates = 0;
  std::uint64_t peak_disk_used = 0;
  // DNS.
  std::uint64_t dns_lookups = 0;
  std::uint64_t dns_errors = 0;
  std::uint64_t dns_slow_replies = 0;
  std::uint64_t dns_reverse_misses = 0;
  // Network.
  std::uint64_t port_binds = 0;
  std::uint64_t port_bind_failures = 0;
  std::uint64_t ports_released = 0;
  std::uint64_t kernel_resource_denied = 0;
  // Scheduler.
  std::uint64_t sched_draws = 0;
  std::uint64_t sched_replays = 0;  ///< replay bias reproduced the last draw
  // Entropy pool.
  std::uint64_t entropy_reads = 0;
  std::uint64_t entropy_blocked = 0;  ///< read wanted more bits than held
  std::uint64_t entropy_bits_taken = 0;
  // Application.
  std::uint64_t requests_served = 0;  ///< web server
  std::uint64_t cache_fills = 0;
  std::uint64_t cgi_children = 0;
  std::uint64_t queries_ok = 0;  ///< database
  std::uint64_t ui_events = 0;   ///< desktop
  // Recovery.
  std::uint64_t recovery_attempts = 0;
  std::uint64_t recovery_successes = 0;
  std::uint64_t recovery_failures = 0;
  std::uint64_t items_rewound = 0;  ///< rollback depth, summed over recoveries
  std::uint64_t checkpoints = 0;
  std::uint64_t failovers = 0;            ///< process-pairs backup promotions
  std::uint64_t cold_restarts = 0;        ///< lossy stop+start cycles
  std::uint64_t rejuvenation_cycles = 0;  ///< reactive rejuvenation passes
  std::uint64_t proactive_rejuvenations = 0;  ///< scheduled (quiescent) passes
  std::uint64_t retries_sanitized = 0;  ///< wrapper rejected a killer input
};

/// How a counter folds across trials and into the metrics registry.
enum class CounterKind : std::uint8_t {
  kSum,           ///< summed; registry counter under its own name
  kPeak,          ///< high watermark; registry gauge under its own name
  kMechanismSum,  ///< summed; registry counter under recovery/<mechanism>/
};

struct CounterInfo {
  std::uint64_t TrialCounters::*field;
  std::string_view name;
  CounterKind kind;
};

/// Every TrialCounters field with its registry name, in declaration order.
inline constexpr auto kCounterInfo = [] {
  using C = TrialCounters;
  using enum CounterKind;
  return std::to_array<CounterInfo>({
      {&C::proc_spawns, "env/proc/spawns", kSum},
      {&C::proc_spawn_failures, "env/proc/spawn_failures", kSum},
      {&C::proc_kills, "env/proc/kills", kSum},
      {&C::procs_marked_hung, "env/proc/marked_hung", kSum},
      {&C::peak_procs, "env/proc/peak", kPeak},
      {&C::fds_acquired, "env/fd/acquired", kSum},
      {&C::fd_acquire_failures, "env/fd/acquire_failures", kSum},
      {&C::fds_released, "env/fd/released", kSum},
      {&C::peak_fds, "env/fd/peak", kPeak},
      {&C::disk_writes, "env/disk/writes", kSum},
      {&C::disk_bytes_written, "env/disk/bytes_written", kSum},
      {&C::disk_write_failures, "env/disk/write_failures", kSum},
      {&C::disk_truncates, "env/disk/truncates", kSum},
      {&C::peak_disk_used, "env/disk/peak_used", kPeak},
      {&C::dns_lookups, "env/dns/lookups", kSum},
      {&C::dns_errors, "env/dns/errors", kSum},
      {&C::dns_slow_replies, "env/dns/slow_replies", kSum},
      {&C::dns_reverse_misses, "env/dns/reverse_misses", kSum},
      {&C::port_binds, "env/net/port_binds", kSum},
      {&C::port_bind_failures, "env/net/port_bind_failures", kSum},
      {&C::ports_released, "env/net/ports_released", kSum},
      {&C::kernel_resource_denied, "env/net/kernel_resource_denied", kSum},
      {&C::sched_draws, "env/sched/draws", kSum},
      {&C::sched_replays, "env/sched/replays", kSum},
      {&C::entropy_reads, "env/entropy/reads", kSum},
      {&C::entropy_blocked, "env/entropy/blocked", kSum},
      {&C::entropy_bits_taken, "env/entropy/bits_taken", kSum},
      {&C::requests_served, "app/requests_served", kSum},
      {&C::cache_fills, "app/cache_fills", kSum},
      {&C::cgi_children, "app/cgi_children", kSum},
      {&C::queries_ok, "app/queries_ok", kSum},
      {&C::ui_events, "app/ui_events", kSum},
      {&C::recovery_attempts, "attempts", kMechanismSum},
      {&C::recovery_successes, "successes", kMechanismSum},
      {&C::recovery_failures, "failures", kMechanismSum},
      {&C::items_rewound, "items_rewound", kMechanismSum},
      {&C::checkpoints, "checkpoints", kMechanismSum},
      {&C::failovers, "failovers", kMechanismSum},
      {&C::cold_restarts, "cold_restarts", kMechanismSum},
      {&C::rejuvenation_cycles, "rejuvenation_cycles", kMechanismSum},
      {&C::proactive_rejuvenations, "proactive_rejuvenations", kMechanismSum},
      {&C::retries_sanitized, "retries_sanitized", kMechanismSum},
  });
}();
static_assert(kCounterInfo.size() ==
                  sizeof(TrialCounters) / sizeof(std::uint64_t),
              "every TrialCounters field needs a kCounterInfo row");

}  // namespace faultstudy::telemetry
