// The trial event stream: one vocabulary for everything instrumented code
// reports, and one table deciding what each event does to the three views
// of a trial.
//
// A hook point calls emit(e.observers(), Event::kDiskNoSpace, bytes, used)
// exactly once. rule() maps the event onto
//
//   * telemetry: which TrialCounters field it bumps by one, which it raises
//     by operand `a`, which high-watermark it lifts to operand `b`, and
//     which tick histogram observes `a`;
//   * forensics: which FlightCode it appends to the flight ring (with both
//     operands), or none — counter-only events never enter the ring, so
//     the 256-slot window holds exactly the protocol, resource, app and
//     recovery transitions a post-mortem reads;
//   * coverage: which obs::Site probe it marks, or none.
//
// FlightCode and Site stay the export vocabularies (post-mortem JSON, the
// explorer, the atlas and the baseline are keyed by their names and order);
// Event is internal and may be renumbered freely.
//
// Cost model: emit is always inlined and every call site passes a constant
// event, so the rule lookup folds away and each site compiles to the stores
// its rule names, behind one null check of the observer pointer (detached,
// the default) and one per attached view. DESIGN.md §9 has the measurements.
//
// Determinism contract: a trial is single-threaded and owns its observers,
// so counters, ring contents and probe counts are simulation state —
// identical for every `--threads` value once folded in index order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "forensics/recorder.hpp"
#include "obs/probes.hpp"
#include "telemetry/trial.hpp"

namespace faultstudy::obs {

/// One entry per distinct hook point. Operands `a` and `b` are documented
/// per event; the ring stores both for events that record.
enum class Event : std::uint8_t {
  // -- harness protocol --
  kTrialStart,       ///< a = workload items per cycle, b = cycles
  kFaultArmed,       ///< a = core::Trigger, b = core::Symptom
  kEnvArmed,         ///< environmental precondition established
  kAttach,           ///< mechanism attached to the running app
  kItemDone,         ///< a = ticks the item took
  kItemFailed,       ///< a = item index, b = apps::StepStatus
  kRecoveryBegin,    ///< a = item index
  kRecoveryAttempt,  ///< a = ticks the recovery took
  kRollback,         ///< a = items rewound past
  kRecoveryFailed,   ///< a = item index
  kRecoveryOk,       ///< a = item index, b = items rewound
  kVerdict,          ///< a = forensics::TrialVerdict

  // -- environment resources --
  kProcSpawned,           ///< b = processes in the table
  kProcSpawnDenied,       ///< a = table capacity
  kProcKilled,            ///< a = processes killed
  kProcHung,              ///< a = pid
  kFdAcquired,            ///< a = descriptors taken, b = descriptors in use
  kFdDenied,              ///< a = descriptors wanted, b = in use
  kFdReleased,            ///< a = descriptors freed
  kDiskWrite,             ///< a = bytes written, b = bytes used
  kDiskNoSpace,           ///< a = bytes wanted, b = bytes used
  kDiskFileTooBig,        ///< a = bytes wanted, b = per-file limit
  kDiskTruncate,
  kDnsBroken,             ///< a = env::DnsHealth forced, b = heals-at tick
  kDnsLookup,
  kDnsError,
  kDnsSlow,
  kDnsReverseMiss,
  kLinkDegraded,          ///< a = env::LinkState forced, b = heals-at tick
  kCardRemoved,
  kPortBound,
  kPortDenied,            ///< a = port, already bound by another owner
  kPortsReleased,         ///< a = ports released
  kKernelResourceDenied,  ///< a = units wanted, b = units available
  kSchedDraw,
  kSchedReplay,
  kEntropyRead,
  kEntropyBlocked,        ///< a = bits wanted, b = bits held
  kEntropyTaken,          ///< a = bits taken
  kSignalRaised,          ///< a = env::Signal, b = deliver-at tick

  // -- application --
  kAppStarted,       ///< a = worker processes spawned
  kAppStopped,
  kAppRestored,      ///< checkpoint state re-materialized
  kAppChildSpawned,  ///< a = pid of a runaway child
  kAppCgiChild,      ///< a = pid of a web-server CGI child
  kWebRequest,
  kWebCacheFill,
  kDbQuery,
  kUiEvent,

  // -- recovery mechanisms --
  kCheckpoint,
  kFailover,
  kColdRestart,
  kRejuvenation,
  kProactiveRejuvenation,  ///< a = 1 (the ring's proactive marker)
  kRetrySanitized,         ///< a = item id
  kSweep,

  kCount,  // sentinel
};

/// What one event does to each view. Null members and kCount codes mean
/// "nothing in this view".
struct EventRule {
  std::uint64_t telemetry::TrialCounters::*count = nullptr;  ///< += 1
  std::uint64_t telemetry::TrialCounters::*add = nullptr;    ///< += a
  std::uint64_t telemetry::TrialCounters::*peak = nullptr;   ///< max(., b)
  telemetry::Histogram telemetry::TrialTelemetry::*latency = nullptr;  ///< a
  forensics::FlightCode flight = forensics::FlightCode::kCount;
  Site site = Site::kCount;
};

/// The event table. kFaultArmed and kVerdict additionally mark a probe
/// chosen by operand `a` (see TrialObservers::emit).
constexpr EventRule rule(Event event) noexcept {
  using C = telemetry::TrialCounters;
  using T = telemetry::TrialTelemetry;
  using F = forensics::FlightCode;
  switch (event) {
    case Event::kTrialStart: return {.flight = F::kTrialStart};
    case Event::kFaultArmed: return {.flight = F::kFaultArmed};
    case Event::kEnvArmed: return {.flight = F::kEnvArmed};
    case Event::kAttach: return {.site = Site::kRecAttach};
    case Event::kItemDone: return {.latency = &T::item_latency_ticks};
    case Event::kItemFailed: return {.flight = F::kItemFailed};
    case Event::kRecoveryBegin: return {.flight = F::kRecoveryBegin};
    case Event::kRecoveryAttempt:
      return {.count = &C::recovery_attempts,
              .latency = &T::recovery_latency_ticks};
    case Event::kRollback:
      return {.add = &C::items_rewound,
              .flight = F::kRollback,
              .site = Site::kRecRollbackRewind};
    case Event::kRecoveryFailed:
      return {.count = &C::recovery_failures,
              .flight = F::kRecoveryFailed,
              .site = Site::kRecRecoveryFailed};
    case Event::kRecoveryOk:
      return {.count = &C::recovery_successes,
              .flight = F::kRecoveryOk,
              .site = Site::kRecRecoveryOk};
    case Event::kVerdict: return {.flight = F::kVerdict};

    case Event::kProcSpawned:
      return {.count = &C::proc_spawns, .peak = &C::peak_procs};
    case Event::kProcSpawnDenied:
      return {.count = &C::proc_spawn_failures,
              .flight = F::kProcTableFull,
              .site = Site::kEnvProcSpawnDenied};
    case Event::kProcKilled: return {.add = &C::proc_kills};
    case Event::kProcHung:
      return {.count = &C::procs_marked_hung,
              .flight = F::kProcHung,
              .site = Site::kEnvProcHung};
    case Event::kFdAcquired:
      return {.add = &C::fds_acquired, .peak = &C::peak_fds};
    case Event::kFdDenied:
      return {.count = &C::fd_acquire_failures,
              .flight = F::kFdExhausted,
              .site = Site::kEnvFdDenied};
    case Event::kFdReleased: return {.add = &C::fds_released};
    case Event::kDiskWrite:
      return {.count = &C::disk_writes,
              .add = &C::disk_bytes_written,
              .peak = &C::peak_disk_used};
    case Event::kDiskNoSpace:
      return {.count = &C::disk_write_failures,
              .flight = F::kDiskFull,
              .site = Site::kEnvDiskNoSpace};
    case Event::kDiskFileTooBig:
      return {.count = &C::disk_write_failures,
              .flight = F::kFileSizeLimit,
              .site = Site::kEnvDiskFileTooBig};
    case Event::kDiskTruncate: return {.count = &C::disk_truncates};
    case Event::kDnsBroken:
      return {.flight = F::kDnsBroken, .site = Site::kEnvDnsBroken};
    case Event::kDnsLookup: return {.count = &C::dns_lookups};
    case Event::kDnsError:
      return {.count = &C::dns_errors, .site = Site::kEnvDnsError};
    case Event::kDnsSlow:
      return {.count = &C::dns_slow_replies, .site = Site::kEnvDnsSlow};
    case Event::kDnsReverseMiss:
      return {.count = &C::dns_reverse_misses,
              .site = Site::kEnvDnsReverseMiss};
    case Event::kLinkDegraded:
      return {.flight = F::kLinkDegraded, .site = Site::kEnvLinkDegraded};
    case Event::kCardRemoved: return {.flight = F::kCardRemoved};
    case Event::kPortBound: return {.count = &C::port_binds};
    case Event::kPortDenied:
      return {.count = &C::port_bind_failures,
              .flight = F::kPortDenied,
              .site = Site::kEnvPortDenied};
    case Event::kPortsReleased: return {.add = &C::ports_released};
    case Event::kKernelResourceDenied:
      return {.count = &C::kernel_resource_denied,
              .flight = F::kKernelResourceDenied,
              .site = Site::kEnvKernelResourceDenied};
    case Event::kSchedDraw: return {.count = &C::sched_draws};
    case Event::kSchedReplay:
      return {.count = &C::sched_replays, .site = Site::kEnvSchedReplay};
    case Event::kEntropyRead: return {.count = &C::entropy_reads};
    case Event::kEntropyBlocked:
      return {.count = &C::entropy_blocked,
              .flight = F::kEntropyBlocked,
              .site = Site::kEnvEntropyBlocked};
    case Event::kEntropyTaken: return {.add = &C::entropy_bits_taken};
    case Event::kSignalRaised:
      return {.flight = F::kSignalRaised, .site = Site::kEnvSignalRaised};

    case Event::kAppStarted:
      return {.flight = F::kAppStarted, .site = Site::kAppStarted};
    case Event::kAppStopped:
      return {.flight = F::kAppStopped, .site = Site::kAppStopped};
    case Event::kAppRestored: return {.site = Site::kAppRestored};
    case Event::kAppChildSpawned:
      return {.flight = F::kAppChildSpawned, .site = Site::kAppChildSpawned};
    case Event::kAppCgiChild:
      return {.count = &C::cgi_children,
              .flight = F::kAppChildSpawned,
              .site = Site::kAppChildSpawned};
    case Event::kWebRequest:
      return {.count = &C::requests_served, .site = Site::kAppWebRequest};
    case Event::kWebCacheFill:
      return {.count = &C::cache_fills, .site = Site::kAppWebCacheFill};
    case Event::kDbQuery:
      return {.count = &C::queries_ok, .site = Site::kAppDbQuery};
    case Event::kUiEvent:
      return {.count = &C::ui_events, .site = Site::kAppUiEvent};

    case Event::kCheckpoint:
      return {.count = &C::checkpoints,
              .flight = F::kCheckpoint,
              .site = Site::kRecCheckpoint};
    case Event::kFailover:
      return {.count = &C::failovers,
              .flight = F::kFailover,
              .site = Site::kRecFailover};
    case Event::kColdRestart:
      return {.count = &C::cold_restarts,
              .flight = F::kColdRestart,
              .site = Site::kRecColdRestart};
    case Event::kRejuvenation:
      return {.count = &C::rejuvenation_cycles,
              .flight = F::kRejuvenation,
              .site = Site::kRecRejuvenation};
    case Event::kProactiveRejuvenation:
      return {.count = &C::proactive_rejuvenations,
              .flight = F::kRejuvenation,
              .site = Site::kRecProactiveRejuvenation};
    case Event::kRetrySanitized:
      return {.count = &C::retries_sanitized,
              .flight = F::kRetrySanitized,
              .site = Site::kRecRetrySanitized};
    case Event::kSweep: return {.site = Site::kRecSweep};
    case Event::kCount: break;
  }
  return {};
}

/// rule() for every event, evaluated at compile time: emit() reads it with
/// a constant index, which folds to the rule's constants at each site.
inline constexpr auto kEventRules = [] {
  std::array<EventRule, static_cast<std::size_t>(Event::kCount)> rules{};
  for (std::size_t e = 0; e < rules.size(); ++e) {
    rules[e] = rule(static_cast<Event>(e));
  }
  return rules;
}();

// The verdict probes mirror forensics::TrialVerdict one-to-one.
static_assert(static_cast<std::size_t>(Site::kTrialRecoveryFailed) -
                  static_cast<std::size_t>(Site::kTrialSurvived) + 1 ==
              static_cast<std::size_t>(forensics::TrialVerdict::kCount));

/// The per-trial views one event stream feeds. Any member may be null; a
/// trial binds one TrialObservers into its environment
/// (env::Environment::set_observers) and everything the environment hosts
/// reaches it through Environment::observers().
struct TrialObservers {
  telemetry::TrialTelemetry* telemetry = nullptr;
  forensics::FlightRecorder* flight = nullptr;
  CoverageMap* coverage = nullptr;

  // Always inlined: out of line (GCC outlines it as too large), the rule
  // becomes a run-time table walk at every one of the stream's million-odd
  // events per matrix instead of a constant-folded store or two.
  [[gnu::always_inline]] void emit(Event event, std::uint64_t a,
                                   std::uint64_t b) noexcept {
    const EventRule& r = kEventRules[static_cast<std::size_t>(event)];
    if (telemetry != nullptr) {
      telemetry::TrialCounters& c = telemetry->counters;
      if (r.count != nullptr) ++(c.*r.count);
      if (r.add != nullptr) c.*r.add += a;
      if (r.peak != nullptr && b > c.*r.peak) c.*r.peak = b;
      if (r.latency != nullptr) {
        (telemetry->*r.latency).observe(static_cast<std::int64_t>(a));
      }
    }
    if (flight != nullptr && r.flight != forensics::FlightCode::kCount) {
      flight->record(r.flight, a, b);
    }
    if (coverage != nullptr) {
      if (r.site != Site::kCount) coverage->hit(r.site);
      if (event == Event::kFaultArmed) {
        coverage->hit_inject(static_cast<core::Trigger>(a));
      } else if (event == Event::kVerdict) {
        coverage->hit(static_cast<Site>(
            static_cast<std::size_t>(Site::kTrialSurvived) + a));
      }
    }
  }
};

/// The one hook call: routes `event` to every view attached to `sink`;
/// a null sink (nothing observing) is a no-op.
[[gnu::always_inline]] inline void emit(TrialObservers* sink, Event event,
                                       std::uint64_t a = 0,
                                       std::uint64_t b = 0) noexcept {
  if (sink != nullptr) sink->emit(event, a, b);
}

}  // namespace faultstudy::obs
