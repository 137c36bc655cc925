// The trial event stream: one vocabulary for everything instrumented code
// reports, one table deciding what each event does to the views of a
// trial, and one per-event tally the numeric views read.
//
// A hook point calls emit(e.observers(), Event::kDiskNoSpace, bytes, used)
// exactly once. rule() maps the event onto
//
//   * the tally: one count per event some view reads, the sum of operand
//     `a` and the high watermark of operand `b` where the rule names one,
//     and one count per verdict;
//   * telemetry: the registry counters and gauge fold_counts() derives from
//     the tally (`.count`, `.sum`, `.peak`, under recovery/<mechanism>/
//     when `.per_mechanism`), and the tick histogram that observes `a`;
//   * forensics: which FlightCode it appends to the flight ring (with both
//     operands), or none — counter-only events never enter the ring, so
//     the 256-slot window holds exactly the protocol, resource, app and
//     recovery transitions a post-mortem reads;
//   * coverage: which obs::Site probe its count marks, or none;
//     coverage_of() turns a tally into a CoverageMap at fold time.
//
// FlightCode, Site and the registry names stay the export vocabularies
// (post-mortem JSON, the explorer, the atlas, the metrics exports and the
// baseline are keyed by them); Event is internal and may be renumbered
// freely.
//
// Cost model: emit is always inlined and every call site passes a constant
// event, so the rule lookup folds away and each site compiles to the stores
// its rule names, behind one null check of the observer pointer (detached,
// the default) and one per attached view. DESIGN.md §9 has the measurements.
//
// Determinism contract: a trial is single-threaded and owns its observers,
// so tallies, histograms and ring contents are simulation state — identical
// for every `--threads` value once folded in index order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

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

inline constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::kCount);

/// What one event does to each view. Empty names, null members, false flags
/// and kCount codes mean "nothing in this view".
struct EventRule {
  std::string_view count = {};  ///< registry counter: events seen
  std::string_view sum = {};    ///< registry counter: sum of `a`
  std::string_view peak = {};   ///< registry gauge: high watermark of `b`
  bool per_mechanism = false;   ///< the names sit under recovery/<mechanism>/
  telemetry::Histogram telemetry::TrialTelemetry::*latency = nullptr;  ///< a
  forensics::FlightCode flight = forensics::FlightCode::kCount;
  Site site = Site::kCount;
  bool inject = false;       ///< the count marks the armed trigger's probe
  bool per_verdict = false;  ///< counted per verdict, `a`, for its probes
};

/// The event table.
constexpr EventRule rule(Event event) noexcept {
  using T = telemetry::TrialTelemetry;
  using F = forensics::FlightCode;
  switch (event) {
    case Event::kTrialStart: return {.flight = F::kTrialStart};
    case Event::kFaultArmed: return {.flight = F::kFaultArmed, .inject = true};
    case Event::kEnvArmed: return {.flight = F::kEnvArmed};
    case Event::kAttach: return {.site = Site::kRecAttach};
    case Event::kItemDone: return {.latency = &T::item_latency_ticks};
    case Event::kItemFailed: return {.flight = F::kItemFailed};
    case Event::kRecoveryBegin: return {.flight = F::kRecoveryBegin};
    case Event::kRecoveryAttempt:
      return {.count = "attempts",
              .per_mechanism = true,
              .latency = &T::recovery_latency_ticks};
    case Event::kRollback:
      return {.sum = "items_rewound",
              .per_mechanism = true,
              .flight = F::kRollback,
              .site = Site::kRecRollbackRewind};
    case Event::kRecoveryFailed:
      return {.count = "failures",
              .per_mechanism = true,
              .flight = F::kRecoveryFailed,
              .site = Site::kRecRecoveryFailed};
    case Event::kRecoveryOk:
      return {.count = "successes",
              .per_mechanism = true,
              .flight = F::kRecoveryOk,
              .site = Site::kRecRecoveryOk};
    case Event::kVerdict: return {.flight = F::kVerdict, .per_verdict = true};

    case Event::kProcSpawned:
      return {.count = "env/proc/spawns", .peak = "env/proc/peak"};
    case Event::kProcSpawnDenied:
      return {.count = "env/proc/spawn_failures",
              .flight = F::kProcTableFull,
              .site = Site::kEnvProcSpawnDenied};
    case Event::kProcKilled: return {.sum = "env/proc/kills"};
    case Event::kProcHung:
      return {.count = "env/proc/marked_hung",
              .flight = F::kProcHung,
              .site = Site::kEnvProcHung};
    case Event::kFdAcquired:
      return {.sum = "env/fd/acquired", .peak = "env/fd/peak"};
    case Event::kFdDenied:
      return {.count = "env/fd/acquire_failures",
              .flight = F::kFdExhausted,
              .site = Site::kEnvFdDenied};
    case Event::kFdReleased: return {.sum = "env/fd/released"};
    case Event::kDiskWrite:
      return {.count = "env/disk/writes",
              .sum = "env/disk/bytes_written",
              .peak = "env/disk/peak_used"};
    case Event::kDiskNoSpace:
      return {.count = "env/disk/write_failures",
              .flight = F::kDiskFull,
              .site = Site::kEnvDiskNoSpace};
    case Event::kDiskFileTooBig:
      return {.count = "env/disk/write_failures",
              .flight = F::kFileSizeLimit,
              .site = Site::kEnvDiskFileTooBig};
    case Event::kDiskTruncate: return {.count = "env/disk/truncates"};
    case Event::kDnsBroken:
      return {.flight = F::kDnsBroken, .site = Site::kEnvDnsBroken};
    case Event::kDnsLookup: return {.count = "env/dns/lookups"};
    case Event::kDnsError:
      return {.count = "env/dns/errors", .site = Site::kEnvDnsError};
    case Event::kDnsSlow:
      return {.count = "env/dns/slow_replies", .site = Site::kEnvDnsSlow};
    case Event::kDnsReverseMiss:
      return {.count = "env/dns/reverse_misses",
              .site = Site::kEnvDnsReverseMiss};
    case Event::kLinkDegraded:
      return {.flight = F::kLinkDegraded, .site = Site::kEnvLinkDegraded};
    case Event::kCardRemoved: return {.flight = F::kCardRemoved};
    case Event::kPortBound: return {.count = "env/net/port_binds"};
    case Event::kPortDenied:
      return {.count = "env/net/port_bind_failures",
              .flight = F::kPortDenied,
              .site = Site::kEnvPortDenied};
    case Event::kPortsReleased: return {.sum = "env/net/ports_released"};
    case Event::kKernelResourceDenied:
      return {.count = "env/net/kernel_resource_denied",
              .flight = F::kKernelResourceDenied,
              .site = Site::kEnvKernelResourceDenied};
    case Event::kSchedDraw: return {.count = "env/sched/draws"};
    case Event::kSchedReplay:
      return {.count = "env/sched/replays", .site = Site::kEnvSchedReplay};
    case Event::kEntropyRead: return {.count = "env/entropy/reads"};
    case Event::kEntropyBlocked:
      return {.count = "env/entropy/blocked",
              .flight = F::kEntropyBlocked,
              .site = Site::kEnvEntropyBlocked};
    case Event::kEntropyTaken: return {.sum = "env/entropy/bits_taken"};
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
      return {.count = "app/cgi_children",
              .flight = F::kAppChildSpawned,
              .site = Site::kAppChildSpawned};
    case Event::kWebRequest:
      return {.count = "app/requests_served", .site = Site::kAppWebRequest};
    case Event::kWebCacheFill:
      return {.count = "app/cache_fills", .site = Site::kAppWebCacheFill};
    case Event::kDbQuery:
      return {.count = "app/queries_ok", .site = Site::kAppDbQuery};
    case Event::kUiEvent:
      return {.count = "app/ui_events", .site = Site::kAppUiEvent};

    case Event::kCheckpoint:
      return {.count = "checkpoints",
              .per_mechanism = true,
              .flight = F::kCheckpoint,
              .site = Site::kRecCheckpoint};
    case Event::kFailover:
      return {.count = "failovers",
              .per_mechanism = true,
              .flight = F::kFailover,
              .site = Site::kRecFailover};
    case Event::kColdRestart:
      return {.count = "cold_restarts",
              .per_mechanism = true,
              .flight = F::kColdRestart,
              .site = Site::kRecColdRestart};
    case Event::kRejuvenation:
      return {.count = "rejuvenation_cycles",
              .per_mechanism = true,
              .flight = F::kRejuvenation,
              .site = Site::kRecRejuvenation};
    case Event::kProactiveRejuvenation:
      return {.count = "proactive_rejuvenations",
              .per_mechanism = true,
              .flight = F::kRejuvenation,
              .site = Site::kRecProactiveRejuvenation};
    case Event::kRetrySanitized:
      return {.count = "retries_sanitized",
              .per_mechanism = true,
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
  std::array<EventRule, kNumEvents> rules{};
  for (std::size_t e = 0; e < kNumEvents; ++e) {
    rules[e] = rule(static_cast<Event>(e));
  }
  return rules;
}();

// The verdict probes mirror forensics::TrialVerdict one-to-one.
inline constexpr std::size_t kNumVerdicts =
    static_cast<std::size_t>(forensics::TrialVerdict::kCount);
static_assert(static_cast<std::size_t>(Site::kTrialRecoveryFailed) -
                  static_cast<std::size_t>(Site::kTrialSurvived) + 1 ==
              kNumVerdicts);

/// Where an event's numbers live in an EventTally: only events whose rule
/// names a count, a site or the inject probe are counted, and only those
/// naming a sum or a peak keep one.
struct TallyLayout {
  static constexpr std::uint8_t kNone = 0xFF;
  struct Slots {
    std::uint8_t count = kNone;
    std::uint8_t sum = kNone;
    std::uint8_t peak = kNone;
  };
  std::array<Slots, kNumEvents> of{};
  std::size_t counts = 0;
  std::size_t sums = 0;
  std::size_t peaks = 0;
};

inline constexpr TallyLayout kTallyLayout = [] {
  TallyLayout layout;
  for (std::size_t e = 0; e < kNumEvents; ++e) {
    const EventRule& r = kEventRules[e];
    TallyLayout::Slots& slots = layout.of[e];
    if (!r.count.empty() || r.site != Site::kCount || r.inject) {
      slots.count = static_cast<std::uint8_t>(layout.counts++);
    }
    if (!r.sum.empty()) slots.sum = static_cast<std::uint8_t>(layout.sums++);
    if (!r.peak.empty()) {
      slots.peak = static_cast<std::uint8_t>(layout.peaks++);
    }
  }
  return layout;
}();

/// The numeric record of one trial's event stream, or of every repeat of a
/// matrix cell that shares it: the one place the stream is counted.
/// Telemetry's counters (fold_counts) and the coverage probes (coverage_of)
/// are both read out of it at fold time. Plain integers; a trial is
/// single-threaded, so no atomics.
struct EventTally {
  std::array<std::uint64_t, kTallyLayout.counts> counts{};
  std::array<std::uint64_t, kTallyLayout.sums> sums{};
  std::array<std::uint64_t, kTallyLayout.peaks> peaks{};
  std::array<std::uint64_t, kNumVerdicts> verdicts{};

  [[gnu::always_inline]] void record(Event event, std::uint64_t a,
                                     std::uint64_t b) noexcept {
    const auto e = static_cast<std::size_t>(event);
    const TallyLayout::Slots& s = kTallyLayout.of[e];
    if (s.count != TallyLayout::kNone) ++counts[s.count];
    if (s.sum != TallyLayout::kNone) sums[s.sum] += a;
    if (s.peak != TallyLayout::kNone && b > peaks[s.peak]) peaks[s.peak] = b;
    if (kEventRules[e].per_verdict && a < kNumVerdicts) ++verdicts[a];
  }

  /// Times `event` fired; 0 for events no view counts.
  std::uint64_t count(Event event) const noexcept {
    const std::uint8_t slot = kTallyLayout.of[index(event)].count;
    return slot == TallyLayout::kNone ? 0 : counts[slot];
  }
  std::uint64_t sum(Event event) const noexcept {
    const std::uint8_t slot = kTallyLayout.of[index(event)].sum;
    return slot == TallyLayout::kNone ? 0 : sums[slot];
  }
  std::uint64_t peak(Event event) const noexcept {
    const std::uint8_t slot = kTallyLayout.of[index(event)].peak;
    return slot == TallyLayout::kNone ? 0 : peaks[slot];
  }

  bool operator==(const EventTally&) const = default;

 private:
  static constexpr std::size_t index(Event event) noexcept {
    return static_cast<std::size_t>(event);
  }
};
// One tally per matrix cell is heap-allocated on the sweep's lanes; above
// 1 KiB, glibc's malloc would consolidate its fast bins (DESIGN.md §9).
static_assert(sizeof(EventTally) < 1024);

/// Folds a tally into `registry` through the rule table: every named count
/// and sum as a counter (registered only once non-zero), every named peak
/// as a gauge, per-mechanism names under recovery/<mechanism>/ ("trial"
/// when `mechanism` is empty).
void fold_counts(const EventTally& tally, std::string_view mechanism,
                 telemetry::MetricsRegistry& registry);

/// The probes a tally marks: each rule's site gets its event's count, the
/// inject plane gets `trigger` (the trial's armed fault) times kFaultArmed's
/// count, and the verdict probes get the verdict counts.
CoverageMap coverage_of(const EventTally& tally,
                        core::Trigger trigger) noexcept;

/// The per-trial views one event stream feeds. Any member may be null; a
/// trial binds one TrialObservers into its environment
/// (env::Environment::set_observers) and everything the environment hosts
/// reaches it through Environment::observers().
struct TrialObservers {
  EventTally* tally = nullptr;
  telemetry::TrialTelemetry* telemetry = nullptr;
  forensics::FlightRecorder* flight = nullptr;

  // Always inlined: out of line (GCC outlines it as too large), the rule
  // becomes a run-time table walk at every one of the stream's million-odd
  // events per matrix instead of a constant-folded store or two.
  [[gnu::always_inline]] void emit(Event event, std::uint64_t a,
                                   std::uint64_t b) noexcept {
    const EventRule& r = kEventRules[static_cast<std::size_t>(event)];
    if (tally != nullptr) tally->record(event, a, b);
    if (telemetry != nullptr && r.latency != nullptr) {
      (telemetry->*r.latency).observe(static_cast<std::int64_t>(a));
    }
    if (flight != nullptr && r.flight != forensics::FlightCode::kCount) {
      flight->record(r.flight, a, b);
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
