#include "workloads.hpp"

#include <chrono>

#include "corpus/seeds.hpp"
#include "corpus/serialize.hpp"
#include "corpus/synth.hpp"
#include "forensics/triage.hpp"
#include "inject/specimen.hpp"
#include "mining/pipeline.hpp"
#include "obs/export.hpp"
#include "spans.hpp"
#include "telemetry/trial.hpp"
#include "timed_mechanism.hpp"
#include "util/rng.hpp"

namespace studybench {

namespace fs = faultstudy;
using spans::ScopedSpan;
using spans::ThreadSpan;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t app_index(fs::core::AppId app) {
  return static_cast<std::size_t>(app);
}

fs::core::ClassCounts tally(const fs::mining::PipelineResult& result) {
  return fs::core::tally(fs::mining::to_faults(result));
}

void count_mining(fs::core::AppId app,
                  const fs::mining::PipelineResult& result,
                  MiningCounts& counts) {
  const auto& f = result.filter_funnel;
  const auto& k = result.keyword_funnel;
  const bool mailing_list = k.total_messages > 0;
  counts.candidates += mailing_list ? k.threads : f.severe;
  counts.clusters += result.clusters;
  counts.unique_bugs += result.bugs.size();
  counts.funnel += std::string(fs::core::to_string(app)) + ": ";
  counts.funnel +=
      mailing_list
          ? std::to_string(k.total_messages) + " messages, " +
                std::to_string(k.keyword_hits) + " keyword hits, " +
                std::to_string(k.report_shaped) + " report-shaped, " +
                std::to_string(k.threads) + " threads"
          : std::to_string(f.total) + " reports, " +
                std::to_string(f.runtime) + " runtime, " +
                std::to_string(f.production) + " production, " +
                std::to_string(f.severe) + " severe";
  counts.funnel += ", " + std::to_string(result.clusters) + " clusters, " +
                   std::to_string(result.bugs.size()) + " unique bugs\n";
}

std::string counts_text(const fs::core::ClassCounts& c) {
  return std::to_string(c.counts[0]) + "/" + std::to_string(c.counts[1]) +
         "/" + std::to_string(c.counts[2]);
}

std::string matrix_text(const fs::harness::MatrixResult& matrix) {
  std::string out = "faults " + std::to_string(matrix.fault_count) + "\n";
  for (const auto& r : matrix.reports) {
    out += r.mechanism + (r.generic ? " generic" : " specific");
    for (std::size_t c = 0; c < 3; ++c) {
      out += " " + std::to_string(r.survived[c]) + "/" +
             std::to_string(r.total[c]);
    }
    out += " vacuous " + std::to_string(r.vacuous) + " state_losses " +
           std::to_string(r.state_losses) + "\n";
  }
  return out;
}

std::string mining_text(std::string_view app,
                        const fs::mining::PipelineResult& result) {
  const auto& f = result.filter_funnel;
  const auto& k = result.keyword_funnel;
  std::string out = std::string(app) + " funnel " + std::to_string(f.total) +
                    " " + std::to_string(f.runtime) + " " +
                    std::to_string(f.production) + " " +
                    std::to_string(f.severe) + " keyword " +
                    std::to_string(k.total_messages) + " " +
                    std::to_string(k.keyword_hits) + " " +
                    std::to_string(k.report_shaped) + " " +
                    std::to_string(k.threads) + " clusters " +
                    std::to_string(result.clusters) + " classes " +
                    counts_text(tally(result)) + "\n";
  for (const auto& bug : result.bugs) {
    out += "  " +
           std::string(fs::core::to_code(bug.classification.fault_class)) +
           " " + std::to_string(bug.bucket) + " " + bug.title + "\n";
  }
  return out;
}

fs::mining::PipelineResult run_pipeline(const fs::corpus::BugTracker& tracker,
                                        const fs::mining::PipelineOptions& o) {
  return fs::mining::run_tracker_pipeline(tracker, o);
}

fs::mining::PipelineResult run_pipeline(const fs::corpus::MailingList& list,
                                        const fs::mining::PipelineOptions& o) {
  return fs::mining::run_mailinglist_pipeline(list, o);
}

/// One mining pipeline on `lanes` lanes under its span. Traced, the
/// pipeline also records its own stage spans into a PipelineTelemetry
/// (public PipelineOptions; mined results are the same), which are added
/// to the pass's stage times.
template <class Corpus>
fs::mining::PipelineResult mine(const Corpus& corpus, fs::core::AppId app,
                                std::size_t lanes, bool traced,
                                PassResult& pass) {
  fs::mining::PipelineOptions options;
  options.threads = lanes;
  std::optional<fs::telemetry::PipelineTelemetry> telemetry;
  if (traced) options.telemetry = &telemetry.emplace();
  fs::mining::PipelineResult result;
  {
    ScopedSpan span(traced, layer_span_names().mining[app_index(app)]);
    result = run_pipeline(corpus, options);
  }
  if (!telemetry) return result;
  for (const auto& s : telemetry->spans.spans()) {
    for (std::string_view stage : {"filter", "keyword", "dedup", "classify"}) {
      if (s.name == "mine/" + std::string(stage)) {
        pass.stage_ms["mining." + std::string(stage) + "_ms"] +=
            static_cast<double>(s.duration) / 1e3;  // microseconds
      }
    }
  }
  return result;
}

PassResult study_pass(const Config& config, const Inputs& in, bool traced,
                      std::size_t lanes) {
  const LayerSpanNames& n = layer_span_names();
  PassResult pass;
  fs::report::StudyResults r;
  r.apache = mine(*in.apache, fs::core::AppId::kApache, lanes, traced, pass);
  r.gnome = mine(*in.gnome, fs::core::AppId::kGnome, lanes, traced, pass);
  r.mysql = mine(*in.mysql, fs::core::AppId::kMysql, lanes, traced, pass);
  r.all_faults = fs::mining::to_faults(r.apache);
  for (auto& f : fs::mining::to_faults(r.gnome)) r.all_faults.push_back(f);
  for (auto& f : fs::mining::to_faults(r.mysql)) r.all_faults.push_back(f);
  r.summary = fs::core::summarize(r.all_faults);

  fs::telemetry::StudyTelemetry telemetry;
  fs::harness::TrialConfig trial;
  trial.seed = config.trial_seed();
  trial.cycles = config.cycles();
  trial.threads = lanes;
  {
    ScopedSpan span(traced, n.matrix);
    std::vector<fs::harness::NamedMechanism> timed;
    if (traced) timed = timed_roster(in.roster, span.id());
    const auto& roster = traced ? timed : in.roster;
    const auto t0 = std::chrono::steady_clock::now();
    r.matrix = fs::harness::run_matrix(in.seeds, roster, trial, kMatrixRepeats,
                                       &telemetry, &r.forensics, &r.coverage);
    pass.matrix_s = seconds_since(t0);
  }
  {
    ScopedSpan span(traced, n.export_);
    fs::obs::export_gauges(r.coverage, telemetry.metrics);
    r.telemetry = telemetry.metrics.snapshot();
  }
  {
    ScopedSpan span(traced, n.triage);
    r.triage = fs::forensics::triage(r.forensics.postmortems);
  }
  {
    ScopedSpan span(traced, n.render);
    pass.output = fs::report::render_markdown(r);
  }
  pass.tables = {tally(r.apache), tally(r.gnome), tally(r.mysql)};
  count_mining(fs::core::AppId::kApache, r.apache, pass.mining);
  count_mining(fs::core::AppId::kGnome, r.gnome, pass.mining);
  count_mining(fs::core::AppId::kMysql, r.mysql, pass.mining);
  pass.study = std::move(r);
  return pass;
}

PassResult matrix_long_pass(const Config& config, const Inputs& in,
                            bool traced) {
  PassResult pass;
  fs::harness::TrialConfig trial;
  trial.seed = config.trial_seed();
  trial.cycles = config.cycles();
  trial.threads = 1;
  ScopedSpan span(traced, layer_span_names().matrix);
  std::vector<fs::harness::NamedMechanism> timed;
  if (traced) timed = timed_roster(in.roster, span.id());
  const auto& roster = traced ? timed : in.roster;
  const auto t0 = std::chrono::steady_clock::now();
  const auto matrix =
      fs::harness::run_matrix(in.seeds, roster, trial, kMatrixRepeats);
  pass.matrix_s = seconds_since(t0);
  pass.output = matrix_text(matrix);
  return pass;
}

PassResult mining_ingest_pass(const Inputs& in, bool traced) {
  const LayerSpanNames& n = layer_span_names();
  PassResult pass;
  const auto parse_tracker = [&](const std::string& dump) {
    ScopedSpan span(traced, n.parse);
    return fs::corpus::tracker_from_text(dump);
  };
  auto apache = parse_tracker(in.apache_dump);
  auto gnome = parse_tracker(in.gnome_dump);
  auto mysql = [&] {
    ScopedSpan span(traced, n.parse);
    return fs::corpus::mailinglist_from_mbox(in.mysql_mbox);
  }();
  if (!apache.ok() || !gnome.ok() || !mysql.ok()) {
    pass.output = "parse error";
    return pass;
  }
  const fs::mining::PipelineResult results[3] = {
      mine(apache.value(), fs::core::AppId::kApache, 1, traced, pass),
      mine(gnome.value(), fs::core::AppId::kGnome, 1, traced, pass),
      mine(mysql.value(), fs::core::AppId::kMysql, 1, traced, pass)};
  for (fs::core::AppId app : fs::core::kAllApps) {
    const auto& result = results[app_index(app)];
    pass.tables[app_index(app)] = tally(result);
    count_mining(app, result, pass.mining);
    pass.output += mining_text(fs::core::to_string(app), result);
  }
  return pass;
}

}  // namespace

const LayerSpanNames& layer_span_names() {
  using spans::intern;
  static const LayerSpanNames names{
      intern("pass"),
      intern("corpus.synth"),
      intern("corpus.serialize"),
      intern("corpus.parse"),
      {intern("mining.apache"), intern("mining.gnome"), intern("mining.mysql")},
      intern("harness.run_matrix"),
      intern("obs.export"),
      intern("forensics.triage"),
      intern("report.render"),
      intern("inject.plan"),
      {intern("apps.apache.start"), intern("apps.gnome.start"),
       intern("apps.mysql.start")}};
  return names;
}

std::array<fs::core::ClassCounts, 3> paper_tables() {
  return {fs::core::ClassCounts{{36, 7, 7}}, fs::core::ClassCounts{{39, 3, 3}},
          fs::core::ClassCounts{{38, 4, 2}}};
}

Inputs make_inputs(const Config& config, bool traced) {
  const LayerSpanNames& n = layer_span_names();
  Inputs in;
  if (config.workload != Workload::kMiningIngest) {
    in.seeds = fs::corpus::all_seeds();
    in.roster = fs::harness::standard_mechanisms();
  }
  if (config.workload == Workload::kMatrixLong) return in;

  fs::corpus::SynthConfig synth;
  synth.seed = config.corpus_seed();
  {
    ScopedSpan span(traced, n.synth);
    in.apache = fs::corpus::make_apache_tracker(synth);
    in.gnome = fs::corpus::make_gnome_tracker(synth);
    in.mysql = fs::corpus::make_mysql_list(synth);
  }
  in.reports = in.apache->size() + in.gnome->size() + in.mysql->size();
  if (config.workload == Workload::kMiningIngest) {
    ScopedSpan span(traced, n.serialize);
    in.apache_dump = fs::corpus::tracker_to_text(*in.apache);
    in.gnome_dump = fs::corpus::tracker_to_text(*in.gnome);
    in.mysql_mbox = fs::corpus::mailinglist_to_mbox(*in.mysql);
    in.apache.reset();
    in.gnome.reset();
    in.mysql.reset();
  }
  return in;
}

PassResult run_pass(const Config& config, const Inputs& inputs, bool traced,
                    std::size_t lanes) {
  ScopedSpan span(traced, layer_span_names().pass);
  switch (config.workload) {
    case Workload::kStudy: return study_pass(config, inputs, traced, lanes);
    case Workload::kMatrixLong:
      return matrix_long_pass(config, inputs, traced);
    case Workload::kMiningIngest: return mining_ingest_pass(inputs, traced);
  }
  return {};
}

double run_bare_matrix(const Config& config, const Inputs& inputs) {
  fs::harness::TrialConfig trial;
  trial.seed = config.trial_seed();
  trial.cycles = config.cycles();
  trial.threads = config.lanes;
  const auto t0 = std::chrono::steady_clock::now();
  (void)fs::harness::run_matrix(inputs.seeds, inputs.roster, trial,
                                kMatrixRepeats);
  return seconds_since(t0);
}

void replay_injection_plans(const Config& config, const Inputs& inputs) {
  // The per-trial seeds run_matrix derives for each (mechanism, fault,
  // repeat) cell.
  ThreadSpan span(layer_span_names().plan);
  for (std::size_t m = 0; m < inputs.roster.size(); ++m) {
    for (const auto& seed : inputs.seeds) {
      for (int r = 0; r < kMatrixRepeats; ++r) {
        const std::uint64_t trial_seed =
            config.trial_seed() + static_cast<std::uint64_t>(r) * 7919 +
            fs::util::fnv1a(seed.fault_id);
        (void)fs::inject::plan_for(seed, trial_seed);
      }
    }
  }
}

bool microbench_app_start(int calls) {
  bool ok = true;
  for (fs::core::AppId app : fs::core::kAllApps) {
    for (int i = 0; i < calls; ++i) {
      ThreadSpan span(layer_span_names().app_start[app_index(app)]);
      fs::env::Environment environment;
      auto sim = fs::inject::make_app(app);
      ok = sim->start(environment) && ok;
    }
  }
  return ok;
}

}  // namespace studybench
