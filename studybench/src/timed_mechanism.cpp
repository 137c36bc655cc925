#include "timed_mechanism.hpp"

#include <atomic>
#include <memory>

namespace studybench {

namespace {

namespace recovery = faultstudy::recovery;

std::atomic<std::uint32_t> g_next_trial{1};

class TimedMechanism final : public recovery::Mechanism {
 public:
  TimedMechanism(const faultstudy::harness::MechanismFactory& make,
                 std::uint16_t recover_name, spans::SpanId parent)
      : names_(trial_span_names()), recover_name_(recover_name) {
    spans::open(names_.trial, parent,
                g_next_trial.fetch_add(1, std::memory_order_relaxed));
    spans::open(names_.start);
    inner_ = make();
  }

  ~TimedMechanism() override {
    inner_.reset();
    if (attached_) {
      spans::close();
    } else if (asked_generic_) {
      spans::discard();
      spans::close_as(names_.probe);
    } else {
      spans::close();
      spans::close_as(names_.start_failure);
    }
  }

  TimedMechanism(const TimedMechanism&) = delete;
  TimedMechanism& operator=(const TimedMechanism&) = delete;

  std::string_view name() const noexcept override { return inner_->name(); }

  bool is_generic() const noexcept override {
    if (!attached_) asked_generic_ = true;
    return inner_->is_generic();
  }

  bool preserves_state() const noexcept override {
    return inner_->preserves_state();
  }

  void attach(faultstudy::apps::SimApp& app,
              faultstudy::env::Environment& e) override {
    spans::close();  // start
    attached_ = true;
    spans::open(names_.attach);
    inner_->attach(app, e);
    spans::close();
  }

  void on_item_success(faultstudy::apps::SimApp& app,
                       faultstudy::env::Environment& e) override {
    spans::open(names_.checkpoint);
    inner_->on_item_success(app, e);
    spans::close();
  }

  recovery::RecoveryAction recover(faultstudy::apps::SimApp& app,
                                   faultstudy::env::Environment& e) override {
    spans::open(recover_name_);
    const recovery::RecoveryAction action = inner_->recover(app, e);
    spans::close(action.recovered ? 1 : 0);
    return action;
  }

  void prepare_retry(faultstudy::apps::WorkItem& item) override {
    spans::open(names_.prepare_retry);
    inner_->prepare_retry(item);
    spans::close();
  }

 private:
  const TrialSpanNames& names_;
  std::uint16_t recover_name_;
  std::unique_ptr<recovery::Mechanism> inner_;
  bool attached_ = false;
  mutable bool asked_generic_ = false;
};

}  // namespace

const TrialSpanNames& trial_span_names() {
  static const TrialSpanNames names{
      spans::intern("trial"),      spans::intern("probe"),
      spans::intern("start_failure"), spans::intern("start"),
      spans::intern("attach"),     spans::intern("checkpoint"),
      spans::intern("prepare_retry")};
  return names;
}

std::uint16_t recover_span_name(const std::string& mechanism) {
  return spans::intern("recover." + mechanism);
}

std::vector<faultstudy::harness::NamedMechanism> timed_roster(
    const std::vector<faultstudy::harness::NamedMechanism>& roster,
    spans::SpanId parent) {
  (void)trial_span_names();
  std::vector<faultstudy::harness::NamedMechanism> timed;
  timed.reserve(roster.size());
  for (const auto& entry : roster) {
    const std::uint16_t recover_name = recover_span_name(entry.name);
    timed.push_back(
        {entry.name, [make = entry.make, recover_name, parent] {
           return std::unique_ptr<recovery::Mechanism>(
               std::make_unique<TimedMechanism>(make, recover_name, parent));
         }});
  }
  return timed;
}

}  // namespace studybench
