#include "env/environment.hpp"

namespace faultstudy::env {

Environment::Environment(const EnvironmentConfig& config)
    : config_(config),
      processes_(config.process_slots),
      fds_(config.fd_slots),
      disk_(config.disk_capacity, config.max_file_size),
      scheduler_(config.seed),
      entropy_(config.entropy_bits, config.entropy_refill_per_tick) {}

void Environment::set_observers(obs::TrialObservers* observers) noexcept {
  observers_ = observers;
  processes_.set_observers(observers);
  fds_.set_observers(observers);
  disk_.set_observers(observers);
  dns_.set_observers(observers);
  network_.set_observers(observers);
  scheduler_.set_observers(observers);
  entropy_.set_observers(observers);
  signals_.set_observers(observers);
}

}  // namespace faultstudy::env
