// Poisson workload driver.
//
// Generates the paper's assumed load shape: access checks arrive at each
// application host as a Poisson process (frequency "much higher" than manager
// operations), users are picked uniformly or Zipf-skewed, and a background
// manager-operation process grants/revokes users at a low rate. Every
// operation is serialized per user (at most one in-flight grant/revoke per
// user) so the ground-truth timeline is unambiguous.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "runtime/env.hpp"
#include "workload/scenario.hpp"

namespace wan::workload {

struct DriverConfig {
  double access_rate_per_host = 2.0;  ///< Poisson, checks/second/host
  double zipf_s = 0.0;                ///< 0 = uniform user popularity
  double manager_ops_per_second = 0.05;  ///< grants+revokes, whole system
  double revoke_fraction = 0.5;       ///< manager op mix
  double initially_granted = 0.5;     ///< fraction of users granted up front
};

class Driver {
 public:
  Driver(Scenario& scenario, DriverConfig config, std::uint64_t seed);

  /// Issues the initial grants and starts the arrival processes. Call once,
  /// then Scenario::run_for().
  void start();

  /// Stops generating new events (in-flight ones complete).
  void stop();

  [[nodiscard]] std::uint64_t accesses_issued() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t grants_issued() const noexcept { return grants_; }
  [[nodiscard]] std::uint64_t revokes_issued() const noexcept { return revokes_; }

 private:
  void schedule_access(int host_idx);
  void schedule_manager_op();
  [[nodiscard]] int pick_user();

  Scenario& scenario_;
  DriverConfig config_;
  Rng rng_;
  std::vector<double> user_weights_;
  std::vector<bool> intended_granted_;
  /// Users with a pending manager op, by issue time. An op whose issuing
  /// manager crashed mid-flight never completes; entries older than
  /// kStuckOpLimit are reaped so the user can receive operations again.
  std::unordered_map<int, sim::TimePoint> op_in_flight_;
  static constexpr sim::Duration kStuckOpLimit = sim::Duration::minutes(5);
  std::vector<runtime::Timer> access_timers_;
  runtime::Timer manager_timer_;
  bool running_ = false;
  std::uint64_t accesses_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t revokes_ = 0;
};

}  // namespace wan::workload
