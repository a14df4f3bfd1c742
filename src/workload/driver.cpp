#include "workload/driver.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace wan::workload {

Driver::Driver(Scenario& scenario, DriverConfig config, std::uint64_t seed)
    : scenario_(scenario),
      config_(config),
      rng_(seed),
      manager_timer_(scenario.env().make_timer()) {
  WAN_REQUIRE(config_.access_rate_per_host > 0.0);
  WAN_REQUIRE(config_.revoke_fraction >= 0.0 && config_.revoke_fraction <= 1.0);
  WAN_REQUIRE(config_.initially_granted >= 0.0 && config_.initially_granted <= 1.0);

  const int users = scenario_.user_count();
  user_weights_.resize(static_cast<std::size_t>(users));
  for (int i = 0; i < users; ++i) {
    user_weights_[static_cast<std::size_t>(i)] =
        config_.zipf_s <= 0.0 ? 1.0 : 1.0 / std::pow(i + 1, config_.zipf_s);
  }
  intended_granted_.assign(static_cast<std::size_t>(users), false);
  access_timers_.reserve(static_cast<std::size_t>(scenario_.host_count()));
  for (int h = 0; h < scenario_.host_count(); ++h) {
    access_timers_.emplace_back(scenario_.env().make_timer());
  }
}

void Driver::start() {
  WAN_REQUIRE(!running_);
  running_ = true;

  // Initial population: grant a deterministic prefix-free random subset.
  // Each seeding grant occupies the user's in-flight slot until its quorum:
  // a later op racing a still-disseminating grant would be resolved by
  // version tie-breaks in the stores but by wall-clock order in the ground
  // truth, and the two can disagree (the grant can out-version a revoke
  // issued mid-flight). Serializing per user keeps the truth linearizable.
  const sim::TimePoint now = scenario_.env().now();
  for (int i = 0; i < scenario_.user_count(); ++i) {
    if (rng_.next_bool(config_.initially_granted)) {
      auto done = [this, i] { op_in_flight_.erase(i); };
      // Slot in before submitting: with M == 1 the quorum callback fires
      // synchronously inside grant() and must find the slot to erase.
      op_in_flight_.emplace(i, now);
      if (scenario_.grant(scenario_.user(i), -1, done)) {
        intended_granted_[static_cast<std::size_t>(i)] = true;
        ++grants_;
      } else {
        op_in_flight_.erase(i);
      }
    }
  }

  for (int h = 0; h < scenario_.host_count(); ++h) schedule_access(h);
  if (config_.manager_ops_per_second > 0.0) schedule_manager_op();
}

void Driver::stop() { running_ = false; }

int Driver::pick_user() {
  return static_cast<int>(
      weighted_pick(rng_, user_weights_.data(), user_weights_.size()));
}

void Driver::schedule_access(int host_idx) {
  const auto wait = sim::Duration::from_seconds(
      rng_.next_exponential(1.0 / config_.access_rate_per_host));
  access_timers_[static_cast<std::size_t>(host_idx)].arm(wait, [this, host_idx] {
    if (!running_) return;
    ++accesses_;
    scenario_.check(host_idx, scenario_.user(pick_user()));
    schedule_access(host_idx);
  });
}

void Driver::schedule_manager_op() {
  const auto wait = sim::Duration::from_seconds(
      rng_.next_exponential(1.0 / config_.manager_ops_per_second));
  manager_timer_.arm(wait, [this] {
    if (!running_) return;
    // One manager op per user at a time keeps the ground truth unambiguous
    // (concurrent updates to one register would make "authorized" depend on
    // version tie-breaks rather than quorum instants). Ops stranded by a
    // crashed issuer are reaped after a grace period.
    const sim::TimePoint now = scenario_.env().now();
    for (auto it = op_in_flight_.begin(); it != op_in_flight_.end();) {
      it = now - it->second >= kStuckOpLimit ? op_in_flight_.erase(it)
                                             : std::next(it);
    }
    const int user_idx = pick_user();
    if (!op_in_flight_.contains(user_idx)) {
      op_in_flight_.emplace(user_idx, now);
      const bool currently = intended_granted_[static_cast<std::size_t>(user_idx)];
      const bool do_revoke = currently && rng_.next_bool(config_.revoke_fraction);
      const bool target = currently ? !do_revoke : true;
      const UserId uid = scenario_.user(user_idx);
      auto done = [this, user_idx] { op_in_flight_.erase(user_idx); };
      if (currently && do_revoke) {
        if (scenario_.revoke(uid, -1, done)) {
          intended_granted_[static_cast<std::size_t>(user_idx)] = false;
          ++revokes_;
        } else {
          op_in_flight_.erase(user_idx);  // all managers down: op abandoned
        }
      } else if (!currently) {
        if (scenario_.grant(uid, -1, done)) {
          intended_granted_[static_cast<std::size_t>(user_idx)] = true;
          ++grants_;
        } else {
          op_in_flight_.erase(user_idx);
        }
      } else {
        (void)target;  // already granted and not revoking: no-op this tick
        op_in_flight_.erase(user_idx);
      }
    }
    schedule_manager_op();
  });
}

}  // namespace wan::workload
