// Quorum arithmetic and trackers (paper §3.3).
//
// For M managers and a check quorum of C, the update quorum is M - C + 1:
// any C-subset and any (M-C+1)-subset of managers intersect, so a completed
// update is visible in every successful check. QuorumConfig encodes the
// arithmetic; QuorumTracker collects responses/acks from *distinct* managers
// and reports when a quorum has been assembled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/ids.hpp"

namespace wan::quorum {

/// Validated (M, C) pair.
class QuorumConfig {
 public:
  /// C must be in [1, M]. C == M means updates succeed with one manager
  /// (update quorum 1) but checks need all managers; C == 1 means maximal
  /// check availability but updates must reach every manager.
  QuorumConfig(int managers, int check_quorum);

  [[nodiscard]] int managers() const noexcept { return m_; }
  [[nodiscard]] int check_quorum() const noexcept { return c_; }
  [[nodiscard]] int update_quorum() const noexcept { return m_ - c_ + 1; }

  /// The defining property: every check quorum intersects every update
  /// quorum. True by construction; exposed so the property tests can sweep it.
  [[nodiscard]] static bool intersects(int m, int check, int update) noexcept {
    return check + update > m;
  }

 private:
  int m_;
  int c_;
};

/// Collects votes from distinct members until `needed` have been gathered.
/// Duplicate votes from the same member are ignored (retransmissions).
/// M is a handful, so the voters live in one flat vector, reserved up front
/// and searched linearly: a vote allocates nothing.
class QuorumTracker {
 public:
  /// Voter capacity reserved at construction; more votes still fit.
  static constexpr std::size_t kReservedVoters = 8;

  explicit QuorumTracker(int needed) : needed_(needed) {
    WAN_REQUIRE(needed >= 0);
    voters_.reserve(kReservedVoters);
  }

  /// Records a vote; returns true if this vote completed the quorum (exactly
  /// once — later votes return false).
  bool record(HostId member);

  [[nodiscard]] bool reached() const noexcept { return count() >= needed_; }
  [[nodiscard]] int count() const noexcept { return static_cast<int>(voters_.size()); }
  [[nodiscard]] int needed() const noexcept { return needed_; }
  [[nodiscard]] bool has(HostId member) const {
    return std::find(voters_.begin(), voters_.end(), member) != voters_.end();
  }

  /// Members that have voted, in insertion order.
  [[nodiscard]] const std::vector<HostId>& voters() const noexcept { return voters_; }

  /// Forgets every vote (the reserved capacity stays).
  void reset() noexcept { voters_.clear(); }

  /// Sets the threshold of the next quorum, so one tracker can serve a
  /// sequence of quorums without reallocating; pair with reset().
  void set_needed(int needed) {
    WAN_REQUIRE(needed >= 0);
    needed_ = needed;
  }

 private:
  int needed_;
  std::vector<HostId> voters_;
};

}  // namespace wan::quorum
