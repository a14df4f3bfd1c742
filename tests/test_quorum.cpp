// Unit + property tests for quorum arithmetic and trackers — including the
// intersection property that carries the paper's §3.3 guarantee.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "quorum/quorum.hpp"

namespace wan::quorum {
namespace {

TEST(QuorumConfig, UpdateQuorumArithmetic) {
  EXPECT_EQ(QuorumConfig(10, 1).update_quorum(), 10);
  EXPECT_EQ(QuorumConfig(10, 5).update_quorum(), 6);
  EXPECT_EQ(QuorumConfig(10, 10).update_quorum(), 1);
  EXPECT_EQ(QuorumConfig(1, 1).update_quorum(), 1);
}

// "which ensures that every update for which a quorum has been obtained has
// been received by at least one manager in any check quorum" — the pigeonhole
// inequality check + update > M, swept over every admissible (M, C).
class IntersectionProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IntersectionProperty, CheckAndUpdateQuorumsIntersect) {
  const auto [m, c] = GetParam();
  const QuorumConfig cfg(m, c);
  EXPECT_TRUE(QuorumConfig::intersects(m, cfg.check_quorum(), cfg.update_quorum()));
  // Tightness: one fewer in the update quorum breaks the property.
  if (cfg.update_quorum() > 0) {
    EXPECT_FALSE(
        QuorumConfig::intersects(m, cfg.check_quorum(), cfg.update_quorum() - 1));
  }
}

// Every (M, C) of the two value grids with C <= M.
std::vector<std::tuple<int, int>> admissible_configs() {
  std::vector<std::tuple<int, int>> out;
  for (const int m : {1, 2, 3, 4, 5, 8, 10, 12, 16, 32}) {
    for (const int c : {1, 2, 3, 5, 8, 10, 16, 32}) {
      if (c <= m) out.emplace_back(m, c);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, IntersectionProperty,
                         ::testing::ValuesIn(admissible_configs()));

TEST(QuorumTracker, ReachedExactlyOnce) {
  QuorumTracker t(2);
  EXPECT_FALSE(t.reached());
  EXPECT_FALSE(t.record(HostId(1)));
  EXPECT_TRUE(t.record(HostId(2)));  // completes the quorum
  EXPECT_FALSE(t.record(HostId(3)));  // already complete: no second trigger
  EXPECT_TRUE(t.reached());
  EXPECT_EQ(t.count(), 3);
}

TEST(QuorumTracker, DuplicatesIgnored) {
  QuorumTracker t(2);
  EXPECT_FALSE(t.record(HostId(1)));
  EXPECT_FALSE(t.record(HostId(1)));  // retransmission
  EXPECT_EQ(t.count(), 1);
  EXPECT_TRUE(t.record(HostId(2)));
}

TEST(QuorumTracker, ZeroNeededIsTriviallyReached) {
  QuorumTracker t(0);
  EXPECT_TRUE(t.reached());
  EXPECT_FALSE(t.record(HostId(1)));  // never "completes" — was born complete
}

TEST(QuorumTracker, VotersPreserveOrder) {
  QuorumTracker t(3);
  t.record(HostId(5));
  t.record(HostId(2));
  t.record(HostId(9));
  EXPECT_EQ(t.voters(), (std::vector<HostId>{HostId(5), HostId(2), HostId(9)}));
  EXPECT_TRUE(t.has(HostId(2)));
  EXPECT_FALSE(t.has(HostId(3)));
}

TEST(QuorumTracker, VotesAfterQuorumKeepOrderWithoutDuplicates) {
  QuorumTracker t(2);
  EXPECT_FALSE(t.record(HostId(4)));
  EXPECT_TRUE(t.record(HostId(1)));
  EXPECT_FALSE(t.record(HostId(7)));  // late, but still a voter
  EXPECT_FALSE(t.record(HostId(1)));  // retransmissions after the quorum
  EXPECT_FALSE(t.record(HostId(7)));
  EXPECT_FALSE(t.record(HostId(3)));
  EXPECT_EQ(t.voters(),
            (std::vector<HostId>{HostId(4), HostId(1), HostId(7), HostId(3)}));
  EXPECT_EQ(t.count(), 4);
}

TEST(QuorumTracker, NeededBeyondTheReservedVoters) {
  const int needed = static_cast<int>(QuorumTracker::kReservedVoters) + 5;
  QuorumTracker t(needed);
  std::vector<HostId> expected;
  for (int i = 0; i < needed; ++i) {
    const HostId member(static_cast<std::uint32_t>(100 - i));
    EXPECT_EQ(t.record(member), i == needed - 1) << "vote " << i;
    EXPECT_FALSE(t.record(HostId(100)));  // the first voter, again
    expected.push_back(member);
    EXPECT_EQ(t.count(), i + 1);
  }
  EXPECT_TRUE(t.reached());
  EXPECT_EQ(t.voters(), expected);
}

TEST(QuorumTracker, ResetClearsState) {
  QuorumTracker t(1);
  EXPECT_TRUE(t.record(HostId(1)));
  t.reset();
  EXPECT_FALSE(t.reached());
  EXPECT_EQ(t.count(), 0);
  EXPECT_TRUE(t.record(HostId(2)));
}

}  // namespace
}  // namespace wan::quorum
