#include "quorum/quorum.hpp"

namespace wan::quorum {

QuorumConfig::QuorumConfig(int managers, int check_quorum)
    : m_(managers), c_(check_quorum) {
  WAN_REQUIRE(managers >= 1);
  WAN_REQUIRE(check_quorum >= 1 && check_quorum <= managers);
  WAN_ASSERT(intersects(m_, c_, update_quorum()));
}

bool QuorumTracker::record(HostId member) {
  if (has(member)) return false;
  voters_.push_back(member);
  // True once, on the vote that brings the count to `needed`; later votes
  // are still recorded.
  return count() == needed_;
}

}  // namespace wan::quorum
