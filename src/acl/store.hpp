// Authoritative access-control list, as held by managers.
//
// One AclStore per (manager, application). State is a last-writer-wins
// register per (user, right): {granted?, version}. The register formulation
// is what makes every replication path in the system convergent — applying
// the same set of updates in any order yields the same store, which the
// property tests assert.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "acl/rights.hpp"
#include "acl/version.hpp"
#include "util/ids.hpp"

namespace wan::acl {

/// The two manager operations from §2.3.
enum class Op : std::uint8_t { kAdd, kRevoke };

[[nodiscard]] constexpr const char* to_cstring(Op op) noexcept {
  return op == Op::kAdd ? "Add" : "Revoke";
}

/// One versioned update to a single (user, right) register. This is both the
/// wire format of manager dissemination and the unit of anti-entropy sync.
struct AclUpdate {
  UserId user{};
  Right right = Right::kUse;
  Op op = Op::kAdd;
  Version version{};

  bool operator==(const AclUpdate&) const = default;
};

/// State of one (user, right) register.
struct RegisterState {
  bool granted = false;
  Version version{};
};

class AclStore {
 public:
  /// Applies an update; returns true if it changed the register (i.e. its
  /// version was strictly newer than the stored one). Stale updates are
  /// ignored — idempotent, commutative, associative.
  bool apply(const AclUpdate& update);

  /// Does `user` currently hold `right`?
  [[nodiscard]] bool check(UserId user, Right right) const;

  /// All rights currently granted to `user`.
  [[nodiscard]] RightSet rights_of(UserId user) const;

  /// Register state, if the (user,right) register was ever written.
  [[nodiscard]] std::optional<RegisterState> state(UserId user, Right right) const;

  /// The freshest version across the whole store — used by managers to pick
  /// counters for new updates that dominate everything they have seen.
  [[nodiscard]] Version max_version() const noexcept { return max_version_; }

  /// Serializes every written register as an update (for recovery sync and
  /// anti-entropy). Deterministic order (by user id, then right).
  [[nodiscard]] std::vector<AclUpdate> snapshot() const;

  /// Merges a snapshot; returns the number of registers that changed.
  std::size_t merge(const std::vector<AclUpdate>& updates);

  /// Users with at least one granted right.
  [[nodiscard]] std::vector<UserId> granted_users() const;

  [[nodiscard]] std::size_t register_count() const noexcept;

 private:
  struct UserRegisters {
    RegisterState use;
    RegisterState manage;
  };
  static const RegisterState& reg_of(const UserRegisters& u, Right r) noexcept {
    return r == Right::kUse ? u.use : u.manage;
  }
  static RegisterState& reg_of(UserRegisters& u, Right r) noexcept {
    return r == Right::kUse ? u.use : u.manage;
  }

  std::unordered_map<UserId, UserRegisters> users_;
  Version max_version_{};
};

}  // namespace wan::acl
