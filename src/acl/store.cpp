#include "acl/store.hpp"

#include <algorithm>

namespace wan::acl {

bool AclStore::apply(const AclUpdate& update) {
  if (update.version > max_version_) max_version_ = update.version;
  RegisterState& reg = reg_of(users_[update.user], update.right);
  if (!(update.version > reg.version)) return false;
  reg.version = update.version;
  reg.granted = update.op == Op::kAdd;
  return true;
}

bool AclStore::check(UserId user, Right right) const {
  const auto it = users_.find(user);
  if (it == users_.end()) return false;
  return reg_of(it->second, right).granted;
}

RightSet AclStore::rights_of(UserId user) const {
  RightSet set;
  const auto it = users_.find(user);
  if (it == users_.end()) return set;
  if (it->second.use.granted) set.add(Right::kUse);
  if (it->second.manage.granted) set.add(Right::kManage);
  return set;
}

std::optional<RegisterState> AclStore::state(UserId user, Right right) const {
  const auto it = users_.find(user);
  if (it == users_.end()) return std::nullopt;
  const RegisterState& reg = reg_of(it->second, right);
  if (reg.version.initial()) return std::nullopt;
  return reg;
}

std::vector<AclUpdate> AclStore::snapshot() const {
  std::vector<AclUpdate> out;
  out.reserve(users_.size() * 2);
  for (const auto& [user, regs] : users_) {
    for (const Right r : {Right::kUse, Right::kManage}) {
      const RegisterState& reg = reg_of(regs, r);
      if (reg.version.initial()) continue;
      out.push_back(AclUpdate{user, r, reg.granted ? Op::kAdd : Op::kRevoke,
                              reg.version});
    }
  }
  std::sort(out.begin(), out.end(), [](const AclUpdate& a, const AclUpdate& b) {
    if (a.user != b.user) return a.user < b.user;
    return static_cast<int>(a.right) < static_cast<int>(b.right);
  });
  return out;
}

std::size_t AclStore::merge(const std::vector<AclUpdate>& updates) {
  std::size_t changed = 0;
  for (const AclUpdate& u : updates) {
    if (apply(u)) ++changed;
  }
  return changed;
}

std::vector<UserId> AclStore::granted_users() const {
  std::vector<UserId> out;
  for (const auto& [user, regs] : users_) {
    if (regs.use.granted || regs.manage.granted) out.push_back(user);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t AclStore::register_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [user, regs] : users_) {
    if (!regs.use.version.initial()) ++n;
    if (!regs.manage.version.initial()) ++n;
  }
  return n;
}

}  // namespace wan::acl
