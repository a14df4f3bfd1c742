#include "nameservice/name_service.hpp"

#include <utility>

#include "util/assert.hpp"

namespace wan::ns {

void NameService::set_managers(AppId app, std::vector<HostId> managers) {
  WAN_REQUIRE(!managers.empty());
  auto& rec = records_[app];
  rec.managers = std::move(managers);
  ++rec.version;
}

std::optional<ManagerSet> NameService::resolve(AppId app) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const auto it = records_.find(app);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

const ManagerSet* ManagerResolver::resolve(AppId app, clk::LocalTime now) {
  const auto it = cache_.find(app);
  if (it != cache_.end() && now < it->second.expires) {
    ++hits_;
    return &it->second.set;
  }
  ++misses_;
  std::optional<ManagerSet> fresh = service_->resolve(app);
  if (!fresh) {
    cache_.erase(app);
    return nullptr;
  }
  Entry& entry = cache_[app];
  entry = Entry{std::move(*fresh), now + ttl_};
  return &entry.set;
}

}  // namespace wan::ns
