#include "net/message.hpp"

#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

namespace wan::net {

namespace {

// Interning registry. Guarded by a mutex because the threaded runtime calls
// intern() from several threads during static-local initialization; the
// lock is off the steady-state hot path (each message class interns once).
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> by_name;
  std::vector<const std::string*> names;  ///< stable: points into by_name keys
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

TypeId TypeId::intern(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto [it, inserted] = r.by_name.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.names.size()));
  if (inserted) r.names.push_back(&it->first);
  return TypeId(it->second);
}

const std::string& TypeId::name_of(std::uint32_t value) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  WAN_REQUIRE(value < r.names.size());
  return *r.names[value];
}

}  // namespace wan::net
