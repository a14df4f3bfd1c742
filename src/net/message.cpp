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

// Set once the thread's ExitGuard is gone: no list may register after that.
thread_local bool exit_guard_done = false;

// Drains every free list the thread registered when the thread exits, and
// closes them, so a message released later in the thread's teardown goes
// straight to the heap. Constructed at the thread's first pooled release.
struct ExitGuard {
  std::vector<detail::FreeList*> lists;

  ~ExitGuard() {
    exit_guard_done = true;
    for (detail::FreeList* list : lists) {
      list->closed = true;
      while (void* block = detail::pop(*list)) ::operator delete(block);
    }
  }
};

thread_local ExitGuard exit_guard;

}  // namespace

bool detail::guard_on_exit(FreeList& list) noexcept {
  if (exit_guard_done) return false;
  try {
    exit_guard.lists.push_back(&list);
  } catch (...) {
    return false;
  }
  list.guarded = true;
  return true;
}

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
