// Trusted name service (paper §3.2, last paragraph).
//
// The protocol body assumes Managers(A) is fixed and known; the paper lifts
// that with "a trusted name service that provides each host with the set of
// managers when requested. If the set of managers changes, a scheme similar
// to the time-based expiration of cached information can be used to trigger
// a new query."
//
// NameService is the authoritative, versioned app -> managers map. The paper
// treats it as trusted and does not model its failures, so it is consulted by
// direct call rather than over the simulated network; what *is* modeled
// faithfully is the host side: ManagerResolver caches the manager set with a
// TTL on the host's local clock and re-queries when it lapses — exactly the
// mechanism the paper prescribes.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "clock/local_clock.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::ns {

/// A versioned manager-set record: Managers(A) for one application.
struct ManagerSet {
  std::vector<HostId> managers;
  std::uint64_t version = 0;
};

/// Authoritative directory. One instance per simulation.
class NameService {
 public:
  /// Registers or replaces the manager set for an application; bumps the
  /// record version.
  void set_managers(AppId app, std::vector<HostId> managers);

  /// Current record, or nullopt for unknown applications.
  [[nodiscard]] std::optional<ManagerSet> resolve(AppId app) const;

  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  std::unordered_map<AppId, ManagerSet> records_;
  /// Relaxed atomic: host threads of one process share a name service and
  /// resolve() concurrently; the count orders nothing.
  mutable std::atomic<std::uint64_t> lookups_{0};
};

/// Host-side TTL cache over the name service.
class ManagerResolver {
 public:
  ManagerResolver(const NameService& service, sim::Duration ttl)
      : service_(&service), ttl_(ttl) {}

  /// Returns the manager set for `app`, consulting the cache first, or
  /// nullptr for an unknown app. `now` is the host's local clock reading.
  /// The record is the cached one, not a copy: it stays valid until the
  /// next resolve() or clear().
  [[nodiscard]] const ManagerSet* resolve(AppId app, clk::LocalTime now);

  /// Drops all cached records (host recovery).
  void clear() { cache_.clear(); }

  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }

 private:
  struct Entry {
    ManagerSet set;
    clk::LocalTime expires{};
  };

  const NameService* service_;
  sim::Duration ttl_;
  std::unordered_map<AppId, Entry> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace wan::ns
