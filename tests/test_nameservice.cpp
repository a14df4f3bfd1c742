// Unit tests for the trusted name service and the TTL-caching resolver.
#include <gtest/gtest.h>

#include <thread>

#include "nameservice/name_service.hpp"

namespace wan::ns {
namespace {

using clk::LocalTime;
using sim::Duration;

TEST(NameService, UnknownAppResolvesEmpty) {
  NameService svc;
  EXPECT_FALSE(svc.resolve(AppId(1)).has_value());
}

TEST(NameService, SetAndResolve) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1), HostId(2)});
  const auto rec = svc.resolve(AppId(1));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->managers, (std::vector<HostId>{HostId(1), HostId(2)}));
  EXPECT_EQ(rec->version, 1u);
}

TEST(NameService, ReplaceBumpsVersion) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1)});
  svc.set_managers(AppId(1), {HostId(2), HostId(3)});
  const auto rec = svc.resolve(AppId(1));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->version, 2u);
  EXPECT_EQ(rec->managers.size(), 2u);
}

TEST(NameService, AppsIndependent) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1)});
  svc.set_managers(AppId(2), {HostId(2)});
  EXPECT_EQ(svc.resolve(AppId(1))->managers.front(), HostId(1));
  EXPECT_EQ(svc.resolve(AppId(2))->managers.front(), HostId(2));
}

// Host threads of one process share a name service (one ManagerResolver
// each), so resolve() runs concurrently; the lookup count must neither race
// (the TSan CI job runs this) nor lose increments.
TEST(NameService, ConcurrentResolveCountsEveryLookup) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1), HostId(2)});
  constexpr int kPerThread = 2000;
  const auto hammer = [&svc] {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(svc.resolve(AppId(1)).has_value());
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(svc.lookups(), 2u * kPerThread);
}

TEST(ManagerResolver, CachesWithinTtl) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1)});
  ManagerResolver resolver(svc, Duration::minutes(10));
  const LocalTime t0 = LocalTime::from_nanos(0);
  EXPECT_NE(resolver.resolve(AppId(1), t0), nullptr);
  const auto before = svc.lookups();
  // Within the TTL the service is not consulted again.
  EXPECT_NE(resolver.resolve(AppId(1), t0 + Duration::minutes(5)), nullptr);
  EXPECT_EQ(svc.lookups(), before);
  EXPECT_EQ(resolver.cache_hits(), 1u);
}

TEST(ManagerResolver, TtlExpiryTriggersRequery) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1)});
  ManagerResolver resolver(svc, Duration::minutes(10));
  const LocalTime t0 = LocalTime::from_nanos(0);
  (void)resolver.resolve(AppId(1), t0);  // warm the cache
  // Manager set changes; resolver only notices after the TTL lapses — the
  // paper's "scheme similar to the time-based expiration" (§3.2).
  svc.set_managers(AppId(1), {HostId(7)});
  EXPECT_EQ(resolver.resolve(AppId(1), t0 + Duration::minutes(9))->managers.front(),
            HostId(1));
  EXPECT_EQ(resolver.resolve(AppId(1), t0 + Duration::minutes(10))->managers.front(),
            HostId(7));
}

TEST(ManagerResolver, UnknownAppNotCached) {
  NameService svc;
  ManagerResolver resolver(svc, Duration::minutes(10));
  const LocalTime t0 = LocalTime::from_nanos(0);
  EXPECT_EQ(resolver.resolve(AppId(1), t0), nullptr);
  svc.set_managers(AppId(1), {HostId(1)});
  // A negative result must not stick for the TTL.
  EXPECT_NE(resolver.resolve(AppId(1), t0 + Duration::seconds(1)), nullptr);
}

TEST(ManagerResolver, ClearForcesRequery) {
  NameService svc;
  svc.set_managers(AppId(1), {HostId(1)});
  ManagerResolver resolver(svc, Duration::hours(10));
  const LocalTime t0 = LocalTime::from_nanos(0);
  (void)resolver.resolve(AppId(1), t0);  // warm the cache
  svc.set_managers(AppId(1), {HostId(2)});
  resolver.clear();  // host recovery
  EXPECT_EQ(resolver.resolve(AppId(1), t0)->managers.front(), HostId(2));
}

}  // namespace
}  // namespace wan::ns
