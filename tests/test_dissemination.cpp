// The revocation-dissemination strategies (src/proto/dissemination.hpp):
// frame economics of the coalesced strategy against the unicast reference,
// the batch cap, and the Te bound for an unreachable destination. The
// conformance sweeps prove the strategies DECIDE identically; this suite
// proves the coalesced one is actually cheaper and fails safely.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/partition_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/host.hpp"
#include "proto/wire.hpp"
#include "runtime/backend.hpp"
#include "runtime/env_options.hpp"
#include "runtime/threaded_env.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using proto::AccessDecision;
using runtime::DisseminationKind;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

ScenarioConfig dissemination_config(DisseminationKind kind, int app_hosts) {
  ScenarioConfig cfg;
  cfg.managers = 3;
  cfg.app_hosts = app_hosts;
  cfg.users = 16;
  cfg.partitions = ScenarioConfig::Partitions::kScripted;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(10);
  cfg.protocol.check_quorum = 2;
  cfg.protocol.Te = Duration::seconds(30);
  cfg.protocol.clock_bound_b = 1.0;
  cfg.protocol.query_timeout = Duration::seconds(1);
  cfg.protocol.revoke_retransmit = Duration::millis(500);
  cfg.protocol.cache_sweep_period = Duration::seconds(5);
  cfg.protocol.dissemination = kind;
  cfg.seed = 7;
  return cfg;
}

// ------------------------------------------------------- frame economics

struct FanoutCost {
  std::uint64_t frames = 0;  ///< wan_revoke_fanout_frames_total delta
  std::uint64_t rights = 0;  ///< wan_revoke_coalesced_rights delta
};

/// Grants 4 users, caches them on every one of 32 hosts, then revokes all 4
/// at once and measures the dissemination frames the whole deployment spent
/// (3 managers each fan out to their full grant tables). Counters are
/// process-global, so the cost is measured as a delta around the revocation.
FanoutCost mass_revocation_cost(DisseminationKind kind) {
  constexpr int kHosts = 32;
  constexpr int kUsers = 4;
  Scenario s(dissemination_config(kind, kHosts));
  for (int u = 0; u < kUsers; ++u) s.grant(s.user(u), 0);
  s.run_for(Duration::seconds(2));
  for (int h = 0; h < kHosts; ++h) {
    for (int u = 0; u < kUsers; ++u) s.check(h, s.user(u));
  }
  s.run_for(Duration::seconds(5));
  for (int h = 0; h < kHosts; ++h) {
    EXPECT_EQ(s.host(h).controller().cache(s.app())->size(),
              static_cast<std::size_t>(kUsers))
        << "host " << h << " cache not fully populated before the revocation";
  }

  FanoutCost cost;
  cost.frames = counter("wan_revoke_fanout_frames_total");
  cost.rights = counter("wan_revoke_coalesced_rights");
  for (int u = 0; u < kUsers; ++u) s.revoke(s.user(u), 0);
  s.run_for(Duration::seconds(10));
  cost.frames = counter("wan_revoke_fanout_frames_total") - cost.frames;
  cost.rights = counter("wan_revoke_coalesced_rights") - cost.rights;

  // The revocation must actually have landed everywhere and fully drained.
  for (int h = 0; h < kHosts; ++h) {
    EXPECT_EQ(s.host(h).controller().cache(s.app())->size(), 0u)
        << "host " << h << " still caches a revoked right";
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(s.manager(m).manager().inflight_revocations(), 0u)
        << "manager " << m << " did not drain its dissemination state";
  }
  return cost;
}

// The headline economics claim: with 32 cached hosts, coalescing revokes
// into RevokeBatch frames spends at least 3x fewer frames per mass
// revocation than the paper's unicast loop, while delivering the identical
// outcome (asserted inside the helper).
TEST(DisseminationFrames, CollectiveStrategiesCutFramesAtLeast3x) {
  const FanoutCost unicast = mass_revocation_cost(DisseminationKind::kUnicast);
  const FanoutCost coalesced =
      mass_revocation_cost(DisseminationKind::kCoalesced);

  ASSERT_GT(unicast.frames, 0u);
  ASSERT_GT(coalesced.frames, 0u);
  EXPECT_GE(unicast.frames, 3 * coalesced.frames)
      << "coalesced dissemination is not >=3x cheaper than unicast";

  // Unicast never batches, so it must not touch the coalescing counter;
  // coalesced frames carry several rights each.
  EXPECT_EQ(unicast.rights, 0u);
  EXPECT_GT(coalesced.rights, coalesced.frames);
}

// ----------------------------------------------------- Te bound

void cache_user_everywhere(Scenario& s, UserId user) {
  ASSERT_TRUE(s.grant(user, 0));
  s.run_for(Duration::seconds(2));
  for (int h = 0; h < s.host_count(); ++h) s.check(h, user);
  s.run_for(Duration::seconds(3));
  for (int h = 0; h < s.host_count(); ++h) {
    ASSERT_EQ(s.host(h).controller().cache(s.app())->size(), 1u);
  }
}

// An unreachable destination must cost the bound, never more: every
// reachable host flushes at once, the isolated host's copy expires on its
// local clock by Te (the delivery-leak oracle's argument), and the managers
// retire the unreachable destination instead of retrying forever.
TEST(CoalescedDissemination, IsolatedHostExpiresByTeAndIsRetired) {
  Scenario s(dissemination_config(DisseminationKind::kCoalesced, 4));
  cache_user_everywhere(s, s.user(0));

  // Cut host 0 off from the whole world, THEN revoke.
  s.scripted().isolate(s.host_ids()[0], s.all_site_ids());
  ASSERT_TRUE(s.revoke(s.user(0), 0));
  s.run_for(Duration::seconds(3));
  for (int h = 1; h < s.host_count(); ++h) {
    EXPECT_EQ(s.host(h).controller().cache(s.app())->size(), 0u)
        << "host " << h << " was not flushed";
  }
  // The isolated host still holds its copy — the leak the bound absorbs.
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_GT(s.manager(m).manager().inflight_revocations(), 0u)
        << "manager " << m << " stopped retrying before the deadline";
  }

  // By Te (plus sweep slack) the copy has expired and the managers have
  // retired the unreachable destination.
  s.run_for(s.config().protocol.Te + Duration::seconds(12));
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 0u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(s.manager(m).manager().inflight_revocations(), 0u);
  }
}

// ------------------------------------------------------ coalesced basics

// The batch cap: 65 rights revoked inside one flush window leave every
// manager as exactly two RevokeBatch frames per cached host, a full one of
// 64 rights sent the moment the cap is reached and one carrying the
// leftover right when the window closes.
TEST(CoalescedDissemination, SixtyFiveRightsSplitIntoAFullBatchAndTheRest) {
  constexpr int kUsers = 65;
  ScenarioConfig cfg = dissemination_config(DisseminationKind::kCoalesced, 2);
  cfg.users = kUsers;
  Scenario s(cfg);
  for (int u = 0; u < kUsers; ++u) ASSERT_TRUE(s.grant(s.user(u), 0));
  s.run_for(Duration::seconds(2));
  for (int h = 0; h < s.host_count(); ++h) {
    for (int u = 0; u < kUsers; ++u) s.check(h, s.user(u));
  }
  s.run_for(Duration::seconds(3));
  for (int h = 0; h < s.host_count(); ++h) {
    ASSERT_EQ(s.host(h).controller().cache(s.app())->size(),
              static_cast<std::size_t>(kUsers));
  }

  obs::Tracer tracer;
  {
    const obs::TracerScope scope(&tracer);
    for (int u = 0; u < kUsers; ++u) ASSERT_TRUE(s.revoke(s.user(u), 0));
    s.run_for(Duration::seconds(1));
  }
  // (manager, host) -> rights carried by each frame, in send order.
  std::map<std::pair<std::uint32_t, std::int64_t>, std::vector<std::int64_t>>
      frames;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::strcmp(e.name, "revoke_fanout") == 0) {
      frames[{e.node, e.a0}].push_back(e.a1);
    }
  }
  EXPECT_EQ(frames.size(), static_cast<std::size_t>(3 * s.host_count()));
  for (const auto& [link, rights] : frames) {
    EXPECT_EQ(rights, (std::vector<std::int64_t>{64, 1}))
        << "manager " << link.first << " -> host " << link.second;
  }
  for (int h = 0; h < s.host_count(); ++h) {
    EXPECT_EQ(s.host(h).controller().cache(s.app())->size(), 0u);
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(s.manager(m).manager().inflight_revocations(), 0u);
  }
}

// --------------------------------------------- threaded smoke (TSan job)

// The coalesced strategy owns timers and retransmission state driven from a
// real event-loop thread while acks arrive from peer nodes through the
// loopback fabric and the test thread drives them through run_sync. This
// deployment mirrors the conformance harness in miniature so the TSan CI
// job can race-check the dissemination path end-to-end: grant, cache on
// every host, revoke, drain.
TEST(DisseminationThreaded, CollectiveRevocationOverLoopbackFabric) {
  proto::register_wire_messages();
  runtime::EnvOptions opts;
  opts.backend = runtime::BackendKind::kLoopback;
  opts.delay = Duration::millis(1);
  std::string error;
  auto fabric = runtime::make_fabric(opts, &error);
  ASSERT_NE(fabric, nullptr) << error;

  const AppId app{1};
  const UserId alice{7};
  const std::vector<HostId> manager_ids{HostId(0), HostId(1), HostId(2)};
  const std::vector<HostId> host_ids{HostId(100), HostId(101), HostId(102)};
  proto::ProtocolConfig config;
  config.check_quorum = 2;
  config.Te = Duration::minutes(2);
  config.dissemination = DisseminationKind::kCoalesced;

  ns::NameService names;
  auth::KeyRegistry keys;
  std::vector<std::unique_ptr<runtime::ThreadedEnv>> envs;
  for (std::size_t i = 0; i < manager_ids.size() + host_ids.size(); ++i) {
    envs.push_back(std::make_unique<runtime::ThreadedEnv>(*fabric));
  }
  std::vector<std::unique_ptr<proto::ManagerHost>> managers;
  for (std::size_t i = 0; i < manager_ids.size(); ++i) {
    managers.push_back(std::make_unique<proto::ManagerHost>(
        manager_ids[i], *envs[i], clk::LocalClock::perfect(), config));
  }
  names.set_managers(app, manager_ids);
  for (std::size_t i = 0; i < managers.size(); ++i) {
    envs[i]->run_sync(
        [&, i] { managers[i]->manager().manage_app(app, manager_ids); });
  }
  std::vector<std::unique_ptr<proto::AppHost>> hosts;
  for (std::size_t i = 0; i < host_ids.size(); ++i) {
    auto& env = *envs[manager_ids.size() + i];
    hosts.push_back(std::make_unique<proto::AppHost>(
        host_ids[i], env, clk::LocalClock::perfect(), names, keys, config));
    env.run_sync([&] {
      hosts.back()->controller().register_app(
          app, [](UserId, const std::string& p) { return p; });
    });
  }

  const auto eventually = [](const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  const auto barrier_update = [&](acl::Op op) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    envs[0]->run_sync([&] {
      managers[0]->manager().submit_update(
          app, op, alice, acl::Right::kUse,
          [done](const proto::UpdateOutcome&) { done->store(true); });
    });
    return eventually([done] { return done->load(); });
  };
  const auto barrier_check = [&](std::size_t h) {
    struct Slot {
      std::mutex mu;
      std::optional<bool> allowed;
    };
    auto slot = std::make_shared<Slot>();
    envs[manager_ids.size() + h]->run_sync([&] {
      hosts[h]->controller().check_access(
          app, alice, [slot](const AccessDecision& d) {
            const std::lock_guard<std::mutex> lock(slot->mu);
            slot->allowed = d.allowed;
          });
    });
    EXPECT_TRUE(eventually([slot] {
      const std::lock_guard<std::mutex> lock(slot->mu);
      return slot->allowed.has_value();
    }));
    const std::lock_guard<std::mutex> lock(slot->mu);
    return slot->allowed.value_or(false);
  };

  ASSERT_TRUE(barrier_update(acl::Op::kAdd));
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    EXPECT_TRUE(barrier_check(h)) << "host " << h << " denied a granted user";
  }
  ASSERT_TRUE(barrier_update(acl::Op::kRevoke));
  // Every cache flushes and every manager drains its batches (the check
  // itself re-queries, so a deny proves the cached copy is gone).
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    EXPECT_TRUE(eventually([&] { return !barrier_check(h); }))
        << "host " << h << " kept allowing after the revocation";
  }
  for (std::size_t m = 0; m < managers.size(); ++m) {
    EXPECT_TRUE(eventually([&] {
      std::size_t inflight = 1;
      envs[m]->run_sync(
          [&] { inflight = managers[m]->manager().inflight_revocations(); });
      return inflight == 0;
    })) << "manager " << m << " never drained its dissemination state";
  }
  fabric->stop_all();
}

}  // namespace
}  // namespace wan
