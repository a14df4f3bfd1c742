// Revocation dissemination (src/proto/dissemination.hpp): the paper's
// unicast loop's frame count and effect time under a mass revocation, the Te
// bound for an unreachable destination, ack hygiene, and a threaded smoke
// for the TSan job. The conformance sweeps prove the loop DECIDES like the
// reference model; this suite pins what it sends and when.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/env_options.hpp"
#include "runtime/reactor_transport.hpp"
#include "runtime/threaded_env.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using proto::AccessDecision;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

ScenarioConfig dissemination_config(int app_hosts) {
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
  cfg.seed = 7;
  return cfg;
}

void cache_user_on_hosts(Scenario& s, UserId user) {
  ASSERT_TRUE(s.grant(user, 0));
  s.run_for(Duration::seconds(2));
  for (int h = 0; h < s.host_count(); ++h) s.check(h, user);
  s.run_for(Duration::seconds(3));
  for (int h = 0; h < s.host_count(); ++h) {
    ASSERT_EQ(s.host(h).controller().cache(s.app())->size(), 1u);
  }
}

// ------------------------------------------------------- mass revocation

// 4 users cached on every one of 32 hosts, all revoked at once at manager 0:
// each manager sends exactly one RevokeNotify per host it granted to, per
// right (each host's check asked C = 2 of the 3 managers), every cache
// empties, and every manager drains. Under a 10 ms link
// the first flush of each (host, user) lands no later than the issuer's
// update quorum: the issuer's own notify takes one link latency, its quorum
// a round trip. Effect time reads 0, so a hold of even one link latency in
// the fan-out fails here.
TEST(Dissemination, MassRevocationSendsOneNotifyPerManagerHostAndRight) {
  constexpr int kHosts = 32;
  constexpr int kUsers = 4;
  Scenario s(dissemination_config(kHosts));
  for (int u = 0; u < kUsers; ++u) ASSERT_TRUE(s.grant(s.user(u), 0));
  s.run_for(Duration::seconds(2));
  for (int h = 0; h < kHosts; ++h) {
    for (int u = 0; u < kUsers; ++u) s.check(h, s.user(u));
  }
  s.run_for(Duration::seconds(5));
  for (int h = 0; h < kHosts; ++h) {
    ASSERT_EQ(s.host(h).controller().cache(s.app())->size(),
              static_cast<std::size_t>(kUsers))
        << "host " << h << " cache not fully populated before the revocation";
  }

  // Counters are process-global, so the cost is a delta around the burst.
  const std::uint64_t before = counter("wan_revoke_fanout_frames_total");
  obs::Tracer tracer;
  {
    const obs::TracerScope scope(&tracer);
    for (int u = 0; u < kUsers; ++u) ASSERT_TRUE(s.revoke(s.user(u), 0));
    s.run_for(Duration::seconds(10));
  }
  EXPECT_EQ(counter("wan_revoke_fanout_frames_total") - before,
            static_cast<std::uint64_t>(2 * kHosts * kUsers));

  for (int h = 0; h < kHosts; ++h) {
    EXPECT_EQ(s.host(h).controller().cache(s.app())->size(), 0u)
        << "host " << h << " still caches a revoked right";
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(s.manager(m).manager().inflight_revocations(), 0u)
        << "manager " << m << " did not drain its dissemination state";
  }

  // user -> issuer's quorum instant; (host, user) -> first flush instant.
  const std::uint32_t issuer = s.manager_ids()[0].value();
  std::map<std::int64_t, std::int64_t> quorum_at;
  std::map<std::pair<std::uint32_t, std::int64_t>, std::int64_t> flush_at;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::strcmp(e.name, "update.quorum") == 0 && e.node == issuer) {
      quorum_at.emplace(e.a0, e.at_nanos);
    } else if (std::strcmp(e.name, "revoke.flush") == 0) {
      flush_at.emplace(std::pair{e.node, e.a0}, e.at_nanos);
    }
  }
  ASSERT_EQ(quorum_at.size(), static_cast<std::size_t>(kUsers));
  ASSERT_EQ(flush_at.size(), static_cast<std::size_t>(kHosts * kUsers));
  for (const auto& [at, flushed] : flush_at) {
    EXPECT_LE(flushed, quorum_at.at(at.second))
        << "host " << at.first << " flushed user " << at.second << " late";
  }
}

// ----------------------------------------------------- Te bound

// An unreachable destination must cost the bound, never more: every
// reachable host flushes at once, the isolated host's copy expires on its
// local clock by Te (the delivery-leak oracle's argument), and the managers
// retire the unreachable destination instead of retrying forever.
TEST(Dissemination, IsolatedHostExpiresByTeAndIsRetired) {
  Scenario s(dissemination_config(4));
  cache_user_on_hosts(s, s.user(0));
  // The managers host 0's check reached, which must keep notifying it.
  std::vector<int> granted_host0;
  for (int m = 0; m < 3; ++m) {
    const auto hosts = s.manager(m).manager().granted_hosts(s.app(), s.user(0));
    if (std::find(hosts.begin(), hosts.end(), s.host_ids()[0]) != hosts.end()) {
      granted_host0.push_back(m);
    }
  }
  ASSERT_EQ(granted_host0.size(), 2u);  // C = 2

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
  for (const int m : granted_host0) {
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

// ----------------------------------------------------- ack hygiene

// A host that already confirmed a revocation and has since re-cached the
// user must stay in the managers' grant tables when its old ack arrives
// again (late or duplicated) while the revocation is still in flight to
// another host. Otherwise the next revoke skips it and it keeps allowing
// until its cached copy expires.
TEST(Dissemination, LateAckForEarlierRevokeKeepsReCachedHostListed) {
  Scenario s(dissemination_config(3));
  const UserId user = s.user(0);
  cache_user_on_hosts(s, user);
  // Hosts 1 and 2 never confirm, so the first revocation stays in flight at
  // every manager: between them their checks reached all three.
  s.scripted().isolate(s.host_ids()[1], s.all_site_ids());
  s.scripted().isolate(s.host_ids()[2], s.all_site_ids());

  obs::Tracer tracer;
  {
    const obs::TracerScope scope(&tracer);
    ASSERT_TRUE(s.revoke(user, 0));
    s.run_for(Duration::seconds(1));
  }
  ASSERT_EQ(s.host(0).controller().cache(s.app())->size(), 0u);
  std::uint64_t counter_of_first = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::strcmp(e.name, "revoke.notify.send") == 0) {
      counter_of_first = static_cast<std::uint64_t>(e.a1);
    }
  }
  ASSERT_NE(counter_of_first, 0u);

  // Re-grant and re-cache on host 0.
  ASSERT_TRUE(s.grant(user, 0));
  s.run_for(Duration::seconds(2));
  s.check(0, user);
  s.run_for(Duration::seconds(2));
  ASSERT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);
  for (int m = 0; m < 3; ++m) {
    ASSERT_GT(s.manager(m).manager().inflight_revocations(), 0u);
  }

  // Host 0's ack of the first revocation arrives again at every manager.
  for (const HostId m : s.manager_ids()) {
    s.network().send(
        s.host_ids()[0], m,
        net::make_message<proto::RevokeNotifyAck>(
            s.app(), user, acl::Version{counter_of_first, s.manager_ids()[0]}));
  }
  s.run_for(Duration::seconds(1));

  ASSERT_TRUE(s.revoke(user, 0));
  s.run_for(Duration::seconds(1));
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 0u)
      << "host 0 was unlisted by a stale ack and kept its re-cached grant";
}

// --------------------------------------------- threaded smoke (TSan job)

// The unicast forwarder owns per-right retransmission timers driven from a
// real event-loop thread while acks arrive from peer nodes through a
// reactor socket and the test thread drives them through run_sync. This
// deployment mirrors the conformance harness in miniature so the TSan CI
// job can race-check the dissemination path end-to-end: grant, cache on
// every host, revoke, drain.
TEST(DisseminationThreaded, RevocationOverReactorFabric) {
  proto::register_wire_messages();
  runtime::EnvOptions opts;
  opts.listen = "127.0.0.1:0";
  std::string error;
  auto fabric = runtime::ReactorTransport::create(opts, &error);
  ASSERT_NE(fabric, nullptr) << error;

  const AppId app{1};
  const UserId alice{7};
  const std::vector<HostId> manager_ids{HostId(0), HostId(1), HostId(2)};
  const std::vector<HostId> host_ids{HostId(100), HostId(101), HostId(102)};
  const runtime::NodeAddress self{"127.0.0.1", fabric->local_port()};
  for (const HostId id : manager_ids) ASSERT_TRUE(fabric->add_peer(id, self));
  for (const HostId id : host_ids) ASSERT_TRUE(fabric->add_peer(id, self));
  proto::ProtocolConfig config;
  config.check_quorum = 2;
  config.Te = Duration::minutes(2);

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
  // Every cache flushes and every manager drains its fan-out (the check
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
