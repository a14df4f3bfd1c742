// Host and manager failure/recovery behaviour (§3.4): volatile caches,
// user failover, manager recovery sync, revoke-retransmission cutoff, and the
// "logical partition" a crashed manager's lost grant table creates.
#include <gtest/gtest.h>

#include <optional>

#include "acl/store.hpp"
#include "net/partition_model.hpp"
#include "proto/manager.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using proto::AccessDecision;
using proto::DecisionPath;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig recovery_config() {
  ScenarioConfig cfg;
  cfg.managers = 3;
  cfg.app_hosts = 2;
  cfg.users = 4;
  cfg.partitions = ScenarioConfig::Partitions::kScripted;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(10);
  cfg.protocol.check_quorum = 2;
  cfg.protocol.Te = Duration::seconds(60);
  cfg.protocol.clock_bound_b = 1.0;
  cfg.protocol.max_attempts = 3;
  cfg.protocol.query_timeout = Duration::seconds(1);
  cfg.seed = 11;
  return cfg;
}

AccessDecision run_check(Scenario& s, int host, UserId user,
                         Duration window = Duration::seconds(10)) {
  std::optional<AccessDecision> result;
  s.check(host, user, [&](const AccessDecision& d) { result = d; });
  s.run_for(window);
  EXPECT_TRUE(result.has_value());
  return result.value_or(AccessDecision{});
}

TEST(ProtoRecovery, HostRecoveryStartsWithEmptyCache) {
  Scenario s(recovery_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0), Duration::seconds(2));
  ASSERT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);

  s.host(0).crash();
  s.run_for(Duration::seconds(10));
  s.host(0).recover();
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 0u);

  // "refilled using the normal algorithm": the next check goes to managers.
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kQuorumGranted);
}

TEST(ProtoRecovery, CrashedHostIgnoresChecks) {
  Scenario s(recovery_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.host(0).crash();
  bool called = false;
  s.host(0).controller().check_access(
      s.app(), s.user(0), [&](const AccessDecision&) { called = true; });
  s.run_for(Duration::seconds(10));
  // The crashed host makes no decisions; the session died with it.
  EXPECT_FALSE(called);
}

TEST(ProtoRecovery, UserAgentFailsOverToSurvivingHost) {
  Scenario s(recovery_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.host(0).crash();

  std::optional<proto::InvokeResult> result;
  s.agent(0).invoke(s.app(), {s.host_ids()[0], s.host_ids()[1]}, "x",
                    [&](const proto::InvokeResult& r) { result = r; });
  s.run_for(Duration::seconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->hosts_tried, 2);  // "simply have to locate a new host"
}

TEST(ProtoRecovery, ChecksSurviveSingleManagerCrash) {
  Scenario s(recovery_config());  // C = 2 of M = 3
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.manager(0).crash();
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kQuorumGranted);
}

TEST(ProtoRecovery, ManagerRecoverySyncsStateFromPeers) {
  Scenario s(recovery_config());
  s.manager(0).crash();
  // Updates complete among the survivors (update quorum 2).
  s.grant(s.user(0), 1);
  s.run_for(Duration::seconds(5));
  EXPECT_EQ(s.manager(0).manager().store(s.app())->register_count(), 0u);

  s.manager(0).recover();
  s.run_for(Duration::seconds(10));
  EXPECT_TRUE(s.manager(0).manager().synced(s.app()));
  EXPECT_TRUE(s.manager(0).manager().store(s.app())->check(s.user(0),
                                                           acl::Right::kUse));
}

TEST(ProtoRecovery, RecoveringManagerRefusesQueriesUntilSynced) {
  auto cfg = recovery_config();
  cfg.protocol.check_quorum = 1;  // a single manager answer would suffice
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));

  s.manager(0).crash();
  s.run_for(Duration::seconds(2));
  // Partition the recovering manager from its peers: sync cannot complete.
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[1]);
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[2]);
  s.manager(0).recover();
  s.run_for(Duration::seconds(5));
  EXPECT_FALSE(s.manager(0).manager().synced(s.app()));

  // Host 0 can only reach the unsynced manager: every attempt times out.
  s.scripted().cut_link(s.host_ids()[0], s.manager_ids()[1]);
  s.scripted().cut_link(s.host_ids()[0], s.manager_ids()[2]);
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kUnverifiableDeny);

  // Healing lets the sync finish (retransmitted SyncRequests) and queries
  // resume with correct, merged state.
  s.scripted().heal_all();
  s.run_for(Duration::seconds(10));
  EXPECT_TRUE(s.manager(0).manager().synced(s.app()));
  EXPECT_TRUE(run_check(s, 0, s.user(0)).allowed);
}

TEST(ProtoRecovery, RevokeRetransmissionStopsAtExpiryDeadline) {
  Scenario s(recovery_config());  // Te = 60s, revoke retransmit 2s
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0), Duration::seconds(2));  // grant tables populated

  // The host becomes unreachable; RevokeNotify can never be delivered.
  for (const HostId m : s.manager_ids()) {
    s.scripted().cut_link(s.host_ids()[0], m);
  }
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));  // two full Te periods
  const auto sent_at_2te = s.network().stats().sent_by_type().at("RevokeNotify");

  s.run_for(Duration::seconds(120));
  const auto sent_later = s.network().stats().sent_by_type().at("RevokeNotify");
  // "it can stop resending the message when the access right would have
  // expired": no RevokeNotify traffic after the deadline passed.
  EXPECT_EQ(sent_later, sent_at_2te);
  // And it genuinely retransmitted while the deadline was live.
  EXPECT_GT(sent_at_2te, 3u);
}

TEST(ProtoRecovery, ManagerCrashLosesGrantTable) {
  // §3.4: "a failed manager m will essentially create a logical partition
  // since no other manager is aware of application hosts that cached access
  // control information based on interactions with m."
  Scenario s(recovery_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0), Duration::seconds(2));
  // m: the manager first in host 0's query window, which answered the check
  // and so holds host 0 in its grant table.
  const int m = static_cast<int>(s.host(0).controller().first_wave_start(
      static_cast<std::size_t>(s.manager_count())));
  ASSERT_FALSE(
      s.manager(m).manager().granted_hosts(s.app(), s.user(0)).empty());

  s.manager(m).crash();
  s.run_for(Duration::seconds(2));
  s.manager(m).recover();
  s.run_for(Duration::seconds(10));
  // The ACL state resynced, but the grant table is gone — revocations issued
  // now cannot be forwarded to host 0 by m; only expiry protects us.
  EXPECT_TRUE(s.manager(m).manager().synced(s.app()));
  EXPECT_TRUE(s.manager(m).manager().granted_hosts(s.app(), s.user(0)).empty());
}

TEST(ProtoRecovery, HostCrashDropsCacheEvenWithoutRevoke) {
  // Crash + recovery must not resurrect cached rights.
  Scenario s(recovery_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0), Duration::seconds(2));
  s.revoke(s.user(0));
  // Crash before the RevokeNotify can arrive.
  s.host(0).crash();
  s.run_for(Duration::seconds(10));
  s.host(0).recover();
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_FALSE(d.allowed);  // fresh check sees the revoked state
}

TEST(ProtoRecovery, VersionReissueAfterCrashConverges) {
  // Pinned regression (chaos seed 7): with C == 1, a manager whose update
  // partially disseminated before it crashed can recover from the one peer
  // that MISSED the update, and its next operation re-mints the same
  // (counter, origin) pair. The version issue stamp (acl/version.hpp) must
  // make the reissue compare strictly newer, or the stores never converge —
  // half the managers keep the zombie grant forever.
  auto cfg = recovery_config();
  cfg.protocol.check_quorum = 1;  // version read completes from self alone
  Scenario s(cfg);
  auto& parts = s.scripted();
  const HostId m0 = s.manager_ids()[0];
  const HostId m2 = s.manager_ids()[2];

  // The grant reaches manager 1 only: manager 2 is unreachable, and the
  // update quorum (M - C + 1 = 3) never completes, so retransmission is the
  // sole dissemination path — and it dies with the issuer.
  parts.cut_link(m0, m2);
  s.grant(s.user(0), 0);
  s.run_for(Duration::seconds(2));
  ASSERT_TRUE(s.manager(1).manager().store(s.app())->check(s.user(0),
                                                           acl::Right::kUse));
  ASSERT_FALSE(s.manager(2).manager().store(s.app())->check(s.user(0),
                                                            acl::Right::kUse));

  s.manager(0).crash();
  s.run_for(Duration::seconds(1));
  // Recovery syncs from manager 2 (manager 1 is now unreachable): the
  // recovered store does not contain the half-spread grant.
  parts.heal_link(m0, m2);
  parts.cut_link(m0, s.manager_ids()[1]);
  s.manager(0).recover();
  s.run_for(Duration::seconds(5));
  ASSERT_TRUE(s.manager(0).manager().synced(s.app()));
  ASSERT_FALSE(s.manager(0).manager().store(s.app())->check(s.user(0),
                                                            acl::Right::kUse));

  // The revoke's version read (self only) re-uses the grant's counter; only
  // the stamp orders it after the lost grant.
  s.revoke(s.user(0), 0);
  s.run_for(Duration::seconds(2));
  parts.heal_all();
  s.run_for(Duration::seconds(30));

  for (int m = 0; m < 3; ++m) {
    EXPECT_FALSE(s.manager(m).manager().store(s.app())->check(
        s.user(0), acl::Right::kUse))
        << "manager " << m << " kept the zombie grant";
  }
}

TEST(ProtoRecovery, UnsyncedManagerDefersSubmits) {
  // Pinned regression (chaos seed 645): a recovering manager that cannot
  // complete its §3.4 sync must not issue operations either — with C == 1
  // its version read would complete against its own empty store and mint a
  // version that loses the LWW race to every completed update, turning the
  // revoke into a silent no-op everywhere.
  auto cfg = recovery_config();
  cfg.protocol.check_quorum = 1;
  Scenario s(cfg);
  auto& parts = s.scripted();
  const HostId m0 = s.manager_ids()[0];

  s.grant(s.user(0), 1);
  s.run_for(Duration::seconds(5));  // full dissemination to all three
  ASSERT_TRUE(s.manager(0).manager().store(s.app())->check(s.user(0),
                                                           acl::Right::kUse));

  s.manager(0).crash();
  s.run_for(Duration::seconds(1));
  parts.cut_link(m0, s.manager_ids()[1]);
  parts.cut_link(m0, s.manager_ids()[2]);
  s.manager(0).recover();
  s.run_for(Duration::seconds(5));
  ASSERT_FALSE(s.manager(0).manager().synced(s.app()));

  // Submitted while unsynced: parked, not minted.
  s.revoke(s.user(0), 0);
  s.run_for(Duration::seconds(2));
  EXPECT_EQ(s.manager(0).manager().inflight_updates(s.app()), 0u);

  // Once the partition heals, the sync completes and the parked revoke is
  // issued with a proper version floor — it must win everywhere.
  parts.heal_all();
  s.run_for(Duration::seconds(30));
  ASSERT_TRUE(s.manager(0).manager().synced(s.app()));
  for (int m = 0; m < 3; ++m) {
    EXPECT_FALSE(s.manager(m).manager().store(s.app())->check(
        s.user(0), acl::Right::kUse))
        << "manager " << m << " still grants after the deferred revoke";
  }
}

TEST(ProtoRecovery, SingleManagerDeploymentRecoversEmpty) {
  auto cfg = recovery_config();
  cfg.managers = 1;
  cfg.protocol.check_quorum = 1;
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  EXPECT_TRUE(run_check(s, 0, s.user(0), Duration::seconds(2)).allowed);

  s.manager(0).crash();
  s.run_for(Duration::seconds(2));
  s.manager(0).recover();
  s.run_for(Duration::seconds(5));
  // No peers to sync from: the degenerate case restarts with an empty store
  // (documented in manager.hpp); the cached entry at the host survives until
  // expiry, after which access ends.
  EXPECT_TRUE(s.manager(0).manager().synced(s.app()));
  s.run_for(Duration::seconds(61));
  EXPECT_FALSE(run_check(s, 0, s.user(0)).allowed);
}

}  // namespace
}  // namespace wan
