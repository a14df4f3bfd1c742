// Byzantine-manager hardening: a compromised manager can misreport rights it
// holds (stale or inverted answers, silence, inflated expiry periods) but
// cannot forge versions — updates are admin-signed. With byzantine_slack = f
// a host gathers C + f check responses while the update quorum stays
// M - C + 1, so every assembled check set intersects every completed update
// in at least f + 1 managers: at least one honest responder saw the freshest
// version and freshest-wins reads past the liars. These tests drive each
// defense in the AccessController (deny floor, equal-version conflict
// resolution, self-inconsistency quarantine, expiry clamp) against a real
// lying ManagerModule, plus the freeze-strategy configuration validation.
#include <gtest/gtest.h>

#include <optional>

#include "acl/cache.hpp"
#include "proto/access_controller.hpp"
#include "proto/config.hpp"
#include "proto/host.hpp"
#include "proto/manager.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using proto::AccessDecision;
using proto::ManagerModule;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig byz_config(int slack, int check_quorum = 2) {
  ScenarioConfig cfg;
  cfg.managers = 3;
  cfg.app_hosts = 1;
  cfg.users = 2;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(10);
  cfg.protocol.check_quorum = check_quorum;
  cfg.protocol.Te = Duration::seconds(60);
  cfg.protocol.clock_bound_b = 1.0;
  cfg.protocol.byzantine_slack = slack;
  cfg.seed = 7;
  return cfg;
}

// The index of the manager host 0's checks query first.
int first_queried(Scenario& s) {
  return static_cast<int>(s.host(0).controller().first_wave_start(
      static_cast<std::size_t>(s.manager_count())));
}

std::optional<AccessDecision> check_at(Scenario& s, int host, UserId user) {
  std::optional<AccessDecision> out;
  s.check(host, user, [&](const AccessDecision& d) { out = d; });
  s.run_for(Duration::seconds(10));
  return out;
}

TEST(ByzantineManager, StaleGrantLosesToFresherDeny) {
  // The liar freezes its store at the grant; after the revoke completes on
  // the honest majority, freshest-wins must pick the deny.
  Scenario s(byz_config(/*slack=*/1));
  ASSERT_TRUE(s.grant(s.user(0), 1));
  s.run_for(Duration::seconds(5));
  s.manager(0).manager().set_byzantine(11, ManagerModule::LieMode::kStale);
  ASSERT_TRUE(s.revoke(s.user(0), 1));
  s.run_for(Duration::seconds(5));

  const auto d = check_at(s, 0, s.user(0));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
}

TEST(ByzantineManager, EqualVersionConflictResolvesDenyWins) {
  // kInvert lies at the store's true version, so some responder pair reports
  // contradictory rights at the SAME version — quorum intersection makes an
  // honest pair impossible, the session must take the deny side and flag the
  // decision as conflicted.
  Scenario s(byz_config(/*slack=*/1));
  ASSERT_TRUE(s.grant(s.user(0), 1));
  s.run_for(Duration::seconds(5));
  s.manager(0).manager().set_byzantine(3, ManagerModule::LieMode::kInvert);

  const auto d = check_at(s, 0, s.user(0));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
  EXPECT_TRUE(d->conflicting_replies);
  EXPECT_GE(s.host(0).controller().hardening_stats().conflicting_replies, 1u);
}

TEST(ByzantineManager, SelfInconsistentManagerIsQuarantined) {
  // Between-manager conflicts cannot identify the liar; a manager that
  // contradicts ITS OWN earlier report at the same version can be blamed
  // unambiguously (honest reorderings regress versions but never flip the
  // bit a version carries) and is benched for a backoff window.
  Scenario s(byz_config(/*slack=*/0));
  ASSERT_TRUE(s.grant(s.user(0), 1));
  s.run_for(Duration::seconds(5));

  const int liar = first_queried(s);
  s.manager(liar).manager().set_byzantine(3, ManagerModule::LieMode::kInvert);
  const auto d1 = check_at(s, 0, s.user(0));  // records (v, deny) for the liar
  ASSERT_TRUE(d1.has_value());

  s.manager(liar).manager().restore_honest();
  const auto d2 = check_at(s, 0, s.user(0));  // the liar now claims (v, grant)
  ASSERT_TRUE(d2.has_value());
  EXPECT_TRUE(d2->allowed);  // honest majority still assembles the quorum

  const auto& stats = s.host(0).controller().hardening_stats();
  EXPECT_GE(stats.self_inconsistent_replies, 1u);
  EXPECT_GE(stats.quarantines_imposed, 1u);
  EXPECT_TRUE(
      s.host(0).controller().manager_quarantined(s.manager_ids()[liar]));
}

TEST(ByzantineManager, RevokeNotifyFloorDowngradesStaleGrant) {
  // A RevokeNotify tells the host a revoke at version v completed; any later
  // grant claim at or below v contradicts that completed update. With
  // byzantine_slack on, the claim is downgraded to a deny vote at the floor
  // version (the responder still counts — discarding would starve quorums).
  Scenario s(byz_config(/*slack=*/1, /*check_quorum=*/1));
  ASSERT_TRUE(s.grant(s.user(0), 1));
  s.run_for(Duration::seconds(5));
  const auto warm = check_at(s, 0, s.user(0));  // enters the grant table
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->allowed);

  // The liar is the manager host 0 queries first; an honest one revokes.
  const int liar = first_queried(s);
  s.manager(liar).manager().set_byzantine(11, ManagerModule::LieMode::kStale);
  // RevokeNotify raises the deny floor.
  ASSERT_TRUE(s.revoke(s.user(0), (liar + 1) % s.manager_count()));
  s.run_for(Duration::seconds(5));

  const auto d = check_at(s, 0, s.user(0));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
  EXPECT_GE(s.host(0).controller().hardening_stats().stale_replies_discarded,
            1u);
}

TEST(ByzantineManager, AdvertisedExpiryIsClampedToConfiguredPeriod) {
  // kHugeExpiry advertises a 64x expiry period; honouring it would keep a
  // cache entry alive far past te and break the Te bound on the next revoke.
  // The host clamps to its own configured period.
  Scenario s(byz_config(/*slack=*/0, /*check_quorum=*/1));
  ASSERT_TRUE(s.grant(s.user(0), 1));
  s.run_for(Duration::seconds(5));
  s.manager(0).manager().set_byzantine(5, ManagerModule::LieMode::kHugeExpiry);

  const auto d = check_at(s, 0, s.user(0));
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->allowed);

  const acl::AclCache* cache = s.host(0).controller().cache(s.app());
  ASSERT_NE(cache, nullptr);
  const auto entry = cache->peek(s.user(0));
  ASSERT_TRUE(entry.has_value());
  EXPECT_LE(entry->limit - s.host(0).controller().local_now(),
            s.config().protocol.expiry_period());
}

TEST(ByzantineManager, SlackRefusesToDecideBelowQuorumFloor) {
  // A manager set smaller than C + f can never prove a fresh reading: a
  // reconfiguration down to one (possibly compromised) manager must make
  // checks exhaust to policy rather than let that manager decide alone.
  ScenarioConfig cfg = byz_config(/*slack=*/1, /*check_quorum=*/1);
  cfg.managers = 1;
  Scenario s(cfg);
  ASSERT_TRUE(s.grant(s.user(0), 0));  // update quorum M - C + 1 = 1 completes
  s.run_for(Duration::seconds(5));

  const auto d = check_at(s, 0, s.user(0));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
  EXPECT_EQ(d->path, proto::DecisionPath::kUnverifiableDeny);
}

TEST(ByzantineManager, AdminSubmitsParkUntilRestoredHonest) {
  // Submits THROUGH a compromised manager park exactly like submits on an
  // unsynced one; remediation releases them and the update completes.
  Scenario s(byz_config(/*slack=*/0));
  s.manager(0).manager().set_byzantine(9);
  ASSERT_TRUE(s.grant(s.user(0), 0));
  s.run_for(Duration::seconds(5));
  EXPECT_FALSE(
      s.manager(1).manager().store(s.app())->check(s.user(0), acl::Right::kUse));

  s.manager(0).manager().restore_honest();
  s.run_for(Duration::seconds(5));
  EXPECT_TRUE(
      s.manager(1).manager().store(s.app())->check(s.user(0), acl::Right::kUse));
}

TEST(ByzantineManager, CrashClearsCompromise) {
  // crash()/recover() models reimaging: the replica comes back honest (and
  // resyncs state from its peers before serving).
  Scenario s(byz_config(/*slack=*/0));
  s.manager(0).manager().set_byzantine(13);
  ASSERT_TRUE(s.manager(0).manager().byzantine());
  s.manager(0).crash();
  EXPECT_FALSE(s.manager(0).manager().byzantine());
  s.manager(0).recover();
  s.run_for(Duration::seconds(5));
  EXPECT_FALSE(s.manager(0).manager().byzantine());
  EXPECT_TRUE(s.manager(0).manager().synced(s.app()));
}

// --- freeze-strategy configuration validation (§3.3) ------------------------
// Te is a budget split between Ti and te; configurations that leave no te, or
// whose heartbeats cannot outrun the silence threshold, are operator errors
// that must fail fast with an explanation, not degrade silently.

TEST(FreezeConfigDeath, TiConsumingTheWholeBudgetAborts) {
  proto::ProtocolConfig c;
  c.freeze_enabled = true;
  c.Te = Duration::seconds(60);
  c.Ti = Duration::seconds(60);
  c.heartbeat_period = Duration::seconds(5);
  EXPECT_DEATH(c.validate(), "born expired");
}

TEST(FreezeConfigDeath, HeartbeatSlowerThanTiAborts) {
  proto::ProtocolConfig c;
  c.freeze_enabled = true;
  c.Te = Duration::seconds(60);
  c.Ti = Duration::seconds(20);
  c.heartbeat_period = Duration::seconds(20);
  EXPECT_DEATH(c.validate(), "freezes permanently");
}

TEST(FreezeConfig, ValidSplitPasses) {
  proto::ProtocolConfig c;
  c.freeze_enabled = true;
  c.Te = Duration::seconds(60);
  c.Ti = Duration::seconds(20);
  c.heartbeat_period = Duration::seconds(5);
  c.validate();  // must not abort
  EXPECT_GT(c.expiry_period(), Duration{});
  EXPECT_LT(c.expiry_period(), c.Te);
}

}  // namespace
}  // namespace wan
