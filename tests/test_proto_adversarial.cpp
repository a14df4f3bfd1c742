// Adversarial behaviour: the paper's model authenticates manager traffic and
// makes non-manager hosts untrusted ("other hosts can experience any type of
// failure ... including a malicious adversary gaining control of a host").
// These tests drive spoofed protocol messages from non-manager endpoints and
// assert they are ignored.
#include <gtest/gtest.h>

#include <optional>

#include "workload/scenario.hpp"

namespace wan {
namespace {

using proto::AccessDecision;
using proto::DecisionPath;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig adversary_config() {
  ScenarioConfig cfg;
  cfg.managers = 3;
  cfg.app_hosts = 2;
  cfg.users = 3;
  cfg.partitions = ScenarioConfig::Partitions::kScripted;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(10);
  cfg.protocol.check_quorum = 2;
  cfg.protocol.Te = Duration::seconds(60);
  cfg.protocol.max_attempts = 2;
  cfg.protocol.query_timeout = Duration::seconds(1);
  cfg.seed = 666;
  return cfg;
}

// Registers a mute attacker endpoint on the network.
HostId add_attacker(Scenario& s) {
  const HostId attacker(424242);
  s.network().register_host(attacker, [](HostId, const net::MessagePtr&) {});
  return attacker;
}

TEST(Adversarial, SpoofedRevokeNotifyDoesNotFlushCache) {
  Scenario s(adversary_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(2));
  ASSERT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);

  const HostId attacker = add_attacker(s);
  s.network().send(attacker, s.host_ids()[0],
                   net::make_message<proto::RevokeNotify>(
                       s.app(), s.user(0), acl::Version{999, attacker}));
  s.run_for(Duration::seconds(2));
  // A genuine manager's notify would have flushed; the spoof must not.
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);
}

TEST(Adversarial, SpoofedQueryResponseCannotGrantAccess) {
  Scenario s(adversary_config());
  // Managers unreachable: only the attacker will "answer".
  for (const HostId m : s.manager_ids()) {
    s.scripted().cut_link(s.host_ids()[0], m);
  }
  const HostId attacker = add_attacker(s);

  std::optional<AccessDecision> d;
  s.check(0, s.user(0), [&](const AccessDecision& dec) { d = dec; });
  // Flood forged "granted" responses over the plausible query-id range.
  acl::RightSet rights(acl::Right::kUse);
  for (std::uint64_t qid = 1; qid <= 64; ++qid) {
    s.network().send(attacker, s.host_ids()[0],
                     net::make_message<proto::QueryResponse>(
                         s.app(), s.user(0), qid, rights,
                         acl::Version{1000 + qid, attacker},
                         Duration::seconds(60)));
    s.network().send(attacker, s.host_ids()[0],
                     net::make_message<proto::QueryResponse>(
                         s.app(), s.user(0), qid, rights,
                         acl::Version{2000 + qid, attacker},
                         Duration::seconds(60)));
  }
  s.run_for(Duration::seconds(10));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
  EXPECT_EQ(d->path, DecisionPath::kUnverifiableDeny);
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 0u);
}

TEST(Adversarial, SpoofedUpdateMsgCannotPoisonManagerStore) {
  Scenario s(adversary_config());
  const HostId attacker = add_attacker(s);
  acl::AclUpdate bogus;
  bogus.user = s.user(1);
  bogus.right = acl::Right::kUse;
  bogus.op = acl::Op::kAdd;
  bogus.version = acl::Version{777, attacker};
  for (const HostId m : s.manager_ids()) {
    s.network().send(attacker, m,
                     net::make_message<proto::UpdateMsg>(s.app(), bogus, 1));
  }
  s.run_for(Duration::seconds(5));
  for (int m = 0; m < s.manager_count(); ++m) {
    EXPECT_FALSE(s.manager(m).manager().store(s.app())->check(s.user(1),
                                                              acl::Right::kUse));
  }
  // And the end-to-end check denies.
  std::optional<AccessDecision> d;
  s.check(0, s.user(1), [&](const AccessDecision& dec) { d = dec; });
  s.run_for(Duration::seconds(5));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
}

TEST(Adversarial, SpoofedSyncResponseCannotSeedRecovery) {
  Scenario s(adversary_config());
  s.manager(0).crash();
  s.run_for(Duration::seconds(1));
  // Keep the genuine peers out of reach so the attacker races alone.
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[1]);
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[2]);
  s.manager(0).recover();
  s.run_for(Duration::seconds(1));

  const HostId attacker = add_attacker(s);
  std::vector<acl::AclUpdate> poisoned{
      {s.user(2), acl::Right::kUse, acl::Op::kAdd, acl::Version{555, attacker}}};
  for (std::uint64_t sync_id = 1; sync_id <= 8; ++sync_id) {
    s.network().send(attacker, s.manager_ids()[0],
                     net::make_message<proto::SyncResponse>(s.app(), sync_id,
                                                            poisoned));
  }
  s.run_for(Duration::seconds(5));
  EXPECT_FALSE(s.manager(0).manager().synced(s.app()));
  EXPECT_FALSE(s.manager(0).manager().store(s.app())->check(s.user(2),
                                                            acl::Right::kUse));
}

TEST(Adversarial, SpoofedHeartbeatsCannotSuppressFreeze) {
  auto cfg = adversary_config();
  cfg.protocol.freeze_enabled = true;
  cfg.protocol.Te = Duration::seconds(120);
  cfg.protocol.Ti = Duration::seconds(20);
  cfg.protocol.heartbeat_period = Duration::seconds(5);
  cfg.protocol.check_quorum = 1;
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));

  s.scripted().isolate(s.manager_ids()[0], s.all_site_ids());
  const HostId attacker = add_attacker(s);
  // Attacker pumps pongs at m1 trying to keep it warm.
  for (int i = 0; i < 20; ++i) {
    s.network().send(attacker, s.manager_ids()[1],
                     net::make_message<proto::HeartbeatPong>(
                         s.app(), static_cast<std::uint64_t>(i)));
    s.run_for(Duration::seconds(2));
  }
  EXPECT_TRUE(s.manager(1).manager().frozen(s.app()));
}

TEST(Adversarial, SpoofedVersionReplyCannotCorruptVersioning) {
  Scenario s(adversary_config());
  const HostId attacker = add_attacker(s);
  // Attacker claims an absurdly high version floor for in-flight reads.
  // Issue an update; race the read phase with forged replies.
  bool done = false;
  s.grant(s.user(0), 0, [&] { done = true; });
  for (std::uint64_t read_id = 1; read_id <= 4; ++read_id) {
    s.network().send(attacker, s.manager_ids()[0],
                     net::make_message<proto::VersionReply>(
                         s.app(), read_id,
                         acl::Version{std::uint64_t{1} << 40, attacker}));
  }
  s.run_for(Duration::seconds(5));
  ASSERT_TRUE(done);
  // The grant's version is small (the forged floor was ignored).
  const auto st = s.manager(0).manager().store(s.app())->state(
      s.user(0), acl::Right::kUse);
  ASSERT_TRUE(st.has_value());
  EXPECT_LT(st->version.counter, 100u);
}

TEST(Adversarial, CompromisedUserIsLockedOutAfterRevoke) {
  // The paper's §2.1 scenario end-to-end: a compromised identity keeps its
  // valid key, but a revocation removes its rights within Te everywhere.
  Scenario s(adversary_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  std::optional<proto::InvokeResult> before;
  s.agent(0).invoke(s.app(), {s.host_ids()[0]}, "steal-data",
                    [&](const proto::InvokeResult& r) { before = r; });
  s.run_for(Duration::seconds(5));
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(before->ok);

  s.revoke(s.user(0));
  s.run_for(Duration::seconds(5));
  std::optional<proto::InvokeResult> after;
  s.agent(0).invoke(s.app(), {s.host_ids()[0]}, "steal-more",
                    [&](const proto::InvokeResult& r) { after = r; });
  s.run_for(Duration::seconds(5));
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->ok);
  EXPECT_EQ(after->reason, proto::DenyReason::kNotAuthorized);
}

}  // namespace
}  // namespace wan
