// End-to-end protocol tests on a healthy network: grant/check/revoke flows,
// caching, coalescing, authentication, grant tables, deny reasons.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using proto::AccessDecision;
using proto::DecisionPath;
using proto::DenyReason;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig healthy_config() {
  ScenarioConfig cfg;
  cfg.managers = 3;
  cfg.app_hosts = 2;
  cfg.users = 4;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(10);
  cfg.protocol.check_quorum = 2;
  cfg.protocol.Te = Duration::minutes(5);
  cfg.protocol.clock_bound_b = 1.0;
  cfg.seed = 42;
  return cfg;
}

// The index of the manager at position `i` of `host`'s first query wave.
int first_wave_manager(Scenario& s, int host, int i) {
  const auto m = static_cast<std::size_t>(s.manager_count());
  return static_cast<int>(
      (s.host(host).controller().first_wave_start(m) +
       static_cast<std::size_t>(i)) % m);
}

std::uint64_t hedges() {
  return obs::Registry::global().counter("wan_query_hedges_total").value();
}

std::uint64_t replies() {
  return obs::Registry::global().counter("wan_query_replies_total").value();
}

std::uint64_t queries_sent(Scenario& s) {
  const auto by_type = s.network().stats().sent_by_type();
  const auto it = by_type.find("QueryRequest");
  return it == by_type.end() ? 0 : it->second;
}

// Runs a check and returns the decision once made (driving the scheduler a
// short, fixed window — healthy-network decisions land within milliseconds).
AccessDecision run_check(Scenario& s, int host, UserId user) {
  std::optional<AccessDecision> result;
  s.check(host, user, [&](const AccessDecision& d) { result = d; });
  s.run_for(Duration::seconds(2));
  EXPECT_TRUE(result.has_value());
  return result.value_or(AccessDecision{});
}

TEST(ProtoBasic, UnknownUserDeniedByQuorum) {
  Scenario s(healthy_config());
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kQuorumDenied);
  EXPECT_EQ(d.reason, DenyReason::kNotAuthorized);
  EXPECT_EQ(d.attempts, 1);
}

TEST(ProtoBasic, GrantedUserAllowed) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kQuorumGranted);
  EXPECT_FALSE(d.basis_version.initial());
}

TEST(ProtoBasic, SecondCheckHitsCache) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  const auto d2 = run_check(s, 0, s.user(0));
  EXPECT_TRUE(d2.allowed);
  EXPECT_EQ(d2.path, DecisionPath::kCacheHit);
  EXPECT_EQ(d2.latency().count_nanos(), 0);  // purely local
}

TEST(ProtoBasic, CachesArePerHost) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  // Host 1 has no cached entry: first check goes to the managers.
  const auto d = run_check(s, 1, s.user(0));
  EXPECT_EQ(d.path, DecisionPath::kQuorumGranted);
}

TEST(ProtoBasic, RevokeFlushesCachesAndDenies) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));  // populates cache + grant table
  ASSERT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);

  s.revoke(s.user(0));
  s.run_for(Duration::seconds(5));  // revoke disseminates + forwards
  // RevokeNotify flushed the cache without waiting for expiry.
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 0u);
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kQuorumDenied);
}

TEST(ProtoBasic, ReGrantAfterRevokeWorks) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(5));
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  EXPECT_TRUE(run_check(s, 0, s.user(0)).allowed);
}

TEST(ProtoBasic, CacheExpiresAfterTe) {
  auto cfg = healthy_config();
  cfg.protocol.Te = Duration::seconds(60);
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  // Within te the entry is live...
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(run_check(s, 0, s.user(0)).path, DecisionPath::kCacheHit);
  // ...after te it must be re-verified with the managers.
  s.run_for(Duration::seconds(61));
  EXPECT_EQ(run_check(s, 0, s.user(0)).path, DecisionPath::kQuorumGranted);
}

TEST(ProtoBasic, ConcurrentChecksCoalesceIntoOneSession) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.network().reset_stats();

  int decisions = 0;
  bool all_allowed = true;
  for (int i = 0; i < 5; ++i) {
    s.check(0, s.user(0), [&](const AccessDecision& d) {
      ++decisions;
      all_allowed = all_allowed && d.allowed;
    });
  }
  s.run_for(Duration::seconds(10));
  EXPECT_EQ(decisions, 5);
  EXPECT_TRUE(all_allowed);
  // One session: exactly C = 2 QueryRequests despite 5 concurrent checks.
  EXPECT_EQ(queries_sent(s), 2u);
}

TEST(ProtoBasic, ManagerGrantTableTracksCachingHosts) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  run_check(s, 1, s.user(0));
  // Each host's first wave (C = 2 managers) answered, and every one of those
  // managers recorded the host it granted to.
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 2; ++i) {
      const auto hosts = s.manager(first_wave_manager(s, h, i))
                             .manager()
                             .granted_hosts(s.app(), s.user(0));
      EXPECT_NE(std::find(hosts.begin(), hosts.end(), s.host_ids()[h]),
                hosts.end())
          << "host " << h << ", first-wave position " << i;
    }
  }
}

TEST(ProtoBasic, RevokeAckPrunesGrantTable) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(10));
  for (int m = 0; m < s.manager_count(); ++m) {
    EXPECT_TRUE(s.manager(m).manager().granted_hosts(s.app(), s.user(0)).empty());
  }
}

TEST(ProtoBasic, UpdateQuorumCallbackFires) {
  Scenario s(healthy_config());
  bool fired = false;
  s.grant(s.user(0), 0, [&] { fired = true; });
  s.run_for(Duration::seconds(5));
  EXPECT_TRUE(fired);
  // All three manager stores converged.
  for (int m = 0; m < s.manager_count(); ++m) {
    EXPECT_TRUE(s.manager(m).manager().store(s.app())->check(s.user(0),
                                                             acl::Right::kUse));
  }
}

TEST(ProtoBasic, ManageRightDoesNotImplyUse) {
  Scenario s(healthy_config());
  s.manager(0).manager().submit_update(s.app(), acl::Op::kAdd, s.user(1),
                                       acl::Right::kManage);
  s.run_for(Duration::seconds(5));
  const auto d = run_check(s, 0, s.user(1));
  EXPECT_FALSE(d.allowed);
}

TEST(ProtoBasic, EndToEndInvokeThroughUserAgent) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));

  std::optional<proto::InvokeResult> result;
  s.agent(0).invoke(s.app(), {s.host_ids()[0]}, "hello",
                    [&](const proto::InvokeResult& r) { result = r; });
  s.run_for(Duration::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->result, "ok:hello");
  EXPECT_GT(result->latency.count_nanos(), 0);
}

TEST(ProtoBasic, UnauthorizedInvokeRejected) {
  Scenario s(healthy_config());
  std::optional<proto::InvokeResult> result;
  s.agent(0).invoke(s.app(), {s.host_ids()[0]}, "hi",
                    [&](const proto::InvokeResult& r) { result = r; });
  s.run_for(Duration::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->reason, DenyReason::kNotAuthorized);
}

TEST(ProtoBasic, ForgedSignatureRejectedBeforeAclWork) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  // Send an InvokeRequest claiming to be user 0 with a garbage signature.
  const HostId fake_endpoint(999999);
  std::optional<bool> accepted;
  std::optional<DenyReason> reason;
  s.network().register_host(
      fake_endpoint, [&](HostId, const net::MessagePtr& msg) {
        if (const auto* r = net::message_cast<proto::InvokeReply>(msg)) {
          accepted = r->accepted;
          reason = r->reason;
        }
      });
  s.network().send(fake_endpoint, s.host_ids()[0],
                   net::make_message<proto::InvokeRequest>(
                       s.app(), s.user(0), /*req=*/1, /*nonce=*/1,
                       auth::Signature{0xbad}, "payload"));
  s.run_for(Duration::seconds(5));
  ASSERT_TRUE(accepted.has_value());
  EXPECT_FALSE(*accepted);
  EXPECT_EQ(*reason, DenyReason::kAuthentication);
}

TEST(ProtoBasic, UnknownAppRejected) {
  Scenario s(healthy_config());
  std::optional<AccessDecision> d;
  s.host(0).controller().check_access(
      AppId(777), s.user(0), [&](const AccessDecision& dec) { d = dec; });
  s.run_for(Duration::seconds(1));
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->allowed);
  EXPECT_EQ(d->path, DecisionPath::kUnknownApp);
}

TEST(ProtoBasic, HealthyCheckQueriesExactlyTheQuorum) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.network().reset_stats();
  const std::uint64_t hedges_before = hedges();
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.attempts, 1);
  EXPECT_EQ(queries_sent(s), 2u);  // C = 2 of M = 3
  EXPECT_EQ(hedges() - hedges_before, 0u);
}

TEST(ProtoBasic, ByzantineSlackQueriesOneMore) {
  auto cfg = healthy_config();
  cfg.managers = 4;
  cfg.protocol.byzantine_slack = 1;
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.network().reset_stats();
  const std::uint64_t hedges_before = hedges();
  const auto d = run_check(s, 0, s.user(0));
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(queries_sent(s), 3u);  // C + f = 2 + 1 of M = 4
  EXPECT_EQ(hedges() - hedges_before, 0u);
}

TEST(ProtoBasic, HedgeReachesTheRestWhenAFirstWaveManagerIsDown) {
  Scenario s(healthy_config());
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.manager(first_wave_manager(s, 0, 0)).crash();
  s.network().reset_stats();
  const std::uint64_t hedges_before = hedges();
  const auto d = run_check(s, 0, s.user(0));
  // The hedge widens attempt 1 to the third manager, so the one attempt
  // still reaches the C = 2 managers that are up.
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.path, DecisionPath::kQuorumGranted);
  EXPECT_EQ(d.attempts, 1);
  EXPECT_EQ(queries_sent(s), 3u);
  EXPECT_EQ(hedges() - hedges_before, 1u);
  EXPECT_LT(d.latency(), s.host(0).controller().config().query_timeout);
}

TEST(ProtoBasic, HedgeRepliesAfterTheDecisionAreCounted) {
  // A first-wave manager that is slow rather than down: once the hedge has
  // reached the third manager, the check decides on the first two replies
  // and the last one, often the slow first-wave manager's, lands after the
  // decision. Every query is answered on this lossless rig, so every reply
  // must be counted, late ones included.
  auto cfg = healthy_config();
  cfg.constant_latency = false;
  cfg.latency_base = Duration::millis(1);
  cfg.latency_tail = Duration::millis(20);
  Scenario s(cfg);
  s.run_for(Duration::seconds(1));
  s.network().reset_stats();
  const std::uint64_t hedges_before = hedges();
  const std::uint64_t replies_before = replies();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(run_check(s, 0, s.user(0)).path, DecisionPath::kQuorumDenied);
  }
  EXPECT_GT(hedges() - hedges_before, 0u);
  EXPECT_EQ(replies() - replies_before, queries_sent(s));
}

TEST(ProtoBasic, CheckQuorumOneAsksOneManager) {
  auto cfg = healthy_config();
  cfg.protocol.check_quorum = 1;
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.network().reset_stats();
  EXPECT_TRUE(run_check(s, 0, s.user(0)).allowed);
  EXPECT_EQ(queries_sent(s), 1u);
}

TEST(ProtoBasic, IdleCacheEntriesSweptPeriodically) {
  auto cfg = healthy_config();
  cfg.protocol.Te = Duration::hours(2);            // expiry far away
  cfg.protocol.cache_sweep_period = Duration::seconds(30);
  cfg.protocol.cache_idle_limit = Duration::minutes(2);
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  ASSERT_EQ(s.host(0).controller().cache(s.app())->size(), 1u);
  // No further accesses: the periodic sweep evicts the idle entry well
  // before its expiry ("save memory and processing overhead", §3.2).
  s.run_for(Duration::minutes(3));
  EXPECT_EQ(s.host(0).controller().cache(s.app())->size(), 0u);
  EXPECT_GE(s.host(0).controller().cache(s.app())->stats().idle_evictions, 1u);
}

TEST(ProtoBasic, HotCacheEntriesSurviveTheSweep) {
  auto cfg = healthy_config();
  cfg.protocol.Te = Duration::hours(2);
  cfg.protocol.cache_sweep_period = Duration::seconds(30);
  cfg.protocol.cache_idle_limit = Duration::minutes(2);
  Scenario s(cfg);
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  // Keep the entry hot: one access per minute beats the 2-minute idle limit.
  for (int i = 0; i < 5; ++i) {
    s.run_for(Duration::minutes(1));
    EXPECT_TRUE(run_check(s, 0, s.user(0)).allowed);
  }
  EXPECT_EQ(s.host(0).controller().cache(s.app())->stats().idle_evictions, 0u);
}

TEST(ProtoBasic, DecisionObserverSeesEveryDecision) {
  Scenario s(healthy_config());
  int observed = 0;
  s.host(0).controller().set_decision_observer(
      [&](const AccessDecision&) { ++observed; });
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  run_check(s, 0, s.user(0));
  run_check(s, 0, s.user(0));
  run_check(s, 0, s.user(1));
  EXPECT_EQ(observed, 3);
}

}  // namespace
}  // namespace wan
