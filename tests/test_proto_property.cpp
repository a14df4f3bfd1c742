// Randomized property tests — the reproduction's strongest evidence:
//
//  1. THE Te BOUND: under random pairwise partitions, drifting clocks, packet
//     loss, and a mixed grant/revoke/access workload, no access is ever
//     allowed more than Te after a revoke's quorum instant (zero security
//     violations), across many seeds.
//  2. Snapshot PA/PS match the paper's closed forms (the §4.1 model check).
//  3. Bit-level determinism: identical seeds give identical runs.
//  4. Manager store convergence under an update storm.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/availability.hpp"
#include "chaos/engine.hpp"
#include "sim/lifecycle.hpp"
#include "workload/driver.hpp"
#include "workload/probes.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using sim::Duration;
using workload::Driver;
using workload::DriverConfig;
using workload::QuorumProbe;
using workload::Scenario;
using workload::ScenarioConfig;

ScenarioConfig adversarial_config(std::uint64_t seed, double pi) {
  ScenarioConfig cfg;
  cfg.managers = 5;
  cfg.app_hosts = 3;
  cfg.users = 6;
  cfg.partitions = ScenarioConfig::Partitions::kPairwise;
  cfg.pi = pi;
  cfg.mean_down = Duration::seconds(20);
  cfg.loss = 0.02;
  cfg.drifting_clocks = true;
  cfg.protocol.clock_bound_b = 1.05;
  cfg.protocol.check_quorum = 3;
  cfg.protocol.Te = Duration::seconds(60);
  cfg.protocol.max_attempts = 3;
  cfg.protocol.query_timeout = Duration::seconds(1);
  cfg.seed = seed;
  return cfg;
}

class TeBoundProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(TeBoundProperty, NoSecurityViolationsEver) {
  const auto [seed, pi] = GetParam();
  Scenario s(adversarial_config(seed, pi));
  DriverConfig dcfg;
  dcfg.access_rate_per_host = 2.0;
  // High op rate: consecutive grant/revoke pairs for one user land on
  // different managers within a partition lifetime, which is exactly the
  // regime where a protocol without the pre-write version read suffers
  // revoke/grant inversions (regression pressure for that fix).
  dcfg.manager_ops_per_second = 0.25;
  dcfg.revoke_fraction = 0.6;
  dcfg.initially_granted = 0.5;
  Driver driver(s, dcfg, seed * 977 + 13);
  driver.start();
  s.run_for(Duration::minutes(30));
  driver.stop();
  s.run_for(Duration::minutes(2));  // drain in-flight checks

  const auto& report = s.collector().report();
  EXPECT_GT(report.total, 5000u) << "workload did not run";
  EXPECT_EQ(report.security_violations, 0u)
      << "Te bound violated with seed " << seed << " pi " << pi;
  // The protocol must actually be letting legitimate users through, too.
  EXPECT_GT(report.availability(), 0.80);
  // And denying unauthorized ones outside the grace window.
  EXPECT_GT(report.security(), 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPi, TeBoundProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.1, 0.3)));

// The same property with the availability-first policy (Fig. 4): security
// violations ARE expected now — the point of the assertion is that the
// guarantee's loss is confined to the default-allow path.
TEST(TeBoundProperty, DefaultAllowTradesSecurityKnowingly) {
  auto cfg = adversarial_config(99, 0.3);
  cfg.protocol.exhausted_policy = proto::ExhaustedPolicy::kAllow;
  cfg.protocol.max_attempts = 2;
  Scenario s(cfg);
  DriverConfig dcfg;
  dcfg.manager_ops_per_second = 0.1;
  dcfg.revoke_fraction = 0.7;
  Driver driver(s, dcfg, 4242);
  driver.start();
  s.run_for(Duration::minutes(30));
  const auto& report = s.collector().report();
  // Availability improves relative to the deny policy under the same seed...
  EXPECT_GT(report.availability(), 0.95);
  // ...and some unauthorized accesses leak through, all via default-allow.
  const auto leaked = report.security_violations + report.unauth_allowed_grace;
  EXPECT_GT(leaked, 0u);
}

// Correlated storm partitions (whole components split off) are nastier than
// independent pair failures; the bound must hold regardless.
class StormTeBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StormTeBoundProperty, NoSecurityViolationsUnderStorms) {
  ScenarioConfig cfg;
  cfg.managers = 5;
  cfg.app_hosts = 3;
  cfg.users = 6;
  cfg.partitions = ScenarioConfig::Partitions::kStorms;
  cfg.storm.mean_between_storms = Duration::minutes(2);
  cfg.storm.mean_storm_duration = Duration::seconds(50);
  cfg.storm.max_components = 3;
  cfg.drifting_clocks = true;
  cfg.protocol.clock_bound_b = 1.05;
  cfg.protocol.check_quorum = 3;
  cfg.protocol.Te = Duration::seconds(60);
  cfg.protocol.max_attempts = 2;
  cfg.protocol.query_timeout = Duration::seconds(1);
  cfg.seed = GetParam();
  Scenario s(cfg);
  DriverConfig dcfg;
  dcfg.manager_ops_per_second = 0.2;
  dcfg.revoke_fraction = 0.6;
  Driver driver(s, dcfg, GetParam() + 500);
  driver.start();
  s.run_for(Duration::minutes(30));
  const auto& report = s.collector().report();
  EXPECT_GT(report.total, 5000u);
  EXPECT_EQ(report.security_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StormTeBoundProperty,
                         ::testing::Values(31, 32, 33, 34));

// The freeze strategy (§3.3's alternative) must uphold the same Te bound —
// by refusing to answer rather than by quorum intersection.
class FreezeTeBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FreezeTeBoundProperty, NoSecurityViolationsUnderFreeze) {
  auto cfg = adversarial_config(GetParam(), 0.15);
  cfg.protocol.freeze_enabled = true;
  cfg.protocol.Te = Duration::seconds(90);
  cfg.protocol.Ti = Duration::seconds(25);
  cfg.protocol.heartbeat_period = Duration::seconds(5);
  cfg.protocol.check_quorum = 1;  // freeze replaces quorums
  Scenario s(cfg);
  DriverConfig dcfg;
  dcfg.access_rate_per_host = 2.0;
  dcfg.manager_ops_per_second = 0.1;
  dcfg.revoke_fraction = 0.6;
  Driver driver(s, dcfg, GetParam() * 31 + 5);
  driver.start();
  s.run_for(Duration::minutes(30));

  const auto& report = s.collector().report();
  EXPECT_GT(report.total, 5000u);
  EXPECT_EQ(report.security_violations, 0u)
      << "freeze strategy violated Te with seed " << GetParam();
  // Freeze pays in availability; it must still function, just worse.
  EXPECT_GT(report.availability(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreezeTeBoundProperty,
                         ::testing::Values(11, 12, 13, 14));

// Crash/recovery churn on top of partitions: hosts and managers fail with
// exponential lifetimes (§3.4's whole machinery under stress). The bound
// must survive lost caches, lost grant tables, and recovery syncs.
class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, TeBoundSurvivesCrashRecoveryChurn) {
  const std::uint64_t seed = GetParam();
  Scenario s(adversarial_config(seed, 0.15));
  Rng lifecycle_rng(seed * 7919 + 3);

  std::vector<std::unique_ptr<sim::CrashRecoveryProcess>> churn;
  sim::CrashRecoveryProcess::Config life;
  life.mttf = sim::Duration::minutes(8);
  life.mttr = sim::Duration::minutes(1);
  for (int h = 0; h < s.host_count(); ++h) {
    churn.push_back(std::make_unique<sim::CrashRecoveryProcess>(
        s.scheduler(), lifecycle_rng.split(), life));
    auto* host = &s.host(h);
    churn.back()->start([host] { host->crash(); }, [host] { host->recover(); });
  }
  // Managers are sturdier (the paper assumes host failures are "relatively
  // rare"; we stress well beyond realistic MTTFs anyway).
  life.mttf = sim::Duration::minutes(15);
  for (int m = 0; m < s.manager_count(); ++m) {
    churn.push_back(std::make_unique<sim::CrashRecoveryProcess>(
        s.scheduler(), lifecycle_rng.split(), life));
    auto* mgr = &s.manager(m);
    churn.back()->start([mgr] { mgr->crash(); }, [mgr] { mgr->recover(); });
  }

  DriverConfig dcfg;
  dcfg.access_rate_per_host = 2.0;
  dcfg.manager_ops_per_second = 0.1;
  Driver driver(s, dcfg, seed + 1);
  driver.start();
  s.run_for(Duration::minutes(40));

  const auto& report = s.collector().report();
  EXPECT_GT(report.total, 3000u);
  EXPECT_EQ(report.security_violations, 0u)
      << "Te bound violated under churn with seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty, ::testing::Values(21, 22, 23, 24));

class SnapshotModelMatch
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SnapshotModelMatch, ProbeMatchesClosedForm) {
  const auto [c, pi] = GetParam();
  ScenarioConfig cfg;
  cfg.managers = 10;
  cfg.app_hosts = 1;
  cfg.users = 1;
  cfg.partitions = ScenarioConfig::Partitions::kPairwise;
  cfg.pi = pi;
  cfg.mean_down = Duration::seconds(30);
  cfg.protocol.check_quorum = c;
  cfg.seed = static_cast<std::uint64_t>(c) * 31 + 7;
  Scenario s(cfg);
  QuorumProbe probe(s, c, Duration::seconds(10));
  probe.start();
  s.run_for(Duration::hours(60));
  const double pa = probe.result().pa();
  const double ps = probe.result().ps();
  EXPECT_NEAR(pa, analysis::availability_pa(10, c, pi), 0.02);
  EXPECT_NEAR(ps, analysis::security_ps(10, c, pi), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    QuorumAndPi, SnapshotModelMatch,
    ::testing::Combine(::testing::Values(1, 3, 5, 8, 10),
                       ::testing::Values(0.1, 0.2)));

TEST(Determinism, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    Scenario s(adversarial_config(seed, 0.2));
    Driver driver(s, DriverConfig{}, 555);
    driver.start();
    s.run_for(Duration::minutes(10));
    return std::make_tuple(s.collector().report().total,
                           s.collector().report().legit_allowed,
                           s.collector().report().legit_denied,
                           s.network().stats().sent,
                           s.network().stats().delivered,
                           s.scheduler().executed_events());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<3>(run(7)), std::get<3>(run(8)));
}

TEST(Convergence, UpdateStormLeavesAllManagersIdentical) {
  ScenarioConfig cfg;
  cfg.managers = 5;
  cfg.app_hosts = 1;
  cfg.users = 20;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(25);
  cfg.protocol.check_quorum = 3;
  cfg.seed = 21;
  Scenario s(cfg);
  Rng rng(33);
  // 200 randomly interleaved updates from random managers.
  for (int i = 0; i < 200; ++i) {
    const UserId u = s.user(static_cast<int>(rng.next_below(20)));
    const int mgr = static_cast<int>(rng.next_below(5));
    if (rng.next_bool(0.5)) {
      s.grant(u, mgr);
    } else {
      s.revoke(u, mgr);
    }
    s.run_for(Duration::millis(rng.next_below(100)));
  }
  s.run_for(Duration::minutes(2));
  const auto reference = s.manager(0).manager().store(s.app())->snapshot();
  ASSERT_FALSE(reference.empty());
  for (int m = 1; m < 5; ++m) {
    EXPECT_EQ(s.manager(m).manager().store(s.app())->snapshot(), reference)
        << "manager " << m << " diverged";
  }
}

TEST(Convergence, ConvergesThroughStorms) {
  ScenarioConfig cfg;
  cfg.managers = 4;
  cfg.app_hosts = 1;
  cfg.users = 10;
  cfg.partitions = ScenarioConfig::Partitions::kStorms;
  cfg.storm.mean_between_storms = Duration::seconds(40);
  cfg.storm.mean_storm_duration = Duration::seconds(20);
  cfg.protocol.check_quorum = 2;
  cfg.seed = 77;
  Scenario s(cfg);
  Rng rng(78);
  for (int i = 0; i < 60; ++i) {
    const UserId u = s.user(static_cast<int>(rng.next_below(10)));
    if (rng.next_bool(0.5)) {
      s.grant(u, static_cast<int>(rng.next_below(4)));
    } else {
      s.revoke(u, static_cast<int>(rng.next_below(4)));
    }
    s.run_for(Duration::seconds(rng.next_below(20)));
  }
  // Long quiet tail: persistent retransmission pushes everything through the
  // storm gaps eventually.
  s.run_for(Duration::minutes(30));
  const auto reference = s.manager(0).manager().store(s.app())->snapshot();
  for (int m = 1; m < 4; ++m) {
    EXPECT_EQ(s.manager(m).manager().store(s.app())->snapshot(), reference);
  }
}

TEST(ProtoProperty, ChaosSweepFiftySeedsZeroViolations) {
  // The full chaos harness in-process: each seed is an independent random
  // deployment (topology, quorums, Te, clock bound, loss/dup rates) driven
  // through a generated schedule of partition storms, crashes, and
  // reconfigurations, with the invariant oracles checking after every event.
  // A shorter horizon than the chaos_runner default keeps the suite quick;
  // chaos_runner --seeds 1000 covers the long-horizon sweep (and CI runs
  // a 100-seed smoke — see docs/CHAOS.md).
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    chaos::ChaosOptions opts;
    opts.seed = seed;
    opts.horizon = Duration::minutes(4);
    const chaos::ChaosResult r = chaos::run_chaos(opts);
    EXPECT_EQ(r.violation_count, 0u)
        << "seed " << seed << ": "
        << (r.violations.empty() ? "(unrecorded)" : r.violations[0].detail);
    EXPECT_GT(r.decisions, 0u) << "seed " << seed << " made no decisions";
  }
}

}  // namespace
}  // namespace wan
