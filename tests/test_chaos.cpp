// Chaos harness self-tests: the invariant oracles must catch planted
// violations (an oracle that never fires proves nothing), replays must be
// bit-identical, the shrinker must minimize, and the seeds that exposed real
// protocol bugs must stay fixed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "acl/cache.hpp"
#include "chaos/engine.hpp"
#include "chaos/fault_schedule.hpp"
#include "chaos/oracle.hpp"
#include "net/partition_model.hpp"
#include "proto/access_controller.hpp"
#include "proto/host.hpp"
#include "proto/manager.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using chaos::ChaosOptions;
using chaos::ChaosResult;
using chaos::InvariantOracle;
using chaos::ViolationKind;
using proto::AccessDecision;
using proto::DecisionPath;
using sim::Duration;
using workload::Scenario;
using workload::ScenarioConfig;

// The manager host 0's checks query first.
HostId first_queried(Scenario& s) {
  return s.manager_ids()[s.host(0).controller().first_wave_start(
      s.manager_ids().size())];
}

ScenarioConfig oracle_config() {
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
  cfg.seed = 17;
  return cfg;
}

ScenarioConfig freeze_config() {
  // §3.3 regime: C pinned to 1, the budget Te split between Ti and te.
  ScenarioConfig cfg = oracle_config();
  cfg.protocol.check_quorum = 1;
  cfg.protocol.freeze_enabled = true;
  cfg.protocol.Ti = Duration::seconds(20);
  cfg.protocol.heartbeat_period = Duration::seconds(5);
  return cfg;
}

bool has_kind(const InvariantOracle& oracle, ViolationKind kind) {
  for (const auto& v : oracle.violations()) {
    if (v.kind == kind) return true;
  }
  return false;
}

TEST(ChaosOracle, CleanScenarioReportsNothing) {
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(5));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));
  oracle.final_checks({0, 1, 2});
  EXPECT_EQ(oracle.violation_count(), 0u)
      << (oracle.violations().empty() ? "" : oracle.violations()[0].detail);
  EXPECT_GT(oracle.decisions(), 0u);
  EXPECT_GT(oracle.checkpoints(), 0u);
}

TEST(ChaosOracle, CatchesPlantedCacheTtlOverrun) {
  // An entry whose expiry limit sits further than te ahead of the local
  // clock cannot come from Fig. 3's insertion rule; the oracle must flag it.
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.run_for(Duration::seconds(1));

  auto* cache = s.host(0).controller().mutable_cache(s.app());
  ASSERT_NE(cache, nullptr);
  const clk::LocalTime now = s.host(0).controller().local_now();
  cache->insert(s.user(0), acl::RightSet(acl::Right::kUse),
                now + Duration::seconds(600), acl::Version{}, now);
  oracle.checkpoint();
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kCacheTtlBound));
}

TEST(ChaosOracle, CatchesPlantedLatentRevokedEntry) {
  // A live cache entry > Te past its user's revoke quorum instant means the
  // flush + expiry machinery failed. Plant one (with a limit INSIDE the te
  // bound, so only the latent oracle can fire) and verify detection.
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(2));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));  // well past Te = 60s
  ASSERT_FALSE(has_kind(oracle, ViolationKind::kLatentRevokedEntry));

  auto* cache = s.host(0).controller().mutable_cache(s.app());
  const clk::LocalTime now = s.host(0).controller().local_now();
  cache->insert(s.user(0), acl::RightSet(acl::Right::kUse),
                now + Duration::seconds(30), acl::Version{}, now);
  oracle.checkpoint();
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kLatentRevokedEntry));
  EXPECT_FALSE(has_kind(oracle, ViolationKind::kCacheTtlBound));
}

TEST(ChaosOracle, CatchesSecurityDecisionBeyondTe) {
  // End-to-end decision oracle: revoke, let Te pass, then make the host
  // allow from a planted stale cache entry. The resulting decision must be
  // classified as a security violation.
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(2));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));

  auto* cache = s.host(0).controller().mutable_cache(s.app());
  const clk::LocalTime now = s.host(0).controller().local_now();
  cache->insert(s.user(0), acl::RightSet(acl::Right::kUse),
                now + Duration::seconds(30), acl::Version{}, now);
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(2));
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kSecurityDecision));
}

TEST(ChaosOracle, CatchesConflictingVersionDecisions) {
  // Quorum intersection means one update version cannot read as both grant
  // and revoke; present two crafted decisions that disagree.
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  AccessDecision d;
  d.app = s.app();
  d.user = s.user(0);
  d.host = s.host_ids()[0];
  d.allowed = true;
  d.path = DecisionPath::kQuorumGranted;
  d.basis_version = acl::Version{4, s.manager_ids()[0], 77};
  oracle.ingest(d);
  EXPECT_FALSE(has_kind(oracle, ViolationKind::kQuorumConflict));

  d.allowed = false;
  d.path = DecisionPath::kQuorumDenied;
  oracle.ingest(d);
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kQuorumConflict));
}

TEST(ChaosOracle, ByzantineTaintedVersionIsExemptFromQuorumConflict) {
  // Seed 110 regression: a liar may answer with an INCOMPLETE update's
  // version, bit flipped — hosts whose honest responders are still behind it
  // read the flip, others read the truth, and no intersection argument is
  // violated (the update never completed, so no Te clock runs). Once a
  // byzantine answer carries a version, that version leaves the oracle's
  // equal-version bookkeeping for the rest of the run.
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  const acl::Version v{4, s.manager_ids()[0], 77};

  proto::ManagerModule::QueryAnswerEvent ev;
  ev.app = s.app();
  ev.user = s.user(0);
  ev.host = s.host_ids()[0];
  ev.version = v;
  ev.byzantine = true;
  oracle.ingest_response(0, ev);

  AccessDecision d;
  d.app = s.app();
  d.user = s.user(0);
  d.host = s.host_ids()[0];
  d.allowed = true;
  d.path = DecisionPath::kQuorumGranted;
  d.basis_version = v;
  oracle.ingest(d);
  d.allowed = false;
  d.path = DecisionPath::kQuorumDenied;
  oracle.ingest(d);
  EXPECT_FALSE(has_kind(oracle, ViolationKind::kQuorumConflict));

  // An untouched version still conflicts as before.
  d.basis_version = acl::Version{5, s.manager_ids()[1], 78};
  d.allowed = true;
  d.path = DecisionPath::kQuorumGranted;
  oracle.ingest(d);
  d.allowed = false;
  d.path = DecisionPath::kQuorumDenied;
  oracle.ingest(d);
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kQuorumConflict));
}

TEST(ChaosOracle, DefaultAllowLeaksAreExpectedNotViolations) {
  Scenario s(oracle_config());
  InvariantOracle::Config cfg;
  cfg.default_allow_expected = true;
  InvariantOracle oracle(s, cfg);
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(2));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));

  AccessDecision d;
  d.app = s.app();
  d.user = s.user(0);
  d.host = s.host_ids()[0];
  d.requested = s.scheduler().now();
  d.decided = s.scheduler().now();
  d.allowed = true;
  d.path = DecisionPath::kDefaultAllow;
  oracle.ingest(d);
  EXPECT_FALSE(has_kind(oracle, ViolationKind::kSecurityDecision));
  EXPECT_EQ(oracle.expected_leaks(), 1u);
}

// --- freeze-strategy oracle (tentpole: the §3.3 adversary) ------------------

TEST(FreezeOracle, CleanFreezeRunReportsNothing) {
  Scenario s(freeze_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(5));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));
  oracle.final_checks({0, 1, 2});
  EXPECT_EQ(oracle.violation_count(), 0u)
      << (oracle.violations().empty() ? "" : oracle.violations()[0].detail);
  EXPECT_GT(oracle.decisions(), 0u);
}

TEST(FreezeOracle, CatchesCraftedFrozenAnswerEvent) {
  // Unit-level: an answer event carrying frozen_by_silence must fire
  // regardless of how the manager came to send it.
  Scenario s(freeze_config());
  InvariantOracle oracle(s, {});
  proto::ManagerModule::QueryAnswerEvent ev;
  ev.app = s.app();
  ev.user = s.user(0);
  ev.host = s.host_ids()[0];
  ev.frozen_by_silence = true;
  oracle.ingest_response(0, ev);
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kFrozenManagerAnswered));
}

TEST(FreezeOracle, CatchesManagerAnsweringWhileFrozen) {
  // End-to-end: isolate manager 0 from its peers until §3.3 freezes it, then
  // force frozen() to report false so it answers a live check — the planted
  // compromise the freeze oracle exists to catch.
  Scenario s(freeze_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(5));

  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[1]);
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[2]);
  s.run_for(Duration::seconds(30));  // silence > Ti/b = 20s
  ASSERT_TRUE(s.manager(0).manager().frozen_by_silence(s.app()));
  ASSERT_FALSE(has_kind(oracle, ViolationKind::kFrozenManagerAnswered));

  s.manager(0).manager().debug_override_frozen(false);
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(5));
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kFrozenManagerAnswered));
}

TEST(FreezeOracle, CatchesPrematureUnfreeze) {
  // A manager reporting unfrozen while a peer has been silent past Ti/b
  // contradicts the silence evidence; checkpoint() must flag it.
  Scenario s(freeze_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.run_for(Duration::seconds(5));
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[1]);
  s.scripted().cut_link(s.manager_ids()[0], s.manager_ids()[2]);
  s.run_for(Duration::seconds(30));
  ASSERT_FALSE(has_kind(oracle, ViolationKind::kPrematureUnfreeze));

  s.manager(0).manager().debug_override_frozen(false);
  oracle.checkpoint();
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kPrematureUnfreeze));
}

TEST(FreezeOracle, CatchesAllowBeyondFreezeBound) {
  // Same planted-stale-entry attack as the Te decision oracle test, but in a
  // freeze run: the freeze oracle recomputes the bound from Ti + te*b and
  // must fire alongside the ground-truth classification.
  Scenario s(freeze_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  s.grant(s.user(0));
  s.run_for(Duration::seconds(2));
  s.revoke(s.user(0));
  s.run_for(Duration::seconds(120));  // well past the bound

  auto* cache = s.host(0).controller().mutable_cache(s.app());
  const clk::LocalTime now = s.host(0).controller().local_now();
  cache->insert(s.user(0), acl::RightSet(acl::Right::kUse),
                now + Duration::seconds(30), acl::Version{}, now);
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(2));
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kFreezeBoundExceeded));
}

// --- one-way link oracle (tentpole: asymmetric partitions) ------------------

TEST(OneWayOracle, CatchesDeliveryAcrossCutDirection) {
  // Tell the oracle a direction is cut WITHOUT cutting the model: the next
  // send on that pair is exactly the fabric leak the oracle must flag.
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  oracle.note_one_way_cut(s.host_ids()[0], first_queried(s));
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(2));
  EXPECT_TRUE(has_kind(oracle, ViolationKind::kOneWayDeliveryLeak));
}

TEST(OneWayOracle, HonouredCutReportsNothingAndQuorumRoutesAround) {
  // Cut host 0 -> the first manager it queries, in the model AND the
  // oracle: the network must drop that direction (no leak) while the C=2
  // quorum still assembles from the other two (the hedge reaches the third).
  Scenario s(oracle_config());
  InvariantOracle oracle(s, {});
  oracle.install();
  const HostId m0 = first_queried(s);
  auto& dir = s.directional();
  dir.cut_one_way(s.host_ids()[0], m0);
  oracle.note_one_way_cut(s.host_ids()[0], m0);

  s.grant(s.user(0), 1);
  s.run_for(Duration::seconds(5));
  bool allowed = false;
  s.check(0, s.user(0),
          [&](const proto::AccessDecision& d) { allowed = d.allowed; });
  s.run_for(Duration::seconds(10));
  EXPECT_TRUE(allowed);
  EXPECT_EQ(oracle.violation_count(), 0u)
      << (oracle.violations().empty() ? "" : oracle.violations()[0].detail);

  // Healing re-opens the direction without tripping the observer.
  oracle.note_one_way_heal(s.host_ids()[0], m0);
  dir.heal_one_way(s.host_ids()[0], m0);
  s.check(0, s.user(0));
  s.run_for(Duration::seconds(5));
  EXPECT_EQ(oracle.violation_count(), 0u);
}

TEST(ChaosEngine, ReplayIsBitIdentical) {
  ChaosOptions opts;
  opts.seed = 3;
  opts.horizon = Duration::minutes(2);
  const ChaosResult a = run_chaos(opts);
  const ChaosResult b = run_chaos(opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.events_executed, b.events_executed);

  ChaosOptions other = opts;
  other.seed = 4;
  EXPECT_NE(run_chaos(other).trace_hash, a.trace_hash);
}

TEST(ChaosEngine, PlanGenerationIsDeterministic) {
  const auto a = chaos::make_plan(42, Duration::minutes(8));
  const auto b = chaos::make_plan(42, Duration::minutes(8));
  ASSERT_EQ(a.schedule.events.size(), b.schedule.events.size());
  for (std::size_t i = 0; i < a.schedule.events.size(); ++i) {
    EXPECT_EQ(a.schedule.events[i].at.count_nanos(),
              b.schedule.events[i].at.count_nanos());
    EXPECT_EQ(a.schedule.events[i].kind, b.schedule.events[i].kind);
  }
  EXPECT_EQ(a.scenario.seed, b.scenario.seed);
  EXPECT_EQ(a.driver_seed, b.driver_seed);
  EXPECT_NE(chaos::make_plan(43, Duration::minutes(8)).scenario.seed,
            a.scenario.seed);
}

TEST(ChaosPlan, OptionsDefaultOffKeepsPlansBitIdentical) {
  // Historical seeds (and their CHAOS.md repro lines) must survive the
  // PlanOptions extension: the default-constructed options generate exactly
  // the plan the two-argument overload always generated.
  const auto base = chaos::make_plan(42, Duration::minutes(8));
  const auto with_defaults = chaos::make_plan(42, Duration::minutes(8), {});
  ASSERT_EQ(base.schedule.events.size(), with_defaults.schedule.events.size());
  for (std::size_t i = 0; i < base.schedule.events.size(); ++i) {
    EXPECT_EQ(base.schedule.events[i].at.count_nanos(),
              with_defaults.schedule.events[i].at.count_nanos());
    EXPECT_EQ(base.schedule.events[i].kind, with_defaults.schedule.events[i].kind);
    EXPECT_EQ(base.schedule.events[i].a, with_defaults.schedule.events[i].a);
    EXPECT_EQ(base.schedule.events[i].b, with_defaults.schedule.events[i].b);
  }
  EXPECT_EQ(base.scenario.seed, with_defaults.scenario.seed);
  EXPECT_EQ(base.driver_seed, with_defaults.driver_seed);
  EXPECT_EQ(base.scenario.protocol.byzantine_slack,
            with_defaults.scenario.protocol.byzantine_slack);
}

TEST(ChaosPlan, AdversaryOptionsAppendWithoutPerturbingBaseEvents) {
  // The opt-in drawing sites sit strictly after every base site on the fault
  // stream, so turning them on appends events without re-shaping the base
  // schedule. Check a handful of seeds to cover both freeze and quorum plans.
  const auto is_base_kind = [](chaos::FaultKind k) {
    return k != chaos::FaultKind::kCutLinkOneWay &&
           k != chaos::FaultKind::kHealLinkOneWay &&
           k != chaos::FaultKind::kByzantineManager &&
           k != chaos::FaultKind::kRestoreManager;
  };
  chaos::PlanOptions opts;
  opts.byzantine = true;
  opts.byzantine_max = 1;
  opts.asymmetric = true;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 11ull, 29ull}) {
    const auto base = chaos::make_plan(seed, Duration::minutes(8));
    const auto adv = chaos::make_plan(seed, Duration::minutes(8), opts);

    std::vector<chaos::FaultEvent> kept;
    bool saw_oneway = false;
    bool saw_byz = false;
    for (const auto& e : adv.schedule.events) {
      if (is_base_kind(e.kind)) {
        kept.push_back(e);
      } else {
        saw_oneway |= e.kind == chaos::FaultKind::kCutLinkOneWay;
        saw_byz |= e.kind == chaos::FaultKind::kByzantineManager;
      }
    }
    ASSERT_EQ(kept.size(), base.schedule.events.size()) << "seed " << seed;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].at.count_nanos(),
                base.schedule.events[i].at.count_nanos());
      EXPECT_EQ(kept[i].kind, base.schedule.events[i].kind);
      EXPECT_EQ(kept[i].a, base.schedule.events[i].a);
      EXPECT_EQ(kept[i].b, base.schedule.events[i].b);
    }
    EXPECT_TRUE(saw_oneway) << "seed " << seed;

    const auto& p = adv.scenario.protocol;
    if (p.freeze_enabled) {
      // §3.3 plans never inject liars: C=1 cannot out-vote one.
      EXPECT_FALSE(saw_byz) << "seed " << seed;
      EXPECT_EQ(p.byzantine_slack, 0) << "seed " << seed;
    } else {
      EXPECT_TRUE(saw_byz) << "seed " << seed;
      EXPECT_GE(p.byzantine_slack, 1) << "seed " << seed;
      EXPECT_LE(p.check_quorum, adv.scenario.managers - p.byzantine_slack)
          << "seed " << seed;
    }
  }
}

TEST(ChaosEngine, ByzantineAsymmetricReplayIsBitIdentical) {
  ChaosOptions opts;
  opts.seed = 5;
  opts.horizon = Duration::minutes(2);
  opts.plan.byzantine = true;
  opts.plan.asymmetric = true;
  const ChaosResult a = run_chaos(opts);
  const ChaosResult b = run_chaos(opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ChaosSweep, ByzantineAsymmetricSeedsClean) {
  // Smoke sweep with the full adversary switched on; the 200+ seed sweep
  // lives in tools/chaos_runner, this keeps a tripwire inside ctest.
  ChaosOptions opts;
  opts.horizon = Duration::minutes(4);
  opts.plan.byzantine = true;
  opts.plan.byzantine_max = 1;
  opts.plan.asymmetric = true;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    opts.seed = seed;
    const ChaosResult r = run_chaos(opts);
    EXPECT_EQ(r.violation_count, 0u)
        << "seed " << seed << ": "
        << (r.violations.empty() ? "" : r.violations[0].detail);
  }
}

TEST(ChaosEngine, ShrinkerMinimizesToFailingCore) {
  // Synthetic predicate: the run "fails" iff events 3 AND 7 are both
  // enabled. ddmin must land on exactly {3, 7}.
  int runs = 0;
  const auto fails = [&](const std::vector<int>& subset) {
    ++runs;
    bool has3 = false;
    bool has7 = false;
    for (const int e : subset) {
      has3 |= e == 3;
      has7 |= e == 7;
    }
    return has3 && has7;
  };
  const std::vector<int> core = chaos::shrink_schedule(12, fails);
  EXPECT_EQ(core, (std::vector<int>{3, 7}));
  EXPECT_LE(runs, 64);
}

TEST(ChaosEngine, ShrinkerHandlesAmbientFailure) {
  // A failure that needs no fault events at all shrinks to the empty set.
  const auto fails = [](const std::vector<int>&) { return true; };
  EXPECT_TRUE(chaos::shrink_schedule(9, fails).empty());
}

TEST(ChaosRegression, ByzantineSeedsStayFixed) {
  // Seed 110: a liar answered with an incomplete update's version, bit
  //           flipped, and the version oracle called the resulting cross-host
  //           disagreement a quorum-conflict. Fixed by exempting
  //           byzantine-tainted versions from equal-version bookkeeping
  //           (oracle over-claim, not a protocol bug).
  // Seed 228: a reconfiguration down to ONE manager, which then turned
  //           Byzantine, served a stale grant past Te — `needed` was capped
  //           at the manager-set size, abandoning the C + f floor exactly
  //           when it mattered. Fixed by refusing to decide below C + f
  //           whenever byzantine_slack > 0 (real protocol bug, found by the
  //           security-decision oracle).
  for (const std::uint64_t seed : {110ull, 228ull}) {
    ChaosOptions opts;
    opts.seed = seed;
    opts.plan.byzantine = true;
    opts.plan.byzantine_max = 1;
    opts.plan.asymmetric = true;
    const ChaosResult r = run_chaos(opts);
    EXPECT_EQ(r.violation_count, 0u)
        << "seed " << seed << ": "
        << (r.violations.empty() ? "" : r.violations[0].detail);
  }
}

TEST(ChaosRegression, SeedsThatFoundRealBugsStayFixed) {
  // Seed 7: version reissue after crash recovery (fixed by issue stamps).
  // Seed 645: unsynced manager minting from an empty store (fixed by
  //           deferring submits until the §3.4 sync completes).
  // Seed 784: initial seeding grant racing the first driver op (fixed by
  //           serializing seeding grants per user in the driver).
  for (const std::uint64_t seed : {7ull, 645ull, 784ull}) {
    ChaosOptions opts;
    opts.seed = seed;
    const ChaosResult r = run_chaos(opts);
    EXPECT_EQ(r.violation_count, 0u)
        << "seed " << seed << ": "
        << (r.violations.empty() ? "" : r.violations[0].detail);
  }
}

}  // namespace
}  // namespace wan
