#include "chaos/engine.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>
#include <utility>

#include "proto/host.hpp"
#include "proto/manager.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "workload/driver.hpp"

namespace wan::chaos {

namespace {

/// Time to let the healed system quiesce before convergence checks: every
/// cache entry inserted during the run is dead within Te of insertion, and
/// retransmitting updates/syncs need a little headroom past that.
sim::Duration drain_window(const proto::ProtocolConfig& p) {
  return p.Te + sim::Duration::minutes(2);
}

}  // namespace

ChaosResult run_chaos(const ChaosOptions& opts) {
  ChaosPlan plan = make_plan(opts.seed, opts.horizon, opts.plan);
  const int M = plan.scenario.managers;
  const int H = plan.scenario.app_hosts;

  std::unordered_set<int> enabled;
  if (opts.restrict_events) {
    enabled.insert(opts.only_events.begin(), opts.only_events.end());
  }
  const auto event_enabled = [&](int i) {
    return !opts.restrict_events || enabled.count(i) != 0;
  };

  workload::Scenario scenario(plan.scenario);
  net::DirectionalPartitions& parts = scenario.directional();

  // Stamp protocol log lines (when a caller turned logging on) with this
  // run's simulated clock; discarded-before-format keeps the off path free.
  log::set_time_source(
      [&scenario] { return scenario.scheduler().now().to_seconds(); });
  struct TimeSourceGuard {
    ~TimeSourceGuard() { log::clear_time_source(); }
  } time_source_guard;

  // Span tracing is opt-in per run; installation is process-global, so the
  // caller guarantees no concurrent run shares it (see ChaosOptions::tracer).
  struct TracerGuard {
    explicit TracerGuard(obs::Tracer* t) : installed(t != nullptr) {
      if (installed) obs::install_tracer(t);
    }
    ~TracerGuard() {
      if (installed) obs::install_tracer(nullptr);
    }
    const bool installed;
  } tracer_guard(opts.tracer);

  TraceHasher hasher;
  hasher.mix(opts.seed);
  hasher.mix(static_cast<std::uint64_t>(M));
  hasher.mix(static_cast<std::uint64_t>(H));
  hasher.mix(static_cast<std::uint64_t>(plan.scenario.users));
  hasher.mix(static_cast<std::uint64_t>(plan.scenario.protocol.check_quorum));
  hasher.mix(static_cast<std::uint64_t>(
      plan.scenario.protocol.Te.count_nanos()));
  hasher.mix(plan.schedule.events.size());

  InvariantOracle::Config oracle_config;
  oracle_config.default_allow_expected =
      plan.scenario.protocol.exhausted_policy == proto::ExhaustedPolicy::kAllow;
  InvariantOracle oracle(scenario, oracle_config, &hasher);
  oracle.install();

  ChaosResult result;
  result.seed = opts.seed;
  result.schedule_size = plan.schedule.events.size();

  // Current Managers(app) membership, by manager index; reconfiguration
  // events rewrite it.
  std::vector<int> members;
  for (int m = 0; m < M; ++m) members.push_back(m);

  const auto site_id = [&](int s) -> HostId {
    WAN_REQUIRE(s >= 0 && s < M + H);
    return s < M ? scenario.manager_ids()[static_cast<std::size_t>(s)]
                 : scenario.host_ids()[static_cast<std::size_t>(s - M)];
  };

  const auto trace = [&](std::string line) {
    if (opts.trace) result.trace_lines.push_back(std::move(line));
  };

  // Applies one fault NOW; returns whether it had any effect (a crash of an
  // already-down site, or a reconfiguration naming a down manager, is a
  // recorded no-op — the hash covers the applied flag so replays agree).
  const auto apply_fault = [&](const FaultEvent& e) -> bool {
    switch (e.kind) {
      case FaultKind::kSplit: {
        std::vector<std::vector<HostId>> groups;
        for (const auto& g : e.groups) {
          if (g.empty()) continue;
          std::vector<HostId> ids;
          for (const int s : g) ids.push_back(site_id(s));
          groups.push_back(std::move(ids));
        }
        parts.split(groups);
        return true;
      }
      case FaultKind::kHealSplit:
        parts.split({});  // clears the component split; link cuts persist
        return true;
      case FaultKind::kCutLink:
        parts.cut_link(site_id(e.a), site_id(e.b));
        return true;
      case FaultKind::kHealLink:
        parts.heal_link(site_id(e.a), site_id(e.b));
        return true;
      case FaultKind::kCrashManager: {
        auto& mgr = scenario.manager(e.a);
        if (!mgr.up()) return false;
        mgr.crash();
        return true;
      }
      case FaultKind::kRecoverManager: {
        auto& mgr = scenario.manager(e.a);
        if (mgr.up()) return false;
        mgr.recover();
        return true;
      }
      case FaultKind::kCrashHost: {
        auto& host = scenario.host(e.a);
        if (!host.up()) return false;
        host.crash();
        return true;
      }
      case FaultKind::kRecoverHost: {
        auto& host = scenario.host(e.a);
        if (host.up()) return false;
        host.recover();
        return true;
      }
      case FaultKind::kReconfigure: {
        // §3.2: the set changes through the trusted name service. The
        // operator moving Managers(app) would not pick a dead newcomer, so a
        // reconfiguration naming a down manager is skipped, not forced.
        for (const int m : e.members) {
          if (!scenario.manager(m).up()) return false;
        }
        if (e.members == members) return false;
        std::vector<HostId> ids;
        for (const int m : e.members) {
          ids.push_back(scenario.manager_ids()[static_cast<std::size_t>(m)]);
        }
        scenario.names().set_managers(scenario.app(), ids);
        const std::set<int> next(e.members.begin(), e.members.end());
        for (const int m : e.members) {
          scenario.manager(m).manager().reconfigure_app(scenario.app(), ids);
        }
        for (const int m : members) {
          if (next.count(m) == 0) {
            scenario.manager(m).manager().forget_app(scenario.app());
          }
        }
        members = e.members;
        scenario.set_active_managers(members);
        return true;
      }
      case FaultKind::kCutLinkOneWay: {
        const HostId from = site_id(e.a);
        const HostId to = site_id(e.b);
        parts.cut_one_way(from, to);
        oracle.note_one_way_cut(from, to);
        return true;
      }
      case FaultKind::kHealLinkOneWay: {
        const HostId from = site_id(e.a);
        const HostId to = site_id(e.b);
        // Heal the oracle's view FIRST: the model change is what we audit,
        // and a heal delivered between the two calls must not count as a leak.
        oracle.note_one_way_heal(from, to);
        parts.heal_one_way(from, to);
        return true;
      }
      case FaultKind::kByzantineManager: {
        auto& mgr = scenario.manager(e.a);
        if (!mgr.up() || mgr.manager().byzantine()) return false;
        mgr.manager().set_byzantine(e.aux);
        return true;
      }
      case FaultKind::kRestoreManager: {
        auto& mgr = scenario.manager(e.a);
        if (!mgr.up() || !mgr.manager().byzantine()) return false;
        mgr.manager().restore_honest();
        // Remediation keeps the stale store; anti-entropy brings the manager
        // back to the current update set (and completes its parked submits).
        mgr.manager().resync(scenario.app());
        return true;
      }
    }
    return false;
  };

  const sim::TimePoint start = scenario.scheduler().now();
  for (std::size_t i = 0; i < plan.schedule.events.size(); ++i) {
    if (!event_enabled(static_cast<int>(i))) continue;
    const FaultEvent& e = plan.schedule.events[i];
    scenario.scheduler().schedule_at(start + e.at, [&, i, &e = e] {
      const bool applied = apply_fault(e);
      if (applied) ++result.faults_applied;
      hasher.mix(0xFA01u);
      hasher.mix(i);
      hasher.mix(static_cast<std::uint64_t>(e.kind));
      hasher.mix(applied ? 1 : 0);
      trace("t=" + sim::to_string(scenario.scheduler().now()) + "  fault #" +
            std::to_string(i) + " " + to_cstring(e.kind) +
            (applied ? "" : " (no-op)"));
    });
  }

  workload::Driver driver(scenario, plan.driver, plan.driver_seed);
  driver.start();
  scenario.run_for(opts.horizon);
  driver.stop();

  // Epilogue: heal the world, bring every site back, remediate any manager
  // still lying, and drain until all cached state and in-flight protocol
  // activity must have settled.
  parts.heal_all();
  oracle.note_all_one_way_healed();
  for (int m = 0; m < M; ++m) {
    if (!scenario.manager(m).up()) scenario.manager(m).recover();
  }
  for (int m = 0; m < M; ++m) {
    if (scenario.manager(m).up() && scenario.manager(m).manager().byzantine()) {
      scenario.manager(m).manager().restore_honest();
    }
  }
  for (int h = 0; h < H; ++h) {
    if (!scenario.host(h).up()) scenario.host(h).recover();
  }
  scenario.run_for(sim::Duration::seconds(10));
  // Post-incident administrative anti-entropy: every member pulls, merges,
  // and pushes back. After this, convergence failure at final_checks means a
  // merge-impossibility bug (e.g. two distinct updates sharing a version),
  // never mere gossip lag for an update stranded by an issuer crash.
  for (const int m : members) scenario.manager(m).manager().resync(scenario.app());
  scenario.run_for(drain_window(plan.scenario.protocol));

  oracle.final_checks(members);

  hasher.mix(0xF1A1u);
  hasher.mix(oracle.decisions());
  hasher.mix(scenario.collector().report().total);

  result.trace_hash = hasher.value();
  result.violations = oracle.violations();
  result.violation_count = oracle.violation_count();
  result.decisions = oracle.decisions();
  result.checkpoints = oracle.checkpoints();
  result.entries_audited = oracle.entries_audited();
  result.expected_leaks = oracle.expected_leaks();
  result.events_executed = scenario.scheduler().executed_events();
  result.report = scenario.collector().report();
  for (const Violation& v : result.violations) {
    trace("t=" + sim::to_string(v.at) + "  VIOLATION " +
          std::string(to_cstring(v.kind)) + ": " + v.detail);
  }
  if (opts.tracer != nullptr) {
    result.te =
        obs::TeProbe::analyze(opts.tracer->events(), plan.scenario.protocol.Te);
    result.te_checked = true;
  }
  return result;
}

std::vector<int> shrink_schedule(
    int n, const std::function<bool(const std::vector<int>&)>& fails,
    int max_runs) {
  WAN_REQUIRE(n >= 0);
  std::vector<int> current;
  for (int i = 0; i < n; ++i) current.push_back(i);
  int runs = 0;
  const auto try_fails = [&](const std::vector<int>& subset) {
    ++runs;
    return fails(subset);
  };

  // The failure may not need any injected fault at all (ambient loss or
  // clock skew alone); that is the smallest possible answer.
  if (n == 0 || try_fails({})) return {};

  // Classic ddmin: try dropping ever-finer complements.
  std::size_t granularity = 2;
  while (current.size() >= 2 && runs < max_runs) {
    const std::size_t chunk =
        (current.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t begin = 0; begin < current.size() && runs < max_runs;
         begin += chunk) {
      const std::size_t end = std::min(begin + chunk, current.size());
      std::vector<int> complement;
      complement.reserve(current.size() - (end - begin));
      complement.insert(complement.end(), current.begin(),
                        current.begin() + static_cast<std::ptrdiff_t>(begin));
      complement.insert(complement.end(),
                        current.begin() + static_cast<std::ptrdiff_t>(end),
                        current.end());
      if (try_fails(complement)) {
        current = std::move(complement);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }
  return current;
}

ShrinkOutcome shrink_failing_run(const ChaosOptions& opts) {
  const ChaosPlan plan = make_plan(opts.seed, opts.horizon, opts.plan);
  const auto fails = [&](const std::vector<int>& subset) {
    ChaosOptions sub = opts;
    sub.trace = false;
    sub.restrict_events = true;
    sub.only_events = subset;
    return !run_chaos(sub).ok();
  };
  ShrinkOutcome out;
  out.events = shrink_schedule(
      static_cast<int>(plan.schedule.events.size()), fails);
  ChaosOptions final_opts = opts;
  final_opts.restrict_events = true;
  final_opts.only_events = out.events;
  out.result = run_chaos(final_opts);
  return out;
}

}  // namespace wan::chaos
