// Strategy ablation (§3.3 + §4.2): the quorum protocol (security-first and
// availability-first policies), the freeze strategy, and the three baseline
// designs, all run under IDENTICAL pairwise-partition regimes and workload
// shape, scored on availability, security, and message overhead.
//
// Expected shape (the paper's argument):
//   quorum/deny      — zero security violations, high availability
//   quorum/allow(R)  — higher availability, bounded-but-nonzero leakage
//   freeze           — zero violations, availability collapses as Pi grows
//   full-replication — fast checks, no revocation bound (violations grow
//                      without limit on partitioned hosts), heavy update cost
//   local-only       — no violations but poor availability (all M needed to
//                      find updates) and O(M) checks
//   eventual         — available and cheap, but unbounded staleness
#include <cstdio>
#include <memory>

#include "baseline/baseline_system.hpp"
#include "sim/timer.hpp"
#include "runtime/sim_env.hpp"
#include "bench_common.hpp"
#include "bench_main.hpp"
#include "metrics/collector.hpp"
#include "util/table.hpp"

namespace wan {
namespace {

using bench::horizon;
using sim::Duration;

struct RunResult {
  double availability;
  double security;
  std::uint64_t violations;
  double msgs_per_second;
  double mean_check_latency;
};

constexpr int kManagers = 5;
constexpr int kHosts = 3;
constexpr int kUsers = 8;
const Duration kTe = Duration::seconds(60);

enum class ProtoVariant { kDeny, kAllow, kFreeze };

RunResult run_protocol(ProtoVariant variant, double pi, std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.managers = kManagers;
  cfg.app_hosts = kHosts;
  cfg.users = kUsers;
  cfg.partitions = workload::ScenarioConfig::Partitions::kPairwise;
  cfg.pi = pi;
  cfg.mean_down = Duration::seconds(25);
  cfg.protocol.check_quorum = 3;
  cfg.protocol.Te = kTe;
  cfg.protocol.max_attempts = 2;
  cfg.protocol.query_timeout = Duration::seconds(1);
  if (variant == ProtoVariant::kAllow) {
    cfg.protocol.exhausted_policy = proto::ExhaustedPolicy::kAllow;
  }
  if (variant == ProtoVariant::kFreeze) {
    cfg.protocol.freeze_enabled = true;
    cfg.protocol.Ti = Duration::seconds(20);
    cfg.protocol.heartbeat_period = Duration::seconds(5);
    cfg.protocol.check_quorum = 1;  // freeze replaces quorums (§3.3)
  }
  cfg.seed = seed;
  workload::Scenario s(cfg);

  workload::DriverConfig dcfg;
  dcfg.access_rate_per_host = 2.0;
  dcfg.manager_ops_per_second = 0.05;
  dcfg.revoke_fraction = 0.5;
  workload::Driver driver(s, dcfg, seed + 3);
  driver.start();
  s.run_for(Duration::minutes(2));  // warmup
  s.network().reset_stats();
  s.collector().reset();
  const Duration window = horizon(Duration::hours(2), Duration::minutes(20));
  s.run_for(window);

  const auto& rep = s.collector().report();
  return RunResult{
      rep.availability(), rep.security(), rep.security_violations,
      static_cast<double>(s.network().stats().sent) / window.to_seconds(),
      s.collector().all_latency().mean_seconds()};
}

RunResult run_baseline(baseline::Kind kind, double pi, std::uint64_t seed) {
  sim::Scheduler sched;
  Rng rng(seed);

  std::vector<HostId> mgr_ids, host_ids, all;
  for (std::uint32_t i = 0; i < kManagers; ++i) mgr_ids.push_back(HostId(i));
  for (std::uint32_t i = 0; i < kHosts; ++i) host_ids.push_back(HostId(1000 + i));
  all = mgr_ids;
  all.insert(all.end(), host_ids.begin(), host_ids.end());

  net::Network::Config ncfg;
  ncfg.latency = std::make_unique<net::ExponentialTailLatency>(
      Duration::millis(40), Duration::millis(20));
  ncfg.partitions = std::make_shared<net::PairwiseMarkovPartitions>(
      all, net::PairwiseMarkovPartitions::Config{pi, Duration::seconds(25)});
  net::Network net(sched, rng.split(), std::move(ncfg));
  runtime::SimEnv env(net);

  baseline::BaselineConfig bcfg;
  bcfg.kind = kind;
  bcfg.managers = kManagers;
  bcfg.app_hosts = kHosts;
  bcfg.query_timeout = Duration::seconds(1);
  bcfg.gossip_period = Duration::seconds(15);
  bcfg.seed = seed + 1;
  baseline::BaselineSystem sys(env, AppId(1), mgr_ids, host_ids, bcfg);
  net.start();

  metrics::GroundTruth truth;
  metrics::Collector collector(truth, kTe);
  metrics::Histogram latency;

  // Initial grants (recorded at local-effect time, the only notion these
  // designs have).
  std::vector<bool> granted(kUsers, false);
  for (int u = 0; u < kUsers; ++u) {
    if (rng.next_bool(0.5)) {
      granted[static_cast<std::size_t>(u)] = true;
      const UserId uid(static_cast<std::uint32_t>(u));
      sys.grant(uid, [&truth, uid](sim::TimePoint t) {
        truth.record(AppId(1), uid, acl::Right::kUse, true, t);
      });
    }
  }

  // Poisson accesses per host.
  std::vector<std::unique_ptr<sim::Timer>> access_timers;
  std::function<void(int)> schedule_access = [&](int h) {
    const auto wait = Duration::from_seconds(rng.next_exponential(0.5));
    access_timers[static_cast<std::size_t>(h)]->arm(wait, [&, h] {
      const UserId uid(static_cast<std::uint32_t>(rng.next_below(kUsers)));
      sys.check(h, uid, [&collector, &latency, uid](
                            const baseline::BaselineDecision& d) {
        proto::AccessDecision ad;
        ad.app = AppId(1);
        ad.user = uid;
        ad.requested = d.requested;
        ad.decided = d.decided;
        ad.allowed = d.allowed;
        ad.path = d.allowed ? proto::DecisionPath::kQuorumGranted
                            : proto::DecisionPath::kQuorumDenied;
        collector.observe(ad);
        latency.record(d.latency());
      });
      schedule_access(h);
    });
  };
  for (int h = 0; h < kHosts; ++h) {
    access_timers.push_back(std::make_unique<sim::Timer>(sched));
  }
  for (int h = 0; h < kHosts; ++h) schedule_access(h);

  // Manager op process (0.05 ops/s, half revokes), serialized per run.
  sim::Timer op_timer(sched);
  std::function<void()> schedule_op = [&] {
    const auto wait = Duration::from_seconds(rng.next_exponential(20.0));
    op_timer.arm(wait, [&] {
      const int u = static_cast<int>(rng.next_below(kUsers));
      const UserId uid(static_cast<std::uint32_t>(u));
      const bool cur = granted[static_cast<std::size_t>(u)];
      if (cur && rng.next_bool(0.5)) {
        granted[static_cast<std::size_t>(u)] = false;
        sys.revoke(uid, [&truth, uid](sim::TimePoint t) {
          truth.record(AppId(1), uid, acl::Right::kUse, false, t);
        });
      } else if (!cur) {
        granted[static_cast<std::size_t>(u)] = true;
        sys.grant(uid, [&truth, uid](sim::TimePoint t) {
          truth.record(AppId(1), uid, acl::Right::kUse, true, t);
        });
      }
      schedule_op();
    });
  };
  schedule_op();

  sched.run_until(sched.now() + Duration::minutes(2));  // warmup
  net.reset_stats();
  collector.reset();
  const Duration window = horizon(Duration::hours(2), Duration::minutes(20));
  sched.run_until(sched.now() + window);

  const auto& rep = collector.report();
  return RunResult{rep.availability(), rep.security(), rep.security_violations,
                   static_cast<double>(net.stats().sent) / window.to_seconds(),
                   latency.mean_seconds()};
}

void emit(double pi, bench::JsonEmitter& json) {
  Table t;
  t.set_header({"system", "availability", "security", "violations",
                "msgs/s", "mean check (s)"});
  auto row = [&t, &json, pi](const char* name, const RunResult& r) {
    json.record(std::string(name) + ",Pi=" + std::to_string(pi),
                {{"pi", pi},
                 {"availability", r.availability},
                 {"security", r.security},
                 {"violations", static_cast<double>(r.violations)},
                 {"msgs_per_s", r.msgs_per_second},
                 {"mean_check_s", r.mean_check_latency}});
    t.add_row({name, Table::fmt(r.availability, 4), Table::fmt(r.security, 4),
               Table::fmt(r.violations), Table::fmt(r.msgs_per_second, 2),
               Table::fmt(r.mean_check_latency, 4)});
  };
  row("quorum C=3 (deny)", run_protocol(ProtoVariant::kDeny, pi, 11));
  row("quorum C=3 (allow after R)", run_protocol(ProtoVariant::kAllow, pi, 12));
  row("freeze Ti=20s", run_protocol(ProtoVariant::kFreeze, pi, 13));
  row("full-replication", run_baseline(baseline::Kind::kFullReplication, pi, 14));
  row("local-only", run_baseline(baseline::Kind::kLocalOnly, pi, 15));
  row("eventual-consistency", run_baseline(baseline::Kind::kEventual, pi, 16));
  std::printf("\nPi = %.2f  (M=%d, H=%d, Te reference = 60s):\n", pi, kManagers,
              kHosts);
  t.print();
}

}  // namespace
}  // namespace wan

int main(int argc, char** argv) {
  const wan::bench::BenchInfo info{
      "tradeoff",
      "STRATEGY ABLATION — quorum vs freeze vs baseline designs",
      "Hiltunen & Schlichting, ICDCS'97, §3.3 strategies + §3/§4.2 contrasts",
      "'violations' counts accesses allowed > Te after a\n"
      "revocation took local effect. Only the paper's protocol keeps this at\n"
      "zero while retaining availability; freeze keeps it at zero by giving\n"
      "up availability; the baselines either violate the bound (stale\n"
      "replicas, eventual gossip) or pay in availability/messages."};
  return wan::bench::bench_main(argc, argv, info,
                                [](wan::bench::JsonEmitter& json) {
    wan::emit(0.05, json);
    wan::emit(0.20, json);
  });
}
