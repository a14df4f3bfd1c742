// Reproduces the §4.1 delay claims:
//   * cache hit:   "very small" (zero network round trips)
//   * cache miss:  O(C) — the slowest round trip of the C managers queried
//   * unreachable: O(R) — R attempts x query timeout
// Measured on the exponential-tail WAN latency model and compared to the
// closed-form order-statistic expectation.
#include <cstdio>
#include <optional>

#include "analysis/overhead_model.hpp"
#include "bench_common.hpp"
#include "bench_main.hpp"
#include "metrics/histogram.hpp"
#include "util/table.hpp"

namespace wan {
namespace {

using bench::fast_mode;
using proto::AccessDecision;
using sim::Duration;

constexpr double kBaseS = 0.040;   // latency model: 40ms propagation
constexpr double kTailS = 0.020;   // + Exp(20ms) queueing tail

workload::ScenarioConfig wan_config(int managers, int check_quorum,
                                    std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.managers = managers;
  cfg.app_hosts = 1;
  cfg.users = 2000;  // fresh user per trial -> every check is a miss
  cfg.partitions = workload::ScenarioConfig::Partitions::kScripted;
  cfg.constant_latency = false;
  cfg.latency_base = Duration::from_seconds(kBaseS);
  cfg.latency_tail = Duration::from_seconds(kTailS);
  cfg.protocol.check_quorum = check_quorum;
  cfg.protocol.max_attempts = 3;
  cfg.protocol.query_timeout = Duration::seconds(2);
  cfg.seed = seed;
  return cfg;
}

/// Mean miss latency over `trials` fresh checks.
double measure_miss(int managers, int check_quorum) {
  workload::Scenario s(wan_config(managers, check_quorum,
                                  static_cast<std::uint64_t>(check_quorum)));
  const int trials = fast_mode() ? 300 : 2000;
  for (int i = 0; i < trials; ++i) s.grant(s.user(i), 0);
  s.run_for(Duration::seconds(30));

  metrics::Histogram hist;
  for (int i = 0; i < trials; ++i) {
    std::optional<AccessDecision> d;
    s.check(0, s.user(i), [&](const AccessDecision& dec) { d = dec; });
    s.run_for(Duration::seconds(10));
    if (d && d->path == proto::DecisionPath::kQuorumGranted) {
      hist.record(d->latency());
    }
  }
  return hist.mean_seconds();
}

double measure_cache_hit(int managers) {
  workload::Scenario s(wan_config(managers, 2, 99));
  s.grant(s.user(0), 0);
  s.run_for(Duration::seconds(5));
  std::optional<AccessDecision> warm;
  s.check(0, s.user(0), [&](const AccessDecision& d) { warm = d; });
  s.run_for(Duration::seconds(5));
  std::optional<AccessDecision> hit;
  s.check(0, s.user(0), [&](const AccessDecision& d) { hit = d; });
  s.run_for(Duration::seconds(5));
  return hit ? hit->latency().to_seconds() : -1.0;
}

double measure_unreachable(int attempts_r) {
  auto cfg = wan_config(3, 2, static_cast<std::uint64_t>(attempts_r) + 50);
  cfg.protocol.max_attempts = attempts_r;
  workload::Scenario s(cfg);
  s.grant(s.user(0), 0);
  s.run_for(Duration::seconds(5));
  for (const HostId m : s.manager_ids()) {
    s.scripted().cut_link(s.host_ids()[0], m);
  }
  std::optional<AccessDecision> d;
  s.check(0, s.user(0), [&](const AccessDecision& dec) { d = dec; });
  s.run_for(Duration::seconds(60));
  return d ? d->latency().to_seconds() : -1.0;
}

}  // namespace
}  // namespace wan

int main(int argc, char** argv) {
  const wan::bench::BenchInfo info{
      "latency",
      "CHECK LATENCY — cache hit vs O(C) miss vs O(R) unreachable",
      "Hiltunen & Schlichting, ICDCS'97, §4.1 (delay discussion)",
      "\"the delay ... is very small if the valid entry is\n"
      "in the cache. If not, the delay is O(C) in the normal case ... but\n"
      "O(R) if the required number are not accessible. Reducing R reduces\n"
      "this worst case delay, but at the cost of reduced security.\""};
  return wan::bench::bench_main(argc, argv, info,
                                [](wan::bench::JsonEmitter& json) {
  using wan::Table;
  const double hit_s = wan::measure_cache_hit(5);
  std::printf("\nCache hit (local lookup, no network): %.6f s\n", hit_s);
  json.record("cache-hit", {{"seconds", hit_s}});

  {
    Table t("\nCache miss, M = 5 managers reachable — mean delay vs C:");
    t.set_header({"C", "measured mean (s)", "order-statistic model (s)"});
    for (const int c : {1, 2, 3, 4, 5}) {
      const double measured = wan::measure_miss(5, c);
      const double model = wan::analysis::expected_check_delay_seconds(
          c, c, wan::kBaseS, wan::kTailS);
      json.record("miss,C=" + std::to_string(c),
                  {{"c", c}, {"measured_s", measured}, {"model_s", model}});
      t.add_row({std::to_string(c), Table::fmt(measured, 4),
                 Table::fmt(model, 4)});
    }
    t.print();
  }
  {
    Table t("\nAll managers unreachable — delay until deny, vs R:");
    t.set_header({"R", "measured (s)", "model R x timeout (s)"});
    for (const int r : {1, 2, 3, 5}) {
      const double measured = wan::measure_unreachable(r);
      const double model = wan::analysis::unreachable_delay_seconds(
          r, wan::sim::Duration::seconds(2));
      json.record("unreachable,R=" + std::to_string(r),
                  {{"r", r}, {"measured_s", measured}, {"model_s", model}});
      t.add_row({std::to_string(r), Table::fmt(measured, 3),
                 Table::fmt(model, 3)});
    }
    t.print();
  }
  });
}
