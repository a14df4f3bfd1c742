// Reproduces the §4.1 overhead claim: "The performance overhead of the
// access control algorithm is naturally O(C/Te), since the access rights
// have to be checked every Te time units and checking them involves
// communication with at least C managers."
//
// Two sweeps on a healthy network with every user continuously active (so
// every (host, user) pair re-validates once per expiry period):
//   1. Te sweep at fixed C — measured control-message rate vs the 2C/te model
//   2. C sweep at fixed Te — ditto
// A healthy re-validation queries exactly C managers, so the model constant
// is literally 2C (C queries + C responses).
#include <cstdio>

#include "analysis/overhead_model.hpp"
#include "bench_common.hpp"
#include "bench_main.hpp"
#include "util/table.hpp"

namespace wan {
namespace {

using bench::horizon;
using sim::Duration;

struct Measured {
  double control_rate;   ///< QueryRequest+QueryResponse per second
  double model_rate;     ///< active_pairs * 2C / te
  double cache_hit_rate;
};

Measured run(Duration te_target, int check_quorum, std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.managers = 5;
  cfg.app_hosts = 2;
  cfg.users = 4;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(20);
  cfg.protocol.check_quorum = check_quorum;
  cfg.protocol.Te = te_target;
  cfg.protocol.clock_bound_b = 1.0;
  cfg.protocol.cache_idle_limit = Duration::hours(10);  // no idle eviction
  cfg.seed = seed;
  workload::Scenario s(cfg);

  workload::DriverConfig dcfg;
  dcfg.access_rate_per_host = 4.0;  // every pair stays warm (<< te between uses)
  dcfg.manager_ops_per_second = 0.0;
  dcfg.initially_granted = 1.0;
  workload::Driver driver(s, dcfg, seed + 1);
  driver.start();

  // Warm up one full expiry period, then measure over a long window.
  s.run_for(te_target + Duration::seconds(5));
  s.network().reset_stats();
  s.collector().reset();
  const Duration window = horizon(Duration::hours(2), Duration::minutes(20));
  s.run_for(window);

  const auto& stats = s.network().stats();
  const auto by_type = stats.sent_by_type();
  const auto queries =
      by_type.count("QueryRequest") ? by_type.at("QueryRequest") : 0;
  const auto responses =
      by_type.count("QueryResponse") ? by_type.at("QueryResponse") : 0;
  const double rate =
      static_cast<double>(queries + responses) / window.to_seconds();
  const double active_pairs = 2.0 * 4.0;  // hosts x users
  const double model =
      active_pairs * analysis::overhead_c_over_te(
                         check_quorum, cfg.protocol.expiry_period());
  const auto& rep = s.collector().report();
  const double hits =
      static_cast<double>(s.collector().path_count(proto::DecisionPath::kCacheHit));
  return Measured{rate, model,
                  rep.total ? hits / static_cast<double>(rep.total) : 0.0};
}

}  // namespace
}  // namespace wan

int main(int argc, char** argv) {
  const wan::bench::BenchInfo info{
      "overhead",
      "OVERHEAD — control-message rate is O(C/Te)",
      "Hiltunen & Schlichting, ICDCS'97, §4.1 (complexity discussion)",
      "ratios ~1.0 confirm the O(C/Te) law; the cache-hit\n"
      "rate shows why per-access cost stays negligible (\"increasing Te\n"
      "reduces the overall overhead ... but also increases the potential\n"
      "delay when an access right is revoked\")."};
  return wan::bench::bench_main(argc, argv, info,
                                [](wan::bench::JsonEmitter& json) {
  using wan::Table;
  {
    Table t("\nSweep 1: Te varies, C = 3  (rate should halve when Te doubles):");
    t.set_header({"Te", "measured msg/s", "model 2C/te msg/s", "ratio",
                  "cache-hit rate"});
    for (const int te_s : {30, 60, 120, 240, 480}) {
      const auto m = wan::run(wan::sim::Duration::seconds(te_s), 3,
                              static_cast<std::uint64_t>(te_s));
      json.record("Te=" + std::to_string(te_s) + "s,C=3",
                  {{"te_s", te_s},
                   {"measured_msgs_per_s", m.control_rate},
                   {"model_msgs_per_s", m.model_rate},
                   {"cache_hit_rate", m.cache_hit_rate}});
      t.add_row({std::to_string(te_s) + "s", Table::fmt(m.control_rate, 4),
                 Table::fmt(m.model_rate, 4),
                 Table::fmt(m.control_rate / m.model_rate, 3),
                 Table::fmt(m.cache_hit_rate, 4)});
    }
    t.print();
  }
  {
    Table t("\nSweep 2: C varies, Te = 120s  (rate should scale linearly in C):");
    t.set_header({"C", "measured msg/s", "model 2C/te msg/s", "ratio",
                  "cache-hit rate"});
    for (const int c : {1, 2, 3, 4, 5}) {
      const auto m = wan::run(wan::sim::Duration::seconds(120), c,
                              static_cast<std::uint64_t>(c) + 100);
      json.record("Te=120s,C=" + std::to_string(c),
                  {{"c", c},
                   {"measured_msgs_per_s", m.control_rate},
                   {"model_msgs_per_s", m.model_rate},
                   {"cache_hit_rate", m.cache_hit_rate}});
      t.add_row({std::to_string(c), Table::fmt(m.control_rate, 4),
                 Table::fmt(m.model_rate, 4),
                 Table::fmt(m.control_rate / m.model_rate, 3),
                 Table::fmt(m.cache_hit_rate, 4)});
    }
    t.print();
  }
  });
}
