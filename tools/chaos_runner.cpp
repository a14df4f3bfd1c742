// chaos_runner — seed-swept fault-injection harness.
//
// Sweeps N seeds through the chaos engine on parallel worker threads; every
// seed is an independent, fully deterministic simulated deployment with its
// own fault schedule and invariant oracle. Failures print a one-command
// repro line and are double-checked for bit-identical replay (same event
// trace hash) before being reported, so a flaky report is impossible by
// construction — only a genuinely divergent replay could produce one, and
// that is itself reported as a determinism bug.
//
//   chaos_runner --seeds 1000                 # sweep seeds 1..1000
//   chaos_runner --replay 1337 --trace        # reproduce one run, verbosely
//   chaos_runner --replay 1337 --shrink       # minimize its fault schedule
//   chaos_runner --trace out.json 1337        # replay + Chrome span trace
//   chaos_runner --seeds 500 --max-seconds 60 # time-budgeted sweep
//   chaos_runner --seeds 200 --byzantine 1 --asymmetric --json sweep.json
//
// A bare positional integer is shorthand for --replay SEED. When --trace is
// followed by a filename (anything that is not a flag or an integer), the
// replay additionally records causal spans through the whole protocol stack
// and writes them as Chrome trace_event JSON (open in about:tracing or
// https://ui.perfetto.dev), plus an empirical-Te report comparing measured
// revocation latency against the configured bound. --metrics PATH dumps the
// process-wide metrics registry in Prometheus text format on exit.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/engine.hpp"
#include "cli.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace {

using wan::chaos::ChaosOptions;
using wan::chaos::ChaosResult;
using wan::cli::parse_u64;

struct Options {
  std::uint64_t seeds = 100;
  std::uint64_t seed_base = 1;
  unsigned threads = 0;  // 0 = hardware concurrency
  bool replay = false;
  std::uint64_t replay_seed = 0;
  bool trace = false;
  bool shrink = false;
  std::vector<int> only_events;
  bool restrict_events = false;
  long max_seconds = 0;  // 0 = no budget
  long horizon_minutes = 8;
  std::string log_level;  // empty = logging off
  int byzantine = 0;      // liars per run (0 = adversary off)
  bool asymmetric = false;
  std::string json_path;   // empty = no machine-readable summary
  std::string trace_path;  // --trace FILE: Chrome trace_event JSON (replay)
  std::string metrics_path;  // --metrics PATH: Prometheus dump on exit
};

/// Registers every flag on the shared parser. Returns false (error already
/// printed) on a bad command line.
bool parse_args(int argc, char** argv, Options* opt) {
  wan::cli::Parser cli(
      "chaos_runner",
      "Seed-swept fault-injection harness: each seed is an independent,\n"
      "deterministic simulated deployment with its own fault schedule and\n"
      "invariant oracle. Failures print a one-command repro line and are\n"
      "double-checked for bit-identical replay before being reported.");
  cli.add_value("--seeds", "N", "sweep seeds B..B+N-1 (default 100)",
                [opt](const std::string& v) {
                  return parse_u64(v, &opt->seeds) && opt->seeds != 0;
                });
  cli.add_value("--seed-base", "B", "first seed of the sweep (default 1)",
                [opt](const std::string& v) {
                  return parse_u64(v, &opt->seed_base);
                });
  cli.add_value("--threads", "T",
                "worker threads (default: hardware concurrency)",
                [opt](const std::string& v) {
                  std::uint64_t t = 0;
                  if (!parse_u64(v, &t) || t == 0) return false;
                  opt->threads = static_cast<unsigned>(t);
                  return true;
                });
  cli.add_value("--replay", "SEED",
                "run exactly one seed and report it in detail",
                [opt](const std::string& v) {
                  opt->replay = true;
                  return parse_u64(v, &opt->replay_seed);
                });
  cli.add_value("--only-events", "i,j",
                "inject only these fault-schedule indices ('none' = no\n"
                "faults at all)",
                [opt](const std::string& v) {
                  opt->restrict_events = true;
                  if (v == "none") return true;
                  std::string item;
                  for (std::size_t p = 0; p <= v.size(); ++p) {
                    if (p == v.size() || v[p] == ',') {
                      if (!item.empty()) {
                        std::uint64_t idx = 0;
                        if (!parse_u64(item, &idx)) return false;
                        opt->only_events.push_back(static_cast<int>(idx));
                      }
                      item.clear();
                    } else {
                      item.push_back(v[p]);
                    }
                  }
                  return true;
                });
  cli.add_optional_value(
      "--trace", "[FILE]",
      "print per-fault and per-violation trace lines; with FILE, also\n"
      "write causal spans as Chrome trace_event JSON and report\n"
      "empirical Te",
      [opt] { opt->trace = true; },
      [opt](const std::string& v) {
        opt->trace_path = v;
        return true;
      },
      // A bare integer after --trace is the positional replay seed, not a
      // filename.
      [](const std::string& v) {
        std::uint64_t ignored = 0;
        return !v.empty() && v[0] != '-' && !parse_u64(v, &ignored);
      });
  cli.add_string("--metrics", "PATH",
                 "dump the metrics registry (Prometheus text) to PATH on exit",
                 &opt->metrics_path);
  cli.add_flag("--shrink",
               "on a failing replay, minimize the fault schedule",
               &opt->shrink);
  cli.add_value("--max-seconds", "S",
                "stop launching new seeds after S wall seconds",
                [opt](const std::string& v) {
                  std::uint64_t s = 0;
                  if (!parse_u64(v, &s)) return false;
                  opt->max_seconds = static_cast<long>(s);
                  return true;
                });
  cli.add_value("--horizon-minutes", "M",
                "simulated minutes of chaos per seed (default 8)",
                [opt](const std::string& v) {
                  std::uint64_t m = 0;
                  if (!parse_u64(v, &m) || m == 0) return false;
                  opt->horizon_minutes = static_cast<long>(m);
                  return true;
                });
  cli.add_value("--byzantine", "N",
                "inject up to N lying managers per run",
                [opt](const std::string& v) {
                  std::uint64_t n = 0;
                  if (!parse_u64(v, &n) || n == 0) return false;
                  opt->byzantine = static_cast<int>(n);
                  return true;
                });
  cli.add_flag("--asymmetric", "inject one-way link cuts", &opt->asymmetric);
  cli.add_string("--json", "PATH",
                 "write a machine-readable sweep summary to PATH",
                 &opt->json_path);
  cli.add_value("--log", "LEVEL",
                "protocol log (trace|debug|info); replay only",
                [opt](const std::string& v) {
                  opt->log_level = v;
                  return v == "trace" || v == "debug" || v == "info";
                });
  cli.set_positional(
      "SEED", "bare integer: shorthand for --replay SEED",
      [opt, seen = false](const std::string& v) mutable {
        // A second positional used to silently overwrite the first; now it
        // is a hard error.
        if (seen || opt->replay) {
          std::fprintf(stderr,
                       "chaos_runner: replay seed already given; "
                       "unexpected extra argument: %s\n",
                       v.c_str());
          return false;
        }
        if (!parse_u64(v, &opt->replay_seed)) return false;
        seen = true;
        opt->replay = true;
        return true;
      });
  return cli.parse(argc, argv);
}

ChaosOptions to_chaos_options(const Options& opt, std::uint64_t seed) {
  ChaosOptions c;
  c.seed = seed;
  c.horizon = wan::sim::Duration::minutes(opt.horizon_minutes);
  c.trace = opt.trace;
  c.restrict_events = opt.restrict_events;
  c.only_events = opt.only_events;
  c.plan.byzantine = opt.byzantine > 0;
  c.plan.byzantine_max = opt.byzantine > 0 ? opt.byzantine : 1;
  c.plan.asymmetric = opt.asymmetric;
  return c;
}

/// Adversary flags change the generated plan, so repro lines must carry them.
std::string repro_flags(const Options& opt) {
  std::string s;
  if (opt.byzantine > 0) s += " --byzantine " + std::to_string(opt.byzantine);
  if (opt.asymmetric) s += " --asymmetric";
  if (opt.horizon_minutes != 8)
    s += " --horizon-minutes " + std::to_string(opt.horizon_minutes);
  return s;
}

void print_te_report(const ChaosResult& r) {
  if (!r.te_checked) return;
  std::printf(
      "  empirical Te: revocations=%llu measured=%llu violations=%llu "
      "max=%.3fs mean=%.3fs bound=%.3fs%s\n",
      static_cast<unsigned long long>(r.te.revocations),
      static_cast<unsigned long long>(r.te.measured),
      static_cast<unsigned long long>(r.te.violations), r.te.max_seconds,
      r.te.mean_seconds, r.te.bound_seconds,
      r.te.ok() ? "" : "  ** BOUND EXCEEDED **");
}

void dump_metrics(const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string text = wan::obs::Registry::global().prometheus_text();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

void print_result(const ChaosResult& r) {
  std::printf(
      "seed %llu: %s  (decisions=%llu checkpoints=%llu entries-audited=%llu "
      "faults=%zu/%zu expected-leaks=%llu trace-hash=%016llx)\n",
      static_cast<unsigned long long>(r.seed),
      r.ok() ? "OK" : "VIOLATIONS",
      static_cast<unsigned long long>(r.decisions),
      static_cast<unsigned long long>(r.checkpoints),
      static_cast<unsigned long long>(r.entries_audited),
      r.faults_applied, r.schedule_size,
      static_cast<unsigned long long>(r.expected_leaks),
      static_cast<unsigned long long>(r.trace_hash));
  for (const auto& line : r.trace_lines) std::printf("  %s\n", line.c_str());
  for (const auto& v : r.violations) {
    std::printf("  violation [%s] at %s (event #%llu): %s\n",
                wan::chaos::to_cstring(v.kind),
                wan::sim::to_string(v.at).c_str(),
                static_cast<unsigned long long>(v.event_index),
                v.detail.c_str());
  }
}

int run_replay(const Options& opt) {
  if (!opt.log_level.empty()) {
    using wan::log::Level;
    const Level lvl = opt.log_level == "trace"  ? Level::kTrace
                      : opt.log_level == "info" ? Level::kInfo
                                                : Level::kDebug;
    wan::log::set_level(lvl);
  }
  // Span tracing covers only the first (reported) run: the determinism
  // double-check and the shrinker re-run the engine many times, and the
  // tracer installation is process-global.
  wan::obs::Tracer tracer;
  ChaosOptions chaos_opts = to_chaos_options(opt, opt.replay_seed);
  if (!opt.trace_path.empty()) chaos_opts.tracer = &tracer;
  const ChaosResult r = run_chaos(chaos_opts);
  wan::log::set_level(wan::log::Level::kOff);
  print_result(r);
  print_te_report(r);
  if (!opt.trace_path.empty()) {
    if (tracer.write_chrome_json(opt.trace_path)) {
      std::printf("  wrote %zu span(s), %zu log line(s) to %s%s\n",
                  tracer.size(), tracer.log_lines().size(),
                  opt.trace_path.c_str(),
                  tracer.dropped() == 0 ? "" : "  (capacity hit; some dropped)");
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
      return 2;
    }
  }
  dump_metrics(opt.metrics_path);
  if (r.te_checked && !r.te.ok()) return 1;
  if (r.ok()) return 0;

  // Replay determinism check: the same inputs must hash identically.
  const ChaosResult again = run_chaos(to_chaos_options(opt, opt.replay_seed));
  if (again.trace_hash != r.trace_hash) {
    std::printf("DETERMINISM BUG: replay hash %016llx != %016llx\n",
                static_cast<unsigned long long>(again.trace_hash),
                static_cast<unsigned long long>(r.trace_hash));
    return 2;
  }
  if (opt.shrink) {
    const auto shrunk =
        wan::chaos::shrink_failing_run(to_chaos_options(opt, opt.replay_seed));
    std::printf("shrunk to %zu/%zu fault events:", shrunk.events.size(),
                r.schedule_size);
    std::string csv;
    for (const int e : shrunk.events) {
      if (!csv.empty()) csv.push_back(',');
      csv += std::to_string(e);
      std::printf(" %d", e);
    }
    std::printf("\n");
    if (shrunk.result.ok()) {
      // ddmin converged onto a subset that no longer fails (can happen when
      // the minimal subset interacts with max_runs); fall back to full set.
      std::printf("(shrunk subset no longer fails; keep the full schedule)\n");
    } else {
      std::printf(
          "repro: chaos_runner --replay %llu --only-events %s%s --trace\n",
          static_cast<unsigned long long>(opt.replay_seed),
          csv.empty() ? "none" : csv.c_str(), repro_flags(opt).c_str());
      for (const auto& v : shrunk.result.violations) {
        std::printf("  violation [%s]: %s\n", wan::chaos::to_cstring(v.kind),
                    v.detail.c_str());
      }
    }
  }
  return 1;
}

/// Compact per-seed fingerprint for the machine-readable summary. The trace
/// hash covers every decision, oracle verdict, and fault application in the
/// run, so two sweeps whose per-seed records match are bit-identical — this
/// is what refactors of the simulation substrate pin themselves against.
struct SeedRecord {
  std::uint64_t seed = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t decisions = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t entries_audited = 0;
  std::uint64_t violations = 0;
  std::size_t faults_applied = 0;
};

struct SweepState {
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> decisions{0};
  std::atomic<std::uint64_t> faults{0};
  std::atomic<bool> out_of_time{false};
  std::mutex mu;
  std::vector<ChaosResult> failures;
  std::vector<std::uint64_t> nondeterministic;
  std::vector<SeedRecord> records;  ///< collected only when --json is given
};

int run_sweep(const Options& opt) {
  if (!opt.trace_path.empty()) {
    // Seeds run on parallel workers and the tracer install is process-global.
    std::fprintf(stderr,
                 "--trace FILE applies only to single-seed replay; ignoring\n");
  }
  const unsigned threads =
      opt.threads != 0
          ? opt.threads
          : std::max(1u, std::thread::hardware_concurrency());
  const auto start = std::chrono::steady_clock::now();
  SweepState state;

  const auto worker = [&] {
    for (;;) {
      const std::uint64_t idx =
          state.next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= opt.seeds) return;
      if (opt.max_seconds > 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        if (elapsed >= opt.max_seconds) {
          state.out_of_time.store(true, std::memory_order_relaxed);
          state.skipped.fetch_add(1, std::memory_order_relaxed);
          continue;  // keep draining indices so the sweep ends promptly
        }
      }
      const std::uint64_t seed = opt.seed_base + idx;
      ChaosResult r = run_chaos(to_chaos_options(opt, seed));
      state.completed.fetch_add(1, std::memory_order_relaxed);
      state.decisions.fetch_add(r.decisions, std::memory_order_relaxed);
      state.faults.fetch_add(r.faults_applied, std::memory_order_relaxed);
      if (!opt.json_path.empty()) {
        const SeedRecord rec{r.seed,        r.trace_hash,     r.decisions,
                             r.events_executed, r.checkpoints,
                             r.entries_audited, r.violation_count,
                             r.faults_applied};
        std::lock_guard<std::mutex> lock(state.mu);
        state.records.push_back(rec);
      }
      if (!r.ok()) {
        // Confirm the failure replays bit-identically before reporting it.
        const ChaosResult again = run_chaos(to_chaos_options(opt, seed));
        std::lock_guard<std::mutex> lock(state.mu);
        if (again.trace_hash != r.trace_hash) {
          state.nondeterministic.push_back(seed);
        }
        state.failures.push_back(std::move(r));
      }
    }
  };

  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();

  const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::printf(
      "chaos sweep: %llu/%llu seeds run (%llu skipped by --max-seconds), "
      "%u threads, %.1fs wall\n",
      static_cast<unsigned long long>(state.completed.load()),
      static_cast<unsigned long long>(opt.seeds),
      static_cast<unsigned long long>(state.skipped.load()), threads,
      static_cast<double>(wall) / 1000.0);
  std::printf(
      "  %llu decisions audited, %llu faults injected, %zu failing seed(s)"
      "%s%s\n",
      static_cast<unsigned long long>(state.decisions.load()),
      static_cast<unsigned long long>(state.faults.load()),
      state.failures.size(), opt.byzantine > 0 ? " [byzantine]" : "",
      opt.asymmetric ? " [asymmetric]" : "");

  // Per-kind violation tally across failing seeds (recorded violations only;
  // each run stores at most its oracle's max_violations).
  std::map<std::string, std::uint64_t> by_kind;
  for (const auto& r : state.failures) {
    for (const auto& v : r.violations) ++by_kind[wan::chaos::to_cstring(v.kind)];
  }
  for (const auto& [kind, count] : by_kind) {
    std::printf("  violations [%s]: %llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }

  for (const auto& r : state.failures) {
    print_result(r);
    std::printf("  repro: chaos_runner --replay %llu%s --trace\n",
                static_cast<unsigned long long>(r.seed),
                repro_flags(opt).c_str());
  }
  for (const std::uint64_t seed : state.nondeterministic) {
    std::printf("DETERMINISM BUG: seed %llu does not replay bit-identically\n",
                static_cast<unsigned long long>(seed));
  }

  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"seeds\": %llu,\n",
                 static_cast<unsigned long long>(opt.seeds));
    std::fprintf(f, "  \"seed_base\": %llu,\n",
                 static_cast<unsigned long long>(opt.seed_base));
    std::fprintf(f, "  \"completed\": %llu,\n",
                 static_cast<unsigned long long>(state.completed.load()));
    std::fprintf(f, "  \"skipped\": %llu,\n",
                 static_cast<unsigned long long>(state.skipped.load()));
    std::fprintf(f, "  \"byzantine\": %d,\n", opt.byzantine);
    std::fprintf(f, "  \"asymmetric\": %s,\n",
                 opt.asymmetric ? "true" : "false");
    std::fprintf(f, "  \"decisions\": %llu,\n",
                 static_cast<unsigned long long>(state.decisions.load()));
    std::fprintf(f, "  \"faults\": %llu,\n",
                 static_cast<unsigned long long>(state.faults.load()));
    std::fprintf(f, "  \"failing_seeds\": [");
    for (std::size_t i = 0; i < state.failures.size(); ++i) {
      std::fprintf(f, "%s%llu", i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(state.failures[i].seed));
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"nondeterministic_seeds\": [");
    for (std::size_t i = 0; i < state.nondeterministic.size(); ++i) {
      std::fprintf(f, "%s%llu", i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(state.nondeterministic[i]));
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"violations_by_kind\": {");
    bool first = true;
    for (const auto& [kind, count] : by_kind) {
      std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", kind.c_str(),
                   static_cast<unsigned long long>(count));
      first = false;
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"wall_seconds\": %.3f,\n",
                 static_cast<double>(wall) / 1000.0);
    // Per-seed fingerprints, sorted by seed so two sweeps diff line-by-line
    // regardless of worker interleaving. `wall_seconds` above is the only
    // field expected to differ between bit-identical sweeps.
    std::sort(state.records.begin(), state.records.end(),
              [](const SeedRecord& a, const SeedRecord& b) {
                return a.seed < b.seed;
              });
    std::fprintf(f, "  \"per_seed\": [\n");
    for (std::size_t i = 0; i < state.records.size(); ++i) {
      const SeedRecord& r = state.records[i];
      std::fprintf(
          f,
          "    {\"seed\": %llu, \"trace_hash\": \"%016llx\", "
          "\"decisions\": %llu, \"events\": %llu, \"checkpoints\": %llu, "
          "\"entries_audited\": %llu, \"violations\": %llu, \"faults\": %zu}%s\n",
          static_cast<unsigned long long>(r.seed),
          static_cast<unsigned long long>(r.trace_hash),
          static_cast<unsigned long long>(r.decisions),
          static_cast<unsigned long long>(r.events_executed),
          static_cast<unsigned long long>(r.checkpoints),
          static_cast<unsigned long long>(r.entries_audited),
          static_cast<unsigned long long>(r.violations), r.faults_applied,
          i + 1 == state.records.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  dump_metrics(opt.metrics_path);
  if (!state.failures.empty() || !state.nondeterministic.empty()) return 1;
  std::printf("  zero invariant violations\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  return opt.replay ? run_replay(opt) : run_sweep(opt);
}
