// Observability tests: metric registry handle semantics and exposition,
// counter exactness under real-thread concurrency, the zero-cost-when-off
// tracer guard, span causality over a full simulated revocation, and the
// bit-identical-trace guarantee across identical SimEnv runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/te_probe.hpp"
#include "obs/trace.hpp"
#include "runtime/threaded_env.hpp"
#include "util/logging.hpp"
#include "workload/scenario.hpp"

namespace wan {
namespace {

using obs::Registry;
using obs::SpanKind;
using obs::TeProbe;
using obs::TeReport;
using obs::TraceEvent;
using obs::Tracer;
using obs::TracerScope;
using sim::Duration;
using sim::TimePoint;

// ------------------------------------------------------------- Registry

TEST(Registry, HandlesAreStableAndValuesExposed) {
  auto& reg = Registry::global();
  obs::Counter& c = reg.counter("wan_test_stable_total{case=\"a\"}");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc();
  EXPECT_EQ(c.value(), before + 2);
  // Same name must return the same object — handles are cached by callers.
  EXPECT_EQ(&c, &reg.counter("wan_test_stable_total{case=\"a\"}"));

  obs::Gauge& g = reg.gauge("wan_test_stable_gauge");
  g.set(-3);
  g.add(5);
  EXPECT_EQ(g.value(), 2);

  obs::Histo& h = reg.histogram("wan_test_stable_seconds");
  h.observe_seconds(0.25);
  h.observe(Duration::millis(750));

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE wan_test_stable_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("wan_test_stable_total{case=\"a\"}"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wan_test_stable_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("wan_test_stable_gauge 2"), std::string::npos);
  EXPECT_NE(text.find("wan_test_stable_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("wan_test_stable_seconds{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(Registry, FamilyHeaderEmittedOncePerLabelSet) {
  auto& reg = Registry::global();
  reg.counter("wan_test_family_total{path=\"x\"}").inc();
  reg.counter("wan_test_family_total{path=\"y\"}").inc();
  const std::string text = reg.prometheus_text();
  std::size_t count = 0;
  for (std::size_t pos = text.find("# TYPE wan_test_family_total counter");
       pos != std::string::npos;
       pos = text.find("# TYPE wan_test_family_total counter", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Registry, CounterIsExactUnderThreadConcurrency) {
  auto& reg = Registry::global();
  obs::Counter& c = reg.counter("wan_test_concurrent_total");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), before + static_cast<std::uint64_t>(kThreads) *
                                    static_cast<std::uint64_t>(kIncrements));
}

TEST(Registry, CounterIsExactUnderThreadedEnvConcurrency) {
  auto& reg = Registry::global();
  obs::Counter& c = reg.counter("wan_test_threaded_env_total");
  const std::uint64_t before = c.value();
  constexpr int kEnvs = 4;
  constexpr int kPosts = 2000;
  runtime::LoopbackFabric fabric;
  {
    std::vector<std::unique_ptr<runtime::ThreadedEnv>> envs;
    for (int i = 0; i < kEnvs; ++i) {
      envs.push_back(std::make_unique<runtime::ThreadedEnv>(fabric));
    }
    for (auto& env : envs) {
      for (int i = 0; i < kPosts; ++i) env->post([&c] { c.inc(); });
    }
    // run_sync posts behind each env's increments on the fabric's worker,
    // so returning from all four means every increment has executed.
    for (auto& env : envs) env->run_sync([] {});
    fabric.stop_all();
  }
  EXPECT_EQ(c.value(), before + static_cast<std::uint64_t>(kEnvs) *
                                    static_cast<std::uint64_t>(kPosts));
}

// --------------------------------------------------------------- Tracer

TEST(Tracer, DisabledRecordingIsANoOp) {
  ASSERT_EQ(obs::tracer(), nullptr);
  EXPECT_FALSE(obs::enabled());
  // Must not crash, allocate into any sink, or observably do anything.
  obs::record(obs::mint(obs::TraceKind::kCheck, HostId(1), 1),
              SpanKind::kBegin, HostId(1), TimePoint::from_nanos(0),
              "test.noop");
}

TEST(Tracer, RecordsInstallsAndUninstalls) {
  Tracer t;
  {
    const TracerScope scope(&t);
    EXPECT_TRUE(obs::enabled());
    obs::record(obs::mint(obs::TraceKind::kCheck, HostId(3), 1),
                SpanKind::kBegin, HostId(3),
                TimePoint::from_nanos(1500000000), "test.begin", 7, 9);
    obs::record(obs::mint(obs::TraceKind::kCheck, HostId(3), 1),
                SpanKind::kDecision, HostId(3),
                TimePoint::from_nanos(2500000000), "test.decide");
  }
  EXPECT_FALSE(obs::enabled());
  ASSERT_EQ(t.size(), 2u);
  const std::string text = t.text();
  EXPECT_NE(text.find("test.begin"), std::string::npos);
  EXPECT_NE(text.find("test.decide"), std::string::npos);
  EXPECT_NE(text.find("a0=7"), std::string::npos);
  // text() is a pure function of the recorded events.
  EXPECT_EQ(text, t.text());
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.begin"), std::string::npos);
}

TEST(Tracer, CapacityBoundCountsDrops) {
  Tracer t(4);
  const TracerScope scope(&t);
  for (int i = 0; i < 6; ++i) {
    obs::record(1, SpanKind::kInstant, HostId(1),
                TimePoint::from_nanos(i), "test.cap");
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
}

TEST(Tracer, LogLinesAreMirroredIntoTrace) {
  Tracer t;
  const TracerScope scope(&t);
  log::set_sink([](log::Level, const std::string&) {});  // silence stderr
  log::set_level(log::Level::kInfo);
  WAN_INFO << "hello trace mirror";
  log::set_level(log::Level::kOff);
  log::reset_sink();
  const auto lines = t.log_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("hello trace mirror"), std::string::npos);
}

TEST(Tracer, ConcurrentRecordingLosesNothing) {
  Tracer t;
  const TracerScope scope(&t);
  constexpr int kThreads = 8;
  constexpr int kEvents = 10000;
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([w] {
      for (int i = 0; i < kEvents; ++i) {
        obs::record(obs::mint(obs::TraceKind::kInvoke,
                              HostId(static_cast<std::uint32_t>(w)), 1),
                    SpanKind::kInstant,
                    HostId(static_cast<std::uint32_t>(w)),
                    TimePoint::from_nanos(i), "test.mt");
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(t.size(),
            static_cast<std::size_t>(kThreads) * static_cast<std::size_t>(kEvents));
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Mint, NeverZeroAndDisjointAcrossKindsAndNodes) {
  const auto a = obs::mint(obs::TraceKind::kCheck, HostId(1), 1);
  const auto b = obs::mint(obs::TraceKind::kUpdate, HostId(1), 1);
  const auto c = obs::mint(obs::TraceKind::kCheck, HostId(2), 1);
  const auto d = obs::mint(obs::TraceKind::kCheck, HostId(1), 2);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

// -------------------------------------------------------------- TeProbe

TEST(TeProbe, MeasuresLatenessAndFlagsViolations) {
  const auto quorum = [](std::int64_t at_s, std::uint32_t user, bool revoke) {
    TraceEvent e;
    e.trace = 1;
    e.at_nanos = at_s * 1000000000;
    e.name = "update.quorum";
    e.kind = SpanKind::kDecision;
    e.a0 = user;
    e.a1 = revoke ? 1 : 0;
    return e;
  };
  const auto allow = [](std::int64_t at_s, std::uint32_t user) {
    TraceEvent e;
    e.trace = 2;
    e.at_nanos = at_s * 1000000000;
    e.name = "check.decide";
    e.kind = SpanKind::kDecision;
    e.a0 = user;
    e.a1 = (1 << 8) | 0;  // allowed, cache-hit path
    return e;
  };

  // Within bound: revoke at t=0, last stale allow at t=5, bound 10.
  const TeReport ok = TeProbe::analyze({quorum(0, 7, true), allow(5, 7)},
                                       Duration::seconds(10));
  EXPECT_EQ(ok.revocations, 1u);
  EXPECT_EQ(ok.measured, 1u);
  EXPECT_EQ(ok.violations, 0u);
  EXPECT_DOUBLE_EQ(ok.max_seconds, 5.0);
  EXPECT_TRUE(ok.ok());

  // Beyond bound: stale allow 15s after quorum against a 10s bound.
  const TeReport bad = TeProbe::analyze({quorum(0, 7, true), allow(15, 7)},
                                        Duration::seconds(10));
  EXPECT_EQ(bad.violations, 1u);
  EXPECT_FALSE(bad.ok());

  // A re-grant closes the record: allows after it are legitimate.
  const TeReport regrant = TeProbe::analyze(
      {quorum(0, 7, true), allow(3, 7), quorum(4, 7, false), allow(20, 7)},
      Duration::seconds(10));
  EXPECT_EQ(regrant.violations, 0u);
  EXPECT_DOUBLE_EQ(regrant.max_seconds, 3.0);

  // Allows for a different user never attribute to the open revocation.
  const TeReport other = TeProbe::analyze({quorum(0, 7, true), allow(15, 8)},
                                          Duration::seconds(10));
  EXPECT_EQ(other.measured, 0u);
  EXPECT_EQ(other.violations, 0u);
}

// ------------------------------------------- full-stack spans over SimEnv

workload::ScenarioConfig traced_scenario_config() {
  workload::ScenarioConfig cfg;
  cfg.managers = 3;
  cfg.app_hosts = 2;
  cfg.users = 2;
  cfg.partitions = workload::ScenarioConfig::Partitions::kScripted;
  cfg.constant_latency = true;
  cfg.const_latency = Duration::millis(10);
  cfg.protocol.check_quorum = 2;
  cfg.protocol.Te = Duration::seconds(30);
  cfg.protocol.clock_bound_b = 1.0;
  cfg.seed = 99;
  return cfg;
}

// Grant -> warm caches -> revoke -> let notify flush -> probe again. Every
// call sequence below is deterministic given the seed.
std::vector<TraceEvent> traced_run(Tracer* tracer) {
  const TracerScope scope(tracer);
  workload::Scenario s(traced_scenario_config());
  s.grant(s.user(0), 0);
  s.run_for(Duration::seconds(5));
  s.check(0, s.user(0));
  s.check(1, s.user(0));
  s.run_for(Duration::seconds(2));
  s.revoke(s.user(0), 1);
  s.run_for(Duration::seconds(5));
  s.check(0, s.user(0));
  s.check(1, s.user(0));
  s.run_for(Duration::seconds(40));
  return tracer->events();
}

bool name_is(const TraceEvent& e, const char* n) {
  return std::strcmp(e.name, n) == 0;
}

TEST(Spans, RevocationChainIsCausallyOrdered) {
  Tracer tracer;
  const auto events = traced_run(&tracer);
  ASSERT_FALSE(events.empty());

  // Find the revoke's update chain (update.submit with a1 = 1).
  obs::TraceId revoke_trace = 0;
  std::int64_t submit_at = 0;
  for (const auto& e : events) {
    if (name_is(e, "update.submit") && e.a1 == 1) {
      revoke_trace = e.trace;
      submit_at = e.at_nanos;
    }
  }
  ASSERT_NE(revoke_trace, 0u) << "no revoke was submitted";

  // The chain must reach quorum after submission, fan out RevokeNotify after
  // quorum-side issue, and flush at least one host cache after the sends —
  // all on the SAME trace id, recorded by different nodes.
  std::int64_t quorum_at = -1;
  std::int64_t first_notify_at = -1;
  std::int64_t first_flush_at = -1;
  for (const auto& e : events) {
    if (e.trace != revoke_trace) continue;
    if (name_is(e, "update.quorum")) quorum_at = e.at_nanos;
    if (name_is(e, "revoke.notify.send") &&
        (first_notify_at < 0 || e.at_nanos < first_notify_at)) {
      first_notify_at = e.at_nanos;
    }
    if (name_is(e, "revoke.flush") &&
        (first_flush_at < 0 || e.at_nanos < first_flush_at)) {
      first_flush_at = e.at_nanos;
    }
  }
  ASSERT_GE(quorum_at, 0) << "revoke never reached update quorum";
  ASSERT_GE(first_notify_at, 0) << "no RevokeNotify fanned out";
  ASSERT_GE(first_flush_at, 0) << "no host flushed its cache";
  EXPECT_GE(quorum_at, submit_at);
  EXPECT_GE(first_flush_at, first_notify_at);

  // Every check session that began also decided, never before it began.
  for (const auto& begin : events) {
    if (!name_is(begin, "check.begin")) continue;
    bool decided = false;
    for (const auto& e : events) {
      if (e.trace == begin.trace && name_is(e, "check.decide") &&
          e.at_nanos >= begin.at_nanos) {
        decided = true;
      }
    }
    EXPECT_TRUE(decided) << "undecided check session";
  }

  // The empirical-Te probe over the same span stream: the bound must hold.
  const TeReport te =
      TeProbe::analyze(events, traced_scenario_config().protocol.Te);
  EXPECT_GE(te.revocations, 1u);
  EXPECT_EQ(te.violations, 0u);
  EXPECT_LE(te.max_seconds, te.bound_seconds);
}

TEST(Spans, IdenticalRunsProduceIdenticalTraces) {
  Tracer first;
  Tracer second;
  (void)traced_run(&first);
  (void)traced_run(&second);
  ASSERT_GT(first.size(), 0u);
  EXPECT_EQ(first.text(), second.text());
}

}  // namespace
}  // namespace wan
