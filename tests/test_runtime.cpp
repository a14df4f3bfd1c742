// Runtime-seam tests: the ThreadedEnv primitives, cross-runtime equivalence
// of the protocol (the same scripted grant/check/revoke sequence must produce
// the same decision sequence on SimEnv and ThreadedEnv — the seam carries the
// whole protocol, not just the happy path), and the seed-determinism pin the
// refactor must not break (chaos runs stay bit-identical run-to-run).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/engine.hpp"
#include "net/network.hpp"
#include "proto/host.hpp"
#include "runtime/backend.hpp"
#include "runtime/sim_env.hpp"
#include "runtime/threaded_env.hpp"
#include "sim/scheduler.hpp"

namespace wan::runtime {
namespace {

using sim::Duration;

// Polls `pred` until it holds or `limit` wall-clock elapses.
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ------------------------------------------------- ThreadedEnv primitives

TEST(ThreadedEnv, TimerFiresOnceAfterDelay) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::atomic<int> fired{0};
  env.run_sync([&] {
    auto timer = std::make_shared<Timer>(env.make_timer());
    timer->arm(Duration::millis(5), [&fired, timer] { ++fired; });
  });
  ASSERT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), 1);
  fabric.stop_all();
}

TEST(ThreadedEnv, CancelledTimerNeverFires) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::atomic<int> fired{0};
  auto timer = std::make_shared<Timer>();
  env.run_sync([&] {
    *timer = env.make_timer();
    timer->arm(Duration::millis(20), [&fired] { ++fired; });
    timer->cancel();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fired.load(), 0);
  fabric.stop_all();
}

TEST(ThreadedEnv, RearmReplacesPendingCallback) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  auto timer = std::make_shared<Timer>();
  env.run_sync([&] {
    *timer = env.make_timer();
    timer->arm(Duration::millis(30), [&first] { ++first; });
    timer->arm(Duration::millis(5), [&second] { ++second; });
  });
  ASSERT_TRUE(eventually([&] { return second.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(first.load(), 0);
  EXPECT_EQ(second.load(), 1);
  fabric.stop_all();
}

TEST(ThreadedEnv, PeriodicTimerTicksUntilStopped) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::atomic<int> ticks{0};
  auto timer = std::make_shared<PeriodicTimer>();
  env.run_sync([&] {
    *timer = env.make_periodic_timer();
    timer->start(Duration::millis(3), [&ticks] { ++ticks; });
  });
  ASSERT_TRUE(eventually([&] { return ticks.load() >= 3; }));
  env.run_sync([&] { timer->stop(); });
  const int at_stop = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_LE(ticks.load(), at_stop + 1);  // at most one in-flight tick
  fabric.stop_all();
}

// A periodic timer's queued shot owns the timer state, and the state owns
// the loop core whose queue holds the shot: a cycle. stop() must break it by
// releasing the queued entries, or everything the callback captured leaks
// once the env is stopped and the timer wrapper is gone.
TEST(ThreadedEnv, StopReleasesQueuedPeriodicShots) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    PeriodicTimer timer = env.make_periodic_timer();
    timer.start(Duration::minutes(1), [held = std::move(sentinel)] {});
    env.stop();
  }
  EXPECT_TRUE(watch.expired());
}

TEST(ThreadedEnv, PostedWorkRunsInOrderOnLoopThread) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    env.post([&mu, &order, i] {
      const std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return order.size() == 16;
  }));
  const std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  fabric.stop_all();
}

TEST(ThreadedEnv, NowAdvancesWithWallClock) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  const sim::TimePoint t0 = env.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const sim::TimePoint t1 = env.now();
  EXPECT_GE((t1 - t0).count_nanos(), 10'000'000);  // >= 10ms elapsed
  fabric.stop_all();
}

// On the worker, now() is the dispatch time: reads within one posted
// closure or one timer shot are equal however long the handler runs, a
// later dispatch sees a strictly later time, and reads off the worker
// follow the clock.
TEST(ThreadedEnv, NowIsTheDispatchTimeOnTheWorker) {
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  const auto pause = std::chrono::milliseconds(2);
  sim::TimePoint first, second, posted, shot_a, shot_b;
  std::atomic<bool> done{false};
  Timer timer;
  env.run_sync([&] {
    first = env.now();
    std::this_thread::sleep_for(pause);
    second = env.now();
    env.post([&] { posted = env.now(); });
    timer = env.make_timer();
    timer.arm(Duration::micros(100), [&] {
      shot_a = env.now();
      std::this_thread::sleep_for(pause);
      shot_b = env.now();
      done = true;
    });
  });
  ASSERT_TRUE(eventually([&] { return done.load(); }));
  EXPECT_EQ(first, second);
  EXPECT_GE((posted - first).count_nanos(), 2'000'000);
  EXPECT_EQ(shot_a, shot_b);
  EXPECT_GT(shot_a, first);

  const sim::TimePoint off0 = env.now();
  std::this_thread::sleep_for(pause);
  EXPECT_GE((env.now() - off0).count_nanos(), 2'000'000);
  fabric.stop_all();
}

TEST(LoopbackFabric, DeliversBetweenEnvsAndRespectsDown) {
  LoopbackFabric fabric;
  ThreadedEnv a(fabric);
  ThreadedEnv b(fabric);
  std::atomic<int> got{0};
  a.transport().register_endpoint(HostId(1),
                                  [](HostId, const net::MessagePtr&) {});
  b.transport().register_endpoint(
      HostId(2), [&got](HostId, const net::MessagePtr&) { ++got; });

  a.transport().send(HostId(1), HostId(2),
                     net::make_message<proto::InvokeReply>(
                         1, true, proto::DenyReason::kNone, "ping"));
  ASSERT_TRUE(eventually([&] { return got.load() == 1; }));

  // A downed destination silently swallows traffic — an unreachable host.
  b.transport().set_endpoint_down(HostId(2), true);
  a.transport().send(HostId(1), HostId(2),
                     net::make_message<proto::InvokeReply>(
                         1, true, proto::DenyReason::kNone, "ping"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), 1);

  b.transport().set_endpoint_down(HostId(2), false);
  a.transport().send(HostId(1), HostId(2),
                     net::make_message<proto::InvokeReply>(
                         1, true, proto::DenyReason::kNone, "ping"));
  ASSERT_TRUE(eventually([&] { return got.load() == 2; }));
  fabric.stop_all();
}

TEST(LoopbackFabric, StoppedEnvDropsDeliveriesInsteadOfCrashing) {
  LoopbackFabric fabric;
  ThreadedEnv a(fabric);
  auto b = std::make_unique<ThreadedEnv>(fabric);
  a.transport().register_endpoint(HostId(1),
                                  [](HostId, const net::MessagePtr&) {});
  b->transport().register_endpoint(HostId(2),
                                   [](HostId, const net::MessagePtr&) {});
  b->stop();
  b.reset();  // endpoint record remains; its core is stopped
  for (int i = 0; i < 8; ++i) {
    a.transport().send(HostId(1), HostId(2),
                       net::make_message<proto::InvokeReply>(
                         1, true, proto::DenyReason::kNone, "ping"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fabric.stop_all();  // reaching here without UB is the assertion
}

// ------------------------------------------------------ worker contract

net::MessagePtr ping_reply() {
  return net::make_message<proto::InvokeReply>(1, true,
                                               proto::DenyReason::kNone, "ping");
}

// Every node of a fabric shares its one worker thread, so run_sync issued
// there would wait for itself. It aborts with a message instead of hanging.
TEST(ThreadedEnvDeathTest, RunSyncOnTheWorkerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LoopbackFabric fabric;
        ThreadedEnv a(fabric);
        ThreadedEnv b(fabric);
        a.post([&b] { b.run_sync([] {}); });
        std::this_thread::sleep_for(std::chrono::seconds(10));
      },
      "run_sync called on the fabric's worker thread");
}

// A crash issued from protocol code: the handler that calls stop() runs to
// its end, and nothing later reaches the node — not the deliveries queued
// behind it, not a timer armed before or after the stop, not new traffic.
TEST(ThreadedEnv, StopFromInsideHandlerSilencesTheNode) {
  LoopbackFabric fabric;
  ThreadedEnv a(fabric);
  ThreadedEnv b(fabric);
  std::atomic<int> got{0};
  std::atomic<int> fired{0};
  Timer before;
  Timer after;
  a.transport().register_endpoint(HostId(1),
                                  [](HostId, const net::MessagePtr&) {});
  b.transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) {
        if (++got > 1) return;
        before.arm(Duration::millis(2), [&fired] { ++fired; });
        b.stop();
        after.arm(Duration::millis(2), [&fired] { ++fired; });
      });
  b.run_sync([&] {
    before = b.make_timer();
    after = b.make_timer();
  });
  a.run_sync([&] {
    for (int i = 0; i < 4; ++i) a.transport().send(HostId(1), HostId(2), ping_reply());
  });
  ASSERT_TRUE(eventually([&] { return got.load() >= 1; }));
  a.run_sync([&] { a.transport().send(HostId(1), HostId(2), ping_reply()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(fired.load(), 0);
  fabric.stop_all();
}

// stop() from another thread waits out a handler of the node that is
// running right now; afterwards posts, ticks and deliveries are refused.
TEST(ThreadedEnv, StopFromAnotherThreadWaitsOutTheRunningHandler) {
  LoopbackFabric fabric;
  ThreadedEnv a(fabric);
  ThreadedEnv b(fabric);
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  std::atomic<int> later{0};
  PeriodicTimer ticks;
  a.transport().register_endpoint(HostId(1),
                                  [](HostId, const net::MessagePtr&) {});
  b.transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { ++later; });
  b.run_sync([&] {
    ticks = b.make_periodic_timer();
    ticks.start(Duration::millis(1), [&later] { ++later; });
  });
  b.post([&] {
    entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished = true;
  });
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  b.stop();
  EXPECT_TRUE(finished.load());
  const int at_stop = later.load();
  b.post([&later] { ++later; });
  a.run_sync([&] { a.transport().send(HostId(1), HostId(2), ping_reply()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(later.load(), at_stop);
  fabric.stop_all();
}

// ---------------------------------------------------------- worker timers

// Cancel and re-arm bump the slot's generation: of 10k arm/cancel/re-arm
// cycles on one timer, only the last shot's callback ever runs.
TEST(ThreadedEnv, TenThousandRearmsFireOnlyTheLastCallback) {
  constexpr int kCycles = 10000;
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::mutex mu;
  std::vector<int> fired;
  const auto record = [&mu, &fired](int id) {
    const std::lock_guard<std::mutex> lock(mu);
    fired.push_back(id);
  };
  Timer timer;
  env.run_sync([&] {
    timer = env.make_timer();
    for (int i = 0; i < kCycles; ++i) {
      timer.arm(Duration::millis(2), [record, i] { record(-i); });
      timer.cancel();
      timer.arm(Duration::millis(2), [record, i] { record(i); });
    }
  });
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return !fired.empty();
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  bool pending = true;
  env.run_sync([&] { pending = timer.pending(); });
  EXPECT_FALSE(pending);
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(fired, std::vector<int>{kCycles - 1});
  fabric.stop_all();
}

// Timers sit on a timerfd armed at the earliest deadline. epoll's own
// timeout is whole milliseconds, so a loop that waited on it would fire a
// 200 us timer about 800 us late; an idle worker must do far better.
TEST(ThreadedEnv, IdleWorkerFiresShortTimersWithSubMillisecondLateness) {
  constexpr std::size_t kShots = 50;
  constexpr auto kDelay = std::chrono::microseconds(200);
  LoopbackFabric fabric;
  ThreadedEnv env(fabric);
  std::vector<std::int64_t> late_us;  // worker only until `done`
  std::atomic<bool> done{false};
  Timer timer;
  std::function<void()> shoot = [&] {
    const auto armed = std::chrono::steady_clock::now();
    timer.arm(Duration::micros(kDelay.count()), [&, armed] {
      late_us.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - armed - kDelay)
                            .count());
      if (late_us.size() == kShots) {
        done = true;
      } else {
        shoot();
      }
    });
  };
  env.run_sync([&] {
    timer = env.make_timer();
    shoot();
  });
  ASSERT_TRUE(eventually([&] { return done.load(); }));
  std::sort(late_us.begin(), late_us.end());
  EXPECT_GE(late_us.front(), 0);  // never early
  EXPECT_LT(late_us[kShots / 2], 500) << "median lateness in us";
  fabric.stop_all();
}

// --------------------------------------------- cross-runtime equivalence
//
// The same scripted sequence of manager operations and access checks runs on
// both runtimes; every step barriers on its completion callback before the
// next begins, so the decision sequence is a pure function of protocol logic
// — any divergence means a module leaked a dependency on its runtime.

struct World {
  proto::ManagerHost* managers[3] = {nullptr, nullptr, nullptr};
  proto::AppHost* hosts[2] = {nullptr, nullptr};
  /// Runs `fn` in the node's execution context (loop thread / inline in sim).
  std::function<void(int mgr_idx, std::function<void()> fn)> on_manager;
  std::function<void(int host_idx, std::function<void()> fn)> on_host;
  /// Blocks until `done` (guarded by `mu`) becomes true.
  std::function<void(std::mutex& mu, bool& done)> await;
};

std::vector<std::string> run_script(World& w, AppId app, UserId alice,
                                    UserId mallory) {
  std::vector<std::string> log;
  std::mutex mu;

  auto barrier_op = [&](int mgr, acl::Op op, UserId user) {
    bool done = false;
    w.on_manager(mgr, [&] {
      w.managers[mgr]->manager().submit_update(
          app, op, user, acl::Right::kUse, [&](const proto::UpdateOutcome&) {
            const std::lock_guard<std::mutex> lock(mu);
            done = true;
          });
    });
    w.await(mu, done);
  };
  auto barrier_check = [&](int host, UserId user) {
    bool done = false;
    w.on_host(host, [&] {
      w.hosts[host]->controller().check_access(
          app, user, [&](const proto::AccessDecision& d) {
            const std::lock_guard<std::mutex> lock(mu);
            log.push_back(std::string(d.allowed ? "allow/" : "deny/") +
                          to_cstring(d.path));
            done = true;
          });
    });
    w.await(mu, done);
  };

  barrier_check(0, alice);               // no grant yet: quorum deny
  barrier_op(0, acl::Op::kAdd, alice);   // grant at manager 0
  barrier_check(1, alice);               // cold host: quorum grant
  barrier_check(1, alice);               // warm host: cache hit
  barrier_check(0, mallory);             // never granted: quorum deny
  barrier_op(1, acl::Op::kRevoke, alice);  // revoke at a different manager
  barrier_check(1, alice);               // after revoke: deny
  return log;
}

proto::ProtocolConfig equivalence_config() {
  proto::ProtocolConfig config;
  config.check_quorum = 2;
  config.Te = Duration::minutes(2);
  return config;
}

std::vector<std::string> run_on_sim() {
  const AppId app(1);
  sim::Scheduler sched;
  net::Network::Config ncfg;
  ncfg.latency = std::make_unique<net::ConstantLatency>(Duration::millis(5));
  net::Network net(sched, Rng(7), std::move(ncfg));
  SimEnv env(net);
  ns::NameService names;
  auth::KeyRegistry keys;
  const proto::ProtocolConfig config = equivalence_config();

  std::vector<std::unique_ptr<proto::ManagerHost>> managers;
  const std::vector<HostId> manager_ids{HostId(0), HostId(1), HostId(2)};
  for (const HostId id : manager_ids) {
    managers.push_back(std::make_unique<proto::ManagerHost>(
        id, env, clk::LocalClock::perfect(), config));
  }
  names.set_managers(app, manager_ids);
  for (auto& m : managers) m->manager().manage_app(app, manager_ids);

  std::vector<std::unique_ptr<proto::AppHost>> hosts;
  for (const HostId id : {HostId(100), HostId(101)}) {
    hosts.push_back(std::make_unique<proto::AppHost>(
        id, env, clk::LocalClock::perfect(), names, keys, config));
    hosts.back()->controller().register_app(
        app, [](UserId, const std::string& p) { return p; });
  }
  net.start();

  World w;
  for (int i = 0; i < 3; ++i) w.managers[i] = managers[static_cast<std::size_t>(i)].get();
  for (int i = 0; i < 2; ++i) w.hosts[i] = hosts[static_cast<std::size_t>(i)].get();
  w.on_manager = [](int, std::function<void()> fn) { fn(); };
  w.on_host = [](int, std::function<void()> fn) { fn(); };
  w.await = [&sched](std::mutex&, bool& done) {
    // Deterministic: drive the simulation until the callback lands. The
    // extra 5 s after completion lets revoke notifications and retransmits
    // settle, mirroring the threaded world's post-barrier grace sleep.
    for (int i = 0; i < 100 && !done; ++i) sched.run_for(Duration::seconds(1));
    ASSERT_TRUE(done) << "sim script step never completed";
    sched.run_for(Duration::seconds(5));
  };
  return run_script(w, app, UserId(7), UserId(8));
}

std::vector<std::string> run_on_threads() {
  const AppId app(1);
  EnvOptions fabric_options;
  fabric_options.delay = Duration::millis(1);
  LoopbackFabric fabric(fabric_options);
  ns::NameService names;
  auth::KeyRegistry keys;
  const proto::ProtocolConfig config = equivalence_config();

  std::vector<std::unique_ptr<ThreadedEnv>> envs;
  for (int i = 0; i < 5; ++i) envs.push_back(std::make_unique<ThreadedEnv>(fabric));

  std::vector<std::unique_ptr<proto::ManagerHost>> managers;
  const std::vector<HostId> manager_ids{HostId(0), HostId(1), HostId(2)};
  for (int i = 0; i < 3; ++i) {
    managers.push_back(std::make_unique<proto::ManagerHost>(
        manager_ids[static_cast<std::size_t>(i)], *envs[static_cast<std::size_t>(i)],
        clk::LocalClock::perfect(), config));
  }
  names.set_managers(app, manager_ids);
  for (int i = 0; i < 3; ++i) {
    envs[static_cast<std::size_t>(i)]->run_sync(
        [&, i] { managers[static_cast<std::size_t>(i)]->manager().manage_app(app, manager_ids); });
  }

  std::vector<std::unique_ptr<proto::AppHost>> hosts;
  const std::vector<HostId> host_ids{HostId(100), HostId(101)};
  for (int i = 0; i < 2; ++i) {
    hosts.push_back(std::make_unique<proto::AppHost>(
        host_ids[static_cast<std::size_t>(i)], *envs[static_cast<std::size_t>(3 + i)],
        clk::LocalClock::perfect(), names, keys, config));
    envs[static_cast<std::size_t>(3 + i)]->run_sync([&, i] {
      hosts[static_cast<std::size_t>(i)]->controller().register_app(
          app, [](UserId, const std::string& p) { return p; });
    });
  }

  World w;
  for (int i = 0; i < 3; ++i) w.managers[i] = managers[static_cast<std::size_t>(i)].get();
  for (int i = 0; i < 2; ++i) w.hosts[i] = hosts[static_cast<std::size_t>(i)].get();
  w.on_manager = [&envs](int i, std::function<void()> fn) {
    envs[static_cast<std::size_t>(i)]->run_sync(std::move(fn));
  };
  w.on_host = [&envs](int i, std::function<void()> fn) {
    envs[static_cast<std::size_t>(3 + i)]->run_sync(std::move(fn));
  };
  w.await = [](std::mutex& mu, bool& done) {
    ASSERT_TRUE(eventually([&] {
      const std::lock_guard<std::mutex> lock(mu);
      return done;
    })) << "threaded script step never completed";
    // Grace period so side-effect traffic (revoke notifications) lands
    // before the next step reads state — 100 ms >> the 1 ms fabric delay.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  auto log = run_script(w, app, UserId(7), UserId(8));

  fabric.stop_all();  // silence every loop before modules are destroyed
  return log;
}

TEST(CrossRuntime, ScriptedDecisionSequencesMatch) {
  const std::vector<std::string> sim_log = run_on_sim();
  const std::vector<std::string> threaded_log = run_on_threads();

  EXPECT_EQ(sim_log, threaded_log);
  const std::vector<std::string> expected{
      "deny/quorum-denied", "allow/quorum-granted", "allow/cache-hit",
      "deny/quorum-denied", "deny/quorum-denied",
  };
  EXPECT_EQ(sim_log, expected);
}

// ------------------------------------------------- seed-determinism pin
//
// The refactor's contract: the runtime seam must not perturb the simulation.
// Same seed -> bit-identical trace hash, decision count, and event count,
// run to run — the in-process version of chaos_runner's --json comparison.

TEST(CrossRuntime, ChaosSeedsReplayBitIdentically) {
  for (const std::uint64_t seed : {1ULL, 17ULL, 99ULL}) {
    chaos::ChaosOptions opts;
    opts.seed = seed;
    opts.horizon = Duration::minutes(2);
    const chaos::ChaosResult a = chaos::run_chaos(opts);
    const chaos::ChaosResult b = chaos::run_chaos(opts);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.decisions, b.decisions) << "seed " << seed;
    EXPECT_EQ(a.events_executed, b.events_executed) << "seed " << seed;
    EXPECT_EQ(a.violation_count, b.violation_count) << "seed " << seed;
  }
}

TEST(CrossRuntime, AdversarialChaosSeedsReplayBitIdentically) {
  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.horizon = Duration::minutes(2);
  opts.plan.byzantine = true;
  opts.plan.byzantine_max = 1;
  opts.plan.asymmetric = true;
  const chaos::ChaosResult a = chaos::run_chaos(opts);
  const chaos::ChaosResult b = chaos::run_chaos(opts);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

// --------------------------------------- EnvOptions / make_fabric error paths

// Operators see these exact strings (wan_node prints them verbatim), so the
// messages are pinned, not just "non-empty".

TEST(EnvOptionsErrors, ParseBackendRoundTripsAndRejectsUnknown) {
  for (const BackendKind kind :
       {BackendKind::kSim, BackendKind::kLoopback, BackendKind::kReactor}) {
    BackendKind parsed = BackendKind::kSim;
    ASSERT_TRUE(parse_backend(to_cstring(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  BackendKind out = BackendKind::kLoopback;
  EXPECT_FALSE(parse_backend("tcp", &out));
  EXPECT_FALSE(parse_backend("udp", &out));  // the retired socket backend
  EXPECT_EQ(out, BackendKind::kLoopback);  // a failed parse leaves *out alone
}

TEST(EnvOptionsErrors, MakeFabricRejectsSimBackend) {
  EnvOptions opts;
  opts.backend = BackendKind::kSim;
  std::string error;
  EXPECT_EQ(make_fabric(opts, &error), nullptr);
  EXPECT_EQ(error, "backend 'sim' is not a fabric");
}

TEST(EnvOptionsErrors, MakeFabricReportsMissingTopologyFile) {
  EnvOptions opts;
  opts.backend = BackendKind::kReactor;
  opts.listen = "127.0.0.1:0";
  opts.topology_path = "/nonexistent/topology.txt";
  std::string error;
  EXPECT_EQ(make_fabric(opts, &error), nullptr);
  EXPECT_EQ(error, "cannot open topology file '/nonexistent/topology.txt'");
}

TEST(EnvOptionsErrors, MakeFabricReportsBadListenAddress) {
  EnvOptions opts;
  opts.backend = BackendKind::kReactor;
  opts.listen = "no-port-here";
  std::string error;
  EXPECT_EQ(make_fabric(opts, &error), nullptr);
  EXPECT_EQ(error, "bad listen address 'no-port-here'");
}

}  // namespace
}  // namespace wan::runtime
