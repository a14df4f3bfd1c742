// Conformance of the real-thread fabric: ThreadedEnvs over a
// ReactorTransport (real sockets, epoll + recvmmsg/sendmmsg) must decide
// exactly as the protocol specifies. The suite proves it three ways:
//
//   1. A model-checked seed sweep: 100 seeded op scripts (grants, revokes,
//      access checks) run on the reactor; each script's decision log must
//      equal the prediction of a tiny reference model of the protocol. The
//      model is exact because every op barriers on its completion callback
//      and every revoke settles (polls until the revocation is globally
//      visible) before the script proceeds: update quorum is M-C+1 = 2 of
//      3, checks take the 2 freshest distinct responses, so at most one
//      stale manager can appear in any response pair and
//      freshest-version-wins makes the outcome a pure function of the op
//      history.
//   2. The canonical scripted sequence from test_runtime.cpp (whose expected
//      log is pinned against SimEnv) replayed over real UDP sockets.
//   3. Adverse-network runs: with the deterministic fault plan injecting
//      loss/duplication/reordering at the fabric layer, revocation still
//      converges — and far inside the Te staleness bound — while the
//      injected_loss drop counter proves the faults actually fired.
//
// The deployment runs single-process: every node id routes to the
// transport's own port (add_peer self-wiring), so frames make a real kernel
// round trip through the shared socket and the full encode/decode path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/host.hpp"
#include "proto/wire.hpp"
#include "runtime/env_options.hpp"
#include "runtime/reactor_transport.hpp"
#include "runtime/threaded_env.hpp"
#include "util/rng.hpp"

namespace wan::runtime {
namespace {

using sim::Duration;

constexpr AppId kApp{1};

bool eventually(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::uint64_t drop_count(const char* reason) {
  return obs::Registry::global()
      .counter(std::string("wan_udp_drops_total{reason=\"") + reason + "\"}")
      .value();
}

proto::ProtocolConfig conformance_config() {
  proto::ProtocolConfig config;
  config.check_quorum = 2;
  config.Te = Duration::minutes(2);
  return config;
}

/// One whole deployment — 3 managers and 2 app hosts, each on its own
/// ThreadedEnv — over one reactor that self-wires every node id to its
/// bound port.
struct Deployment {
  std::unique_ptr<ReactorTransport> fabric;
  ns::NameService names;
  auth::KeyRegistry keys;
  std::vector<std::unique_ptr<ThreadedEnv>> envs;
  std::vector<std::unique_ptr<proto::ManagerHost>> managers;
  std::vector<std::unique_ptr<proto::AppHost>> hosts;
  /// Managers are ids and envs 0..2; the hosts' envs follow them.
  static constexpr std::size_t kManagers = 3;

  explicit Deployment(bool reliable = false) {
    proto::register_wire_messages();
    std::vector<HostId> manager_ids;
    for (std::size_t i = 0; i < kManagers; ++i) {
      manager_ids.push_back(HostId(static_cast<std::uint32_t>(i)));
    }
    const std::vector<HostId> host_ids{HostId(100), HostId(101)};

    EnvOptions opts;
    opts.listen = "127.0.0.1:0";
    if (reliable) {
      opts.reliability.enabled = true;
      opts.reliability.initial_rto = Duration::millis(20);
      opts.reliability.max_rto = Duration::millis(200);
      opts.reliability.retry_budget = 50;
      opts.reliability.jitter_seed = 13;
    }
    std::string error;
    fabric = ReactorTransport::create(opts, &error);
    EXPECT_NE(fabric, nullptr) << error;
    if (fabric == nullptr) return;  // tests ASSERT on d.fabric before use
    const NodeAddress self{"127.0.0.1", fabric->local_port()};
    for (const HostId id : manager_ids) EXPECT_TRUE(fabric->add_peer(id, self));
    for (const HostId id : host_ids) EXPECT_TRUE(fabric->add_peer(id, self));

    const proto::ProtocolConfig config = conformance_config();
    for (std::size_t i = 0; i < manager_ids.size() + host_ids.size(); ++i) {
      envs.push_back(std::make_unique<ThreadedEnv>(*fabric));
    }
    for (std::size_t i = 0; i < manager_ids.size(); ++i) {
      managers.push_back(std::make_unique<proto::ManagerHost>(
          manager_ids[i], *envs[i], clk::LocalClock::perfect(), config));
    }
    names.set_managers(kApp, manager_ids);
    for (std::size_t i = 0; i < managers.size(); ++i) {
      envs[i]->run_sync(
          [&, i] { managers[i]->manager().manage_app(kApp, manager_ids); });
    }
    for (std::size_t i = 0; i < host_ids.size(); ++i) {
      hosts.push_back(std::make_unique<proto::AppHost>(
          host_ids[i], *envs[kManagers + i], clk::LocalClock::perfect(),
          names, keys, config));
      envs[kManagers + i]->run_sync([&, i] {
        hosts[i]->controller().register_app(
            kApp, [](UserId, const std::string& p) { return p; });
      });
    }
  }

  ~Deployment() {
    // Shutdown silences the worker before the protocol modules it calls
    // into are destroyed.
    if (fabric != nullptr) fabric->shutdown();
  }

  void on_manager(int i, std::function<void()> fn) {
    envs[static_cast<std::size_t>(i)]->run_sync(std::move(fn));
  }
  void on_host(int i, std::function<void()> fn) {
    envs[kManagers + static_cast<std::size_t>(i)]->run_sync(std::move(fn));
  }
};

/// Submits one ACL update at manager `mgr` and blocks until its quorum
/// outcome callback fires. Shared state is shared_ptr-owned so a timed-out
/// callback landing late cannot touch a dead stack frame.
[[nodiscard]] bool barrier_update(Deployment& d, int mgr, acl::Op op,
                                  UserId user, int timeout_ms = 10000) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  d.on_manager(mgr, [&d, mgr, op, user, done] {
    d.managers[static_cast<std::size_t>(mgr)]->manager().submit_update(
        kApp, op, user, acl::Right::kUse,
        [done](const proto::UpdateOutcome&) { done->store(true); });
  });
  return eventually([done] { return done->load(); }, timeout_ms);
}

/// Runs one access check on host `host` and returns its decision label
/// ("allow/cache-hit", "deny/quorum-denied", ...), or "timeout".
[[nodiscard]] std::string barrier_check(Deployment& d, int host, UserId user,
                                        int timeout_ms = 10000) {
  struct Slot {
    std::mutex mu;
    bool done = false;
    std::string label;
  };
  auto slot = std::make_shared<Slot>();
  d.on_host(host, [&d, host, user, slot] {
    d.hosts[static_cast<std::size_t>(host)]->controller().check_access(
        kApp, user, [slot](const proto::AccessDecision& dec) {
          const std::lock_guard<std::mutex> lock(slot->mu);
          slot->label = std::string(dec.allowed ? "allow/" : "deny/") +
                        to_cstring(dec.path);
          slot->done = true;
        });
  });
  if (!eventually(
          [slot] {
            const std::lock_guard<std::mutex> lock(slot->mu);
            return slot->done;
          },
          timeout_ms)) {
    return "timeout";
  }
  const std::lock_guard<std::mutex> lock(slot->mu);
  return slot->label;
}

/// After a revoke quorum completes, polls unrecorded checks on every host
/// until each denies. A deny proves the host's cache entry is gone (the
/// cache-hit path is synchronous and holds only grants), so subsequent
/// script steps observe a settled world with no grace-sleep guesswork.
[[nodiscard]] bool settle_revoked(Deployment& d, UserId user,
                                  int timeout_ms = 15000) {
  for (int host = 0; host < 2; ++host) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::string label = barrier_check(d, host, user, timeout_ms);
      if (label.rfind("deny/", 0) == 0) break;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return true;
}

// ------------------------------------------------ model-checked seed sweep

struct Op {
  enum Kind { kCheck, kGrant, kRevoke } kind = kCheck;
  int host = 0;      ///< checks only
  int user_idx = 0;  ///< 0..2 -> UserId 7..9
};

struct SeedScript {
  std::vector<Op> ops;
  std::vector<std::string> expected;  ///< model-predicted log, one per op
};

UserId user_of(int idx) { return UserId(static_cast<std::uint32_t>(7 + idx)); }

/// Generates the seeded op list and, alongside it, the reference model's
/// predicted log. The model is three booleans per user (granted) plus one
/// per host x user (cached): checks on ungranted users quorum-deny, on
/// granted-and-cached users cache-hit, otherwise quorum-grant (which
/// populates the cache); revokes clear the grant and every cache entry
/// (execution enforces that with the settle step).
SeedScript make_script(std::uint64_t seed) {
  Rng rng{seed};
  SeedScript script;
  bool granted[3] = {false, false, false};
  bool cached[2][3] = {{false, false, false}, {false, false, false}};
  const int n_ops = 8 + static_cast<int>(rng.next_u64() % 5);
  for (int i = 0; i < n_ops; ++i) {
    const std::uint64_t roll = rng.next_u64() % 4;
    const int u = static_cast<int>(rng.next_u64() % 3);
    Op op;
    op.user_idx = u;
    if (roll <= 1) {
      op.kind = Op::kCheck;
      op.host = static_cast<int>(rng.next_u64() % 2);
      const char* label = !granted[u]          ? "deny/quorum-denied"
                          : cached[op.host][u] ? "allow/cache-hit"
                                               : "allow/quorum-granted";
      if (granted[u]) cached[op.host][u] = true;
      script.expected.push_back("check h" + std::to_string(op.host) + " u" +
                                std::to_string(u) + " = " + label);
    } else if (roll == 2) {
      op.kind = Op::kGrant;
      granted[u] = true;
      script.expected.push_back("grant u" + std::to_string(u));
    } else {
      op.kind = Op::kRevoke;
      granted[u] = false;
      cached[0][u] = cached[1][u] = false;
      script.expected.push_back("revoke u" + std::to_string(u));
    }
    script.ops.push_back(op);
  }
  return script;
}

std::vector<std::string> run_script_on(Deployment& d,
                                       const SeedScript& script) {
  std::vector<std::string> log;
  for (const Op& op : script.ops) {
    const UserId user = user_of(op.user_idx);
    switch (op.kind) {
      case Op::kCheck:
        log.push_back("check h" + std::to_string(op.host) + " u" +
                      std::to_string(op.user_idx) + " = " +
                      barrier_check(d, op.host, user));
        break;
      case Op::kGrant:
        log.push_back(barrier_update(d, 0, acl::Op::kAdd, user)
                          ? "grant u" + std::to_string(op.user_idx)
                          : "grant-timeout u" + std::to_string(op.user_idx));
        break;
      case Op::kRevoke: {
        std::string entry = "revoke u" + std::to_string(op.user_idx);
        if (!barrier_update(d, 0, acl::Op::kRevoke, user)) {
          entry += " (quorum-timeout)";
        } else if (!settle_revoked(d, user)) {
          entry += " (settle-timeout)";
        }
        log.push_back(entry);
        break;
      }
    }
  }
  return log;
}

void run_conformance_seeds(std::uint64_t first_seed, int count) {
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    const SeedScript script = make_script(seed);
    Deployment d;
    ASSERT_NE(d.fabric, nullptr);
    EXPECT_EQ(run_script_on(d, script), script.expected)
        << "seed " << seed << " diverged from the reference model";
  }
}

// 100 seeds, split four ways so `ctest -j` runs them concurrently.
TEST(Conformance, SeedSweepShard0) { run_conformance_seeds(1, 25); }
TEST(Conformance, SeedSweepShard1) { run_conformance_seeds(26, 25); }
TEST(Conformance, SeedSweepShard2) { run_conformance_seeds(51, 25); }
TEST(Conformance, SeedSweepShard3) { run_conformance_seeds(76, 25); }

// ------------------------------------------------------- canonical script

// The scripted sequence test_runtime.cpp pins against SimEnv, replayed over
// real kernel sockets. The revoke lands at a different manager than the
// grant, so the deny at the end additionally proves cross-manager update
// propagation.
TEST(Conformance, CanonicalScriptMatchesOnSocketBackends) {
  Deployment d;
  ASSERT_NE(d.fabric, nullptr);
  const UserId alice(7);
  const UserId mallory(8);

  std::vector<std::string> log;
  log.push_back(barrier_check(d, 0, alice));
  ASSERT_TRUE(barrier_update(d, 0, acl::Op::kAdd, alice));
  log.push_back(barrier_check(d, 1, alice));
  log.push_back(barrier_check(d, 1, alice));
  log.push_back(barrier_check(d, 0, mallory));
  ASSERT_TRUE(barrier_update(d, 1, acl::Op::kRevoke, alice));
  ASSERT_TRUE(settle_revoked(d, alice));
  log.push_back(barrier_check(d, 1, alice));

  const std::vector<std::string> expected{
      "deny/quorum-denied", "allow/quorum-granted", "allow/cache-hit",
      "deny/quorum-denied", "deny/quorum-denied",
  };
  EXPECT_EQ(log, expected);
}

// ------------------------------------------------- adverse-network runs

// With deterministic loss/duplication/reordering injected at the fabric
// layer, the protocol still converges: a revoke becomes globally visible
// well inside the Te staleness bound, and the injected_loss counter proves
// frames really were dropped along the way. Duplication exercises update
// and notification idempotence; reordering holds one frame back per pair.
TEST(Conformance, RevocationConvergesUnderInjectedFaults) {
  Deployment d;
  ASSERT_NE(d.fabric, nullptr);
  FaultPlan plan;
  plan.seed = 7;
  plan.loss = 0.15;
  plan.duplicate = 0.1;
  plan.reorder = 0.1;
  d.fabric->set_fault_plan(plan);
  const std::uint64_t lost_before = drop_count("injected_loss");

  const UserId alice(7);
  ASSERT_TRUE(barrier_update(d, 0, acl::Op::kAdd, alice, 30000));
  // Under loss a single check may need protocol retries; poll to allow.
  ASSERT_TRUE(eventually(
      [&] { return barrier_check(d, 0, alice, 5000).rfind("allow/", 0) == 0; },
      30000));

  const auto revoke_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(barrier_update(d, 0, acl::Op::kRevoke, alice, 30000));
  ASSERT_TRUE(settle_revoked(d, alice, 30000));
  const auto elapsed = std::chrono::steady_clock::now() - revoke_start;

  // Te is the contract: revocation latency stayed far inside the bound.
  EXPECT_LT(elapsed, std::chrono::minutes(2));
  // And the adverse network was real, not a no-op plan.
  EXPECT_GT(drop_count("injected_loss"), lost_before);
}

// -------------------------------- reliable delivery under sustained loss

// The acceptance bar of the reliability layer: with it on and 10%+ injected
// loss on the real socket fabric, the seeded scripts still match the
// reference model *exactly* — zero lost reliable messages, zero double
// deliveries (a dup would flip a cache-hit label) — and the counters prove
// both the loss and the recovery were real.
TEST(Conformance, ReliableSweepUnderLossReactor) {
  constexpr std::uint64_t kSeeds = 6;
  const std::uint64_t lost_before = drop_count("injected_loss");
  const std::uint64_t retx_before = obs::Registry::global()
                                        .counter("wan_retransmits_total")
                                        .value();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SeedScript script = make_script(seed);
    Deployment d(/*reliable=*/true);
    ASSERT_NE(d.fabric, nullptr);
    FaultPlan plan;
    plan.seed = seed;
    plan.loss = 0.10;
    d.fabric->set_fault_plan(plan);
    EXPECT_EQ(run_script_on(d, script), script.expected)
        << "seed " << seed << " under 10% loss diverged from the reference model";
  }
  // The adverse network fired, and retransmission is what papered over it.
  EXPECT_GT(drop_count("injected_loss"), lost_before);
  EXPECT_GT(obs::Registry::global().counter("wan_retransmits_total").value(),
            retx_before);
}

}  // namespace
}  // namespace wan::runtime
