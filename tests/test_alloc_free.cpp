// Allocation-count regression test for the check path. A counting global
// operator new watches perfbench's deployment — 3 managers (C = 2), 4
// application hosts and a driver endpoint, every node on one reactor socket
// on 127.0.0.1, so each frame crosses the kernel and the wire codec. A
// closed loop on the fabric's worker thread issues the requests; once warm:
//   * a cache-hit check and a full C-quorum miss allocate nothing;
//   * one grant -> check at every host -> revoke round allocates at most 72
//     blocks, one per frame a round sent when every check asked all three
//     managers (a round now sends 56);
//   * authenticating a 64-byte payload allocates nothing.
// The counter is global, so the windows are opened and closed on the worker
// while the test thread sleeps. Sanitizer builds do not build this test:
// their runtimes own operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "auth/authenticator.hpp"
#include "auth/credentials.hpp"
#include "nameservice/name_service.hpp"
#include "obs/metrics.hpp"
#include "proto/access_controller.hpp"
#include "proto/manager.hpp"
#include "proto/wire.hpp"
#include "runtime/reactor_transport.hpp"
#include "runtime/threaded_env.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wan {
namespace {

constexpr AppId kApp{1};
constexpr int kManagers = 3;
constexpr int kHosts = 4;
constexpr std::uint32_t kDriverId = 999;
constexpr const char* kPayload = "x";
constexpr int kDepth = 8;         ///< checks in flight
constexpr int kUsersPerSlot = 4;  ///< each slot cycles its own users
constexpr int kChainUsers = 8;    ///< users a revoke chain cycles through

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// The deployment plus a closed-loop driver. Everything after construction
/// runs on the fabric's one worker thread.
class Rig {
 public:
  Rig() {
    proto::register_wire_messages();
    runtime::EnvOptions opts;
    opts.listen = "127.0.0.1:0";
    std::string error;
    socket_ = runtime::ReactorTransport::create(opts, &error);
    EXPECT_NE(socket_, nullptr) << error;
    const runtime::NodeAddress self{"127.0.0.1", socket_->local_port()};
    for (int m = 0; m < kManagers; ++m) {
      manager_ids_.push_back(HostId(static_cast<std::uint32_t>(m)));
      socket_->add_peer(manager_ids_.back(), self);
    }
    for (int h = 0; h < kHosts; ++h) {
      host_ids_.push_back(HostId(static_cast<std::uint32_t>(100 + h)));
      socket_->add_peer(host_ids_.back(), self);
    }
    socket_->add_peer(HostId(kDriverId), self);
    names_.set_managers(kApp, manager_ids_);
    config_.check_quorum = 2;
    config_.Te = sim::Duration::minutes(2);
    for (int i = 0; i < kManagers + kHosts + 1; ++i) {
      envs_.push_back(std::make_unique<runtime::ThreadedEnv>(*socket_));
    }
    for (int m = 0; m < kManagers; ++m) {
      auto& env = *envs_[static_cast<std::size_t>(m)];
      managers_.push_back(std::make_unique<proto::ManagerModule>(
          manager_ids_[static_cast<std::size_t>(m)], env,
          clk::LocalClock::perfect(), config_));
      proto::ManagerModule* mod = managers_.back().get();
      env.transport().register_endpoint(
          manager_ids_[static_cast<std::size_t>(m)],
          [mod](HostId from, const net::MessagePtr& msg) {
            mod->on_message(from, msg);
          });
      env.run_sync([this, mod] { mod->manage_app(kApp, manager_ids_); });
    }
    for (int h = 0; h < kHosts; ++h) {
      auto& env = *envs_[static_cast<std::size_t>(kManagers + h)];
      hosts_.push_back(std::make_unique<proto::AccessController>(
          host_ids_[static_cast<std::size_t>(h)], env,
          clk::LocalClock::perfect(), names_, keys_, config_));
      proto::AccessController* ac = hosts_.back().get();
      env.transport().register_endpoint(
          host_ids_[static_cast<std::size_t>(h)],
          [ac](HostId from, const net::MessagePtr& msg) {
            ac->on_message(from, msg);
          });
      env.run_sync([ac] {
        ac->register_app(kApp, [](UserId, const std::string& p) { return p; });
      });
    }
    driver().transport().register_endpoint(
        HostId(kDriverId), [this](HostId, const net::MessagePtr& msg) {
          if (const auto* reply = net::message_cast<proto::InvokeReply>(msg)) {
            on_reply(*reply);
          }
        });
  }

  ~Rig() { socket_->shutdown(); }

  /// Registers `n` users with fresh keys; returns their indices.
  std::vector<int> add_users(int n) {
    std::vector<int> out;
    for (int i = 0; i < n; ++i) {
      User user;
      user.id = UserId(10'000 + static_cast<std::uint32_t>(users_.size()));
      user.keys = auth::generate_keypair(rng_);
      keys_.register_user(user.id, user.keys.public_key);
      out.push_back(static_cast<int>(users_.size()));
      users_.push_back(user);
    }
    return out;
  }

  /// Grants every listed user and waits for each update quorum.
  void grant(const std::vector<int>& users) {
    std::atomic<int> left{static_cast<int>(users.size())};
    driver().run_sync([&] {
      for (std::size_t i = 0; i < users.size(); ++i) {
        managers_[i % kManagers]->submit_update(
            kApp, acl::Op::kAdd, users_[static_cast<std::size_t>(users[i])].id,
            acl::Right::kUse, [&left](const proto::UpdateOutcome&) { --left; });
      }
    });
    wait_for([&] { return left.load() == 0; });
  }

  /// Runs `warm` then `measured` checks, kDepth in flight, slot s asking
  /// host s % kHosts about its own users in turn. Returns the allocations
  /// made while the measured ones completed.
  std::uint64_t run_checks(const std::vector<int>& users, bool want_allow,
                           int warm, int measured) {
    slots_.assign(kDepth, Slot{});
    for (int s = 0; s < kDepth; ++s) {
      for (int k = 0; k < kUsersPerSlot; ++k) {
        slots_[static_cast<std::size_t>(s)].pool.push_back(
            users[static_cast<std::size_t>(s * kUsersPerSlot + k)]);
      }
    }
    chain_users_.clear();
    want_allow_ = want_allow;
    begin(warm, measured);
    driver().run_sync([this] {
      for (int s = 0; s < kDepth; ++s) next_check(static_cast<std::size_t>(s));
    });
    return finish();
  }

  /// Runs `warm` then `measured` revoke rounds of one chain: grant a user at
  /// the next manager, check it at every host, revoke it, move on. Returns
  /// the allocations made while the measured rounds completed.
  std::uint64_t run_rounds(const std::vector<int>& users, int warm,
                           int measured) {
    chain_users_ = users;
    want_allow_ = true;
    begin(warm, measured);
    driver().run_sync([this] { next_round(); });
    return finish();
  }

  [[nodiscard]] int failures() const { return failures_.load(); }

  /// Checks so far whose first wave did not answer within the hedge delay.
  [[nodiscard]] std::uint64_t hedges() const { return hedges_.value(); }

 private:
  struct User {
    UserId id;
    auth::KeyPair keys;
    std::uint64_t nonce = 0;
  };
  struct Slot {
    std::vector<int> pool;
    std::size_t cursor = 0;
  };

  runtime::ThreadedEnv& driver() { return *envs_.back(); }

  template <typename Pred>
  static void wait_for(Pred done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "loop stalled";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void begin(int warm, int measured) {
    completed_ = 0;
    window_start_ = warm;
    window_end_ = warm + measured;
    done_.store(false);
  }

  /// Waits for the window to close and for the requests still in flight
  /// to be answered, so the next run starts with none.
  std::uint64_t finish() {
    wait_for([this] { return done_.load() && in_flight_.load() == 0; });
    return allocs_at_end_ - allocs_at_start_;
  }

  /// Counts one completed op; opens and closes the measured window.
  /// Returns false once the window is closed (the loop then stops).
  bool complete_op() {
    if (done_.load()) return false;
    ++completed_;
    if (completed_ == window_start_) allocs_at_start_ = allocations();
    if (completed_ < window_end_) return true;
    allocs_at_end_ = allocations();
    done_.store(true);
    return false;
  }

  void send_invoke(int user_index, int host, std::uint64_t request_id) {
    ++in_flight_;
    User& user = users_[static_cast<std::size_t>(user_index)];
    const std::uint64_t nonce = ++user.nonce;
    const auth::Signature sig = auth::sign(
        user.id, auth::Authenticator::signed_bytes(kPayload, nonce),
        user.keys.secret);
    socket_->send(HostId(kDriverId), host_ids_[static_cast<std::size_t>(host)],
                  net::make_message<proto::InvokeRequest>(
                      kApp, user.id, request_id, nonce, sig, kPayload, 0));
  }

  void next_check(std::size_t s) {
    Slot& slot = slots_[s];
    const int user = slot.pool[slot.cursor];
    slot.cursor = (slot.cursor + 1) % slot.pool.size();
    send_invoke(user, static_cast<int>(s % kHosts), s);
  }

  void next_round() {
    round_user_ = chain_users_[round_ % chain_users_.size()];
    round_manager_ = static_cast<int>(round_ % kManagers);
    ++round_;
    submit(acl::Op::kAdd);
  }

  void submit(acl::Op op) {
    managers_[static_cast<std::size_t>(round_manager_)]->submit_update(
        kApp, op, users_[static_cast<std::size_t>(round_user_)].id,
        acl::Right::kUse, [this, op](const proto::UpdateOutcome&) {
          if (op == acl::Op::kRevoke) {
            if (complete_op()) next_round();
            return;
          }
          replies_left_ = kHosts;
          for (int h = 0; h < kHosts; ++h) {
            send_invoke(round_user_, h, static_cast<std::uint64_t>(h));
          }
        });
  }

  void on_reply(const proto::InvokeReply& reply) {
    --in_flight_;
    const bool ok = want_allow_
                        ? reply.accepted && reply.result == kPayload
                        : !reply.accepted &&
                              reply.reason == proto::DenyReason::kNotAuthorized;
    if (!ok) ++failures_;
    if (!chain_users_.empty()) {
      if (--replies_left_ == 0) submit(acl::Op::kRevoke);
      return;
    }
    if (complete_op()) next_check(reply.request_id);
  }

  std::unique_ptr<runtime::ReactorTransport> socket_;
  std::vector<std::unique_ptr<runtime::ThreadedEnv>> envs_;
  std::vector<HostId> manager_ids_;
  std::vector<HostId> host_ids_;
  ns::NameService names_;
  auth::KeyRegistry keys_;
  proto::ProtocolConfig config_;
  std::vector<std::unique_ptr<proto::ManagerModule>> managers_;
  std::vector<std::unique_ptr<proto::AccessController>> hosts_;
  Rng rng_{20261018};
  std::vector<User> users_;

  // Driver state: worker thread only, except the flags.
  std::vector<Slot> slots_;
  std::vector<int> chain_users_;
  std::size_t round_ = 0;
  int round_user_ = 0;
  int round_manager_ = 0;
  int replies_left_ = 0;
  bool want_allow_ = false;
  int completed_ = 0;
  int window_start_ = 0;
  int window_end_ = 0;
  std::uint64_t allocs_at_start_ = 0;
  std::uint64_t allocs_at_end_ = 0;
  std::atomic<bool> done_{false};
  std::atomic<int> in_flight_{0};  ///< invocations awaiting their reply
  obs::Counter& hedges_ =
      obs::Registry::global().counter("wan_query_hedges_total");
  std::atomic<int> failures_{0};
};

constexpr int kWarmChecks = 4 * kDepth * kUsersPerSlot;
constexpr int kMeasuredChecks = 4000;

TEST(AllocFree, CacheHitCheckAllocatesNothing) {
  Rig rig;
  const std::vector<int> users = rig.add_users(kDepth * kUsersPerSlot);
  rig.grant(users);
  EXPECT_EQ(rig.run_checks(users, true, kWarmChecks, kMeasuredChecks), 0u);
  EXPECT_EQ(rig.failures(), 0);
}

// A check hedges when its first wave has not answered within the hedge
// delay. On this rig that means the worker was held up (preempted) in the
// middle of a check, and the hedge's extra query and reply reshape the next
// bursts, which can grow a pool or batch buffer the first time a shape
// occurs. A run in which a check hedged measured that slow path, not the
// C-quorum miss, so it is run again, up to kRuns times in all.
TEST(AllocFree, QuorumMissCheckAllocatesNothing) {
  constexpr int kRuns = 20;
  Rig rig;
  const std::vector<int> users = rig.add_users(kDepth * kUsersPerSlot);
  std::uint64_t allocs = 0;
  bool unhedged = false;
  for (int run = 0; run < kRuns && !unhedged; ++run) {
    const std::uint64_t hedges = rig.hedges();
    allocs = rig.run_checks(users, false, kWarmChecks, kMeasuredChecks);
    unhedged = rig.hedges() == hedges;
  }
  ASSERT_TRUE(unhedged) << "a check hedged in each of " << kRuns << " runs";
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(rig.failures(), 0);
}

// 56 frames per round: grant and revoke (version read, update and acks
// among the managers) plus four checks, each a round with C = 2 managers,
// and the revocation fan-out from the two managers each caching host asked,
// with its acks. The bound is the 72 frames a round sent when every check
// asked all three managers.
TEST(AllocFree, RevokeRoundAllocatesAtMostOncePerFrame) {
  constexpr int kRounds = 48;
  Rig rig;
  const std::vector<int> users = rig.add_users(kChainUsers);
  const std::uint64_t allocs = rig.run_rounds(users, 2 * kChainUsers, kRounds);
  EXPECT_LE(allocs, 72u * kRounds) << allocs / kRounds << " per round";
  EXPECT_EQ(rig.failures(), 0);
}

TEST(AllocFree, AuthenticatingALongPayloadAllocatesNothing) {
  Rng rng(5);
  const auth::KeyPair kp = auth::generate_keypair(rng);
  auth::KeyRegistry keys;
  keys.register_user(UserId(1), kp.public_key);
  auth::Authenticator verifier(keys);
  const std::string payload(64, 'p');
  const auto sig_for = [&](std::uint64_t nonce) {
    return auth::sign(UserId(1),
                      auth::Authenticator::signed_bytes(payload, nonce),
                      kp.secret);
  };
  // The first call records the user's nonce floor (one map node).
  ASSERT_EQ(verifier.authenticate(UserId(1), payload, 1, sig_for(1)),
            auth::AuthResult::kOk);
  const auth::Signature sig = sig_for(2);
  const std::uint64_t before = allocations();
  const auth::AuthResult result =
      verifier.authenticate(UserId(1), payload, 2, sig);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(result, auth::AuthResult::kOk);
}

}  // namespace
}  // namespace wan
