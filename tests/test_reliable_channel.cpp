// ReliableChannel tests: the ack/retransmit/dedup layer over the socket
// fabric must turn lossy UDP into exactly-once delivery for reliable
// messages. Pins:
//
//   * injected loss on the receive side is recovered by retransmission, and
//     recovery never double-delivers;
//   * duplicated frames are shed by the receive-side dedup, counted;
//   * a queue-full shed of a reliable frame is recovered by the next
//     retransmit (the PR's silent-overflow regression: the bounded outbound
//     queue used to drop reliable messages irrecoverably);
//   * a peer that never acks exhausts the retry budget and fires the
//     peer_unreachable upcall exactly once per abandoned sweep;
//   * heartbeats stay best-effort: they bypass the channel entirely.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/reactor_transport.hpp"
#include "runtime/reliable_channel.hpp"
#include "runtime/threaded_env.hpp"

namespace wan::runtime {
namespace {

bool eventually(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::uint64_t drop_count(const char* reason) {
  return counter_value(
      (std::string("wan_udp_drops_total{reason=\"") + reason + "\"}").c_str());
}

/// Channel knobs tuned for test speed: fast first retransmit, low ceiling.
ReliabilityOptions fast_reliability(int retry_budget = 50) {
  ReliabilityOptions r;
  r.enabled = true;
  r.initial_rto = sim::Duration::millis(10);
  r.max_rto = sim::Duration::millis(40);
  r.retry_budget = retry_budget;
  r.jitter_seed = 7;
  return r;
}

std::unique_ptr<ReactorTransport> make_reliable_transport(
    const ReliabilityOptions& r, std::size_t send_queue_limit = 1024) {
  EnvOptions opts;
  opts.listen = "127.0.0.1:0";
  opts.reliability = r;
  opts.send_queue_limit = send_queue_limit;
  std::string error;
  auto t = ReactorTransport::create(opts, &error);
  EXPECT_NE(t, nullptr) << error;
  return t;
}

/// Host 1 (a) and host 2 (b) cross-wired with the reliability layer on.
/// Collects the read_ids of every VersionQuery delivered at b.
struct ReliablePair {
  explicit ReliablePair(const ReliabilityOptions& r,
                        std::size_t a_queue_limit = 1024) {
    proto::register_wire_messages();
    a = make_reliable_transport(r, a_queue_limit);
    b = make_reliable_transport(r);
    a->add_peer(HostId(2), NodeAddress{"127.0.0.1", b->local_port()});
    b->add_peer(HostId(1), NodeAddress{"127.0.0.1", a->local_port()});
    env_a = std::make_unique<ThreadedEnv>(*a);
    env_b = std::make_unique<ThreadedEnv>(*b);
    env_a->transport().register_endpoint(HostId(1),
                                         [](HostId, const net::MessagePtr&) {});
    env_b->transport().register_endpoint(
        HostId(2), [this](HostId, const net::MessagePtr& msg) {
          const std::lock_guard<std::mutex> lock(mu);
          delivered.push_back(
              static_cast<const proto::VersionQuery&>(*msg).read_id);
        });
  }
  ~ReliablePair() {
    a->shutdown();
    b->shutdown();
  }

  void send_queries(int count) {
    env_a->run_sync([&] {
      for (int i = 0; i < count; ++i) {
        env_a->transport().send(
            HostId(1), HostId(2),
            net::make_message<proto::VersionQuery>(
                AppId(1), static_cast<std::uint64_t>(i)));
      }
    });
  }

  std::size_t delivered_count() {
    const std::lock_guard<std::mutex> lock(mu);
    return delivered.size();
  }
  std::set<std::uint64_t> delivered_distinct() {
    const std::lock_guard<std::mutex> lock(mu);
    return {delivered.begin(), delivered.end()};
  }

  std::unique_ptr<ReactorTransport> a, b;
  std::unique_ptr<ThreadedEnv> env_a, env_b;
  std::mutex mu;
  std::vector<std::uint64_t> delivered;
};

// Injected loss on the receiver sheds ~30% of data frames (and their
// retransmissions, independently); the channel delivers every message anyway,
// exactly once, and quiesces once everything is acked.
TEST(ReliableChannel, LossRecoveredExactlyOnceReactor) {
  constexpr int kMessages = 50;
  ReliablePair pair(fast_reliability());
  FaultPlan plan;
  plan.seed = 11;
  plan.loss = 0.3;
  pair.b->set_fault_plan(plan);

  const std::uint64_t retransmits_before = counter_value("wan_retransmits_total");
  pair.send_queries(kMessages);

  ASSERT_TRUE(eventually(
      [&] { return pair.delivered_distinct().size() == kMessages; }, 20000));
  // Exactly once: no read_id arrives twice.
  EXPECT_EQ(pair.delivered_count(), static_cast<std::size_t>(kMessages));
  // Loss at 30% over 50 messages makes at least one retransmission all but
  // certain (the seeded plan makes it deterministic in fact).
  EXPECT_GT(counter_value("wan_retransmits_total"), retransmits_before);
  // Acks drain the send flow.
  ASSERT_TRUE(eventually(
      [&] { return pair.a->reliable_channel()->in_flight() == 0; }, 20000));
}

// Every inbound frame duplicated: the dedup watermark drops the copies and
// counts them; delivery stays exactly-once.
TEST(ReliableChannel, DuplicatedFramesAreDedupedAndCounted) {
  constexpr int kMessages = 10;
  ReliablePair pair(fast_reliability());
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate = 1.0;
  pair.b->set_fault_plan(plan);

  const std::uint64_t dups_before = counter_value("wan_dup_drops_total");
  pair.send_queries(kMessages);

  ASSERT_TRUE(eventually(
      [&] { return pair.delivered_distinct().size() == kMessages; }));
  EXPECT_TRUE(eventually([&] {
    return counter_value("wan_dup_drops_total") >=
           dups_before + static_cast<std::uint64_t>(kMessages);
  }));
  // The duplicates never reach the endpoint.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(pair.delivered_count(), static_cast<std::size_t>(kMessages));
}

// The silent-overflow regression: with a 2-frame outbound queue, a burst of
// reliable sends sheds most first transmissions as queue_full. Before the
// channel existed those messages were simply gone; now the retransmit timer
// re-enqueues until every one of them lands.
TEST(ReliableChannel, QueueFullShedIsRecoveredByRetransmit) {
  constexpr int kMessages = 40;
  ReliablePair pair(fast_reliability(/*retry_budget=*/200),
                    /*a_queue_limit=*/2);

  const std::uint64_t full_before = drop_count("queue_full");
  pair.send_queries(kMessages);

  // The burst overran the 2-slot queue...
  ASSERT_TRUE(eventually([&] { return drop_count("queue_full") > full_before; }));
  // ...and retransmission still delivers every message exactly once.
  ASSERT_TRUE(eventually(
      [&] { return pair.delivered_distinct().size() == kMessages; }, 30000));
  EXPECT_EQ(pair.delivered_count(), static_cast<std::size_t>(kMessages));
  ASSERT_TRUE(eventually(
      [&] { return pair.a->reliable_channel()->in_flight() == 0; }, 30000));
}

// A peer that receives but never acks (a raw socket, not a transport):
// after retry_budget transmissions the frame is abandoned, the expired
// counter moves, and the upcall names the peer.
TEST(ReliableChannel, PeerUnreachableFiresAfterRetryBudget) {
  proto::register_wire_messages();
  // A sink that swallows datagrams without ever answering.
  const int sink_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sink_fd, 0);
  sockaddr_in sink_addr{};
  sink_addr.sin_family = AF_INET;
  sink_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sink_addr.sin_port = 0;
  ASSERT_EQ(::bind(sink_fd, reinterpret_cast<const sockaddr*>(&sink_addr),
                   sizeof sink_addr),
            0);
  socklen_t len = sizeof sink_addr;
  ASSERT_EQ(::getsockname(sink_fd, reinterpret_cast<sockaddr*>(&sink_addr),
                          &len),
            0);

  auto t = make_reliable_transport(fast_reliability(/*retry_budget=*/3));
  std::atomic<std::uint32_t> dead_peer{0};
  std::atomic<std::size_t> abandoned{0};
  t->set_peer_unreachable([&](HostId peer, std::size_t count) {
    dead_peer = peer.value();
    abandoned = count;
  });
  t->add_peer(HostId(2),
              NodeAddress{"127.0.0.1", ntohs(sink_addr.sin_port)});
  auto env = std::make_unique<ThreadedEnv>(*t);
  env->transport().register_endpoint(HostId(1),
                                     [](HostId, const net::MessagePtr&) {});

  const std::uint64_t expired_before =
      counter_value("wan_reliable_expired_total");
  env->run_sync([&] {
    env->transport().send(HostId(1), HostId(2),
                          net::make_message<proto::VersionQuery>(AppId(1), 9));
  });

  ASSERT_TRUE(eventually([&] { return dead_peer.load() == 2u; }));
  EXPECT_EQ(abandoned.load(), 1u);
  EXPECT_EQ(counter_value("wan_reliable_expired_total"), expired_before + 1);
  ASSERT_TRUE(
      eventually([&] { return t->reliable_channel()->in_flight() == 0; }));
  t->shutdown();
  ::close(sink_fd);
}

// Heartbeats (reliable() == false) bypass the channel: they deliver on the
// raw path and never enter the in-flight table or the retransmit schedule.
TEST(ReliableChannel, HeartbeatsBypassTheChannel) {
  ReliablePair pair(fast_reliability());
  std::atomic<int> pings{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { pings.fetch_add(1); });

  const std::uint64_t retransmits_before =
      counter_value("wan_retransmits_total");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  ASSERT_TRUE(eventually([&] { return pings.load() == 1; }));
  EXPECT_EQ(pair.a->reliable_channel()->in_flight(), 0u);
  // Nothing to retransmit: the ping was never tracked.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(counter_value("wan_retransmits_total"), retransmits_before);
}

// Reliable traffic in both directions at once: each side's data frames
// piggyback acks for the reverse flow, both sides drain, and both deliver
// exactly once.
TEST(ReliableChannel, BidirectionalTrafficDrainsBothFlows) {
  constexpr int kEach = 20;
  ReliablePair pair(fast_reliability());
  std::mutex mu;
  std::set<std::uint64_t> at_a;
  pair.env_a->transport().register_endpoint(
      HostId(1), [&](HostId, const net::MessagePtr& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        at_a.insert(static_cast<const proto::VersionQuery&>(*msg).read_id);
      });

  pair.send_queries(kEach);
  pair.env_b->run_sync([&] {
    for (int i = 0; i < kEach; ++i) {
      pair.env_b->transport().send(
          HostId(2), HostId(1),
          net::make_message<proto::VersionQuery>(
              AppId(1), static_cast<std::uint64_t>(100 + i)));
    }
  });

  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return at_a.size() == static_cast<std::size_t>(kEach);
  }));
  ASSERT_TRUE(eventually(
      [&] { return pair.delivered_distinct().size() == kEach; }));
  ASSERT_TRUE(eventually([&] {
    return pair.a->reliable_channel()->in_flight() == 0 &&
           pair.b->reliable_channel()->in_flight() == 0;
  }));
}

}  // namespace
}  // namespace wan::runtime
