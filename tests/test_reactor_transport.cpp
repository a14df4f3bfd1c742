// ReactorTransport tests: the epoll + recvmmsg/sendmmsg backend must match
// UdpTransport observable-for-observable — delivery onto the destination
// loop, round trips, one-way inbound blocking, labelled send-path drops,
// idempotent shutdown — while adding the batched-I/O behaviors worth pinning
// directly: bursts larger than one syscall batch all arrive, and a recvmmsg
// batch mixing valid frames with garbage rejects per-frame (each reject in
// its labelled counter, every valid neighbour still delivered). The
// deterministic fault plan (socket_base.hpp) is exercised here at the
// transport layer: same plan + same arrival sequence -> same losses, run to
// run; duplication doubles deliveries; reordering swaps adjacent frames.
// The shared receive path's batching is pinned with hand-built batches: one
// loop handoff per destination endpoint per batch, in arrival order.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
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
#include "runtime/threaded_env.hpp"
#include "runtime/udp_transport.hpp"

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

std::uint64_t drop_count(const char* reason) {
  return obs::Registry::global()
      .counter(std::string("wan_udp_drops_total{reason=\"") + reason + "\"}")
      .value();
}

std::unique_ptr<ReactorTransport> make_transport() {
  EnvOptions opts;
  opts.listen = "127.0.0.1:0";
  std::string error;
  auto t = ReactorTransport::create(opts, &error);
  EXPECT_NE(t, nullptr) << error;
  return t;
}

/// Two nodes' worth of plumbing on two reactor sockets, cross-wired.
struct Pair {
  Pair() {
    proto::register_wire_messages();
    a = make_transport();
    b = make_transport();
    a->add_peer(HostId(2), NodeAddress{"127.0.0.1", b->local_port()});
    b->add_peer(HostId(1), NodeAddress{"127.0.0.1", a->local_port()});
    env_a = std::make_unique<ThreadedEnv>(*a);
    env_b = std::make_unique<ThreadedEnv>(*b);
  }
  ~Pair() {
    a->shutdown();
    b->shutdown();
  }

  std::unique_ptr<ReactorTransport> a, b;
  std::unique_ptr<ThreadedEnv> env_a, env_b;
};

/// One receiving node plus a raw sender socket, for injecting arbitrary
/// datagrams (garbage, hand-built frames, fault-plan probes) from outside
/// any transport.
struct RawSenderRig {
  explicit RawSenderRig(const FaultPlan* plan = nullptr) {
    proto::register_wire_messages();
    transport = make_transport();
    if (plan != nullptr) transport->set_fault_plan(*plan);
    env = std::make_unique<ThreadedEnv>(*transport);
    env->transport().register_endpoint(
        HostId(2), [this](HostId, const net::MessagePtr& msg) {
          const std::lock_guard<std::mutex> lock(mu);
          seqs.push_back(
              static_cast<const proto::HeartbeatPing&>(*msg).seq);
        });
    send_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(send_fd, 0);
    std::memset(&dest, 0, sizeof dest);
    dest.sin_family = AF_INET;
    dest.sin_port = htons(transport->local_port());
    dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  ~RawSenderRig() {
    if (send_fd >= 0) ::close(send_fd);
    transport->shutdown();
  }

  void send_raw(const std::vector<std::uint8_t>& bytes) {
    const auto sent =
        ::sendto(send_fd, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest), sizeof dest);
    EXPECT_EQ(static_cast<std::size_t>(sent), bytes.size());
  }

  /// A valid frame carrying HeartbeatPing{app, seq} from host 1 to host 2.
  static std::vector<std::uint8_t> ping_frame(std::uint64_t seq) {
    const auto msg = net::make_message<proto::HeartbeatPing>(AppId(1), seq);
    const auto frame =
        net::CodecRegistry::global().encode(HostId(1), HostId(2), *msg);
    EXPECT_TRUE(frame.has_value());
    return frame.value_or(std::vector<std::uint8_t>{});
  }

  std::size_t delivered() {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs.size();
  }
  std::vector<std::uint64_t> delivered_seqs() {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs;
  }

  std::unique_ptr<ReactorTransport> transport;
  std::unique_ptr<ThreadedEnv> env;
  std::mutex mu;
  std::vector<std::uint64_t> seqs;
  int send_fd = -1;
  sockaddr_in dest{};
};

// ------------------------------------------------- UdpTransport parity

TEST(ReactorTransport, DeliversAcrossRealSockets) {
  Pair pair;
  std::atomic<int> received{0};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint32_t> from_value{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId from, const net::MessagePtr& msg) {
        from_value = from.value();
        seq = static_cast<const proto::HeartbeatPing&>(*msg).seq;
        received.fetch_add(1);
      });
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(7), 4242));
  });
  ASSERT_TRUE(eventually([&] { return received.load() == 1; }));
  EXPECT_EQ(from_value.load(), 1u);
  EXPECT_EQ(seq.load(), 4242u);
}

TEST(ReactorTransport, RoundTripRequestReply) {
  Pair pair;
  std::atomic<int> replies{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId from, const net::MessagePtr& msg) {
        const auto& ping = static_cast<const proto::HeartbeatPing&>(*msg);
        pair.env_b->transport().send(
            HostId(2), from,
            net::make_message<proto::HeartbeatPong>(ping.app, ping.seq));
      });
  pair.env_a->transport().register_endpoint(
      HostId(1), [&](HostId, const net::MessagePtr& msg) {
        if (static_cast<const proto::HeartbeatPong&>(*msg).seq == 5) {
          replies.fetch_add(1);
        }
      });
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 5));
  });
  ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));
}

TEST(ReactorTransport, BlockInboundFromDropsOneDirectionOnly) {
  Pair pair;
  std::atomic<int> at_b{0};
  std::atomic<int> at_a{0};
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { at_b.fetch_add(1); });
  pair.env_a->transport().register_endpoint(
      HostId(1), [&](HostId, const net::MessagePtr&) { at_a.fetch_add(1); });

  const std::uint64_t blocked_before = drop_count("blocked");
  pair.b->block_inbound_from(HostId(1), true);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  ASSERT_TRUE(
      eventually([&] { return drop_count("blocked") > blocked_before; }));
  EXPECT_EQ(at_b.load(), 0);

  pair.env_b->run_sync([&] {
    pair.env_b->transport().send(
        HostId(2), HostId(1),
        net::make_message<proto::HeartbeatPong>(AppId(1), 2));
  });
  ASSERT_TRUE(eventually([&] { return at_a.load() == 1; }));

  pair.b->block_inbound_from(HostId(1), false);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 3));
  });
  ASSERT_TRUE(eventually([&] { return at_b.load() == 1; }));
}

TEST(ReactorTransport, SendPathDropReasonsAreCounted) {
  Pair pair;
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  const std::uint64_t unknown_before = drop_count("unknown_dest");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(77),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  EXPECT_EQ(drop_count("unknown_dest"), unknown_before + 1);

  const std::uint64_t down_before = drop_count("endpoint_down");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(99), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  EXPECT_EQ(drop_count("endpoint_down"), down_before + 1);

  const std::uint64_t oversize_before = drop_count("oversize");
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::InvokeRequest>(
            AppId(1), UserId(2), 3, 4, auth::Signature{5},
            std::string(net::kMaxFrameSize, 'x'), 6));
  });
  EXPECT_EQ(drop_count("oversize"), oversize_before + 1);
}

TEST(ReactorTransport, CreateRejectsBadOptions) {
  proto::register_wire_messages();
  {
    EnvOptions opts;
    opts.listen = "not-an-address";
    std::string error;
    EXPECT_EQ(ReactorTransport::create(opts, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
  {
    EnvOptions opts;
    opts.listen = "127.0.0.1:0";
    opts.topology_path = "/nonexistent/topology.txt";
    std::string error;
    EXPECT_EQ(ReactorTransport::create(opts, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
}

TEST(ReactorTransport, ShutdownIsIdempotentAndStopsEnvs) {
  auto t = make_transport();
  auto env = std::make_unique<ThreadedEnv>(*t);
  env->transport().register_endpoint(HostId(1),
                                     [](HostId, const net::MessagePtr&) {});
  t->shutdown();
  t->shutdown();  // second call must be a no-op
  env.reset();
}

// --------------------------------------------------- batched-I/O behavior

// A burst several times kBatch wide: sendmmsg flushes it in batches, the
// receive side drains with recvmmsg across multiple partial batches, and
// every frame arrives exactly once.
TEST(ReactorTransport, BurstLargerThanOneBatchAllArrives) {
  Pair pair;
  constexpr int kFrames = static_cast<int>(ReactorTransport::kBatch) * 5;
  std::mutex mu;
  std::set<std::uint64_t> seen;
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr& msg) {
        const std::lock_guard<std::mutex> lock(mu);
        seen.insert(static_cast<const proto::HeartbeatPing&>(*msg).seq);
      });
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  pair.env_a->run_sync([&] {
    for (int i = 0; i < kFrames; ++i) {
      pair.env_a->transport().send(
          HostId(1), HostId(2),
          net::make_message<proto::HeartbeatPing>(
              AppId(1), static_cast<std::uint64_t>(i)));
    }
  });
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return seen.size() == static_cast<std::size_t>(kFrames);
  }));
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), static_cast<std::uint64_t>(kFrames - 1));
}

// One recvmmsg batch mixing valid frames with every reject class: rejects
// are per-frame (each lands in its labelled counter) and never poison the
// valid frames around them.
TEST(ReactorTransport, PartialBatchRejectsGarbagePerFrame) {
  RawSenderRig rig;
  const std::uint64_t bad_magic_before = drop_count("bad_magic");
  const std::uint64_t truncated_before = drop_count("truncated");
  const std::uint64_t unknown_before = drop_count("unknown_tag");

  const auto valid = RawSenderRig::ping_frame(1);
  std::vector<std::uint8_t> truncated(valid.begin(), valid.begin() + 5);
  std::vector<std::uint8_t> bad_magic(net::kWireHeaderSize, 0x41);
  auto unknown_tag = valid;
  const std::uint16_t tag = 999;
  std::memcpy(unknown_tag.data() + 4, &tag, sizeof tag);

  // Interleave so garbage sits between valid frames inside one batch.
  rig.send_raw(RawSenderRig::ping_frame(10));
  rig.send_raw(truncated);
  rig.send_raw(RawSenderRig::ping_frame(11));
  rig.send_raw(bad_magic);
  rig.send_raw(RawSenderRig::ping_frame(12));
  rig.send_raw(unknown_tag);
  rig.send_raw(RawSenderRig::ping_frame(13));

  ASSERT_TRUE(eventually([&] { return rig.delivered() == 4; }));
  EXPECT_EQ(rig.delivered_seqs(),
            (std::vector<std::uint64_t>{10, 11, 12, 13}));
  EXPECT_TRUE(eventually([&] {
    return drop_count("bad_magic") == bad_magic_before + 1 &&
           drop_count("truncated") == truncated_before + 1 &&
           drop_count("unknown_tag") == unknown_before + 1;
  }));
  // Nothing more trickles in late.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rig.delivered(), 4u);
}

// ------------------------------------------------------ batched delivery

/// The shared receive path with no I/O threads: the test hands
/// on_datagrams() exact batches, so "one batch" is deterministic (a live
/// reactor's recvmmsg boundaries follow thread scheduling).
class BatchProbe final : public SocketTransport {
 public:
  BatchProbe() { proto::register_wire_messages(); }
  ~BatchProbe() override { shutdown(); }
  void shutdown() override {
    if (mark_shut_down()) stop_all();
  }

  void feed(const std::vector<std::vector<std::uint8_t>>& frames) {
    std::vector<Datagram> batch;
    for (const auto& f : frames) batch.push_back(Datagram{f.data(), f.size()});
    on_datagrams(batch);
  }

 private:
  bool enqueue_frame(std::vector<std::uint8_t>, const ResolvedAddr&) override {
    return true;
  }
  void count_env_send() override {}
};

std::vector<std::uint8_t> ping(std::uint32_t from, std::uint32_t to,
                               std::uint64_t seq) {
  const auto msg = net::make_message<proto::HeartbeatPing>(AppId(1), seq);
  const auto frame =
      net::CodecRegistry::global().encode(HostId(from), HostId(to), *msg);
  EXPECT_TRUE(frame.has_value());
  return frame.value_or(std::vector<std::uint8_t>{});
}

/// Records the seqs each endpoint receives, in delivery order.
struct SeqLog {
  Transport::Handler handler_for(std::uint32_t host) {
    return [this, host](HostId, const net::MessagePtr& msg) {
      const std::lock_guard<std::mutex> lock(mu);
      seqs[host].push_back(static_cast<const proto::HeartbeatPing&>(*msg).seq);
    };
  }
  std::size_t total() {
    const std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto& [host, list] : seqs) n += list.size();
    return n;
  }
  std::vector<std::uint64_t> at(std::uint32_t host) {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs[host];
  }

  std::mutex mu;
  std::map<std::uint32_t, std::vector<std::uint64_t>> seqs;
};

std::uint64_t handoffs() {
  return obs::Registry::global()
      .counter("wan_udp_delivery_handoffs_total")
      .value();
}

// One batch for two live endpoints (on two loops), interleaved with frames
// from a blocked source, frames for a down endpoint and one for a host that
// is not local: each live endpoint gets its frames in arrival order through
// exactly one post, and every filtered frame is counted on its own.
TEST(BatchedDelivery, OneHandoffPerEndpointInArrivalOrder) {
  BatchProbe probe;
  ThreadedEnv env_a(probe);
  ThreadedEnv env_b(probe);
  SeqLog log;
  env_a.transport().register_endpoint(HostId(2), log.handler_for(2));
  env_b.transport().register_endpoint(HostId(3), log.handler_for(3));
  env_b.transport().register_endpoint(HostId(4), log.handler_for(4));
  env_b.transport().set_endpoint_down(HostId(4), true);
  probe.block_inbound_from(HostId(9), true);

  const std::uint64_t handoffs_before = handoffs();
  const std::uint64_t deliveries_before = socket_deliveries().value();
  const std::uint64_t blocked_before = drop_count("blocked");
  const std::uint64_t down_before = drop_count("endpoint_down");
  const std::uint64_t not_local_before = drop_count("not_local");

  probe.feed({ping(1, 2, 1), ping(1, 3, 2), ping(9, 2, 3), ping(1, 4, 4),
              ping(1, 2, 5), ping(9, 3, 6), ping(1, 77, 7), ping(1, 3, 8),
              ping(1, 4, 9), ping(1, 2, 10)});

  EXPECT_EQ(handoffs() - handoffs_before, 2u);
  EXPECT_EQ(socket_deliveries().value() - deliveries_before, 5u);
  EXPECT_EQ(drop_count("blocked") - blocked_before, 2u);
  EXPECT_EQ(drop_count("endpoint_down") - down_before, 2u);
  EXPECT_EQ(drop_count("not_local") - not_local_before, 1u);
  ASSERT_TRUE(eventually([&] { return log.total() == 5; }));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{1, 5, 10}));
  EXPECT_EQ(log.at(3), (std::vector<std::uint64_t>{2, 8}));
  EXPECT_TRUE(log.at(4).empty());
}

// The fault plan is drawn per frame inside the batch: a held frame is
// released right behind the next one, duplicates sit next to their original,
// and a frame still held at the end of a batch rides out in the next one.
TEST(BatchedDelivery, FaultPlanHoldsAndDuplicatesWithinAndAcrossBatches) {
  BatchProbe probe;
  FaultPlan plan;
  plan.seed = 5;
  plan.reorder = 1.0;
  plan.duplicate = 1.0;
  probe.set_fault_plan(plan);
  ThreadedEnv env(probe);
  SeqLog log;
  env.transport().register_endpoint(HostId(2), log.handler_for(2));

  const std::uint64_t handoffs_before = handoffs();
  probe.feed({ping(1, 2, 1), ping(1, 2, 2), ping(1, 2, 3)});
  probe.feed({ping(1, 2, 4)});

  EXPECT_EQ(handoffs() - handoffs_before, 2u);
  ASSERT_TRUE(eventually([&] { return log.total() == 6; }));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{2, 2, 1, 4, 4, 3}));
}

// ------------------------------------------------ deterministic fault plan

// Same plan, same arrival sequence, fresh transport: the seeded fault
// stream makes identical drop decisions, so the surviving seq sets match
// exactly run to run.
TEST(ReactorTransport, InjectedLossIsDeterministicAcrossRuns) {
  constexpr int kFrames = 100;
  FaultPlan plan;
  plan.seed = 99;
  plan.loss = 0.4;

  auto run_once = [&](std::vector<std::uint64_t>* survivors,
                      std::uint64_t* lost) {
    RawSenderRig rig(&plan);
    const std::uint64_t lost_before = drop_count("injected_loss");
    for (int i = 0; i < kFrames; ++i) {
      rig.send_raw(RawSenderRig::ping_frame(static_cast<std::uint64_t>(i)));
    }
    // Every frame is either delivered or counted as an injected loss.
    ASSERT_TRUE(eventually([&] {
      return rig.delivered() + (drop_count("injected_loss") - lost_before) >=
             static_cast<std::size_t>(kFrames);
    }));
    *survivors = rig.delivered_seqs();
    *lost = drop_count("injected_loss") - lost_before;
  };

  std::vector<std::uint64_t> survivors_a, survivors_b;
  std::uint64_t lost_a = 0, lost_b = 0;
  run_once(&survivors_a, &lost_a);
  run_once(&survivors_b, &lost_b);
  EXPECT_EQ(survivors_a, survivors_b);
  EXPECT_EQ(lost_a, lost_b);
  EXPECT_GT(lost_a, 0u);
  EXPECT_LT(lost_a, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(survivors_a.size() + lost_a, static_cast<std::size_t>(kFrames));
}

TEST(ReactorTransport, DuplicatePlanDeliversEveryFrameTwice) {
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate = 1.0;
  RawSenderRig rig(&plan);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rig.send_raw(RawSenderRig::ping_frame(i));
  }
  ASSERT_TRUE(eventually([&] { return rig.delivered() == 10; }));
  EXPECT_EQ(rig.delivered_seqs(),
            (std::vector<std::uint64_t>{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}));
}

TEST(ReactorTransport, ReorderPlanSwapsAdjacentFrames) {
  FaultPlan plan;
  plan.seed = 5;
  plan.reorder = 1.0;
  RawSenderRig rig(&plan);
  rig.send_raw(RawSenderRig::ping_frame(1));
  // Let the first frame arrive (and be held) before the second is sent, so
  // the arrival order is fixed and the swap is unambiguous.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rig.send_raw(RawSenderRig::ping_frame(2));
  ASSERT_TRUE(eventually([&] { return rig.delivered() == 2; }));
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{2, 1}));
}

// The fault plan lives in SocketTransport, so the thread-per-direction
// backend honors the identical contract — spot-check duplication there.
TEST(UdpTransportFaults, DuplicatePlanAppliesToUdpBackendToo) {
  proto::register_wire_messages();
  EnvOptions opts;
  opts.listen = "127.0.0.1:0";
  std::string error;
  auto t = UdpTransport::create(opts, &error);
  ASSERT_NE(t, nullptr) << error;
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate = 1.0;
  t->set_fault_plan(plan);
  auto env = std::make_unique<ThreadedEnv>(*t);
  std::atomic<int> got{0};
  env->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { got.fetch_add(1); });
  t->add_peer(HostId(2), NodeAddress{"127.0.0.1", t->local_port()});
  env->run_sync([&] {
    env->transport().send(HostId(2), HostId(2),
                          net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  ASSERT_TRUE(eventually([&] { return got.load() == 2; }));
  t->shutdown();
}

}  // namespace
}  // namespace wan::runtime
