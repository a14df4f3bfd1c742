// ReactorTransport tests: two ThreadedEnvs in one process, each behind its
// own reactor socket on a 127.0.0.1 ephemeral port, exchanging real
// datagrams through the wire codec — delivery onto the destination node,
// round trips, one-way inbound blocking, a down endpoint dropping inbound
// deliveries, an endpoint whose env was stopped and destroyed dropping them
// without harm, labelled send-path drops, idempotent shutdown and topology
// parsing — plus the batched-I/O behaviors worth pinning directly: bursts larger than one syscall batch all arrive, and a recvmmsg
// batch mixing valid frames with garbage rejects per-frame (each reject in
// its labelled counter, every valid neighbour still delivered). The
// deterministic fault plan (socket_base.hpp) is exercised here at the
// transport layer: same plan + same arrival sequence -> same losses, run to
// run; duplication doubles deliveries; reordering swaps adjacent frames.
// The shared receive path's batching is pinned with hand-built batches: one
// inline handler run per destination endpoint per batch, in arrival order.
// Bundling is pinned on both sides: hand-built datagrams of several frames
// split by payload_len (per-frame filtering and drops, a seeded fuzz of the
// splitter), and a live reactor sender observed through raw sockets (fewer
// datagrams than frames, none over net::kBundleBytes, per-peer FIFO order,
// every datagram byte-identical to the encoded frames cut at the cap, and
// send_queue_limit shedding one frame per queue_full drop).
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
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/reactor_transport.hpp"
#include "runtime/threaded_env.hpp"
#include "util/rng.hpp"

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

std::unique_ptr<ReactorTransport> make_transport(EnvOptions opts = {}) {
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

// ------------------------------------------------ delivery and drops

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

TEST(ReactorTransport, DownEndpointDropsInboundDeliveries) {
  Pair pair;
  std::atomic<int> at_b{0};
  pair.env_b->transport().register_endpoint(
      HostId(2),
      [&](HostId, const net::MessagePtr&) { at_b.fetch_add(1); });
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});

  const std::uint64_t down_before = drop_count("endpoint_down");
  pair.env_b->transport().set_endpoint_down(HostId(2), true);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 1));
  });
  ASSERT_TRUE(
      eventually([&] { return drop_count("endpoint_down") > down_before; }));
  EXPECT_EQ(at_b.load(), 0);

  pair.env_b->transport().set_endpoint_down(HostId(2), false);
  pair.env_a->run_sync([&] {
    pair.env_a->transport().send(
        HostId(1), HostId(2),
        net::make_message<proto::HeartbeatPing>(AppId(1), 2));
  });
  ASSERT_TRUE(eventually([&] { return at_b.load() == 1; }));
}

// An endpoint whose ThreadedEnv was stopped and destroyed stays in the
// routing table: frames for it still arrive at its socket and are dropped
// there as endpoint_down (never counted as deliveries), its handler never
// runs, and the worker keeps serving the other nodes on that socket.
TEST(ReactorTransport, StoppedEnvDropsDeliveriesInsteadOfCrashing) {
  Pair pair;
  std::atomic<int> at_stopped{0};
  std::atomic<int> at_live{0};
  pair.env_a->transport().register_endpoint(
      HostId(1), [](HostId, const net::MessagePtr&) {});
  pair.env_b->transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr&) { ++at_stopped; });
  ThreadedEnv live(*pair.b);
  live.transport().register_endpoint(
      HostId(3), [&](HostId, const net::MessagePtr&) { ++at_live; });
  pair.a->add_peer(HostId(3), NodeAddress{"127.0.0.1", pair.b->local_port()});
  pair.env_b->stop();
  pair.env_b.reset();

  obs::Counter& received =
      obs::Registry::global().counter("wan_udp_frames_received_total");
  const std::uint64_t received_before = received.value();
  const std::uint64_t deliveries_before = socket_deliveries().value();
  const std::uint64_t down_before = drop_count("endpoint_down");
  pair.env_a->run_sync([&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      pair.env_a->transport().send(
          HostId(1), HostId(2),
          net::make_message<proto::HeartbeatPing>(AppId(1), i));
    }
    pair.env_a->transport().send(
        HostId(1), HostId(3),
        net::make_message<proto::HeartbeatPing>(AppId(1), 8));
  });
  ASSERT_TRUE(eventually([&] {
    return at_live.load() == 1 &&
           drop_count("endpoint_down") - down_before >= 8 &&
           socket_deliveries().value() - deliveries_before >= 1;
  }));
  EXPECT_GE(received.value(), received_before + 9);
  EXPECT_EQ(at_stopped.load(), 0);
  EXPECT_EQ(socket_deliveries().value() - deliveries_before, 1u);
  EXPECT_EQ(drop_count("endpoint_down") - down_before, 8u);
  live.stop();
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

// ------------------------------------------------------------- Topology

TEST(Topology, ParsesEntriesAndComments) {
  std::istringstream in(
      "# deployment of three\n"
      "0 127.0.0.1:9000\n"
      "\n"
      "100 node-a.example:9001   # app host\n"
      "9000 127.0.0.1:9002\n");
  std::string error;
  const auto topo = Topology::parse(in, &error);
  ASSERT_TRUE(topo.has_value()) << error;
  EXPECT_EQ(topo->size(), 3u);
  ASSERT_NE(topo->find(HostId(100)), nullptr);
  EXPECT_EQ(topo->find(HostId(100))->host, "node-a.example");
  EXPECT_EQ(topo->find(HostId(100))->port, 9001);
  EXPECT_EQ(topo->find(HostId(5)), nullptr);
}

TEST(Topology, SerializeRoundTrips) {
  Topology topo;
  topo.add(HostId(3), NodeAddress{"127.0.0.1", 1234});
  topo.add(HostId(1), NodeAddress{"example.org", 80});
  std::istringstream in(topo.serialize());
  std::string error;
  const auto again = Topology::parse(in, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->entries(), topo.entries());
}

TEST(Topology, RejectsMalformedLines) {
  const char* bad_inputs[] = {
      "not-a-number 127.0.0.1:1\n",  // unparseable id
      "1 127.0.0.1\n",               // missing port
      "1 127.0.0.1:99999\n",         // port out of range
      "1 :5\n",                      // empty host
      "1 127.0.0.1:5 trailing\n",    // trailing non-comment text
      "1 127.0.0.1:5\n1 127.0.0.1:6\n",  // duplicate id
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(Topology::parse(in, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Topology, ParseNodeAddress) {
  const auto ok = parse_node_address("10.1.2.3:8080");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, "10.1.2.3");
  EXPECT_EQ(ok->port, 8080);
  EXPECT_FALSE(parse_node_address("nocolon").has_value());
  EXPECT_FALSE(parse_node_address(":80").has_value());
  EXPECT_FALSE(parse_node_address("h:").has_value());
  EXPECT_FALSE(parse_node_address("h:65536").has_value());
  EXPECT_FALSE(parse_node_address("h:12x").has_value());
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

/// The shared receive path with no socket: the test hands on_datagrams()
/// exact batches on the fabric's worker, as the reactor does, so "one batch"
/// is deterministic (a live reactor's recvmmsg boundaries follow thread
/// scheduling). Handlers run inline during feed().
class BatchProbe final : public SocketTransport {
 public:
  BatchProbe() { proto::register_wire_messages(); }
  ~BatchProbe() override { shutdown(); }
  void shutdown() override { stop_all(); }

  void feed(const std::vector<std::vector<std::uint8_t>>& frames) {
    std::vector<Datagram> batch;
    for (const auto& f : frames) batch.push_back(Datagram{f.data(), f.size()});
    ASSERT_TRUE(worker().run_sync(nullptr, [&] { on_datagrams(batch); }));
  }

 private:
  bool enqueue_message(HostId, HostId, const net::Message&,
                       const ResolvedAddr&) override {
    return true;
  }
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

// One batch for two live endpoints (on two nodes), interleaved with frames
// from a blocked source, frames for a down endpoint and one for a host that
// is not local: each live endpoint gets its frames in arrival order through
// exactly one inline handler run, and every filtered frame is counted on its
// own.
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

// A node that stops itself from its handler (a crash issued from protocol
// code) gets none of the frames behind that one in the same inline run, and
// none of a later batch; the other endpoint of the batch is unaffected.
TEST(BatchedDelivery, StopInsideHandlerSkipsTheRestOfTheBatch) {
  BatchProbe probe;
  ThreadedEnv env_a(probe);
  ThreadedEnv env_b(probe);
  SeqLog log;
  const Transport::Handler record_b = log.handler_for(3);
  env_a.transport().register_endpoint(HostId(2), log.handler_for(2));
  env_b.transport().register_endpoint(
      HostId(3), [&](HostId from, const net::MessagePtr& msg) {
        record_b(from, msg);
        env_b.stop();
      });

  probe.feed({ping(1, 3, 1), ping(1, 2, 2), ping(1, 3, 3), ping(1, 2, 4)});
  probe.feed({ping(1, 3, 5), ping(1, 2, 6)});

  EXPECT_EQ(log.at(3), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{2, 4, 6}));
}

// Each node's run over its messages in a batch is one dispatch: every
// message of the run reads the same now(), even when its handler runs
// long, and the next node's run reads a later one.
TEST(BatchedDelivery, EachNodeRunIsOneDispatch) {
  BatchProbe probe;
  ThreadedEnv env_a(probe);
  ThreadedEnv env_b(probe);
  std::map<std::uint64_t, sim::TimePoint> at;  // seq -> now(); worker only
  env_a.transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr& msg) {
        at[static_cast<const proto::HeartbeatPing&>(*msg).seq] = env_a.now();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
  env_b.transport().register_endpoint(
      HostId(3), [&](HostId, const net::MessagePtr& msg) {
        at[static_cast<const proto::HeartbeatPing&>(*msg).seq] = env_b.now();
      });

  probe.feed({ping(1, 2, 1), ping(1, 3, 2), ping(1, 2, 3)});

  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[1], at[3]);
  EXPECT_GE((at[2] - at[1]).count_nanos(), 2'000'000);
}

// ------------------------------------------------------ bundled datagrams

/// Frames back to back in one datagram, as a bundling sender packs them.
std::vector<std::uint8_t> bundle(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<std::uint8_t> out;
  for (const auto& f : frames) out.insert(out.end(), f.begin(), f.end());
  return out;
}

// A datagram of three frames is split by payload_len and delivered in order
// through one inline handler run; frames and datagrams are counted apart.
TEST(BundledDatagram, ThreeFramesDeliverInOrderWithOneHandoff) {
  BatchProbe probe;
  ThreadedEnv env(probe);
  SeqLog log;
  env.transport().register_endpoint(HostId(2), log.handler_for(2));

  const std::uint64_t handoffs_before = handoffs();
  const std::uint64_t frames_before = socket_frames_received().value();
  const std::uint64_t datagrams_before = socket_datagrams_received().value();
  probe.feed({bundle({ping(1, 2, 1), ping(1, 2, 2), ping(1, 2, 3)})});

  EXPECT_EQ(handoffs() - handoffs_before, 1u);
  EXPECT_EQ(socket_frames_received().value() - frames_before, 3u);
  EXPECT_EQ(socket_datagrams_received().value() - datagrams_before, 1u);
  ASSERT_TRUE(eventually([&] { return log.total() == 3; }));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{1, 2, 3}));
}

// A tail too short to hold a header: the frame ahead of it still delivers,
// and the tail counts exactly one truncated drop.
TEST(BundledDatagram, ShortTailCountsOneTruncated) {
  BatchProbe probe;
  ThreadedEnv env(probe);
  SeqLog log;
  env.transport().register_endpoint(HostId(2), log.handler_for(2));

  std::vector<std::uint8_t> datagram = ping(1, 2, 1);
  const std::vector<std::uint8_t> next = ping(1, 2, 2);
  datagram.insert(datagram.end(), next.begin(), next.begin() + 5);
  const std::uint64_t truncated_before = drop_count("truncated");
  const std::uint64_t frames_before = socket_frames_received().value();
  probe.feed({datagram});

  EXPECT_EQ(drop_count("truncated") - truncated_before, 1u);
  EXPECT_EQ(socket_frames_received().value() - frames_before, 1u);
  ASSERT_TRUE(eventually([&] { return log.total() == 1; }));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{1}));
}

// A header whose payload_len runs past the end of the datagram is counted
// truncated, never read beyond the buffer; the frame ahead still delivers.
TEST(BundledDatagram, PayloadLenOverrunCountsTruncated) {
  BatchProbe probe;
  ThreadedEnv env(probe);
  SeqLog log;
  env.transport().register_endpoint(HostId(2), log.handler_for(2));

  std::vector<std::uint8_t> overrun = ping(1, 2, 2);
  std::uint32_t payload_len = 0;  // at header offset 14
  std::memcpy(&payload_len, overrun.data() + 14, sizeof payload_len);
  ++payload_len;
  std::memcpy(overrun.data() + 14, &payload_len, sizeof payload_len);
  const std::uint64_t truncated_before = drop_count("truncated");
  probe.feed({bundle({ping(1, 2, 1), overrun})});

  EXPECT_EQ(drop_count("truncated") - truncated_before, 1u);
  ASSERT_TRUE(eventually([&] { return log.total() == 1; }));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{1}));
}

// Fault-plan decisions are drawn per frame, not per datagram: a bundle loses
// exactly the frames the same plan drops when each frame arrives alone, and
// the rest of the bundle still delivers.
TEST(BundledDatagram, InjectedLossHitsSingleFramesOfABundle) {
  proto::register_wire_messages();
  FaultPlan plan;
  plan.seed = 7;
  plan.loss = 0.5;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    frames.push_back(ping(1, 2, seq));
  }

  const auto survivors =
      [&](const std::vector<std::vector<std::uint8_t>>& datagrams) {
        BatchProbe probe;
        probe.set_fault_plan(plan);
        ThreadedEnv env(probe);
        SeqLog log;
        env.transport().register_endpoint(HostId(2), log.handler_for(2));
        const std::uint64_t lost_before = drop_count("injected_loss");
        probe.feed(datagrams);
        const std::uint64_t lost = drop_count("injected_loss") - lost_before;
        EXPECT_TRUE(
            eventually([&] { return log.total() + lost == frames.size(); }));
        return log.at(2);
      };
  const std::vector<std::uint64_t> alone = survivors(frames);
  const std::vector<std::uint64_t> bundled = survivors({bundle(frames)});
  EXPECT_EQ(bundled, alone);
  EXPECT_GT(bundled.size(), 0u);
  EXPECT_LT(bundled.size(), frames.size());
}

// Blocked-source filtering runs per frame: the blocked sender's frames are
// cut out of the bundle, its neighbours from other sources deliver.
TEST(BundledDatagram, BlockedSourceIsDroppedPerFrame) {
  BatchProbe probe;
  ThreadedEnv env(probe);
  SeqLog log;
  env.transport().register_endpoint(HostId(2), log.handler_for(2));
  probe.block_inbound_from(HostId(9), true);

  const std::uint64_t blocked_before = drop_count("blocked");
  probe.feed(
      {bundle({ping(1, 2, 1), ping(9, 2, 2), ping(1, 2, 3), ping(9, 2, 4)})});

  EXPECT_EQ(drop_count("blocked") - blocked_before, 2u);
  ASSERT_TRUE(eventually([&] { return log.total() == 2; }));
  EXPECT_EQ(log.at(2), (std::vector<std::uint64_t>{1, 3}));
}

/// One fuzz datagram: random bytes, or a bundle of 1-6 valid frames (for
/// hosts 2 and 3) left whole, cut at a random byte, or with one byte flipped.
std::vector<std::uint8_t> fuzz_datagram(Rng& rng) {
  std::vector<std::uint8_t> d;
  if (rng.next_below(4) == 0) {
    d.resize(rng.next_below(200));
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.next_u64());
    return d;
  }
  const std::uint64_t frames = 1 + rng.next_below(6);
  for (std::uint64_t i = 0; i < frames; ++i) {
    const auto f = ping(1, 2 + static_cast<std::uint32_t>(rng.next_below(2)),
                        rng.next_u64());
    d.insert(d.end(), f.begin(), f.end());
  }
  switch (rng.next_below(3)) {
    case 0:
      d.resize(rng.next_below(d.size()));
      break;
    case 1:
      d[rng.next_below(d.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
      break;
    default:
      break;
  }
  return d;
}

// Seeded fuzz of the splitter, which parses untrusted bytes. Random, bundled,
// cut and corrupted datagrams go through on_datagrams(); nothing may crash
// (CI also runs this under ASan+UBSan), and host 2 must receive exactly the
// frames that the strict decoder accepts when each datagram is walked frame
// by frame along its payload_len fields — never a frame decode rejects.
TEST(BundledDatagram, FuzzedDatagramsDeliverOnlyWhatDecodeAccepts) {
  const net::CodecRegistry& codec = net::CodecRegistry::global();
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> delivered;  // canonical re-encodes
  BatchProbe probe;
  ThreadedEnv env(probe);
  env.transport().register_endpoint(
      HostId(2), [&](HostId from, const net::MessagePtr& msg) {
        auto frame = codec.encode(from, HostId(2), *msg);
        const std::lock_guard<std::mutex> lock(mu);
        delivered.push_back(frame.value_or(std::vector<std::uint8_t>{}));
      });

  Rng rng{20261017};
  std::vector<std::vector<std::uint8_t>> expected;
  for (int round = 0; round < 250; ++round) {
    std::vector<std::vector<std::uint8_t>> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(fuzz_datagram(rng));
    for (const auto& d : batch) {
      std::size_t off = 0;
      while (off < d.size()) {
        std::size_t n = d.size() - off;
        if (n >= net::kWireHeaderSize) {
          std::uint32_t len = 0;  // payload_len, at header offset 14
          std::memcpy(&len, d.data() + off + 14, sizeof len);
          if (len <= n - net::kWireHeaderSize) n = net::kWireHeaderSize + len;
        }
        const auto decoded = codec.decode(d.data() + off, n);
        if (decoded.ok() && decoded.frame->to == HostId(2)) {
          expected.emplace_back(d.begin() + off, d.begin() + off + n);
        }
        off += n;
      }
    }
    probe.feed(batch);
  }
  ASSERT_GT(expected.size(), 100u);
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(mu);
    return delivered.size() >= expected.size();
  }));
  env.run_sync([] {});
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(delivered, expected);
}

// -------------------------------------------------- bundling on the send path

/// A plain UDP socket standing in for a peer, so a test sees the sender's
/// datagrams exactly as the kernel carried them.
struct RawReceiver {
  RawReceiver() {
    fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
              0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port = ntohs(addr.sin_port);
    const timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    // Tests read only after a whole burst is sent. When the reactor keeps
    // pace with the sender, every frame can leave in its own datagram, and
    // a few hundred of them overflow the kernel's default receive buffer.
    const int buf_bytes = 4 * 1024 * 1024;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof buf_bytes);
  }
  ~RawReceiver() { ::close(fd); }
  RawReceiver(const RawReceiver&) = delete;
  RawReceiver& operator=(const RawReceiver&) = delete;

  /// The decoded frames of one datagram, walked along payload_len; every
  /// frame must decode.
  static std::vector<net::WireFrame> frames_of(
      const std::vector<std::uint8_t>& d) {
    std::vector<net::WireFrame> out;
    for (std::size_t off = 0; off < d.size();) {
      const std::size_t n = net::frame_extent(d.data() + off, d.size() - off);
      auto decoded = net::CodecRegistry::global().decode(d.data() + off, n);
      EXPECT_TRUE(decoded.ok()) << net::to_cstring(decoded.error);
      if (!decoded.ok()) break;
      out.push_back(std::move(*decoded.frame));
      off += n;
    }
    return out;
  }

  /// Receives datagrams until they hold `frames` frames in total, or a
  /// receive times out.
  std::vector<std::vector<std::uint8_t>> datagrams_holding(std::size_t frames) {
    std::vector<std::vector<std::uint8_t>> out;
    std::vector<std::uint8_t> buf(65536);
    for (std::size_t seen = 0; seen < frames;) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n < 0) break;
      out.emplace_back(buf.begin(), buf.begin() + n);
      seen += frames_of(out.back()).size();
    }
    return out;
  }

  int fd = -1;
  std::uint16_t port = 0;
};

/// A reactor transport sending as host 1.
struct SenderRig {
  explicit SenderRig(EnvOptions opts = {}) {
    proto::register_wire_messages();
    transport = make_transport(std::move(opts));
    env = std::make_unique<ThreadedEnv>(*transport);
    env->transport().register_endpoint(HostId(1),
                                       [](HostId, const net::MessagePtr&) {});
  }
  ~SenderRig() { transport->shutdown(); }

  void route(std::uint32_t host, std::uint16_t port) {
    transport->add_peer(HostId(host), NodeAddress{"127.0.0.1", port});
  }
  /// Sends every (destination, message) from one loop turn, so the frames
  /// queue back to back.
  void send_all(
      const std::vector<std::pair<std::uint32_t, net::MessagePtr>>& msgs) {
    env->run_sync([&] {
      for (const auto& [to, msg] : msgs) {
        env->transport().send(HostId(1), HostId(to), msg);
      }
    });
  }

  std::unique_ptr<ReactorTransport> transport;
  std::unique_ptr<ThreadedEnv> env;
};

std::uint64_t seq_of(const net::WireFrame& f) {
  return static_cast<const proto::HeartbeatPing&>(*f.msg).seq;
}

net::MessagePtr heartbeat(std::uint64_t seq) {
  return net::make_message<proto::HeartbeatPing>(AppId(1), seq);
}

std::vector<std::pair<std::uint32_t, net::MessagePtr>> pings_to(
    std::uint32_t host, std::size_t count) {
  std::vector<std::pair<std::uint32_t, net::MessagePtr>> msgs;
  for (std::size_t i = 0; i < count; ++i) msgs.emplace_back(host, heartbeat(i));
  return msgs;
}

// The routing tables are worker state: control calls from another thread
// hop onto the worker while it delivers a live stream. Every frame sent is
// then either delivered or counted as a blocked or endpoint_down drop —
// none lost, none counted twice (and under TSan, no race).
TEST(ReactorTransport, ControlCallsFromAnotherThreadDuringAStream) {
  RawSenderRig rig;
  constexpr std::uint64_t kDatagrams = 300;
  constexpr std::uint64_t kFramesPerDatagram = 8;
  const std::uint64_t blocked_before = drop_count("blocked");
  const std::uint64_t down_before = drop_count("endpoint_down");
  const auto accounted = [&] {
    return rig.delivered() + (drop_count("blocked") - blocked_before) +
           (drop_count("endpoint_down") - down_before);
  };

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (std::uint32_t i = 0; !stop.load(); ++i) {
      rig.transport->block_inbound_from(HostId(1), (i & 1) != 0);
      rig.transport->set_endpoint_down(HostId(2), (i & 2) != 0);
      rig.transport->add_peer(HostId(1000 + i % 64),
                              NodeAddress{"127.0.0.1", 9});
    }
    rig.transport->block_inbound_from(HostId(1), false);
    rig.transport->set_endpoint_down(HostId(2), false);
  });
  std::uint64_t sent = 0;
  for (std::uint64_t d = 0; d < kDatagrams; ++d) {
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint64_t k = 0; k < kFramesPerDatagram; ++k) {
      frames.push_back(RawSenderRig::ping_frame(sent++));
    }
    rig.send_raw(bundle(frames));
    // Paced, so the kernel's receive buffer never overflows.
    ASSERT_TRUE(eventually(
        [&] { return accounted() + 16 * kFramesPerDatagram >= sent; }));
  }
  stop = true;
  toggler.join();

  ASSERT_TRUE(eventually([&] { return accounted() == sent; }))
      << accounted() << " of " << sent;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(accounted(), sent);
}

// A burst to one peer leaves the reactor bundled: fewer datagrams than
// frames (by the datagram counter and at the receiving socket), none over
// kBundleBytes, and every frame in send order.
TEST(ReactorBundling, BurstToOnePeerSharesDatagrams) {
  RawReceiver peer;
  SenderRig rig;
  rig.route(2, peer.port);
  constexpr std::size_t kFrames = ReactorTransport::kBatch * 5;
  const std::uint64_t frames_before = socket_frames_sent().value();
  const std::uint64_t datagrams_before = socket_datagrams_sent().value();

  rig.send_all(pings_to(2, kFrames));
  const auto datagrams = peer.datagrams_holding(kFrames);

  std::vector<std::uint64_t> seqs;
  for (const auto& d : datagrams) {
    EXPECT_LE(d.size(), net::kBundleBytes);
    for (const auto& f : RawReceiver::frames_of(d)) seqs.push_back(seq_of(f));
  }
  std::vector<std::uint64_t> want(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) want[i] = i;
  EXPECT_EQ(seqs, want);
  EXPECT_LT(datagrams.size(), kFrames);
  ASSERT_TRUE(eventually([&] {
    return socket_frames_sent().value() - frames_before == kFrames &&
           socket_datagrams_sent().value() - datagrams_before ==
               datagrams.size();
  }));
}

// A frame bigger than kBundleBytes never shares a datagram: it travels alone
// between its bundled neighbours, which keep their order around it.
TEST(ReactorBundling, FrameOverTheCapTravelsAlone) {
  RawReceiver peer;
  SenderRig rig;
  rig.route(2, peer.port);
  const auto big = net::make_message<proto::InvokeRequest>(
      AppId(1), UserId(2), 3, 4, auth::Signature{5},
      std::string(2 * net::kBundleBytes, 'x'), 6);
  const auto big_frame =
      net::CodecRegistry::global().encode(HostId(1), HostId(2), *big);
  ASSERT_TRUE(big_frame.has_value());
  ASSERT_GT(big_frame->size(), net::kBundleBytes);

  rig.send_all({{2, heartbeat(0)},
                {2, heartbeat(1)},
                {2, big},
                {2, heartbeat(2)},
                {2, heartbeat(3)}});
  const auto datagrams = peer.datagrams_holding(5);

  std::vector<std::string> order;
  int big_datagrams = 0;
  for (const auto& d : datagrams) {
    const auto frames = RawReceiver::frames_of(d);
    for (const auto& f : frames) {
      if (dynamic_cast<const proto::InvokeRequest*>(f.msg.get()) != nullptr) {
        ++big_datagrams;
        EXPECT_EQ(frames.size(), 1u);
        EXPECT_EQ(d, *big_frame);
        order.push_back("big");
      } else {
        EXPECT_LE(d.size(), net::kBundleBytes);
        order.push_back(std::to_string(seq_of(f)));
      }
    }
  }
  EXPECT_EQ(big_datagrams, 1);
  EXPECT_EQ(order, (std::vector<std::string>{"0", "1", "big", "2", "3"}));
}

// Sends interleaved between two peers: bundles form only from consecutive
// frames for one peer, and each peer receives its frames in send order.
TEST(ReactorBundling, InterleavedPeersKeepPerPeerOrder) {
  RawReceiver peer2, peer3;
  SenderRig rig;
  rig.route(2, peer2.port);
  rig.route(3, peer3.port);
  std::vector<std::pair<std::uint32_t, net::MessagePtr>> msgs;
  std::map<std::uint32_t, std::vector<std::uint64_t>> want;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::uint32_t to = i % 3 == 2 ? 3 : 2;
    msgs.emplace_back(to, heartbeat(i));
    want[to].push_back(i);
  }
  rig.send_all(msgs);

  for (auto* peer : {&peer2, &peer3}) {
    const std::uint32_t host = peer == &peer2 ? 2 : 3;
    std::vector<std::uint64_t> got;
    for (const auto& d : peer->datagrams_holding(want[host].size())) {
      for (const auto& f : RawReceiver::frames_of(d)) {
        EXPECT_EQ(f.to, HostId(host));
        got.push_back(seq_of(f));
      }
    }
    EXPECT_EQ(got, want[host]) << "host " << host;
  }
}

/// The datagrams today's bundling rule makes of `frames`, sent in order:
/// consecutive frames for one peer share a datagram while it stays within
/// kBundleBytes. Keyed by peer, in send order.
std::map<std::uint32_t, std::vector<std::vector<std::uint8_t>>> bundled(
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
        frames) {
  std::map<std::uint32_t, std::vector<std::vector<std::uint8_t>>> out;
  std::uint32_t open = 0;  // peer of the open datagram, 0 for none
  for (const auto& [to, frame] : frames) {
    auto& list = out[to];
    if (open != to || list.back().size() + frame.size() > net::kBundleBytes) {
      list.emplace_back();
      open = to;
    }
    list.back().insert(list.back().end(), frame.begin(), frame.end());
  }
  return out;
}

// Frames encoded in place leave exactly as today's bundling cut them: over
// interleaved runs to two peers, a frame over the cap, and oversize
// refusals both as the first frame of a fresh bundle and in mid-bundle,
// every datagram each peer receives is the concatenation of encode() of
// consecutive frames for it, cut at kBundleBytes. No empty datagram leaves,
// and the frame, datagram and oversize counters move by exactly what was
// sent and refused.
TEST(ReactorBundling, DatagramsAreTheEncodedFramesCutAtTheCap) {
  RawReceiver peer_a, peer_b;
  SenderRig rig;
  rig.route(2, peer_a.port);
  rig.route(3, peer_b.port);
  const auto big = net::make_message<proto::InvokeRequest>(
      AppId(1), UserId(2), 3, 4, auth::Signature{5},
      std::string(2 * net::kBundleBytes, 'x'), 6);
  const auto oversize = net::make_message<proto::InvokeRequest>(
      AppId(1), UserId(2), 3, 4, auth::Signature{5},
      std::string(net::kMaxFrameSize, 'x'), 6);

  std::vector<std::pair<std::uint32_t, net::MessagePtr>> msgs;
  std::uint64_t seq = 0;
  const auto run = [&](std::uint32_t to, int count) {
    for (int i = 0; i < count; ++i) msgs.emplace_back(to, heartbeat(seq++));
  };
  run(2, 70);  // more than one datagram's worth
  run(3, 5);
  msgs.emplace_back(2, oversize);  // refused as a fresh bundle's first frame
  run(3, 4);                       // so these join the open bundle for 3
  run(2, 3);
  msgs.emplace_back(2, big);  // over the cap: travels alone
  run(2, 2);
  msgs.emplace_back(2, oversize);  // refused in mid-bundle
  run(2, 3);
  run(3, 60);

  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> accepted;
  for (const auto& [to, msg] : msgs) {
    if (msg == oversize) continue;
    const auto frame =
        net::CodecRegistry::global().encode(HostId(1), HostId(to), *msg);
    ASSERT_TRUE(frame.has_value());
    accepted.emplace_back(to, *frame);
  }
  auto want = bundled(accepted);
  std::size_t want_datagrams = 0;
  std::map<std::uint32_t, std::size_t> want_frames;
  for (const auto& [to, frame] : accepted) ++want_frames[to];
  for (const auto& [to, list] : want) want_datagrams += list.size();

  const std::uint64_t frames_before = socket_frames_sent().value();
  const std::uint64_t datagrams_before = socket_datagrams_sent().value();
  const std::uint64_t oversize_before = drop_count("oversize");
  rig.send_all(msgs);
  EXPECT_EQ(drop_count("oversize"), oversize_before + 2);

  const std::map<std::uint32_t, RawReceiver*> peers{{2, &peer_a},
                                                    {3, &peer_b}};
  for (const auto& [host, peer] : peers) {
    const auto got = peer->datagrams_holding(want_frames[host]);
    for (const auto& d : got) EXPECT_FALSE(d.empty()) << "host " << host;
    EXPECT_EQ(got, want[host]) << "host " << host;
  }
  ASSERT_TRUE(eventually([&] {
    return socket_frames_sent().value() - frames_before == accepted.size() &&
           socket_datagrams_sent().value() - datagrams_before ==
               want_datagrams;
  })) << socket_frames_sent().value() - frames_before << " frames, "
      << socket_datagrams_sent().value() - datagrams_before << " datagrams";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(socket_datagrams_sent().value() - datagrams_before,
            want_datagrams);
}

// send_queue_limit bounds the frames queued in one turn: of N + k sends
// made on the worker before a flush, the last k are shed, one queue_full
// drop each, and the first N reach the peer in order.
TEST(ReactorBundling, QueueLimitShedsEachFramePastIt) {
  constexpr std::size_t kLimit = 100;
  constexpr std::size_t kOver = 7;
  RawReceiver peer;
  EnvOptions opts;
  opts.send_queue_limit = kLimit;
  SenderRig rig(opts);
  rig.route(2, peer.port);
  const std::uint64_t full_before = drop_count("queue_full");

  rig.send_all(pings_to(2, kLimit + kOver));
  EXPECT_EQ(drop_count("queue_full"), full_before + kOver);

  std::vector<std::uint64_t> seqs;
  for (const auto& d : peer.datagrams_holding(kLimit)) {
    for (const auto& f : RawReceiver::frames_of(d)) seqs.push_back(seq_of(f));
  }
  std::vector<std::uint64_t> want(kLimit);
  for (std::size_t i = 0; i < kLimit; ++i) want[i] = i;
  EXPECT_EQ(seqs, want);
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

}  // namespace
}  // namespace wan::runtime
