// Message pool lifetime tests (net/message.hpp): make_message takes blocks
// from a per-type free list of the calling thread, and the last MessagePtr
// reference puts the block back on the list of the thread that drops it.
// Pinned here: a released block is what that thread hands out next (under
// AddressSanitizer: is not, since it waits in the quarantine, and a read
// through a stale pointer is reported); a message may be built on one
// thread and released on another; a thread
// that exits with blocks on its lists frees them (the ASan job's LSan pass
// turns a miss into a failure), including a release that happens after its
// lists are closed; a message outlives the receive batch that decoded it
// when something keeps its MessagePtr (the fault plan's held frame, a
// closure posted from a handler); and a frame the codec rejects after its
// decoder built the message returns the block unused. This binary also runs
// under TSan and ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/message.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"

namespace wan {
namespace {

/// A type only these tests build, so nothing else on a test thread touches
/// its free list.
struct PoolProbe final : net::Message {
  explicit PoolProbe(std::uint64_t v) : value(v) {}
  WAN_MESSAGE_TYPE("PoolProbe")
  std::uint64_t value;
};

std::uint64_t value_of(const net::MessagePtr& msg) {
  return static_cast<const PoolProbe&>(*msg).value;
}

/// Whether the next make_message of a type hands out the block its thread
/// released last: always, except under AddressSanitizer, where the block
/// waits behind kMessagePoolQuarantine later releases first.
constexpr bool kReusedAtOnce = net::kMessagePoolQuarantine == 0;

TEST(MessagePool, ReleasedBlockIsHandedOutNextOnTheSameThread) {
  const net::Message* first = nullptr;
  {
    const net::MessagePtr a = net::make_message<PoolProbe>(1);
    first = a.get();
  }
  const net::MessagePtr b = net::make_message<PoolProbe>(2);
  EXPECT_EQ(b.get() == first, kReusedAtOnce);
  EXPECT_EQ(value_of(b), 2u);
}

#if defined(__SANITIZE_ADDRESS__)
/// A type only the death test builds, so its free list starts empty.
struct StaleProbe final : net::Message {
  explicit StaleProbe(std::uint64_t v) : value(v) {}
  WAN_MESSAGE_TYPE("StaleProbe")
  std::uint64_t value;
};

static_assert(net::kMessagePoolQuarantine > 0);

// A pointer kept past the last MessagePtr reads a poisoned block. With the
// list already past the quarantine, as in steady state, it still does once
// kMessagePoolQuarantine more messages of the type have been built on the
// thread, all but the last released again: the stale block is not handed
// out before it has waited behind that many.
TEST(MessagePoolDeathTest, StaleReadIsReportedThroughTheQuarantine) {
  const auto stale_read = [] {
    std::vector<net::MessagePtr> fill;
    for (std::uint32_t i = 0; i <= net::kMessagePoolQuarantine; ++i) {
      fill.push_back(net::make_message<StaleProbe>(i));
    }
    fill.clear();
    net::MessagePtr msg = net::make_message<StaleProbe>(1);
    const StaleProbe* stale = net::message_cast<StaleProbe>(msg);
    msg.reset();
    for (std::uint32_t i = 1; i < net::kMessagePoolQuarantine; ++i) {
      (void)net::make_message<StaleProbe>(i);
    }
    const net::MessagePtr live = net::make_message<StaleProbe>(0);
    const volatile std::uint64_t value = stale->value;
    (void)value;
  };
  EXPECT_DEATH(stale_read(), "use-after-poison");
}
#endif

// Built on a helper thread, released on this one: the block lands on this
// thread's list (the helper's list is never touched again).
TEST(MessagePool, BuiltOnOneThreadReleasedOnAnother) {
  net::MessagePtr carried;
  std::thread builder([&] { carried = net::make_message<PoolProbe>(41); });
  builder.join();
  const net::Message* block = carried.get();
  EXPECT_EQ(value_of(carried), 41u);
  carried.reset();
  const net::MessagePtr reused = net::make_message<PoolProbe>(42);
  EXPECT_EQ(reused.get() == block, kReusedAtOnce);

  // And the other way round: built here, released by a helper, which then
  // reuses the block itself.
  net::MessagePtr handed = net::make_message<PoolProbe>(43);
  const net::Message* handed_block = handed.get();
  bool helper_reused = false;
  std::thread releaser([&, msg = std::move(handed)]() mutable {
    EXPECT_EQ(value_of(msg), 43u);
    msg.reset();
    helper_reused = net::make_message<PoolProbe>(44).get() == handed_block;
  });
  releaser.join();
  EXPECT_EQ(helper_reused, kReusedAtOnce);
}

// A thread fills its list past the cap and exits. Its lists are drained at
// exit; a MessagePtr in a thread_local made before the thread's first
// pooled release is destroyed after the drain and goes straight to the heap.
// Under LeakSanitizer either miss is a reported leak.
TEST(MessagePool, ThreadExitFreesItsLists) {
  std::thread worker([] {
    thread_local net::MessagePtr late = net::make_message<PoolProbe>(7);
    std::vector<net::MessagePtr> burst;
    for (std::uint32_t i = 0; i < 2 * net::kMessagePoolCap; ++i) {
      burst.push_back(net::make_message<PoolProbe>(i));
    }
    burst.clear();
    EXPECT_EQ(value_of(late), 7u);
  });
  worker.join();

  // A message built on a thread that has since exited is still valid here.
  net::MessagePtr survivor;
  std::thread short_lived([&] { survivor = net::make_message<PoolProbe>(9); });
  short_lived.join();
  EXPECT_EQ(value_of(survivor), 9u);
}

// A frame whose payload carries one byte past what the decoder reads: the
// decoder builds the message, the registry rejects the frame as malformed,
// and the block goes back on the list unused.
TEST(MessagePool, RejectedFrameReturnsItsBlock) {
  proto::register_wire_messages();
  const net::MessagePtr original =
      net::make_message<proto::HeartbeatPing>(AppId(1), 5);
  auto frame =
      net::CodecRegistry::global().encode(HostId(1), HostId(2), *original);
  ASSERT_TRUE(frame.has_value());
  frame->push_back(0);
  std::uint32_t payload_len = 0;
  std::memcpy(&payload_len, frame->data() + 14, sizeof payload_len);
  ++payload_len;
  std::memcpy(frame->data() + 14, &payload_len, sizeof payload_len);

  const net::Message* top = nullptr;
  {
    const net::MessagePtr warm =
        net::make_message<proto::HeartbeatPing>(AppId(1), 6);
    top = warm.get();
  }
  const auto decoded =
      net::CodecRegistry::global().decode(frame->data(), frame->size());
  EXPECT_EQ(decoded.error, net::DecodeError::kMalformed);
  EXPECT_FALSE(decoded.ok());
  const net::MessagePtr next =
      net::make_message<proto::HeartbeatPing>(AppId(1), 7);
  EXPECT_EQ(next.get() == top, kReusedAtOnce);
}

/// The shared receive path with no socket: feed() hands on_datagrams()
/// exact batches on the fabric's worker, several in one worker callback.
class Probe final : public runtime::SocketTransport {
 public:
  Probe() { proto::register_wire_messages(); }
  ~Probe() override { shutdown(); }
  void shutdown() override { stop_all(); }

  void feed(const std::vector<std::vector<std::vector<std::uint8_t>>>& batches) {
    ASSERT_TRUE(worker().run_sync(nullptr, [&] {
      for (const auto& frames : batches) {
        std::vector<Datagram> batch;
        for (const auto& f : frames) {
          batch.push_back(Datagram{f.data(), f.size()});
        }
        on_datagrams(batch);
      }
    }));
  }

 private:
  bool enqueue_message(HostId, HostId, const net::Message&,
                       const runtime::ResolvedAddr&) override {
    return true;
  }
};

std::vector<std::uint8_t> ping(std::uint64_t seq) {
  const auto msg = net::make_message<proto::HeartbeatPing>(AppId(1), seq);
  const auto frame =
      net::CodecRegistry::global().encode(HostId(1), HostId(2), *msg);
  EXPECT_TRUE(frame.has_value());
  return frame.value_or(std::vector<std::uint8_t>{});
}

std::vector<std::vector<std::uint8_t>> pings(std::uint64_t first,
                                             std::uint64_t count) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint64_t s = first; s < first + count; ++s) out.push_back(ping(s));
  return out;
}

struct SeqLog {
  void add(const net::MessagePtr& msg) {
    const std::lock_guard<std::mutex> lock(mu);
    seqs.push_back(static_cast<const proto::HeartbeatPing&>(*msg).seq);
  }
  std::vector<std::uint64_t> get() {
    const std::lock_guard<std::mutex> lock(mu);
    return seqs;
  }
  std::mutex mu;
  std::vector<std::uint64_t> seqs;
};

// The fault plan holds a frame across batches. The batch that decoded it is
// released, and the next batch decodes 64 more frames of the same type into
// recycled blocks, yet the held frame still carries its own fields.
TEST(MessagePool, ReorderedFrameHeldAcrossBatchesKeepsItsFields) {
  Probe probe;
  runtime::FaultPlan plan;
  plan.seed = 3;
  plan.reorder = 1.0;
  probe.set_fault_plan(plan);
  runtime::ThreadedEnv env(probe);
  SeqLog log;
  env.transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr& msg) { log.add(msg); });

  probe.feed({pings(1000, 1)});  // held, nothing delivered
  EXPECT_TRUE(log.get().empty());
  probe.feed({pings(1, 64)});
  // Every other frame is held and released behind the next one.
  std::vector<std::uint64_t> want = {1, 1000};
  for (std::uint64_t s = 3; s <= 63; s += 2) {
    want.push_back(s);
    want.push_back(s - 1);
  }
  EXPECT_EQ(log.get(), want);
}

// A handler posts a closure that keeps the MessagePtr. Two more batches of
// the same type are decoded and released before the closures run; each
// closure still reads its own message.
TEST(MessagePool, MessageCapturedInPostedClosureOutlivesItsBatch) {
  Probe probe;
  runtime::ThreadedEnv env(probe);
  SeqLog direct;
  SeqLog deferred;
  env.transport().register_endpoint(
      HostId(2), [&](HostId, const net::MessagePtr& msg) {
        direct.add(msg);
        if (static_cast<const proto::HeartbeatPing&>(*msg).seq < 100) {
          env.post([&deferred, msg] { deferred.add(msg); });
        }
      });

  probe.feed({pings(1, 16), pings(100, 32), pings(200, 32)});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (deferred.get().size() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::uint64_t> want;
  for (std::uint64_t s = 1; s <= 16; ++s) want.push_back(s);
  EXPECT_EQ(deferred.get(), want);
  EXPECT_EQ(direct.get().size(), 80u);
}

}  // namespace
}  // namespace wan
