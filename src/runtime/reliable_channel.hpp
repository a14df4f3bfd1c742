// ReliableChannel: ack/retransmit/dedup over the socket fabric.
//
// The UDP socket fabric (runtime/reactor_transport.hpp) is
// fire-and-forget: a dropped datagram is a lost message, and today the
// protocol survives only because its own timers retransmit *semantically*
// (update dissemination, revoke forwarding, sync rounds). That leaves real
// gaps — a lost InvokeReply or QueryResponse is gone, and every protocol
// retransmit restarts a whole round trip. This layer closes them at the
// frame level, beneath the protocol and above the sockets:
//
//   * Sender: every reliable message gets a per-flow (from, to) sequence
//     number and travels wrapped in net::ReliableData. Unacked frames
//     retransmit on an exponential-backoff schedule with jitter; after
//     `retry_budget` transmissions the frame is abandoned and the
//     peer_unreachable upcall fires (the operator's cue that retrying is
//     futile — the paper's Te expiry bounds the damage).
//   * Receiver: a cumulative watermark plus a bounded out-of-order window
//     dedups redelivery, so loss recovery never double-delivers (the
//     protocol is idempotent, but exactly-once delivery keeps decision logs
//     bit-comparable to the loss-free run). Every data frame is acked
//     immediately (net::ReliableAck: cumulative + 64-bit selective bitmap),
//     and acks also piggyback on reverse-direction data frames.
//   * Classification: net::Message::reliable() routes grants, revokes,
//     queries, syncs — everything — through the channel, except heartbeats
//     (whose loss IS the signal the freeze strategy measures) and the
//     envelope itself.
//
// Delivery order is arrival order, not sequence order: UDP reorders, the
// protocol tolerates it, and holding frames back would add latency for a
// property nothing needs. The guarantee added is exactly-once delivery per
// message, or an explicit peer_unreachable.
//
// Threading: the send path, the receive path and the retransmit sweep (one
// worker timer at the earliest deadline) all run on the fabric's worker,
// and the flow tables are worker state with no lock, like the transport's
// routing tables. set_peer_unreachable() and in_flight() called off the
// worker hop onto it. A queue-full shed of a reliable frame is recovered by
// the next retransmit.
//
// Observability: wan_retransmits_total, wan_acks_total (ack frames sent),
// wan_dup_drops_total (receive-side dedup), wan_reliable_expired_total
// (abandoned after budget), wan_reliable_rtt_seconds histogram (first-
// transmission acks only — Karn's rule keeps retransmit ambiguity out).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/reliable.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/worker.hpp"
#include "util/hash.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace wan::runtime {

class ReliableChannel {
 public:
  /// Fired (on the worker) when a peer exhausts the retry budget;
  /// `abandoned` counts the frames dropped for it in this sweep.
  using UnreachableFn = std::function<void(HostId peer, std::size_t abandoned)>;
  /// The channel of `transport`: frames go to its outbound batch, acks to
  /// its peer routes, unwrapped messages to its delivery lists, and
  /// retransmits run on its worker. Span timestamps count from its epoch,
  /// so channel spans interleave with those protocol modules record.
  ReliableChannel(SocketTransport& transport, const ReliabilityOptions& opts);
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_peer_unreachable(UnreachableFn fn);

  /// Wraps `inner` (one encoded frame from -> to) in a sequenced
  /// ReliableData envelope, records it for retransmission, and enqueues the
  /// first transmission.
  void send_reliable(HostId from, HostId to, std::vector<std::uint8_t> inner,
                     const ResolvedAddr& dest);

  /// Inbound hooks (transport receive path, after fault injection — injected
  /// loss must hit the envelope so retransmission is what recovers it).
  void on_data(std::uint32_t from_value, std::uint32_t to_value,
               const net::ReliableData& data);
  void on_ack(std::uint32_t from_value, std::uint32_t to_value,
              const net::ReliableAck& ack);

  /// Sent-but-unacked frames across all flows (tests poll this to quiesce).
  [[nodiscard]] std::size_t in_flight() const;

 private:
  using SteadyClock = std::chrono::steady_clock;

  struct Pending {
    std::vector<std::uint8_t> frame;  ///< full encoded outer frame
    ResolvedAddr dest;
    SteadyClock::time_point first_sent;
    SteadyClock::time_point next_due;
    std::chrono::nanoseconds rto{};
    int attempts = 1;
  };
  struct SendFlow {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Pending> pending;  ///< keyed by seq
  };
  struct RecvFlow {
    std::uint64_t cum = 0;             ///< every seq <= cum was delivered
    std::set<std::uint64_t> above;     ///< out-of-order seqs > cum
  };

  static std::uint64_t flow_key(std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Buckets the flow tables through the seeded stable hash: flow keys are
  /// built from peer-chosen host ids, and the identity hash the standard
  /// library defaults to would let a hostile or merely unlucky id pattern
  /// cluster every flow into a handful of buckets. stable_hash64 avalanches,
  /// so the dedup window stays O(1) regardless of the id distribution.
  struct FlowHash {
    std::size_t operator()(std::uint64_t key) const noexcept {
      return static_cast<std::size_t>(stable_hash64(kFlowHashSeed, key));
    }
  };
  static constexpr std::uint64_t kFlowHashSeed = 0x57414e464c4f5753ULL;

  /// Next interval: rto * kBackoff^n clamped to max_rto, +/- kJitter.
  std::chrono::nanoseconds jittered(std::chrono::nanoseconds rto);
  /// Ack state of the receive flow (from -> to).
  std::pair<std::uint64_t, std::uint64_t> ack_state(std::uint64_t key) const;
  /// Applies a cumulative + selective ack to a send flow.
  void absorb_ack(std::uint64_t key, std::uint64_t cum, std::uint64_t bits,
                  SteadyClock::time_point now);
  /// Encodes and enqueues a pure ack for the flow (data_from -> data_to).
  void send_ack(std::uint32_t data_from, std::uint32_t data_to);

  /// Flow-level span (trace 0: the channel is beneath the causal chains it
  /// carries). No-op when no tracer or sink is installed.
  void trace_flow(const char* name, obs::SpanKind kind, std::uint32_t from,
                  std::uint32_t to, std::int64_t a1) const noexcept;

  /// Arms the retransmit timer for `due` unless it is already due sooner.
  void schedule(SteadyClock::time_point due);
  /// Retransmits and expires what is due, then re-arms (worker thread).
  void sweep();

  SocketTransport& transport_;
  const ReliabilityOptions opts_;
  const std::uint32_t timer_;

  // Worker thread only.
  SteadyClock::time_point armed_ = SteadyClock::time_point::max();
  std::unordered_map<std::uint64_t, SendFlow, FlowHash> send_flows_;
  std::unordered_map<std::uint64_t, RecvFlow, FlowHash> recv_flows_;
  Rng jitter_rng_;
  UnreachableFn unreachable_;

  obs::Counter& retransmits_;
  obs::Counter& acks_sent_;
  obs::Counter& dup_drops_;
  obs::Counter& expired_;
  obs::Histo& rtt_;
};

}  // namespace wan::runtime
