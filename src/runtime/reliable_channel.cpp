#include "runtime/reliable_channel.hpp"

#include <algorithm>
#include <utility>

#include "net/codec.hpp"
#include "runtime/socket_base.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

namespace {

/// Each retransmit interval is the previous one times this factor, up to
/// ReliabilityOptions::max_rto.
constexpr double kBackoff = 2.0;
static_assert(kBackoff >= 1.0, "retransmit intervals must not shrink");
/// Each interval is jittered by a uniform +/- this fraction so synchronized
/// retransmit storms decorrelate.
constexpr double kJitter = 0.1;
/// Receive-side dedup remembers out-of-order seqs this far above the
/// cumulative watermark; frames beyond it are dropped (seq_out_of_window)
/// until retransmits fill the gap.
constexpr std::uint64_t kRecvWindow = 1024;

std::chrono::nanoseconds to_chrono(sim::Duration d) {
  return std::chrono::nanoseconds(d.count_nanos());
}

}  // namespace

ReliableChannel::ReliableChannel(SocketTransport& transport,
                                 const ReliabilityOptions& opts)
    : transport_(transport),
      opts_(opts),
      timer_(transport.worker().new_timer(nullptr)),
      jitter_rng_(opts.jitter_seed),
      retransmits_(obs::Registry::global().counter("wan_retransmits_total")),
      acks_sent_(obs::Registry::global().counter("wan_acks_total")),
      dup_drops_(obs::Registry::global().counter("wan_dup_drops_total")),
      expired_(obs::Registry::global().counter("wan_reliable_expired_total")),
      rtt_(obs::Registry::global().histogram("wan_reliable_rtt_seconds")) {
  WAN_REQUIRE(opts_.retry_budget >= 1);
  net::register_reliable_codecs();
}

ReliableChannel::~ReliableChannel() { transport_.worker().free_timer(timer_); }

void ReliableChannel::set_peer_unreachable(UnreachableFn fn) {
  transport_.run_on_worker(
      [this, fn = std::move(fn)]() mutable { unreachable_ = std::move(fn); });
}

std::size_t ReliableChannel::in_flight() const {
  std::size_t n = 0;
  transport_.run_on_worker([this, &n] {
    for (const auto& [key, flow] : send_flows_) n += flow.pending.size();
  });
  return n;
}

std::chrono::nanoseconds ReliableChannel::jittered(
    std::chrono::nanoseconds rto) {
  const double factor =
      1.0 + kJitter * (2.0 * jitter_rng_.next_double() - 1.0);
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(rto.count()) * factor));
}

void ReliableChannel::trace_flow(const char* name, obs::SpanKind kind,
                                 std::uint32_t from, std::uint32_t to,
                                 std::int64_t a1) const noexcept {
  if (!obs::enabled()) return;
  obs::record(/*trace=*/0, kind, HostId(from),
              sim::TimePoint::from_nanos(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now() - transport_.epoch())
                      .count()),
              name, to, a1);
}

std::pair<std::uint64_t, std::uint64_t> ReliableChannel::ack_state(
    std::uint64_t key) const {
  const auto it = recv_flows_.find(key);
  if (it == recv_flows_.end()) return {0, 0};
  std::uint64_t bits = 0;
  for (const std::uint64_t seq : it->second.above) {
    const std::uint64_t off = seq - it->second.cum - 1;
    if (off < net::kAckBitmapWidth) bits |= (std::uint64_t{1} << off);
  }
  return {it->second.cum, bits};
}

void ReliableChannel::send_reliable(HostId from, HostId to,
                                    std::vector<std::uint8_t> inner,
                                    const ResolvedAddr& dest) {
  const net::CodecRegistry& codec = net::CodecRegistry::global();
  if (inner.size() + net::kReliableDataOverhead + net::kWireHeaderSize >
      net::kMaxFrameSize) {
    // Checked before a sequence number is burned: the receiver's cumulative
    // watermark would wait forever on a seq that was never transmitted.
    count_socket_drop(SocketDrop::kOversize);
    return;
  }

  SendFlow& flow = send_flows_[flow_key(from.value(), to.value())];
  const std::uint64_t seq = flow.next_seq++;
  const auto [cum, bits] = ack_state(flow_key(to.value(), from.value()));
  const net::ReliableData data(seq, cum, bits, std::move(inner));
  std::optional<std::vector<std::uint8_t>> outer = codec.encode(from, to, data);
  WAN_ASSERT(outer.has_value());  // size pre-checked above
  const auto now = SteadyClock::now();
  Pending& p = flow.pending[seq];
  p.frame = std::move(*outer);
  p.dest = dest;
  p.first_sent = now;
  p.rto = to_chrono(opts_.initial_rto);
  p.next_due = now + jittered(p.rto);
  schedule(p.next_due);
  trace_flow("rel.send", obs::SpanKind::kSend, from.value(), to.value(),
             static_cast<std::int64_t>(seq));
  // A false return is a queue-full shed: the pending entry above already
  // guarantees a retransmit picks it up, so the drop only delays.
  (void)transport_.enqueue_frame(p.frame, dest);
}

void ReliableChannel::absorb_ack(std::uint64_t key, std::uint64_t cum,
                                 std::uint64_t bits,
                                 SteadyClock::time_point now) {
  const auto it = send_flows_.find(key);
  if (it == send_flows_.end()) return;
  auto& pending = it->second.pending;
  const auto from = static_cast<std::uint32_t>(key >> 32);
  const auto to = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
  const auto settle = [&](std::map<std::uint64_t, Pending>::iterator p) {
    if (p->second.attempts == 1) {
      const double rtt_s =
          std::chrono::duration<double>(now - p->second.first_sent).count();
      rtt_.observe_seconds(rtt_s);
      // RTT-tagged timer event (a1 = round trip in micros). Karn's rule as
      // for the histogram: only unambiguous first-transmission acks.
      trace_flow("rel.rtt", obs::SpanKind::kTimer, from, to,
                 static_cast<std::int64_t>(rtt_s * 1e6));
    }
    return pending.erase(p);
  };
  for (auto p = pending.begin(); p != pending.end() && p->first <= cum;) {
    p = settle(p);
  }
  for (std::uint64_t off = 0; bits != 0 && off < net::kAckBitmapWidth;
       ++off) {
    if ((bits & (std::uint64_t{1} << off)) == 0) continue;
    const auto p = pending.find(cum + 1 + off);
    if (p != pending.end()) settle(p);
  }
}

void ReliableChannel::send_ack(std::uint32_t data_from,
                               std::uint32_t data_to) {
  const auto [cum, bits] = ack_state(flow_key(data_from, data_to));
  // The peer table is worker state, and acks are sent on the worker.
  const auto peer = transport_.peers_.find(data_from);
  if (peer == transport_.peers_.end()) {
    count_socket_drop(SocketDrop::kUnknownDest);
    return;
  }
  const ResolvedAddr dest = peer->second;
  const net::ReliableAck ack(cum, bits);
  const std::optional<std::vector<std::uint8_t>> frame =
      net::CodecRegistry::global().encode(HostId(data_to), HostId(data_from),
                                          ack);
  WAN_ASSERT(frame.has_value());
  if (transport_.enqueue_frame(*frame, dest)) {
    acks_sent_.inc();
    trace_flow("rel.ack", obs::SpanKind::kSend, data_to, data_from,
               static_cast<std::int64_t>(cum));
  }
}

void ReliableChannel::on_data(std::uint32_t from_value,
                              std::uint32_t to_value,
                              const net::ReliableData& data) {
  // Piggybacked ack: a data frame A -> B acknowledges the flow B -> A.
  absorb_ack(flow_key(to_value, from_value), data.cum_ack, data.ack_bits,
             SteadyClock::now());
  RecvFlow& flow = recv_flows_[flow_key(from_value, to_value)];
  if (data.seq <= flow.cum || flow.above.count(data.seq) != 0) {
    dup_drops_.inc();
    send_ack(from_value, to_value);  // the original ack may have been lost
    return;
  }
  if (data.seq > flow.cum + kRecvWindow) {
    // A gap this large is hostile or pathological; accepting it would let a
    // forged seq pin unbounded dedup state. Dropped un-acked — the sender
    // retransmits once the window advances.
    count_socket_drop(SocketDrop::kSeqOutOfWindow);
    return;
  }
  flow.above.insert(data.seq);
  while (!flow.above.empty() && *flow.above.begin() == flow.cum + 1) {
    flow.above.erase(flow.above.begin());
    ++flow.cum;
  }

  // Unwrap. The envelope promised a complete frame; validate it like any
  // other inbound frame, and insist its header agrees with the outer one (a
  // mismatch means a forged or corrupted envelope, not a routing decision).
  const net::CodecRegistry::Decoded inner = net::CodecRegistry::global().decode(
      data.inner.data(), data.inner.size());
  send_ack(from_value, to_value);  // received either way; stop retransmits
  if (!inner.ok()) {
    count_socket_drop(inner.error);
    return;
  }
  if (inner.frame->from.value() != from_value ||
      inner.frame->to.value() != to_value) {
    count_socket_drop(SocketDrop::kReliableInnerMismatch);
    return;
  }
  transport_.collect(from_value, to_value, inner.frame->msg);
}

void ReliableChannel::on_ack(std::uint32_t from_value, std::uint32_t to_value,
                             const net::ReliableAck& ack) {
  // An ack frame B -> A acknowledges the flow A -> B.
  absorb_ack(flow_key(to_value, from_value), ack.cum_ack, ack.ack_bits,
             SteadyClock::now());
}

void ReliableChannel::schedule(SteadyClock::time_point due) {
  if (due >= armed_) return;
  armed_ = due;
  transport_.worker().arm(timer_, due, [this] { sweep(); });
}

void ReliableChannel::sweep() {
  armed_ = SteadyClock::time_point::max();
  const auto now = SteadyClock::now();
  std::map<std::uint32_t, std::size_t> dead;  ///< peer -> abandoned count
  for (auto& [key, flow] : send_flows_) {
    const auto flow_from = static_cast<std::uint32_t>(key >> 32);
    const auto flow_to = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    for (auto it = flow.pending.begin(); it != flow.pending.end();) {
      Pending& p = it->second;
      if (p.next_due > now) {
        schedule(p.next_due);
        ++it;
        continue;
      }
      if (p.attempts >= opts_.retry_budget) {
        expired_.inc();
        trace_flow("rel.expire", obs::SpanKind::kInstant, flow_from, flow_to,
                   static_cast<std::int64_t>(it->first));
        dead[flow_to] += 1;
        it = flow.pending.erase(it);
        continue;
      }
      trace_flow("rel.retransmit", obs::SpanKind::kTimer, flow_from, flow_to,
                 static_cast<std::int64_t>(it->first));
      ++p.attempts;
      p.rto = std::min(std::chrono::nanoseconds(static_cast<std::int64_t>(
                           static_cast<double>(p.rto.count()) * kBackoff)),
                       to_chrono(opts_.max_rto));
      p.next_due = now + jittered(p.rto);
      schedule(p.next_due);
      retransmits_.inc();
      // Queue-full sheds are fine: the entry is still pending and the next
      // backoff interval retries.
      (void)transport_.enqueue_frame(p.frame, p.dest);
      ++it;
    }
  }
  if (unreachable_ != nullptr) {
    // A copy: the callback may replace itself.
    const UnreachableFn unreachable = unreachable_;
    for (const auto& [peer, abandoned] : dead) {
      unreachable(HostId(peer), abandoned);
    }
  }
}

}  // namespace wan::runtime
