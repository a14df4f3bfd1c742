#include "net/network.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace wan::net {

std::map<std::string, std::uint64_t> NetworkStats::sent_by_type() const {
  std::map<std::string, std::uint64_t> out;
  for (std::uint32_t i = 0; i < sent_by_type_id.size(); ++i) {
    if (sent_by_type_id[i] != 0) out.emplace(TypeId::name_of(i), sent_by_type_id[i]);
  }
  return out;
}

Network::Network(sim::Scheduler& sched, Rng rng, Config config)
    : sched_(sched),
      rng_(rng),
      latency_(std::move(config.latency)),
      loss_(std::move(config.loss)),
      partitions_(std::move(config.partitions)),
      duplicate_(config.duplicate) {
  WAN_REQUIRE(duplicate_ >= 0.0 && duplicate_ <= 1.0);
  if (!latency_) latency_ = std::make_unique<ConstantLatency>(sim::Duration::millis(50));
  if (!loss_) loss_ = std::make_unique<NoLoss>();
  if (!partitions_) partitions_ = std::make_shared<FullConnectivity>();
}

void Network::register_host(HostId id, Handler handler) {
  WAN_REQUIRE(id.valid());
  WAN_REQUIRE(handler != nullptr);
  endpoints_[id] = Endpoint{std::move(handler), /*down=*/false};
}

void Network::set_host_down(HostId id, bool down) {
  auto it = endpoints_.find(id);
  WAN_REQUIRE(it != endpoints_.end());
  it->second.down = down;
}

void Network::start() {
  if (started_) return;
  started_ = true;
  partitions_->start(sched_, rng_.split());
}

bool Network::reachable(HostId a, HostId b) const {
  const auto ia = endpoints_.find(a);
  const auto ib = endpoints_.find(b);
  if (ia == endpoints_.end() || ib == endpoints_.end()) return false;
  if (ia->second.down || ib->second.down) return false;
  return partitions_->connected(a, b);
}

void Network::send(HostId from, HostId to, MessagePtr msg) {
  WAN_REQUIRE(msg != nullptr);
  const auto src = endpoints_.find(from);
  WAN_REQUIRE(src != endpoints_.end());

  ++stats_.sent;
  stats_.bytes_sent += msg->wire_size();
  const std::uint32_t tid = msg->type_id().value();
  if (stats_.sent_by_type_id.size() <= tid) stats_.sent_by_type_id.resize(tid + 1, 0);
  ++stats_.sent_by_type_id[tid];

  if (src->second.down) {
    ++stats_.dropped_host_down;
    return;
  }
  if (!endpoints_.contains(to)) {
    // An unregistered destination behaves like a permanently dark address:
    // the datagram is silently lost (partition models need not know it).
    ++stats_.dropped_host_down;
    return;
  }
  if (from != to) {
    if (!partitions_->connected(from, to)) {
      ++stats_.dropped_partition;
      WAN_TRACE << "drop (partition) " << to_string(from) << " -> "
                << to_string(to) << " " << msg->type_name();
      return;
    }
    if (loss_->drop(from, to, rng_)) {
      ++stats_.dropped_loss;
      WAN_TRACE << "drop (loss) " << to_string(from) << " -> " << to_string(to)
                << " " << msg->type_name();
      return;
    }
  }
  if (send_observer_ && from != to) send_observer_(from, to);

  const sim::Duration delay =
      from == to ? sim::Duration{} : latency_->sample(from, to, rng_);
  // Duplication decision and second latency sample are drawn only when the
  // knob is on, so runs with duplicate == 0 consume exactly the RNG stream
  // they did before the knob existed (seed-stable).
  if (from != to && duplicate_ > 0.0 && rng_.next_bool(duplicate_)) {
    ++stats_.duplicated;
    deliver(from, to, msg, latency_->sample(from, to, rng_));
  }
  deliver(from, to, std::move(msg), delay);
}

void Network::deliver(HostId from, HostId to, MessagePtr msg,
                      sim::Duration delay) {
  // Fire-and-forget: deliveries are never cancelled, so the no-handle variant
  // skips the per-event cancellation-flag allocation on the hottest path.
  sched_.post_after(delay, [this, from, to, msg = std::move(msg)] {
    const auto dst = endpoints_.find(to);
    if (dst == endpoints_.end() || dst->second.down) {
      ++stats_.dropped_host_down;
      return;
    }
    ++stats_.delivered;
    dst->second.handler(from, msg);
  });
}

void Network::multicast(HostId from, const std::vector<HostId>& to,
                        const MessagePtr& msg) {
  for (const HostId dst : to) {
    if (dst != from) send(from, dst, msg);
  }
}

}  // namespace wan::net
