// The simulated wide-area network.
//
// Provides the paper's Figure 1 "Network" component: unreliable point-to-
// point and multicast datagram delivery between registered hosts, subject to
// pluggable latency, loss, and partition models, plus per-host up/down state
// (crashed hosts neither send nor receive). Connectivity is evaluated at
// send time; a packet that leaves during a connected interval is delivered
// even if the partition closes while it is in flight (one-way WAN latencies
// are tiny relative to partition durations, so the choice is immaterial to
// the experiments but must be fixed and documented).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/latency_model.hpp"
#include "net/loss_model.hpp"
#include "net/message.hpp"
#include "net/partition_model.hpp"
#include "sim/scheduler.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace wan::net {

/// Delivery statistics, global and per message type.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicated = 0;  ///< extra copies injected by duplication
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_host_down = 0;
  std::uint64_t bytes_sent = 0;
  /// Per-type send counters, indexed by interned TypeId value — the send hot
  /// path touches only this vector. Use sent_by_type() for names.
  std::vector<std::uint64_t> sent_by_type_id;

  /// Materializes the name -> count map (stats-read path: tests, reports).
  [[nodiscard]] std::map<std::string, std::uint64_t> sent_by_type() const;

  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_partition + dropped_loss + dropped_host_down;
  }
};

/// Simulated network fabric. Not copyable; one per simulation.
class Network {
 public:
  using Handler = std::function<void(HostId from, const MessagePtr& msg)>;

  struct Config {
    std::unique_ptr<LatencyModel> latency;    ///< default: constant 50ms
    std::unique_ptr<LossModel> loss;          ///< default: NoLoss
    std::shared_ptr<PartitionModel> partitions;  ///< default: FullConnectivity
    /// Probability that a non-loopback datagram is delivered twice, each copy
    /// with an independently sampled latency. Datagram networks duplicate
    /// under retransmission at lower layers; the protocol must be idempotent
    /// against it, and the chaos harness turns this knob up to prove it.
    double duplicate = 0.0;
  };

  Network(sim::Scheduler& sched, Rng rng, Config config);

  /// Registers (or replaces) the receive handler for a host. A host must be
  /// registered before it can send or receive. Hosts start up.
  void register_host(HostId id, Handler handler);

  /// Marks a host crashed (true) or recovered (false). A down host's inbound
  /// and outbound packets are silently discarded, matching a crashed site.
  void set_host_down(HostId id, bool down);

  /// Unreliable unicast. Self-sends are delivered (with latency 0).
  void send(HostId from, HostId to, MessagePtr msg);

  /// Unreliable multicast: an independent datagram per destination.
  void multicast(HostId from, const std::vector<HostId>& to, const MessagePtr& msg);

  /// Starts dynamic models (partition processes). Call once before running.
  void start();

  /// Observer invoked for every datagram that PASSES the partition check (it
  /// may still be lost or reach a down host). The chaos oracle uses this to
  /// prove the network honours directional cuts: a send surviving the check
  /// on a pair the fault injector cut one-way is a fabric bug. nullptr
  /// uninstalls.
  using SendObserver = std::function<void(HostId from, HostId to)>;
  void set_send_observer(SendObserver obs) { send_observer_ = std::move(obs); }

  /// True if the partition model currently allows `a` -> `b` and neither
  /// host is down. Used by measurement probes, not by protocol code.
  [[nodiscard]] bool reachable(HostId a, HostId b) const;

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = NetworkStats{}; }

  [[nodiscard]] PartitionModel& partitions() noexcept { return *partitions_; }
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }

 private:
  struct Endpoint {
    Handler handler;
    bool down = false;
  };

  void deliver(HostId from, HostId to, MessagePtr msg, sim::Duration delay);

  sim::Scheduler& sched_;
  Rng rng_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<LossModel> loss_;
  std::shared_ptr<PartitionModel> partitions_;
  double duplicate_ = 0.0;
  std::unordered_map<HostId, Endpoint> endpoints_;
  NetworkStats stats_;
  SendObserver send_observer_;
  bool started_ = false;
};

}  // namespace wan::net
