// SocketTransport: the I/O-independent half of the real-socket fabric.
//
// Everything a socket fabric needs apart from moving bytes lives here:
// address parsing, the static topology, peer resolution, endpoint
// bookkeeping, the inbound decode/deliver path, the optional reliability
// layer and the labelled drop counters. The one backend, ReactorTransport
// (runtime/reactor_transport.hpp), owns the outbound batch (frames are
// encoded straight into its per-peer datagram bundles), adds the socket to
// the fabric's worker and makes the batched recvmmsg/sendmmsg syscalls; tests
// subclass this base with a socketless fake that feeds on_datagrams() on its
// worker.
//
// Threading: everything here is worker state and takes no lock. The
// receive path, the handlers it runs and sends made by those handlers all
// run on the fabric's one worker thread (runtime/worker.hpp), and so do the
// endpoint, peer and blocked-source tables, the outbound batch and the
// fault plan. Called off the worker, the control calls (attach, add_peer,
// set_endpoint_down, block_inbound_from, set_fault_plan) hop onto it with
// Worker::run_sync and return once applied, and send() posts the whole send
// to it. After shutdown() the worker runs nothing more, so those calls are
// no-ops.
//
// The wire protocol is net::CodecRegistry frames, one or more whole frames
// per datagram (docs/WIRE_FORMAT.md). The receive path hands each receive
// call's datagrams to on_datagrams() as one batch, which splits each
// datagram into frames, decodes and filters them per frame in arrival order
// and then runs each destination node's handler inline, once per node per
// batch, over that node's messages in arrival order. The conformance suite
// (tests/test_conformance.cpp) holds the socket fabric to a reference model
// of the protocol: each seeded op script must produce the decisions the
// model predicts.
//
// Adverse-network injection: set_fault_plan() arms a *deterministic* seeded
// fault stream applied to inbound frames after decode — loss (counted as
// wan_udp_drops_total{reason="injected_loss"}), duplication, and reordering
// (hold one delivery, release it after the next frame). Given the same
// arrival sequence, the same plan makes the same decisions; tests use it to
// prove the protocol converges (and the Te bound holds) over a misbehaving
// fabric without ever touching real packet schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "runtime/env_options.hpp"
#include "runtime/fabric.hpp"
#include "util/rng.hpp"

namespace wan::runtime {

/// Where a node listens: numeric IPv4 or a resolvable name, plus a UDP port.
struct NodeAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  bool operator==(const NodeAddress&) const = default;
};

/// Parses "host:port". Returns nullopt on a missing colon, empty host, or an
/// out-of-range port.
[[nodiscard]] std::optional<NodeAddress> parse_node_address(
    const std::string& text);

/// Static HostId -> NodeAddress map shared by every process of a deployment.
class Topology {
 public:
  /// Loads from a file; on failure returns nullopt and describes why.
  static std::optional<Topology> load(const std::string& path,
                                      std::string* error);
  static std::optional<Topology> parse(std::istream& in, std::string* error);

  void add(HostId id, NodeAddress addr);
  [[nodiscard]] const NodeAddress* find(HostId id) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Entries keyed by HostId value, in ascending order.
  [[nodiscard]] const std::map<std::uint32_t, NodeAddress>& entries() const {
    return entries_;
  }

  /// The file representation (what load() parses) — orchestrators write this.
  [[nodiscard]] std::string serialize() const;

 private:
  std::map<std::uint32_t, NodeAddress> entries_;
};

/// Deterministic adverse-network model for the socket fabrics (test hook).
/// Decisions are drawn per inbound frame from a seeded stream, so the same
/// plan over the same arrival sequence misbehaves identically.
struct FaultPlan {
  std::uint64_t seed = 1;
  double loss = 0.0;       ///< drop the frame (counted as injected_loss)
  double duplicate = 0.0;  ///< deliver the frame twice
  double reorder = 0.0;    ///< hold the frame, release after the next one
};

/// A peer address resolved to wire form, ready for a sendto destination.
struct ResolvedAddr {
  std::uint32_t ip_be = 0;    ///< network byte order
  std::uint16_t port_be = 0;  ///< network byte order

  bool operator==(const ResolvedAddr&) const = default;
};

class ReliableChannel;

/// Common machinery of the real-socket fabric. The subclass owns the I/O
/// (the outbound batch, syscall batching) and implements enqueue_message(),
/// enqueue_frame() and shutdown(); everything else — bind, routing,
/// endpoints, the send path, decode, delivery, the optional reliability
/// layer, counters — is here.
class SocketTransport : public Fabric {
  friend class ReliableChannel;  // its outbound frames, acks and deliveries

 public:
  ~SocketTransport() override;

  /// The send path: route, classify, encode, enqueue. With the
  /// reliability layer enabled (EnvOptions::reliability), messages whose
  /// net::Message::reliable() is true travel wrapped in the ack/retransmit
  /// envelope; heartbeats and the envelope itself stay fire-and-forget.
  /// Called off the worker, the whole send is posted to it.
  void send(HostId from, HostId to, net::MessagePtr msg) override;

  void attach(HostId id, Worker::Node* node,
              Transport::Handler handler) override;
  void set_endpoint_down(HostId id, bool down) override;

  /// The port actually bound (resolves a port-0 listen address).
  [[nodiscard]] std::uint16_t local_port() const noexcept {
    return local_port_;
  }

  /// Adds or replaces one peer route (tests and orchestrators patch in
  /// addresses discovered after port-0 binds; production loads a topology
  /// file instead). Returns false when the host does not resolve.
  bool add_peer(HostId id, const NodeAddress& addr);

  /// Drops every inbound frame whose source is `peer` (and counts it).
  /// Simulates a one-way partition for the revocation worst case: the cut
  /// host keeps serving its agent while manager traffic never arrives.
  void block_inbound_from(HostId peer, bool blocked);

  /// Arms (or, with a default-constructed plan, disarms) deterministic
  /// inbound loss/duplication/reordering. Test-only; see FaultPlan.
  void set_fault_plan(const FaultPlan& plan);

  /// Fired when the reliability layer abandons a peer (retry budget
  /// exhausted); `abandoned` counts the frames dropped in that sweep. Runs
  /// on the worker. No-op without a reliability layer.
  using UnreachableFn = std::function<void(HostId peer, std::size_t abandoned)>;
  void set_peer_unreachable(UnreachableFn fn);

  /// The reliability layer, or nullptr when EnvOptions::reliability was off
  /// (tests poll in_flight() through this).
  [[nodiscard]] ReliableChannel* reliable_channel() noexcept;

  /// Stops attached envs, then winds down the socket I/O. Idempotent (every
  /// step is); every subclass destructor calls it.
  virtual void shutdown() = 0;

 protected:
  struct Endpoint {
    Worker::Node* node = nullptr;
    /// Stored once; a delivery shares it instead of copying the function.
    std::shared_ptr<const Transport::Handler> handler;
    bool down = false;
  };

  /// One received datagram, in the receive buffer.
  struct Datagram {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };

  // Out of line: the implicit constructor/destructor need the complete
  // ReliableChannel type for the unique_ptr member.
  SocketTransport();

  /// Opens and binds the nonblocking UDP socket per opts.listen (default
  /// "127.0.0.1:0"), records the bound port, and loads opts.topology_path
  /// if non-empty. On failure sets *error and returns false; fd_ stays
  /// owned either way.
  bool open_socket(const EnvOptions& opts, std::string* error);

  /// Route lookup for a send; nullopt counts the unknown_dest drop.
  /// Additionally verifies the source endpoint is attached and up
  /// (endpoint_down drop otherwise). Worker thread only.
  std::optional<ResolvedAddr> route_for_send(HostId from, HostId to);

  /// Encodes `msg` as one frame straight into the bounded outbound batch
  /// for `dest`. A refused encode counts unregistered_type or oversize, a
  /// full batch queue_full; either returns false. Worker thread only.
  virtual bool enqueue_message(HostId from, HostId to, const net::Message& msg,
                               const ResolvedAddr& dest) = 0;

  /// Copies one already-encoded frame (a reliability envelope, ack or
  /// retransmit) into the bounded outbound batch. Returns false on a
  /// queue_full shed. Worker thread only.
  virtual bool enqueue_frame(std::span<const std::uint8_t> frame,
                             const ResolvedAddr& dest) = 0;

  /// The receive path. Splits every datagram of one receive call into its
  /// frames (net::frame_extent), decodes each with the strict codec (a tail
  /// that is not a whole frame counts one truncated drop; the frames before
  /// it still deliver) and, per frame in arrival order, applies the inbound
  /// fault plan (if armed), blocked-source filtering and the reliability
  /// layer's envelope handling (when enabled); every reject class lands in
  /// its labelled drop counter. The survivors are grouped by destination
  /// endpoint (looked up once per batch) and each endpoint's handler runs
  /// inline over its messages in arrival order, as one dispatch
  /// (Worker::new_dispatch), skipping the rest once the node stops. The
  /// fault plan runs before the reliability layer, so injected loss hits
  /// the envelope and retransmission is what recovers it. Worker thread
  /// only.
  void on_datagrams(std::span<const Datagram> batch);

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::size_t send_queue_limit_ = 1024;
  std::unique_ptr<ReliableChannel> reliable_;  ///< nullptr when disabled

  // Routing tables, worker thread only.
  std::unordered_map<HostId, Endpoint> endpoints_;
  std::unordered_map<std::uint32_t, ResolvedAddr> peers_;  ///< HostId value
  std::unordered_set<std::uint32_t> blocked_sources_;

  // Inbound fault injection, worker thread only.
  bool faults_armed_ = false;
  FaultPlan fault_plan_;
  Rng fault_rng_{1};
  /// One decoded inbound frame, past the fault plan.
  struct Staged {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    net::MessagePtr msg;
    bool blocked = false;
  };
  std::optional<Staged> held_;  ///< reordered frame awaiting the next one

 private:
  // Per-batch scratch of on_datagrams(), worker thread only. Kept as
  // members, and handoffs_ entries (with their message lists) are reused
  // rather than destroyed, so a steady stream allocates nothing per batch.
  struct Handoff {
    std::uint32_t to = 0;
    Worker::Node* node = nullptr;
    std::shared_ptr<const Transport::Handler> handler;  ///< null: not local
    bool down = false;
    std::vector<std::pair<HostId, net::MessagePtr>> msgs;
  };
  /// Appends to staged_, drawing the frame's fault-plan decisions.
  void stage(std::uint32_t from, std::uint32_t to, net::MessagePtr msg);
  /// Adds one message to its destination's handoff list, or counts the
  /// not_local / endpoint_down drop. Also the reliability layer's deliver
  /// callback, which on_data runs synchronously on the worker.
  void collect(std::uint32_t from, std::uint32_t to, net::MessagePtr msg);
  /// This batch's handoff list for `to`, or nullptr.
  Handoff* handoff_for(std::uint32_t to);
  /// Runs `fn` on the worker: inline there, else through run_sync (dropped
  /// once the worker has stopped).
  void run_on_worker(Worker::Fn fn);
  std::vector<Staged> staged_;
  std::vector<Handoff> handoffs_;  ///< [0, live_handoffs_) in this batch
  std::size_t live_handoffs_ = 0;
};

/// Why the socket fabric dropped a frame; counted in
/// wan_udp_drops_total{reason="..."} under the snake_case name of each
/// value (queue_full, oversize, ..., reliable_inner_mismatch), and the
/// decode rejects under their net::DecodeError string (truncated,
/// bad_magic, bad_version, unknown_tag, malformed).
enum class SocketDrop : std::uint8_t {
  kQueueFull,
  kOversize,
  kUnregisteredType,
  kUnknownDest,
  kEndpointDown,
  kBlocked,
  kNotLocal,
  kSendtoError,
  kInjectedLoss,
  kSeqOutOfWindow,
  kReliableInnerMismatch,
};

/// Shared drop accounting. Each reason's counter is resolved once, at its
/// first drop, and kept in a fixed table, so a drop is one atomic add: the
/// receive path counts every fuzzed or spoofed datagram, at a rate the
/// sender chooses.
void count_socket_drop(SocketDrop reason);
void count_socket_drop(net::DecodeError error);
/// unregistered_type or oversize, for a refused encode.
void count_socket_drop(net::CodecRegistry::EncodeError error);

/// Hot counters of the socket fabric. Frames count decoded (or
/// sent) protocol frames, datagrams count kernel datagrams, so frames /
/// datagrams is the live bundle factor.
obs::Counter& socket_frames_sent();
obs::Counter& socket_frames_received();
obs::Counter& socket_datagrams_sent();
obs::Counter& socket_datagrams_received();
obs::Counter& socket_deliveries();
/// Inline handler runs by the receive path: one per destination endpoint
/// per batch, so deliveries / handoffs is the live batch size.
obs::Counter& socket_delivery_handoffs();

}  // namespace wan::runtime
