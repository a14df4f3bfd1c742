// UdpTransport: the runtime fabric over real UDP sockets — nodes span
// processes and machines.
//
// One UdpTransport per OS process, owning one UDP socket. Local nodes attach
// exactly as they do to a LoopbackFabric (ThreadedEnv's transport port calls
// attach/send); remote nodes are reached through a static topology mapping
// HostId -> host:port, loaded from a file or patched in with add_peer().
// Frames on the wire are produced by the net::CodecRegistry codec
// (docs/WIRE_FORMAT.md), each carrying source and destination HostIds in its
// header, so the receiver needs no reverse address map. This backend sends
// one frame per datagram (a bundle of one) and receives bundles of several
// frames through the shared SocketTransport::on_datagrams(). Callers must
// register the protocol codecs (proto::register_wire_messages()) before the
// first send — the runtime layer itself is protocol-agnostic and never
// includes proto/ headers.
//
// Threads: a sender thread drains a bounded outbound queue (overflow drops
// the frame and counts it — UDP semantics, never backpressure into protocol
// code), and a recv-loop thread decodes inbound datagrams and posts each
// delivery onto the destination node's LoopCore. Both threads touch protocol
// state only through LoopCore::post_at, preserving the seam's
// single-threaded-per-node discipline.
//
// This is the portable one-datagram-per-syscall backend; the epoll-batched
// ReactorTransport (runtime/reactor_transport.hpp) shares all addressing,
// decode, and delivery machinery through runtime/socket_base.hpp and is
// selected via EnvOptions::backend when raw throughput matters.
//
// Observability (PR 4 registry): wan_udp_frames_sent_total,
// wan_udp_frames_received_total, wan_udp_datagrams_sent_total,
// wan_udp_datagrams_received_total, wan_udp_deliveries_total, and
// wan_udp_drops_total{reason=...} — see socket_base.hpp for the reason set.
//
// Topology file format (docs/WIRE_FORMAT.md): one `<host-id> <host>:<port>`
// pair per line; `#` starts a comment. Every process of a deployment loads
// the same file.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"

namespace wan::runtime {

class UdpTransport final : public SocketTransport {
 public:
  /// Binds opts.listen (default "127.0.0.1:0"; port 0 picks an ephemeral
  /// port, see local_port()) and loads opts.topology_path if non-empty.
  /// Returns nullptr and sets *error on bind/parse failure.
  static std::unique_ptr<UdpTransport> create(const EnvOptions& opts,
                                              std::string* error);
  ~UdpTransport() override;

  /// Stops attached envs, then joins the socket threads. Idempotent; the
  /// destructor calls it.
  void shutdown() override;

 private:
  struct Outbound {
    std::vector<std::uint8_t> frame;
    ResolvedAddr dest;
  };

  UdpTransport() = default;

  bool enqueue_frame(std::vector<std::uint8_t> frame,
                     const ResolvedAddr& dest) override;
  void count_env_send() override;

  void sender_loop();
  void recv_loop();

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Outbound> queue_;

  std::atomic<bool> stopping_{false};
  std::thread sender_;
  std::thread receiver_;
};

}  // namespace wan::runtime
