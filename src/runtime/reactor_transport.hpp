// ReactorTransport: the real-socket fabric — nodes span processes and
// machines.
//
// One ReactorTransport per OS process, owning one UDP socket. Local nodes
// attach exactly as they do to a LoopbackFabric; remote nodes are reached
// through a static topology mapping HostId -> host:port, loaded from a file
// or patched in with add_peer(). Addressing, encode, decode and delivery
// live in runtime/socket_base.hpp; callers must register the protocol codecs
// (proto::register_wire_messages()) before the first send — the runtime
// layer itself never includes proto/ headers.
//
//   * One thread: the nonblocking socket joins the epoll set of the fabric's
//     Worker (runtime/worker.hpp), which also runs every attached node. A
//     turn reads one recvmmsg batch (up to kBatch datagrams) and runs each
//     destination node's handler inline (SocketTransport::on_datagrams),
//     then due timers and posted work; the outbound batch is flushed with
//     sendmmsg after the receive batch and again at the end of the turn.
//     Sends made on the worker append to that batch with no lock and no
//     wakeup; a send made on another thread is posted to the worker whole
//     (SocketTransport::send).
//   * Bundled datagrams: consecutive batched frames for the same peer share
//     one datagram, gathered by scatter iovecs (no copy), up to
//     net::kBundleBytes; a frame over the cap travels alone. Per
//     destination, frames keep their FIFO order across bundles.
//   * The batch is bounded by EnvOptions::send_queue_limit; overflow drops
//     with wan_udp_drops_total{reason="queue_full"} — UDP never
//     backpressures into protocol code. A full kernel buffer (sendmmsg
//     EAGAIN) keeps the rest batched and arms EPOLLOUT: it delays, never
//     drops.
//
// Counters (wan_udp_*) are listed in socket_base.hpp. Build it with
// ReactorTransport::create() or, from EnvOptions::backend =
// BackendKind::kReactor, with make_fabric() (runtime/backend.hpp).
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"

namespace wan::runtime {

class ReactorTransport final : public SocketTransport, private Worker::Io {
 public:
  /// Binds opts.listen (default "127.0.0.1:0") nonblocking, loads
  /// opts.topology_path if non-empty, and adds the socket to the worker.
  /// Returns nullptr and sets *error on failure.
  static std::unique_ptr<ReactorTransport> create(const EnvOptions& opts,
                                                  std::string* error);
  ~ReactorTransport() override;

  /// Stops attached envs, then the worker. Idempotent; the destructor
  /// calls it.
  void shutdown() override;

  /// Datagrams per recvmmsg/sendmmsg syscall.
  static constexpr unsigned kBatch = 64;

 private:
  struct Outbound {
    std::vector<std::uint8_t> frame;
    ResolvedAddr dest;
  };

  ReactorTransport() = default;

  /// Appends to the outbound batch (queue_full past the limit). Worker
  /// thread only.
  bool enqueue_frame(std::vector<std::uint8_t> frame,
                     const ResolvedAddr& dest) override;

  // Worker::Io
  void on_ready(std::uint32_t events) override;
  void end_turn() override;

  /// Sends the outbound batch with sendmmsg; on EAGAIN keeps the rest and
  /// arms EPOLLOUT.
  void flush_outbound();

  // Worker thread only.
  /// The outbound batch, FIFO. A vector, not a deque: sent frames are
  /// erased from the front and the capacity stays, so queueing allocates
  /// nothing in steady state.
  std::vector<Outbound> out_;
  /// kBatch full-size datagram buffers, left untouched until used.
  std::unique_ptr<std::uint8_t[]> recv_storage_;
  std::array<iovec, kBatch> recv_iov_{};
  std::array<mmsghdr, kBatch> recv_headers_{};
  std::vector<iovec> flush_iov_;  ///< one per frame of one sendmmsg call
};

}  // namespace wan::runtime
