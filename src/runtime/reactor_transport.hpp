// ReactorTransport: the real-socket fabric — nodes span processes and
// machines.
//
// One ReactorTransport per OS process, owning one UDP socket. Local nodes
// attach exactly as they do to a LoopbackFabric (ThreadedEnv's transport
// port calls attach/send); remote nodes are reached through a static
// topology mapping HostId -> host:port, loaded from a file or patched in
// with add_peer(). Addressing, encode, decode and delivery live in
// runtime/socket_base.hpp; callers must register the protocol codecs
// (proto::register_wire_messages()) before the first send — the runtime
// layer itself is protocol-agnostic and never includes proto/ headers.
//
//   * One nonblocking socket driven by ONE event-loop thread — the reactor.
//     The loop multiplexes readiness through epoll over two fds: the socket
//     and an eventfd that send() rings when the outbound queue goes
//     nonempty (and shutdown() rings to stop the loop).
//   * Batched syscalls: inbound datagrams are drained with recvmmsg (up to
//     kBatch datagrams per syscall, preallocated buffers) until EAGAIN;
//     outbound frames are flushed with sendmmsg, up to kBatch datagrams per
//     call. At saturation one syscall moves up to kBatch datagrams.
//   * Bundled datagrams: consecutive queued frames for the same peer share
//     one datagram, gathered by scatter iovecs (no copy), up to
//     net::kBundleBytes; a frame over the cap travels alone. The kernel's
//     per-datagram cost is then paid once per bundle, not once per frame.
//     Per destination, frames keep their FIFO order across bundles.
//   * Batched delivery: each recvmmsg batch goes to
//     SocketTransport::on_datagrams() whole, so a node loop gets one post
//     (one lock, one wakeup) per batch carrying all of its frames, not one
//     per frame.
//   * Reusable encode buffers: send() encodes into a buffer from
//     SocketTransport's pool, and the reactor returns it there after
//     sendmmsg flushes it.
//
// The outbound queue is bounded by EnvOptions::send_queue_limit; overflow
// drops the frame with wan_udp_drops_total{reason="queue_full"} — UDP never
// backpressures into protocol code. When the kernel socket buffer itself
// fills (sendmmsg EAGAIN), frames stay queued and EPOLLOUT is armed, so a
// full kernel buffer delays rather than drops (the bounded queue still caps
// memory).
//
// Observability: wan_udp_frames_sent_total, wan_udp_frames_received_total,
// wan_udp_datagrams_sent_total, wan_udp_datagrams_received_total,
// wan_udp_deliveries_total, wan_udp_delivery_handoffs_total and
// wan_udp_drops_total{reason=...} — see socket_base.hpp for the reason set.
//
// Build it with ReactorTransport::create() or, from EnvOptions::backend =
// BackendKind::kReactor, with make_fabric() (runtime/backend.hpp);
// everything above the Fabric seam is untouched.
#pragma once

#include <sys/uio.h>

#include <atomic>
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

class ReactorTransport final : public SocketTransport {
 public:
  /// Binds opts.listen (default "127.0.0.1:0") nonblocking, loads
  /// opts.topology_path if non-empty, and starts the reactor thread.
  /// Returns nullptr and sets *error on failure.
  static std::unique_ptr<ReactorTransport> create(const EnvOptions& opts,
                                                  std::string* error);
  ~ReactorTransport() override;

  /// Stops attached envs, then the reactor thread. Idempotent; the
  /// destructor calls it.
  void shutdown() override;

  /// Datagrams per recvmmsg/sendmmsg syscall.
  static constexpr unsigned kBatch = 64;

 private:
  struct Outbound {
    std::vector<std::uint8_t> frame;
    ResolvedAddr dest;
  };

  ReactorTransport() = default;

  bool enqueue_frame(std::vector<std::uint8_t> frame,
                     const ResolvedAddr& dest) override;

  void reactor_loop();
  /// Drains the inbound side with recvmmsg until EAGAIN, handing each
  /// batch to on_datagrams().
  void drain_inbound();
  /// Flushes the outbound queue with sendmmsg; returns true when fully
  /// drained, false when the kernel buffer filled (caller arms EPOLLOUT).
  bool flush_outbound();
  void set_want_write(bool want);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool want_write_ = false;  ///< reactor thread only

  std::mutex queue_mu_;
  std::deque<Outbound> queue_;

  // flush_outbound() scratch, reactor thread only (capacity reused): the
  // frames of one sendmmsg call in queue order, and one iovec per frame.
  std::vector<Outbound> flushing_;
  std::vector<iovec> flush_iov_;

  std::atomic<bool> stopping_{false};
  std::thread reactor_;
};

}  // namespace wan::runtime
