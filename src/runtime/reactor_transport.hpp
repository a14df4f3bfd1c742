// ReactorTransport: the epoll-batched socket fabric for saturation loads.
//
// Same wire protocol, topology surface, and delivery semantics as
// UdpTransport (both sit on runtime/socket_base.hpp — the conformance suite
// in tests/test_conformance.cpp proves the behaviors identical), but built
// for throughput instead of simplicity:
//
//   * One nonblocking socket driven by ONE event-loop thread — the reactor —
//     replacing UdpTransport's sender-thread + recv-thread pair. The loop
//     multiplexes readiness through epoll over two fds: the socket and an
//     eventfd that send() rings when the outbound queue goes nonempty (and
//     shutdown() rings to stop the loop).
//   * Batched syscalls: inbound datagrams are drained with recvmmsg (up to
//     kBatch datagrams per syscall, preallocated buffers) until EAGAIN;
//     outbound frames are flushed with sendmmsg, up to kBatch datagrams per
//     call. At saturation the per-datagram syscall cost amortizes to
//     ~1/kBatch of the thread-per-datagram design.
//   * Bundled datagrams: consecutive queued frames for the same peer share
//     one datagram, gathered by scatter iovecs (no copy), up to
//     net::kBundleBytes; a frame over the cap travels alone. The kernel's
//     per-datagram cost is then paid once per bundle, not once per frame.
//     Per destination, frames keep their FIFO order across bundles.
//   * Batched delivery: each recvmmsg batch goes to
//     SocketTransport::on_datagrams() whole, so a node loop gets one post
//     (one lock, one wakeup) per batch carrying all of its frames, not one
//     per frame.
//   * Reusable encode buffers: send() encodes through
//     CodecRegistry::encode_into into a vector recycled from a free pool, so
//     the steady-state hot path performs no allocation once buffers reach
//     their working size. Buffers return to the pool after sendmmsg flushes
//     them; the pool is capped at the queue limit.
//
// Queue semantics are unchanged from UdpTransport: the outbound queue is
// bounded by EnvOptions::send_queue_limit, overflow drops the frame with
// wan_udp_drops_total{reason="queue_full"} — UDP never backpressures into
// protocol code. When the kernel socket buffer itself fills (sendmmsg
// EAGAIN), frames stay queued and EPOLLOUT is armed, so a full kernel buffer
// delays rather than drops (the bounded queue still caps memory).
//
// Select it with EnvOptions::backend = BackendKind::kReactor (see
// runtime/backend.hpp); everything above the Fabric seam is untouched.
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
  void count_env_send() override;
  std::vector<std::uint8_t> take_send_buffer() override;
  void recycle_send_buffer(std::vector<std::uint8_t>&& buf) override;

  void reactor_loop();
  /// Drains the inbound side with recvmmsg until EAGAIN, handing each
  /// batch to on_datagrams().
  void drain_inbound();
  /// Flushes the outbound queue with sendmmsg; returns true when fully
  /// drained, false when the kernel buffer filled (caller arms EPOLLOUT).
  bool flush_outbound();
  void set_want_write(bool want);

  std::vector<std::uint8_t> take_buffer();
  void recycle_buffer(std::vector<std::uint8_t>&& buf);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool want_write_ = false;  ///< reactor thread only

  std::mutex queue_mu_;
  std::deque<Outbound> queue_;

  std::mutex pool_mu_;
  std::vector<std::vector<std::uint8_t>> pool_;

  // flush_outbound() scratch, reactor thread only (capacity reused): the
  // frames of one sendmmsg call in queue order, and one iovec per frame.
  std::vector<Outbound> flushing_;
  std::vector<iovec> flush_iov_;

  std::atomic<bool> stopping_{false};
  std::thread reactor_;
};

}  // namespace wan::runtime
