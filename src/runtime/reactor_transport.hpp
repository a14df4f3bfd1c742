// ReactorTransport: the real-socket fabric — nodes span processes and
// machines.
//
// One ReactorTransport per OS process, owning one UDP socket. Local nodes
// attach through their ThreadedEnvs; every node, local or remote, is reached
// through a static topology mapping HostId -> host:port, loaded from a file
// or patched in with add_peer(). Addressing, decode and delivery live in
// runtime/socket_base.hpp; callers must register the protocol codecs
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
//   * Bundled datagrams: the outbound batch is a FIFO of bundles, each the
//     contiguous bytes of one datagram for one peer. A send for the peer of
//     the tail bundle encodes its frame in place at that bundle's end
//     (net::CodecRegistry::encode_append); a frame that would push a
//     non-empty bundle past net::kBundleBytes starts the next one, so a
//     frame over the cap travels alone. Each bundle leaves as one iovec of
//     one sendmmsg entry, and per destination frames keep their FIFO order
//     across bundles. Sent bundles keep their buffers for the next ones.
//   * The batch is bounded by EnvOptions::send_queue_limit frames; each
//     frame past it is shed with wan_udp_drops_total{reason="queue_full"} —
//     UDP never backpressures into protocol code. A full kernel buffer
//     (sendmmsg EAGAIN) keeps the unsent bundles at the head of the batch,
//     in order, and arms EPOLLOUT: it delays, never drops.
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
#include <span>
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
  /// One outbound datagram: whole frames for one peer, back to back.
  struct Bundle {
    ResolvedAddr dest;
    net::WireWriter bytes;
    std::size_t frames = 0;
  };

  ReactorTransport() = default;

  // SocketTransport; worker thread only.
  bool enqueue_message(HostId from, HostId to, const net::Message& msg,
                       const ResolvedAddr& dest) override;
  bool enqueue_frame(std::span<const std::uint8_t> frame,
                     const ResolvedAddr& dest) override;

  /// The one enqueue path: sheds past send_queue_limit_, else lets
  /// `write(net::WireWriter*)` append one frame to the bundle for `dest`
  /// and applies the kBundleBytes cut. A false `write` leaves the bundle
  /// as it was (and no empty bundle behind).
  template <typename Write>
  bool enqueue(const ResolvedAddr& dest, Write write);
  /// Makes out_[live_] the tail bundle, for `dest`.
  void open_bundle(const ResolvedAddr& dest);

  // Worker::Io
  void on_ready(std::uint32_t events) override;
  void end_turn() override;

  /// Sends the outbound batch with sendmmsg; on EAGAIN keeps the rest and
  /// arms EPOLLOUT.
  void flush_outbound();

  // Worker thread only.
  /// The outbound batch is out_[0, live_), FIFO; every one of those bundles
  /// holds at least one frame. Bundles past live_ are empty spares: sent
  /// bundles are rotated there with their buffers, so queueing allocates
  /// nothing in steady state.
  std::vector<Bundle> out_;
  std::size_t live_ = 0;
  std::size_t queued_frames_ = 0;  ///< frames in out_[0, live_)
  /// kBatch full-size datagram buffers, left untouched until used.
  std::unique_ptr<std::uint8_t[]> recv_storage_;
  std::array<iovec, kBatch> recv_iov_{};
  std::array<mmsghdr, kBatch> recv_headers_{};
};

}  // namespace wan::runtime
