#include "runtime/reactor_transport.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/codec.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

namespace {

// Large enough that a localhost saturation bench is not limited by kernel
// socket buffers; best effort (the kernel clamps to its sysctl ceilings).
constexpr int kSocketBufBytes = 4 * 1024 * 1024;

constexpr std::size_t kDatagramBytes = 65536;

}  // namespace

std::unique_ptr<ReactorTransport> ReactorTransport::create(
    const EnvOptions& opts, std::string* error) {
  // Can't use make_unique with the private constructor.
  std::unique_ptr<ReactorTransport> t(new ReactorTransport());
  if (!t->open_socket(opts, error)) return nullptr;

  ::setsockopt(t->fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufBytes,
               sizeof kSocketBufBytes);
  ::setsockopt(t->fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufBytes,
               sizeof kSocketBufBytes);

  t->recv_storage_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(kBatch * kDatagramBytes);
  for (unsigned i = 0; i < kBatch; ++i) {
    t->recv_iov_[i] = iovec{t->recv_storage_.get() + i * kDatagramBytes,
                            kDatagramBytes};
    t->recv_headers_[i].msg_hdr.msg_iov = &t->recv_iov_[i];
    t->recv_headers_[i].msg_hdr.msg_iovlen = 1;
  }
  if (!t->worker().watch(t->fd_, t.get())) {
    if (error) *error = std::string("epoll_ctl(): ") + std::strerror(errno);
    return nullptr;
  }
  return t;
}

ReactorTransport::~ReactorTransport() { shutdown(); }

void ReactorTransport::shutdown() {
  // Envs first: once they stop, no protocol code runs while the socket
  // winds down; then the worker.
  stop_all();
  worker().stop();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ReactorTransport::enqueue_message(HostId from, HostId to,
                                       const net::Message& msg,
                                       const ResolvedAddr& dest) {
  if (queued_frames_ >= send_queue_limit_) {
    count_socket_drop(SocketDrop::kQueueFull);
    return false;
  }
  if (live_ == 0 || out_[live_ - 1].dest != dest) open_bundle(dest);
  std::size_t tail = live_ - 1;
  const std::size_t before = out_[tail].bytes.size();
  net::CodecRegistry::EncodeError error{};
  if (!net::CodecRegistry::global().encode_append(from, to, msg,
                                                  &out_[tail].bytes, &error)) {
    // A refused encode leaves the bundle as it was, and no empty bundle
    // behind: an empty datagram reads as truncated.
    count_socket_drop(error);
    if (before == 0) --live_;
    return false;
  }
  if (before != 0 && out_[tail].bytes.size() > net::kBundleBytes) {
    // The frame does not fit this datagram: it moves to the next one.
    open_bundle(dest);
    net::WireWriter& full = out_[tail].bytes;
    out_[live_ - 1].bytes.raw(full.data() + before, full.size() - before);
    full.truncate(before);
    tail = live_ - 1;
  }
  ++out_[tail].frames;
  ++queued_frames_;
  return true;
}

void ReactorTransport::open_bundle(const ResolvedAddr& dest) {
  if (live_ == out_.size()) out_.emplace_back();
  out_[live_++].dest = dest;
}

void ReactorTransport::on_ready(std::uint32_t events) {
  // One recvmmsg batch per turn (EAGAIN or a transient error reads none),
  // handed to on_datagrams() whole, then the flush of what it sent.
  const int got = (events & (EPOLLIN | EPOLLERR)) == 0
                      ? 0
                      : ::recvmmsg(fd_, recv_headers_.data(), kBatch,
                                   MSG_DONTWAIT, /*timeout=*/nullptr);
  std::array<Datagram, kBatch> datagrams;
  for (int i = 0; i < got; ++i) {
    datagrams[i] = Datagram{static_cast<const std::uint8_t*>(recv_iov_[i].iov_base),
                            recv_headers_[i].msg_len};
  }
  if (got > 0) on_datagrams({datagrams.data(), static_cast<std::size_t>(got)});
  flush_outbound();
}

void ReactorTransport::end_turn() { flush_outbound(); }

void ReactorTransport::flush_outbound() {
  while (live_ != 0) {
    // Up to kBatch bundles from the head of the batch, one iovec each.
    const auto bundles =
        static_cast<unsigned>(std::min<std::size_t>(live_, kBatch));
    std::array<iovec, kBatch> iov;
    std::array<sockaddr_in, kBatch> dests;
    std::array<mmsghdr, kBatch> headers;
    for (unsigned b = 0; b < bundles; ++b) {
      Bundle& bundle = out_[b];
      iov[b] = iovec{bundle.bytes.data(), bundle.bytes.size()};
      dests[b] = sockaddr_in{};
      dests[b].sin_family = AF_INET;
      dests[b].sin_port = bundle.dest.port_be;
      dests[b].sin_addr.s_addr = bundle.dest.ip_be;
      headers[b].msg_hdr = msghdr{};
      headers[b].msg_hdr.msg_name = &dests[b];
      headers[b].msg_hdr.msg_namelen = sizeof dests[b];
      headers[b].msg_hdr.msg_iov = &iov[b];
      headers[b].msg_hdr.msg_iovlen = 1;
    }

    unsigned sent = 0;
    bool blocked = false;
    while (sent < bundles && !blocked) {
      const int n =
          ::sendmmsg(fd_, headers.data() + sent, bundles - sent, MSG_DONTWAIT);
      if (n > 0) {
        const unsigned done = sent + static_cast<unsigned>(n);
        std::size_t carried = 0;
        for (unsigned b = sent; b < done; ++b) carried += out_[b].frames;
        socket_datagrams_sent().inc(static_cast<std::uint64_t>(n));
        socket_frames_sent().inc(carried);
        sent = done;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;  // kernel buffer full: EPOLLOUT resumes us
      } else if (errno != EINTR) {
        // Hard error on the head datagram: drop its frames, keep going
        // with the rest.
        for (std::size_t i = 0; i < out_[sent].frames; ++i) {
          count_socket_drop(SocketDrop::kSendtoError);
        }
        ++sent;
      }
    }
    for (unsigned b = 0; b < sent; ++b) {
      queued_frames_ -= out_[b].frames;
      out_[b].bytes.clear();
      out_[b].frames = 0;
    }
    // The unsent bundles move to the head in order; the sent ones, with
    // their buffers, become spares.
    std::rotate(out_.begin(), out_.begin() + sent,
                out_.begin() + static_cast<std::ptrdiff_t>(live_));
    live_ -= sent;
    if (blocked) {
      worker().want_write(true);
      return;
    }
  }
  worker().want_write(false);
}

}  // namespace wan::runtime
