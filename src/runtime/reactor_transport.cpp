#include "runtime/reactor_transport.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
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
  // winds down; then the worker, which also ends the reliability layer's
  // retransmits.
  stop_all();
  worker().stop();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ReactorTransport::enqueue_frame(std::vector<std::uint8_t> frame,
                                     const ResolvedAddr& dest) {
  if (out_.size() >= send_queue_limit_) {
    count_socket_drop(SocketDrop::kQueueFull);
    recycle_send_buffer(std::move(frame));
    return false;
  }
  out_.push_back(Outbound{std::move(frame), dest});
  return true;
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
  // A bundle of the smallest frames (header only) must fit one msghdr.
  static_assert(net::kBundleBytes / net::kWireHeaderSize <= IOV_MAX);
  while (!out_.empty()) {
    // Up to kBatch datagrams from the head of the batch. Consecutive frames
    // for one peer join the open bundle while it stays within
    // kBundleBytes; bundle b is out_[first[b], first[b + 1]).
    std::array<std::size_t, kBatch + 1> first{};
    unsigned bundles = 0;
    std::size_t bytes = 0;
    std::size_t frames = 0;
    for (; frames < out_.size(); ++frames) {
      const Outbound& next = out_[frames];
      const bool joins = bundles > 0 && next.dest == out_[frames - 1].dest &&
                         bytes + next.frame.size() <= net::kBundleBytes;
      if (!joins) {
        if (bundles == kBatch) break;
        first[bundles++] = frames;
        bytes = 0;
      }
      bytes += next.frame.size();
    }
    first[bundles] = frames;

    flush_iov_.resize(frames);
    for (std::size_t i = 0; i < frames; ++i) {
      flush_iov_[i].iov_base = out_[i].frame.data();
      flush_iov_[i].iov_len = out_[i].frame.size();
    }
    std::array<sockaddr_in, kBatch> dests;
    std::array<mmsghdr, kBatch> headers;
    for (unsigned b = 0; b < bundles; ++b) {
      const ResolvedAddr& dest = out_[first[b]].dest;
      dests[b] = sockaddr_in{};
      dests[b].sin_family = AF_INET;
      dests[b].sin_port = dest.port_be;
      dests[b].sin_addr.s_addr = dest.ip_be;
      headers[b].msg_hdr = msghdr{};
      headers[b].msg_hdr.msg_name = &dests[b];
      headers[b].msg_hdr.msg_namelen = sizeof dests[b];
      headers[b].msg_hdr.msg_iov = &flush_iov_[first[b]];
      headers[b].msg_hdr.msg_iovlen = first[b + 1] - first[b];
    }

    unsigned sent = 0;
    bool blocked = false;
    while (sent < bundles && !blocked) {
      const int n =
          ::sendmmsg(fd_, headers.data() + sent, bundles - sent, MSG_DONTWAIT);
      if (n > 0) {
        const unsigned done = sent + static_cast<unsigned>(n);
        socket_datagrams_sent().inc(static_cast<std::uint64_t>(n));
        socket_frames_sent().inc(first[done] - first[sent]);
        sent = done;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;  // kernel buffer full: EPOLLOUT resumes us
      } else if (errno != EINTR) {
        // Hard error on the head datagram: drop its frames, keep going
        // with the rest.
        for (std::size_t i = first[sent]; i < first[sent + 1]; ++i) {
          count_socket_drop(SocketDrop::kSendtoError);
        }
        ++sent;
      }
    }
    for (std::size_t i = 0; i < first[sent]; ++i) {
      recycle_send_buffer(std::move(out_[i].frame));
    }
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(first[sent]));
    if (blocked) {
      worker().want_write(true);
      return;
    }
  }
  worker().want_write(false);
}

}  // namespace wan::runtime
