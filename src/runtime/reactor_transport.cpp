#include "runtime/reactor_transport.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
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

}  // namespace

std::unique_ptr<ReactorTransport> ReactorTransport::create(
    const EnvOptions& opts, std::string* error) {
  // Can't use make_unique with the private constructor.
  std::unique_ptr<ReactorTransport> t(new ReactorTransport());
  if (!t->open_socket(opts, error)) return nullptr;

  if (::fcntl(t->fd_, F_SETFL, O_NONBLOCK) != 0) {
    if (error) *error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
    return nullptr;
  }
  ::setsockopt(t->fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufBytes,
               sizeof kSocketBufBytes);
  ::setsockopt(t->fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufBytes,
               sizeof kSocketBufBytes);

  t->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (t->epoll_fd_ < 0) {
    if (error) *error = std::string("epoll_create1(): ") + std::strerror(errno);
    return nullptr;
  }
  t->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (t->wake_fd_ < 0) {
    if (error) *error = std::string("eventfd(): ") + std::strerror(errno);
    return nullptr;
  }
  epoll_event sock_ev{};
  sock_ev.events = EPOLLIN;
  sock_ev.data.fd = t->fd_;
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.fd = t->wake_fd_;
  if (::epoll_ctl(t->epoll_fd_, EPOLL_CTL_ADD, t->fd_, &sock_ev) != 0 ||
      ::epoll_ctl(t->epoll_fd_, EPOLL_CTL_ADD, t->wake_fd_, &wake_ev) != 0) {
    if (error) *error = std::string("epoll_ctl(): ") + std::strerror(errno);
    return nullptr;
  }

  t->reactor_ = std::thread([p = t.get()] { p->reactor_loop(); });
  return t;
}

ReactorTransport::~ReactorTransport() {
  shutdown();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void ReactorTransport::shutdown() {
  if (!mark_shut_down()) return;
  // Envs first: once their loops stop, queued deliveries are dropped and no
  // protocol code runs while the reactor winds down. The reliability layer
  // goes next — its timer thread enqueues into the outbound queue, so it
  // must stop before the reactor does.
  stop_all();
  stop_reliable();
  stopping_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
  if (reactor_.joinable()) reactor_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ReactorTransport::enqueue_frame(std::vector<std::uint8_t> frame,
                                     const ResolvedAddr& dest) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= send_queue_limit_) {
      count_socket_drop("queue_full");
      return false;
    }
    was_empty = queue_.empty();
    queue_.push_back(Outbound{std::move(frame), dest});
  }
  // Ring the reactor only on the empty->nonempty edge: once it is awake it
  // drains the whole queue, so further wakeups would be redundant syscalls.
  if (was_empty) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
  return true;
}

void ReactorTransport::set_want_write(bool want) {
  if (want == want_write_) return;
  want_write_ = want;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
}

void ReactorTransport::reactor_loop() {
  epoll_event events[4];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 4, /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone — shutdown is racing us
    }
    bool readable = false;
    bool writable = false;
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wake_fd_) {
        woken = true;
      } else {
        if (events[i].events & EPOLLIN) readable = true;
        if (events[i].events & EPOLLOUT) writable = true;
      }
    }
    if (woken) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof drained);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (readable) drain_inbound();
    // Flush whenever there might be outbound work: a wakeup (new frames), a
    // writable edge (kernel buffer drained), or leftovers from a prior pass.
    if (woken || writable || want_write_) {
      set_want_write(!flush_outbound());
    }
  }
}

void ReactorTransport::drain_inbound() {
  // Preallocated batch machinery: kBatch slots, each a full-size datagram
  // buffer, reused across every recvmmsg call for the life of the reactor.
  static thread_local std::vector<std::uint8_t> storage(kBatch * 65536);
  static thread_local std::array<iovec, kBatch> iovecs;
  static thread_local std::array<mmsghdr, kBatch> headers;
  std::array<Datagram, kBatch> datagrams;
  for (unsigned i = 0; i < kBatch; ++i) {
    iovecs[i].iov_base = storage.data() + i * std::size_t{65536};
    iovecs[i].iov_len = 65536;
    headers[i].msg_hdr = msghdr{};
    headers[i].msg_hdr.msg_iov = &iovecs[i];
    headers[i].msg_hdr.msg_iovlen = 1;
  }
  for (;;) {
    const int got = ::recvmmsg(fd_, headers.data(), kBatch, MSG_DONTWAIT,
                               /*timeout=*/nullptr);
    if (got <= 0) return;  // EAGAIN (drained) or transient error
    for (int i = 0; i < got; ++i) {
      datagrams[i] = Datagram{
          static_cast<const std::uint8_t*>(iovecs[i].iov_base),
          headers[i].msg_len};
    }
    on_datagrams(std::span<const Datagram>(datagrams.data(),
                                           static_cast<std::size_t>(got)));
    if (static_cast<unsigned>(got) < kBatch) return;  // socket drained
  }
}

bool ReactorTransport::flush_outbound() {
  // A bundle of the smallest frames (header only) must fit one msghdr.
  static_assert(net::kBundleBytes / net::kWireHeaderSize <= IOV_MAX);
  for (;;) {
    // Pop up to kBatch datagrams' worth of frames; sending happens outside
    // queue_mu_ so send() is never blocked behind a syscall. Consecutive
    // frames for one peer join the open bundle while it stays within
    // kBundleBytes; bundle b is flushing_[first[b], first[b + 1]).
    std::array<std::size_t, kBatch + 1> first{};
    unsigned bundles = 0;
    flushing_.clear();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      std::size_t bytes = 0;
      while (!queue_.empty()) {
        Outbound& next = queue_.front();
        const bool joins = bundles > 0 && next.dest == flushing_.back().dest &&
                           bytes + next.frame.size() <= net::kBundleBytes;
        if (!joins) {
          if (bundles == kBatch) break;
          first[bundles++] = flushing_.size();
          bytes = 0;
        }
        bytes += next.frame.size();
        flushing_.push_back(std::move(next));
        queue_.pop_front();
      }
    }
    if (bundles == 0) return true;
    first[bundles] = flushing_.size();

    flush_iov_.resize(flushing_.size());
    for (std::size_t i = 0; i < flushing_.size(); ++i) {
      flush_iov_[i].iov_base = flushing_[i].frame.data();
      flush_iov_[i].iov_len = flushing_[i].frame.size();
    }
    std::array<sockaddr_in, kBatch> dests;
    std::array<mmsghdr, kBatch> headers;
    for (unsigned b = 0; b < bundles; ++b) {
      const ResolvedAddr& dest = flushing_[first[b]].dest;
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

    const auto recycle = [&](unsigned from, unsigned to) {
      for (std::size_t i = first[from]; i < first[to]; ++i) {
        recycle_send_buffer(std::move(flushing_[i].frame));
      }
    };
    unsigned sent = 0;
    while (sent < bundles) {
      const int n =
          ::sendmmsg(fd_, headers.data() + sent, bundles - sent, MSG_DONTWAIT);
      if (n > 0) {
        const unsigned done = sent + static_cast<unsigned>(n);
        socket_datagrams_sent().inc(static_cast<std::uint64_t>(n));
        socket_frames_sent().inc(first[done] - first[sent]);
        recycle(sent, done);
        sent = done;
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: requeue every frame of the unsent bundles
        // (preserving order) and let EPOLLOUT resume us.
        std::lock_guard<std::mutex> lock(queue_mu_);
        for (std::size_t i = flushing_.size(); i > first[sent]; --i) {
          queue_.push_front(std::move(flushing_[i - 1]));
        }
        return false;
      }
      // Hard error on the head datagram: drop its frames, keep going with
      // the rest.
      for (std::size_t i = first[sent]; i < first[sent + 1]; ++i) {
        count_socket_drop("sendto_error");
      }
      recycle(sent, sent + 1);
      ++sent;
    }
  }
}

}  // namespace wan::runtime
