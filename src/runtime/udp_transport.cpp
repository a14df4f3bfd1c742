#include "runtime/udp_transport.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

std::unique_ptr<UdpTransport> UdpTransport::create(const EnvOptions& opts,
                                                   std::string* error) {
  // Can't use make_unique with the private constructor.
  std::unique_ptr<UdpTransport> t(new UdpTransport());
  if (!t->open_socket(opts, error)) return nullptr;

  // The recv loop blocks at most this long before rechecking the stop flag,
  // which bounds shutdown() latency without fd-closing races.
  timeval timeout{};
  timeout.tv_usec = 100 * 1000;
  ::setsockopt(t->fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  t->sender_ = std::thread([p = t.get()] { p->sender_loop(); });
  t->receiver_ = std::thread([p = t.get()] { p->recv_loop(); });
  return t;
}

UdpTransport::~UdpTransport() { shutdown(); }

void UdpTransport::shutdown() {
  if (!mark_shut_down()) return;
  // Envs first: once their loops stop, queued deliveries are dropped and no
  // protocol code runs while the socket threads wind down. The reliability
  // layer goes next — its timer thread enqueues into the sender queue, so it
  // must stop before the sender does.
  stop_all();
  stop_reliable();
  stopping_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (sender_.joinable()) sender_.join();
  if (receiver_.joinable()) receiver_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UdpTransport::count_env_send() {
  static obs::Counter& sends =
      obs::Registry::global().counter("wan_env_sends_total{env=\"udp\"}");
  sends.inc();
}

bool UdpTransport::enqueue_frame(std::vector<std::uint8_t> frame,
                                 const ResolvedAddr& dest) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= send_queue_limit_) {
      count_socket_drop("queue_full");
      return false;
    }
    queue_.push_back(Outbound{std::move(frame), dest});
  }
  queue_cv_.notify_one();
  return true;
}

void UdpTransport::sender_loop() {
  for (;;) {
    Outbound out;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) return;  // only reachable when stopping
      out = std::move(queue_.front());
      queue_.pop_front();
    }
    sockaddr_in dest{};
    dest.sin_family = AF_INET;
    dest.sin_port = out.dest.port_be;
    dest.sin_addr.s_addr = out.dest.ip_be;
    const ssize_t n =
        ::sendto(fd_, out.frame.data(), out.frame.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest), sizeof dest);
    if (n < 0) {
      count_socket_drop("sendto_error");
    } else {
      socket_frames_sent().inc();
      socket_datagrams_sent().inc();
    }
  }
}

void UdpTransport::recv_loop() {
  std::vector<std::uint8_t> buf(65536);
  while (!stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                                 /*src_addr=*/nullptr, /*addrlen=*/nullptr);
    if (n < 0) continue;  // timeout (stop-flag recheck) or transient error
    const Datagram one{buf.data(), static_cast<std::size_t>(n)};
    on_datagrams(std::span<const Datagram>(&one, 1));
  }
}

}  // namespace wan::runtime
