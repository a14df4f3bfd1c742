#include "runtime/socket_base.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace wan::runtime {

namespace {

bool parse_port(const std::string& text, std::uint16_t* port) {
  if (text.empty() || text.size() > 5) return false;
  std::uint32_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (value > 65535) return false;
  *port = static_cast<std::uint16_t>(value);
  return true;
}

std::optional<std::uint32_t> resolve_host(const std::string& host,
                                          std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* result = nullptr;
  if (const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
      rc != 0) {
    if (error) {
      *error = "cannot resolve '" + host + "': " + ::gai_strerror(rc);
    }
    return std::nullopt;
  }
  const std::uint32_t ip_be =
      reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr.s_addr;
  ::freeaddrinfo(result);
  return ip_be;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counters

obs::Counter& socket_frames_sent() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_frames_sent_total");
  return c;
}

obs::Counter& socket_frames_received() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_frames_received_total");
  return c;
}

obs::Counter& socket_datagrams_sent() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_datagrams_sent_total");
  return c;
}

obs::Counter& socket_datagrams_received() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_datagrams_received_total");
  return c;
}

obs::Counter& socket_deliveries() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_deliveries_total");
  return c;
}

obs::Counter& socket_delivery_handoffs() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_udp_delivery_handoffs_total");
  return c;
}

namespace {

// Counter names of the SocketDrop values, in enum order. The decode
// rejects follow them in the counter table, named by net::to_cstring.
constexpr std::array<const char*, 9> kDropReasons = {
    "queue_full",   "oversize",      "unregistered_type",
    "unknown_dest", "endpoint_down", "blocked",
    "not_local",    "sendto_error",  "injected_loss"};
static_assert(kDropReasons.size() ==
              static_cast<std::size_t>(SocketDrop::kInjectedLoss) + 1);
constexpr std::size_t kDecodeDropBase = kDropReasons.size();
constexpr std::size_t kDropCounters =
    kDecodeDropBase + static_cast<std::size_t>(net::DecodeError::kMalformed) + 1;

std::array<std::atomic<obs::Counter*>, kDropCounters> drop_counters{};

void count_drop_at(std::size_t i, std::uint64_t n = 1) {
  obs::Counter* c = drop_counters[i].load(std::memory_order_acquire);
  if (c == nullptr) {
    // Racing first drops resolve the same registry handle.
    const char* reason =
        i < kDecodeDropBase
            ? kDropReasons[i]
            : net::to_cstring(static_cast<net::DecodeError>(i - kDecodeDropBase));
    c = &obs::Registry::global().counter(
        std::string("wan_udp_drops_total{reason=\"") + reason + "\"}");
    drop_counters[i].store(c, std::memory_order_release);
  }
  c->inc(n);
}

}  // namespace

void count_socket_drop(SocketDrop reason, std::uint64_t n) {
  count_drop_at(static_cast<std::size_t>(reason), n);
}

void count_socket_drop(net::DecodeError error) {
  count_drop_at(kDecodeDropBase + static_cast<std::size_t>(error));
}

void count_socket_drop(net::CodecRegistry::EncodeError error) {
  count_socket_drop(error == net::CodecRegistry::EncodeError::kUnregistered
                        ? SocketDrop::kUnregisteredType
                        : SocketDrop::kOversize);
}

// ---------------------------------------------------------------------------
// NodeAddress / Topology

std::string NodeAddress::to_string() const {
  return host + ":" + std::to_string(port);
}

std::optional<NodeAddress> parse_node_address(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  NodeAddress addr;
  addr.host = text.substr(0, colon);
  if (!parse_port(text.substr(colon + 1), &addr.port)) return std::nullopt;
  return addr;
}

std::optional<Topology> Topology::load(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open topology file '" + path + "'";
    return std::nullopt;
  }
  return parse(in, error);
}

std::optional<Topology> Topology::parse(std::istream& in, std::string* error) {
  Topology topo;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::string id_text, addr_text, extra;
    if (!(fields >> id_text)) continue;  // blank / comment-only line
    const auto complain = [&](const std::string& what) {
      if (error) {
        *error = "topology line " + std::to_string(lineno) + ": " + what;
      }
      return std::nullopt;
    };
    if (!(fields >> addr_text)) return complain("expected '<id> <host>:<port>'");
    if (fields >> extra) return complain("trailing text '" + extra + "'");
    std::uint64_t id_value = 0;
    for (const char c : id_text) {
      if (c < '0' || c > '9') return complain("bad host id '" + id_text + "'");
      id_value = id_value * 10 + static_cast<std::uint64_t>(c - '0');
      if (id_value > 0xFFFFFFFFull) {
        return complain("host id out of range '" + id_text + "'");
      }
    }
    const std::optional<NodeAddress> addr = parse_node_address(addr_text);
    if (!addr) return complain("bad address '" + addr_text + "'");
    if (topo.entries_.count(static_cast<std::uint32_t>(id_value)) != 0) {
      return complain("duplicate host id '" + id_text + "'");
    }
    topo.add(HostId(static_cast<std::uint32_t>(id_value)), *addr);
  }
  return topo;
}

void Topology::add(HostId id, NodeAddress addr) {
  entries_[id.value()] = std::move(addr);
}

const NodeAddress* Topology::find(HostId id) const {
  const auto it = entries_.find(id.value());
  return it == entries_.end() ? nullptr : &it->second;
}

std::string Topology::serialize() const {
  std::string out = "# wan topology: <host-id> <host>:<port>\n";
  for (const auto& [id, addr] : entries_) {
    out += std::to_string(id) + " " + addr.to_string() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::~SocketTransport() {
  // Subclass destructors run shutdown(); this is the last-resort fd guard for
  // construction paths that failed before the I/O machinery started.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool SocketTransport::open_socket(const EnvOptions& opts, std::string* error) {
  const std::string listen_text =
      opts.listen.empty() ? std::string("127.0.0.1:0") : opts.listen;
  const std::optional<NodeAddress> listen = parse_node_address(listen_text);
  if (!listen) {
    if (error) *error = "bad listen address '" + listen_text + "'";
    return false;
  }
  const std::optional<std::uint32_t> listen_ip =
      resolve_host(listen->host, error);
  if (!listen_ip) return false;

  send_queue_limit_ = opts.send_queue_limit;

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = htons(listen->port);
  bind_addr.sin_addr.s_addr = *listen_ip;
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&bind_addr),
             sizeof bind_addr) != 0) {
    if (error) {
      *error = "bind(" + listen->to_string() + "): " + std::strerror(errno);
    }
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    if (error) *error = std::string("getsockname(): ") + std::strerror(errno);
    return false;
  }
  local_port_ = ntohs(bound.sin_port);

  if (!opts.topology_path.empty()) {
    const std::optional<Topology> topo =
        Topology::load(opts.topology_path, error);
    if (!topo) return false;
    for (const auto& [id, addr] : topo->entries()) {
      if (!add_peer(HostId(id), addr)) {
        if (error) {
          *error = "topology host " + std::to_string(id) +
                   ": cannot resolve '" + addr.host + "'";
        }
        return false;
      }
    }
  }
  return true;
}

void SocketTransport::send(HostId from, HostId to, net::MessagePtr msg) {
  WAN_REQUIRE(msg != nullptr);
  if (!worker().on_thread()) {
    // Routing, encoding and the outbound batch are worker state.
    worker().post(nullptr, [this, from, to, msg = std::move(msg)]() mutable {
      send(from, to, std::move(msg));
    });
    return;
  }
  static obs::Counter& sends =
      obs::Registry::global().counter("wan_env_sends_total{env=\"reactor\"}");
  sends.inc();
  const std::optional<ResolvedAddr> dest = route_for_send(from, to);
  if (!dest) return;
  enqueue_message(from, to, *msg, *dest);
}

void SocketTransport::run_on_worker(Worker::Fn fn) {
  if (worker().on_thread()) {
    fn();
  } else {
    worker().run_sync(nullptr, std::move(fn));
  }
}

void SocketTransport::attach(HostId id, Worker::Node* node,
                             Transport::Handler handler) {
  WAN_REQUIRE(id.valid());
  WAN_REQUIRE(handler != nullptr);
  auto shared = std::make_shared<const Transport::Handler>(std::move(handler));
  run_on_worker([this, id, node, shared = std::move(shared)]() mutable {
    endpoints_[id] = Endpoint{node, std::move(shared), false};
  });
}

void SocketTransport::set_endpoint_down(HostId id, bool down) {
  run_on_worker([this, id, down] {
    const auto it = endpoints_.find(id);
    WAN_REQUIRE(it != endpoints_.end());
    it->second.down = down;
  });
}

bool SocketTransport::add_peer(HostId id, const NodeAddress& addr) {
  const std::optional<std::uint32_t> ip_be = resolve_host(addr.host, nullptr);
  if (!ip_be) return false;
  const ResolvedAddr resolved{*ip_be, htons(addr.port)};
  run_on_worker([this, id, resolved] { peers_[id.value()] = resolved; });
  return true;
}

void SocketTransport::block_inbound_from(HostId peer, bool blocked) {
  run_on_worker([this, peer, blocked] {
    if (blocked) {
      blocked_sources_.insert(peer.value());
    } else {
      blocked_sources_.erase(peer.value());
    }
  });
}

void SocketTransport::set_fault_plan(const FaultPlan& plan) {
  run_on_worker([this, plan] {
    fault_plan_ = plan;
    fault_rng_ = Rng(plan.seed);
    faults_armed_ =
        plan.loss > 0.0 || plan.duplicate > 0.0 || plan.reorder > 0.0;
    held_.reset();
  });
}

std::optional<ResolvedAddr> SocketTransport::route_for_send(HostId from,
                                                            HostId to) {
  const auto src = endpoints_.find(from);
  if (src == endpoints_.end() || src->second.down) {
    count_socket_drop(SocketDrop::kEndpointDown);
    return std::nullopt;
  }
  const auto peer = peers_.find(to.value());
  if (peer == peers_.end()) {
    count_socket_drop(SocketDrop::kUnknownDest);
    return std::nullopt;
  }
  return peer->second;
}

void SocketTransport::on_datagrams(std::span<const Datagram> batch) {
  socket_datagrams_received().inc(batch.size());
  std::uint64_t frames = 0;
  const net::CodecRegistry& codec = net::CodecRegistry::global();
  for (const Datagram& d : batch) {
    // Every piece is decoded strictly and counted on its own; an empty
    // datagram still counts one truncated drop.
    std::size_t off = 0;
    do {
      const std::size_t n = net::frame_extent(d.data + off, d.size - off);
      net::CodecRegistry::Decoded decoded = codec.decode(d.data + off, n);
      off += n;
      if (!decoded.ok()) {
        count_socket_drop(decoded.error);
        continue;
      }
      ++frames;
      stage(decoded.frame->from.value(), decoded.frame->to.value(),
            std::move(decoded.frame->msg));
    } while (off < d.size);
  }
  socket_frames_received().inc(frames);
  if (staged_.empty()) return;

  // One routing pass per batch: mark blocked sources, and look up each
  // destination endpoint once.
  for (Staged& f : staged_) {
    f.blocked =
        !blocked_sources_.empty() && blocked_sources_.count(f.from) != 0;
    if (f.blocked || handoff_for(f.to) != nullptr) continue;
    if (live_handoffs_ == handoffs_.size()) handoffs_.emplace_back();
    Handoff& h = handoffs_[live_handoffs_++];
    h.to = f.to;
    const auto it = endpoints_.find(HostId(f.to));
    const bool local = it != endpoints_.end();
    h.node = local ? it->second.node : nullptr;
    h.handler = local ? it->second.handler : nullptr;
    h.down = local && it->second.down;
  }

  for (Staged& f : staged_) {
    if (f.blocked) {
      count_socket_drop(SocketDrop::kBlocked);
      continue;
    }
    collect(f.from, f.to, std::move(f.msg));
  }
  staged_.clear();

  // Handlers run here, on the worker, one dispatch per node. They may
  // send, post, arm timers, or stop their own node (the rest of its
  // messages are then dropped as endpoint_down).
  const std::span<Handoff> live(handoffs_.data(), live_handoffs_);
  for (Handoff& h : live) {
    if (h.msgs.empty()) continue;
    worker().new_dispatch();
    std::size_t ran = 0;
    for (const auto& [from, msg] : h.msgs) {
      if (!h.node->live()) break;
      (*h.handler)(from, msg);
      ++ran;
    }
    if (ran > 0) {
      socket_deliveries().inc(ran);
      socket_delivery_handoffs().inc();
    }
    if (ran < h.msgs.size()) {
      count_socket_drop(SocketDrop::kEndpointDown, h.msgs.size() - ran);
    }
  }
  // Keep each list's capacity for the next batch.
  for (Handoff& h : live) {
    h.msgs.clear();
    h.handler.reset();
  }
  live_handoffs_ = 0;
}

void SocketTransport::stage(std::uint32_t from, std::uint32_t to,
                            net::MessagePtr msg) {
  if (!faults_armed_) {
    staged_.push_back(Staged{from, to, std::move(msg)});
    return;
  }
  if (fault_rng_.next_bool(fault_plan_.loss)) {
    count_socket_drop(SocketDrop::kInjectedLoss);
    return;
  }
  if (!held_.has_value() && fault_rng_.next_bool(fault_plan_.reorder)) {
    held_ = Staged{from, to, std::move(msg)};  // released after the next one
    return;
  }
  const bool duplicate = fault_rng_.next_bool(fault_plan_.duplicate);
  staged_.push_back(Staged{from, to, msg});
  if (duplicate) staged_.push_back(Staged{from, to, std::move(msg)});
  if (held_.has_value()) {
    staged_.push_back(std::move(*held_));
    held_.reset();
  }
}

SocketTransport::Handoff* SocketTransport::handoff_for(std::uint32_t to) {
  for (std::size_t i = 0; i < live_handoffs_; ++i) {
    if (handoffs_[i].to == to) return &handoffs_[i];
  }
  return nullptr;
}

void SocketTransport::collect(std::uint32_t from, std::uint32_t to,
                              net::MessagePtr msg) {
  Handoff* h = handoff_for(to);
  if (h == nullptr || h->handler == nullptr) {
    count_socket_drop(SocketDrop::kNotLocal);
    return;
  }
  if (h->down) {
    count_socket_drop(SocketDrop::kEndpointDown);
    return;
  }
  h->msgs.emplace_back(HostId(from), std::move(msg));
}

}  // namespace wan::runtime
