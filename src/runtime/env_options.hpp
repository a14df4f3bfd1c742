// EnvOptions: the configuration of the real-thread fabric.
//
// Tools and tests fill one EnvOptions and hand it to make_fabric()
// (runtime/backend.hpp) or ReactorTransport::create(): listen and
// topology_path wire the socket, send_queue_limit bounds the outbound
// batch and reliability arms the ack/retransmit layer. The simulator does
// not read it; SimEnv takes its network (delay, jitter, loss, seed) from
// net::Network::Config.
//
// Only values some deployment or test actually chooses are fields. Tuning
// values nothing varies are constexpr in the one .cpp that reads them: the
// retransmit backoff, jitter and receive window in reliable_channel.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace wan::runtime {

/// Which fabric make_fabric() builds. The reactor is the one real-thread
/// fabric (docs/BENCHMARKS.md, "Why one real-thread fabric"); the enum keeps
/// its one value because callers name it, the closed-loop benchmark
/// (perfbench/) among them. The simulator is an Env of its own and never
/// goes through here.
enum class BackendKind : std::uint8_t {
  kReactor,  ///< ReactorTransport: real sockets, epoll + batched syscalls
};

/// Knobs of the socket fabric's reliability layer (ack/retransmit/dedup;
/// runtime/reliable_channel.hpp). Off by default: the raw fabric keeps plain
/// UDP semantics unless a deployment opts in, and transport tests that pin
/// duplicate-delivery behavior run against the raw path.
struct ReliabilityOptions {
  bool enabled = false;
  /// First retransmit fires this long after the original send...
  sim::Duration initial_rto = sim::Duration::millis(50);
  /// ...then backs off exponentially with jitter (kBackoff and kJitter in
  /// reliable_channel.cpp) up to this ceiling.
  sim::Duration max_rto = sim::Duration::millis(1000);
  /// Transmissions per message including the first; when exhausted the
  /// message is abandoned and the peer_unreachable upcall fires.
  int retry_budget = 10;
  /// Seed of the jitter stream (deterministic tests pin it).
  std::uint64_t jitter_seed = 1;
};

struct EnvOptions {
  /// Which backend to construct (see make_fabric()).
  BackendKind backend = BackendKind::kReactor;

  std::string listen;         ///< bind address "host:port"; port 0 = ephemeral
  std::string topology_path;  ///< HostId -> host:port map file (docs/WIRE_FORMAT.md)
  std::size_t send_queue_limit = 1024;  ///< outbound frames queued before drop
  ReliabilityOptions reliability;       ///< ack/retransmit layer (socket fabric)
};

}  // namespace wan::runtime
