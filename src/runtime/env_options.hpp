// EnvOptions: the one configuration surface shared by every runtime backend.
//
// Before this header each backend grew its own config struct (the simulator
// took a net::Network::Config, the loopback fabric a LoopbackFabric::Config,
// and the socket transport would have added a third). Tools that let the
// user pick a backend at the command line had to translate flags three ways.
// Now they fill one EnvOptions and hand it to whichever backend runs:
//
//   * SimEnv        — delay/jitter/loss/seed describe the simulated network;
//     listen/topology are ignored.
//   * LoopbackFabric — delay/jitter/loss/seed shape the in-process fabric;
//     listen/topology are ignored.
//   * ReactorTransport — listen/topology_path/send_queue_limit wire the
//     socket; delay/jitter/loss are ignored (a real network provides its
//     own).
//
// Fields a backend ignores are deliberately not an error: the whole point is
// that one struct travels from flag parsing to whichever backend the run
// selects.
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

/// Which runtime backend a run constructs. kSim is the discrete-event
/// simulator (an Env, not a Fabric); the other two are real-thread fabrics
/// built by make_fabric() (runtime/backend.hpp).
enum class BackendKind : std::uint8_t {
  kSim,       ///< SimEnv: virtual time, single thread
  kLoopback,  ///< LoopbackFabric: real threads, in-process delivery
  kReactor,   ///< ReactorTransport: real sockets, epoll + batched syscalls
};

/// "sim" / "loopback" / "reactor" <-> BackendKind (for flags).
[[nodiscard]] const char* to_cstring(BackendKind kind) noexcept;
[[nodiscard]] bool parse_backend(const std::string& text, BackendKind* out);

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
  /// Which backend to construct (tools route on this; see make_fabric()).
  BackendKind backend = BackendKind::kLoopback;

  // --- simulated-path shaping (SimEnv, LoopbackFabric) ---
  std::uint64_t seed = 1;                          ///< loss/jitter stream
  sim::Duration delay = sim::Duration::millis(1);  ///< per-datagram latency
  sim::Duration jitter = sim::Duration{};          ///< + uniform [0, jitter]
  double loss = 0.0;                               ///< i.i.d. drop probability

  // --- socket fabric (ReactorTransport) ---
  std::string listen;         ///< bind address "host:port"; port 0 = ephemeral
  std::string topology_path;  ///< HostId -> host:port map file (docs/WIRE_FORMAT.md)
  std::size_t send_queue_limit = 1024;  ///< outbound frames queued before drop
  ReliabilityOptions reliability;       ///< ack/retransmit layer (socket fabric)
};

}  // namespace wan::runtime
