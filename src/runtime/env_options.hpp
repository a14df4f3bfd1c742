// EnvOptions: the configuration of the real-thread fabric.
//
// Tools and tests fill one EnvOptions and hand it to make_fabric()
// (runtime/backend.hpp) or ReactorTransport::create(): listen and
// topology_path wire the socket and send_queue_limit bounds the outbound
// batch. The simulator does not read it; SimEnv takes its network (delay,
// jitter, loss, seed) from net::Network::Config.
//
// Only values some deployment or test actually chooses are fields. The
// fabric is plain UDP and has no loss-recovery knobs: the protocol's own
// retransmit and query timers (proto::ProtocolConfig) carry loss end to end
// (docs/BENCHMARKS.md, "Why no reliability layer").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace wan::runtime {

/// Which fabric make_fabric() builds. The reactor is the one real-thread
/// fabric (docs/BENCHMARKS.md, "Why one real-thread fabric"); the enum keeps
/// its one value because callers name it, the closed-loop benchmark
/// (perfbench/) among them. The simulator is an Env of its own and never
/// goes through here.
enum class BackendKind : std::uint8_t {
  kReactor,  ///< ReactorTransport: real sockets, epoll + batched syscalls
};

struct EnvOptions {
  /// Which backend to construct (see make_fabric()).
  BackendKind backend = BackendKind::kReactor;

  std::string listen;         ///< bind address "host:port"; port 0 = ephemeral
  std::string topology_path;  ///< HostId -> host:port map file (docs/WIRE_FORMAT.md)
  std::size_t send_queue_limit = 1024;  ///< outbound frames queued before drop
};

}  // namespace wan::runtime
