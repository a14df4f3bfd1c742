// make_fabric: the one construction path for the real-thread fabric.
//
// The fabric is ReactorTransport (runtime/reactor_transport.hpp): real UDP
// sockets, epoll + recvmmsg/sendmmsg. make_fabric() builds it from
// EnvOptions and hands it back as a plain Fabric, for callers that attach
// ThreadedEnvs and need nothing more. fabric_as_socket() recovers the
// SocketTransport surface (local_port, add_peer, block_inbound_from, fault
// plans) when they do.
#pragma once

#include <memory>
#include <string>

#include "runtime/env_options.hpp"
#include "runtime/fabric.hpp"

namespace wan::runtime {

class SocketTransport;

/// Builds the reactor fabric (ReactorTransport::create). Returns nullptr and
/// sets *error on construction failure.
[[nodiscard]] std::unique_ptr<Fabric> make_fabric(const EnvOptions& opts,
                                                  std::string* error);

/// The socket-transport surface of a fabric built by make_fabric(), or
/// nullptr for any other Fabric.
[[nodiscard]] SocketTransport* fabric_as_socket(Fabric* fabric) noexcept;

}  // namespace wan::runtime
