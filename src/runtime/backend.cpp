#include "runtime/backend.hpp"

#include "runtime/reactor_transport.hpp"

namespace wan::runtime {

std::unique_ptr<Fabric> make_fabric(const EnvOptions& opts,
                                    std::string* error) {
  return ReactorTransport::create(opts, error);
}

SocketTransport* fabric_as_socket(Fabric* fabric) noexcept {
  return dynamic_cast<SocketTransport*>(fabric);
}

}  // namespace wan::runtime
