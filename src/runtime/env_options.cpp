#include "runtime/env_options.hpp"

#include <string>

namespace wan::runtime {

const char* to_cstring(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kSim: return "sim";
    case BackendKind::kLoopback: return "loopback";
    case BackendKind::kReactor: return "reactor";
  }
  return "?";
}

bool parse_backend(const std::string& text, BackendKind* out) {
  if (text == "sim") *out = BackendKind::kSim;
  else if (text == "loopback") *out = BackendKind::kLoopback;
  else if (text == "reactor") *out = BackendKind::kReactor;
  else return false;
  return true;
}

}  // namespace wan::runtime
