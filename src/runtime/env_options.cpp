#include "runtime/env_options.hpp"

#include <string>

#include "util/assert.hpp"

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

shard::ShardMap make_shard_map(const ShardTopologyOptions& topo,
                               const std::vector<HostId>& managers) {
  if (topo.groups <= 1) return shard::ShardMap{};
  WAN_REQUIRE(!managers.empty());
  WAN_REQUIRE(managers.size() % topo.groups == 0);
  const std::size_t per_group = managers.size() / topo.groups;
  std::vector<std::vector<HostId>> groups(topo.groups);
  for (std::size_t i = 0; i < managers.size(); ++i) {
    groups[i / per_group].push_back(managers[i]);
  }
  const std::uint32_t shards = topo.shards != 0 ? topo.shards : topo.groups;
  return shard::ShardMap::ring(std::move(groups), shards, /*epoch=*/1,
                               topo.ring_seed);
}

}  // namespace wan::runtime
