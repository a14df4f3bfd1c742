#include "net/latency_model.hpp"

#include "util/assert.hpp"

namespace wan::net {

ConstantLatency::ConstantLatency(sim::Duration d) : delay_(d) {
  WAN_REQUIRE(!d.is_negative());
}

UniformLatency::UniformLatency(sim::Duration lo, sim::Duration hi) : lo_(lo), hi_(hi) {
  WAN_REQUIRE(!lo.is_negative());
  WAN_REQUIRE(hi >= lo);
}

sim::Duration UniformLatency::sample(HostId, HostId, Rng& rng) {
  return sim::Duration::from_seconds(
      rng.next_uniform(lo_.to_seconds(), hi_.to_seconds()));
}

ExponentialTailLatency::ExponentialTailLatency(sim::Duration base,
                                               sim::Duration tail_mean)
    : base_(base), tail_mean_(tail_mean) {
  WAN_REQUIRE(!base.is_negative());
  WAN_REQUIRE(tail_mean > sim::Duration{});
}

sim::Duration ExponentialTailLatency::sample(HostId, HostId, Rng& rng) {
  return base_ + sim::Duration::from_seconds(
                     rng.next_exponential(tail_mean_.to_seconds()));
}

}  // namespace wan::net
