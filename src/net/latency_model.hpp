// Per-message latency models for the simulated WAN.
//
// Wide-area latencies are milliseconds-to-seconds with heavy tails under
// congestion; the protocol's correctness must not depend on any latency
// bound (the paper explicitly rules out bounded-delay assumptions), so these
// models exist to exercise timeout paths and to measure realistic check
// delays, not to enforce guarantees.
#pragma once

#include <memory>

#include "sim/time.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace wan::net {

/// Samples the one-way delay for a message from `src` to `dst`.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  [[nodiscard]] virtual sim::Duration sample(HostId src, HostId dst, Rng& rng) = 0;
};

/// Fixed delay for every message (tests, microbenchmarks).
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(sim::Duration d);
  sim::Duration sample(HostId, HostId, Rng&) override { return delay_; }

 private:
  sim::Duration delay_;
};

/// Uniform in [lo, hi] — a simple WAN stand-in.
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(sim::Duration lo, sim::Duration hi);
  sim::Duration sample(HostId, HostId, Rng& rng) override;

 private:
  sim::Duration lo_, hi_;
};

/// base + Exp(tail_mean): a fixed propagation delay plus an exponential
/// queueing tail. Matches the shape of WAN RTT distributions well enough for
/// the latency experiments.
class ExponentialTailLatency final : public LatencyModel {
 public:
  ExponentialTailLatency(sim::Duration base, sim::Duration tail_mean);
  sim::Duration sample(HostId, HostId, Rng& rng) override;

 private:
  sim::Duration base_, tail_mean_;
};

}  // namespace wan::net
