// Analytic performance model (§4.1, first paragraphs).
//
// "The performance overhead of the access control algorithm is naturally
// O(C/Te), since the access rights have to be checked every Te time units and
// checking them involves communication with at least C managers."
//
// These closed forms are compared against measured message counts by
// bench_overhead and against measured delays by bench_latency.
#pragma once

#include "sim/time.hpp"

namespace wan::analysis {

/// The paper's O(C/Te) proportionality constant: a healthy re-validation
/// sends 2C messages (C queries + C responses) every te.
[[nodiscard]] inline double overhead_c_over_te(int check_quorum,
                                               sim::Duration te) {
  return 2.0 * static_cast<double>(check_quorum) / te.to_seconds();
}

/// Expected cache-miss check delay when a quorum is reachable: the host
/// needs the C-th fastest round trip of the `queried` managers. A healthy
/// check queries C, so this is the slowest of C. For the simulator's
/// exponential-tail latency (base + Exp(mean)) the expectation of the C-th
/// order statistic of n samples has closed form
///   2*base + mean * (H_n - H_{n-C})        (H_k = k-th harmonic number)
/// for the round trip (two latency draws approximated by doubling).
[[nodiscard]] double expected_check_delay_seconds(int queried, int check_quorum,
                                                  double base_seconds,
                                                  double tail_mean_seconds);

/// Worst-case delay when quorums are unreachable: R attempts, each burning a
/// full query timeout — the O(R) claim.
[[nodiscard]] inline double unreachable_delay_seconds(int attempts_r,
                                                      sim::Duration query_timeout) {
  return static_cast<double>(attempts_r) * query_timeout.to_seconds();
}

}  // namespace wan::analysis
