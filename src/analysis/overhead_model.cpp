#include "analysis/overhead_model.hpp"

#include "util/assert.hpp"

namespace wan::analysis {

namespace {
double harmonic(int k) {
  double h = 0.0;
  for (int i = 1; i <= k; ++i) h += 1.0 / i;
  return h;
}
}  // namespace

double expected_check_delay_seconds(int queried, int check_quorum,
                                    double base_seconds,
                                    double tail_mean_seconds) {
  WAN_REQUIRE(check_quorum >= 1);
  if (queried < check_quorum) return -1.0;  // no quorum: see O(R) path
  // C-th order statistic of `queried` i.i.d. Exp(tail) variables, plus the
  // deterministic base both ways.
  const double tail =
      tail_mean_seconds * (harmonic(queried) - harmonic(queried - check_quorum));
  return 2.0 * base_seconds + tail;
}

}  // namespace wan::analysis
