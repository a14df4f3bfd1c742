// Per-application protocol parameters — the paper's central idea is that
// THESE are application-controlled, trading security against availability
// and performance: M (manager-set size), C (check quorum), Te (revocation
// bound), R (verification attempts), plus the freeze-strategy alternative.
// Engineering values nothing varies (the quarantine backoff of a lying
// manager) are constexpr in the .cpp that reads them, not fields here.
#pragma once

#include <cstdint>

#include "clock/local_clock.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace wan::proto {

/// What to do when R verification attempts have failed (paper Fig. 4).
enum class ExhaustedPolicy : std::uint8_t {
  kDeny,   ///< security-first: reject the access
  kAllow,  ///< availability-first: "allow access as default"
};

struct ProtocolConfig {
  // --- the paper's named knobs -------------------------------------------
  sim::Duration Te = sim::Duration::minutes(5);  ///< revocation time bound
  double clock_bound_b = 1.01;   ///< every clock at most b times slower (b>=1)
  int check_quorum = 1;          ///< C; update quorum is M-C+1
  int max_attempts = 3;          ///< R; 0 means retry forever
  ExhaustedPolicy exhausted_policy = ExhaustedPolicy::kDeny;

  /// Byzantine tolerance f: hosts require C + f distinct check responses
  /// while the update quorum stays M - C + 1, so every assembled check
  /// quorum intersects every completed update in at least f + 1 managers —
  /// with at most f liars, at least one honest responder saw the update and
  /// the freshest-wins rule picks an honest, current answer. 0 (the default)
  /// is the paper's crash-only model. Requires C + f <= M to be assemblable.
  int byzantine_slack = 0;

  // --- freeze strategy (the §3.3 alternative to quorums) ------------------
  bool freeze_enabled = false;
  sim::Duration Ti = sim::Duration::minutes(3);  ///< inaccessibility period
  sim::Duration heartbeat_period = sim::Duration::seconds(10);

  // --- engineering parameters (not named in the paper but required by any
  //     implementation of it) ---------------------------------------------
  sim::Duration query_timeout = sim::Duration::seconds(2);   ///< Fig. 3 timer
  sim::Duration update_retransmit = sim::Duration::seconds(2);
  sim::Duration revoke_retransmit = sim::Duration::seconds(2);
  sim::Duration sync_retransmit = sim::Duration::seconds(2);
  sim::Duration cache_sweep_period = sim::Duration::minutes(1);
  sim::Duration cache_idle_limit = sim::Duration::minutes(30);
  sim::Duration name_service_ttl = sim::Duration::minutes(10);

  /// The local-clock expiration period managers attach to responses. Under
  /// the freeze strategy the budget Te is split between the inaccessibility
  /// period and the cached-entry lifetime ("Ti and te must be chosen so that
  /// their sum is at most Te", §3.3), so te = (Te - Ti) / b; otherwise
  /// te = Te / b.
  [[nodiscard]] sim::Duration expiry_period() const {
    const sim::Duration budget = freeze_enabled ? Te - Ti : Te;
    return clk::local_expiry_period(budget, clock_bound_b);
  }

  /// Validates internal consistency (aborts on misconfiguration).
  void validate() const {
    WAN_REQUIRE(Te > sim::Duration{});
    WAN_REQUIRE(clock_bound_b >= 1.0);
    WAN_REQUIRE(check_quorum >= 1);
    WAN_REQUIRE(max_attempts >= 0);
    WAN_REQUIRE(byzantine_slack >= 0);
    WAN_REQUIRE(query_timeout > sim::Duration{});
    if (freeze_enabled) {
      WAN_REQUIRE(Ti > sim::Duration{});
      WAN_REQUIRE_MSG(
          Ti < Te,
          "freeze strategy splits the budget Te between the inaccessibility "
          "period Ti and the cache lifetime te = (Te - Ti)/b (section 3.3); "
          "Ti >= Te leaves a non-positive effective te, so every grant a "
          "manager hands out would be born expired");
      WAN_REQUIRE_MSG(
          expiry_period() > sim::Duration{},
          "effective te = (Te - Ti)/b rounded to a positive duration; Ti is "
          "too close to Te for the clock bound b — widen Te or shrink Ti");
      WAN_REQUIRE(heartbeat_period > sim::Duration{});
      WAN_REQUIRE_MSG(
          heartbeat_period < Ti,
          "a peer is declared silent after Ti without traffic; with "
          "heartbeat_period >= Ti a healthy, connected peer cannot ping "
          "often enough to look alive and every manager freezes permanently");
    }
  }
};

}  // namespace wan::proto
