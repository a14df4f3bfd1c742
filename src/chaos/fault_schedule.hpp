// Seeded fault-injection schedules.
//
// A chaos run is a deterministic function of one 64-bit seed: the seed picks
// the deployment shape (M, H, U, C), the protocol knobs (Te, b, R, policy,
// freeze), the ambient network adversity (loss, duplication, latency), the
// workload rates, and an explicit *schedule* of injected fault events —
// partition storms, link cuts, host/manager crash-recovery, and manager-set
// reconfigurations. The schedule is materialized up front as a plain vector
// so a failing run can be shrunk by re-running with subsets of the events
// (delta debugging): skipping an event never perturbs the RNG streams of the
// surviving ones, which keeps every subset run bit-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "workload/driver.hpp"
#include "workload/scenario.hpp"

namespace wan::chaos {

/// One injected adversity. Site indices cover managers first (0..M-1) then
/// application hosts (M..M+H-1); the engine maps them to HostIds.
enum class FaultKind : std::uint8_t {
  kSplit,           ///< partition all sites into `groups` components
  kHealSplit,       ///< remove the component split (link cuts persist)
  kCutLink,         ///< cut the (a, b) site link
  kHealLink,        ///< heal the (a, b) site link
  kCrashManager,    ///< crash manager index a (volatile state lost)
  kRecoverManager,  ///< recover manager index a (triggers §3.4 re-sync)
  kCrashHost,       ///< crash app host index a (cache lost)
  kRecoverHost,     ///< recover app host index a
  kReconfigure,     ///< change Managers(app) to `members` (manager indices)
  kCutLinkOneWay,   ///< drop messages a -> b only (b -> a still delivers)
  kHealLinkOneWay,  ///< restore the a -> b direction
  kByzantineManager,  ///< manager index a starts lying (aux seeds its lies)
  kRestoreManager,    ///< manager index a is remediated back to honesty
};

[[nodiscard]] const char* to_cstring(FaultKind k) noexcept;

struct FaultEvent {
  sim::Duration at{};  ///< offset from run start
  FaultKind kind{};
  int a = -1;  ///< target site / manager / host index (kind-dependent)
  int b = -1;  ///< second link endpoint (kCutLink / kHealLink / one-way)
  std::uint64_t aux = 0;  ///< kByzantineManager: seed for the lie stream
  std::vector<std::vector<int>> groups;  ///< kSplit components (site indices)
  std::vector<int> members;              ///< kReconfigure membership
};

struct FaultSchedule {
  std::vector<FaultEvent> events;  ///< sorted by `at`, ties in program order
};

/// Everything a chaos run needs, derived deterministically from the seed.
struct ChaosPlan {
  workload::ScenarioConfig scenario;  ///< partitions == kScripted
  workload::DriverConfig driver;
  std::uint64_t driver_seed = 0;
  sim::Duration horizon{};
  FaultSchedule schedule;
};

/// Opt-in adversities layered on top of the base plan. Both default OFF so
/// historical seeds (regression corpus, CHAOS.md repro lines) keep producing
/// bit-identical plans; the extra RNG draws happen strictly AFTER every base
/// drawing site on the `faults` stream.
struct PlanOptions {
  bool byzantine = false;   ///< inject lying managers (kByzantineManager)
  int byzantine_max = 1;    ///< at most this many concurrent liars (f)
  bool asymmetric = false;  ///< inject one-way link cuts
};

/// Builds the plan for `seed`. Fault durations are capped well under the
/// workload driver's 5-minute stuck-operation reaping limit so grant/revoke
/// operations stay serialized per user and the ground-truth timeline stays
/// unambiguous (see workload/driver.hpp).
///
/// When `opts.byzantine` is set and the seed did not pick the freeze strategy
/// (freeze pins C=1, which no slack can make lie-tolerant), the plan also
/// clamps check_quorum to at most M-f and sets byzantine_slack = f so the
/// quorum intersection argument holds; see proto/config.hpp.
[[nodiscard]] ChaosPlan make_plan(std::uint64_t seed, sim::Duration horizon,
                                  PlanOptions opts = {});

}  // namespace wan::chaos
