#include "chaos/fault_schedule.hpp"

#include <algorithm>
#include <cstddef>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace wan::chaos {

namespace {

/// Clamp an exponential draw into [lo, hi] seconds and return it as a
/// Duration. Faults must stay well under the workload driver's 5-minute
/// stuck-op reaping limit, hence the hi caps at 120 s everywhere below.
sim::Duration exp_duration(Rng& rng, double mean_s, double lo_s, double hi_s) {
  const double s = std::clamp(rng.next_exponential(mean_s), lo_s, hi_s);
  return sim::Duration::millis(static_cast<std::int64_t>(s * 1000.0));
}

sim::Duration uniform_offset(Rng& rng, sim::Duration window) {
  const std::int64_t window_ms =
      std::max<std::int64_t>(1, window.count_nanos() / 1'000'000);
  return sim::Duration::millis(static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(window_ms))));
}

}  // namespace

const char* to_cstring(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kSplit: return "split";
    case FaultKind::kHealSplit: return "heal-split";
    case FaultKind::kCutLink: return "cut-link";
    case FaultKind::kHealLink: return "heal-link";
    case FaultKind::kCrashManager: return "crash-manager";
    case FaultKind::kRecoverManager: return "recover-manager";
    case FaultKind::kCrashHost: return "crash-host";
    case FaultKind::kRecoverHost: return "recover-host";
    case FaultKind::kReconfigure: return "reconfigure";
    case FaultKind::kCutLinkOneWay: return "cut-link-oneway";
    case FaultKind::kHealLinkOneWay: return "heal-link-oneway";
    case FaultKind::kByzantineManager: return "byzantine-manager";
    case FaultKind::kRestoreManager: return "restore-manager";
  }
  return "?";
}

ChaosPlan make_plan(std::uint64_t seed, sim::Duration horizon,
                    PlanOptions opts) {
  WAN_REQUIRE(horizon > sim::Duration{});
  // Stream discipline: one master RNG, forked per concern, so extending one
  // drawing site later never silently re-shapes the others for old seeds.
  Rng master(seed ^ 0x9e3779b97f4a7c15ULL);
  Rng shape = master.split();
  Rng knobs = master.split();
  Rng faults = master.split();
  Rng load = master.split();

  ChaosPlan plan;
  plan.horizon = horizon;

  // --- deployment shape ----------------------------------------------------
  const int M = static_cast<int>(shape.next_in_range(3, 5));
  const int H = static_cast<int>(shape.next_in_range(2, 4));
  const int U = static_cast<int>(shape.next_in_range(4, 8));
  plan.scenario.managers = M;
  plan.scenario.app_hosts = H;
  plan.scenario.users = U;
  plan.scenario.partitions = workload::ScenarioConfig::Partitions::kScripted;
  plan.scenario.seed = SplitMix64(seed).next();

  // --- protocol knobs ------------------------------------------------------
  auto& p = plan.scenario.protocol;
  static constexpr std::int64_t kTeChoices[] = {45, 60, 90};
  p.Te = sim::Duration::seconds(kTeChoices[knobs.next_below(3)]);
  static constexpr double kBChoices[] = {1.0, 1.02, 1.05, 1.1};
  p.clock_bound_b = kBChoices[knobs.next_below(4)];
  plan.scenario.drifting_clocks = p.clock_bound_b > 1.0;
  p.check_quorum = static_cast<int>(knobs.next_in_range(1, M));
  p.max_attempts = static_cast<int>(knobs.next_in_range(2, 3));
  p.exhausted_policy = knobs.next_bool(0.2) ? proto::ExhaustedPolicy::kAllow
                                            : proto::ExhaustedPolicy::kDeny;
  // Spent draw: it once picked a query strategy. Drawing it still keeps every
  // seed's other plan parameters as they were.
  knobs.next_bool(0.2);
  if (knobs.next_bool(0.15)) {
    // Freeze strategy (§3.3): C is pinned to 1 — the whole point of the
    // heartbeat is that any single manager's answer is safe to cache.
    p.freeze_enabled = true;
    p.check_quorum = 1;
    p.Ti = p.Te / 3;
    p.heartbeat_period = sim::Duration::seconds(5);
  }
  // Short engineering timeouts: chaos runs simulate minutes, not hours.
  p.query_timeout = sim::Duration::seconds(1);
  p.name_service_ttl = sim::Duration::seconds(30);
  p.cache_sweep_period = sim::Duration::seconds(30);

  // --- ambient network adversity -------------------------------------------
  plan.scenario.loss = knobs.next_uniform(0.0, 0.05);
  plan.scenario.duplicate = knobs.next_uniform(0.0, 0.05);
  plan.scenario.latency_base =
      sim::Duration::millis(knobs.next_in_range(30, 60));
  plan.scenario.latency_tail =
      sim::Duration::millis(knobs.next_in_range(10, 30));

  // --- workload ------------------------------------------------------------
  plan.driver.access_rate_per_host = load.next_uniform(1.0, 4.0);
  plan.driver.zipf_s = load.next_bool(0.5) ? load.next_uniform(0.5, 1.2) : 0.0;
  plan.driver.manager_ops_per_second = load.next_uniform(0.05, 0.25);
  plan.driver.revoke_fraction = load.next_uniform(0.4, 0.6);
  plan.driver.initially_granted = load.next_uniform(0.3, 0.7);
  plan.driver_seed = load.next_u64();

  // --- fault schedule ------------------------------------------------------
  // Faults are injected inside the first 70% of the horizon; the tail is the
  // drain window during which every fault has healed and caches quiesce.
  const sim::Duration window = sim::Duration::nanos(
      horizon.count_nanos() / 10 * 7);
  const int sites = M + H;
  auto& ev = plan.schedule.events;

  const auto add = [&ev](sim::Duration at, FaultKind kind, int a = -1,
                         int b = -1) -> FaultEvent& {
    FaultEvent e;
    e.at = at;
    e.kind = kind;
    e.a = a;
    e.b = b;
    ev.push_back(std::move(e));
    return ev.back();
  };

  // Partition storms: split all sites into 2–3 components, heal later.
  const int storms = 1 + static_cast<int>(faults.next_below(4));
  for (int i = 0; i < storms; ++i) {
    const sim::Duration at = uniform_offset(faults, window);
    const sim::Duration dur = exp_duration(faults, 45.0, 10.0, 120.0);
    const int components = static_cast<int>(faults.next_in_range(2, 3));
    FaultEvent& split = add(at, FaultKind::kSplit);
    split.groups.assign(static_cast<std::size_t>(components), {});
    for (int s = 0; s < sites; ++s) {
      const auto g = faults.next_below(static_cast<std::uint64_t>(components));
      split.groups[static_cast<std::size_t>(g)].push_back(s);
    }
    // A component that came out empty is fine — ScriptedPartitions ignores
    // empty groups; what matters is which sites ended up co-resident.
    add(at + dur, FaultKind::kHealSplit);
  }

  // Individual link cuts between random site pairs.
  const int cuts = static_cast<int>(faults.next_below(4));
  for (int i = 0; i < cuts; ++i) {
    const sim::Duration at = uniform_offset(faults, window);
    const sim::Duration dur = exp_duration(faults, 30.0, 5.0, 90.0);
    const int a = static_cast<int>(faults.next_below(
        static_cast<std::uint64_t>(sites)));
    int b = static_cast<int>(faults.next_below(
        static_cast<std::uint64_t>(sites - 1)));
    if (b >= a) ++b;
    add(at, FaultKind::kCutLink, a, b);
    add(at + dur, FaultKind::kHealLink, a, b);
  }

  // Manager crash/recovery. At most one manager down per crash event keeps
  // the update quorum M-C+1 plausibly reachable most of the time; overlap
  // between crashes can still take two down at once, which is the point.
  const int mgr_crashes = static_cast<int>(faults.next_below(3));
  for (int i = 0; i < mgr_crashes; ++i) {
    const sim::Duration at = uniform_offset(faults, window);
    const sim::Duration dur = exp_duration(faults, 40.0, 5.0, 120.0);
    const int m = static_cast<int>(faults.next_below(
        static_cast<std::uint64_t>(M)));
    add(at, FaultKind::kCrashManager, m);
    add(at + dur, FaultKind::kRecoverManager, m);
  }

  // Application host crash/recovery (cache loss, §3.4 recovery rule).
  const int host_crashes = static_cast<int>(faults.next_below(3));
  for (int i = 0; i < host_crashes; ++i) {
    const sim::Duration at = uniform_offset(faults, window);
    const sim::Duration dur = exp_duration(faults, 40.0, 5.0, 120.0);
    const int h = static_cast<int>(faults.next_below(
        static_cast<std::uint64_t>(H)));
    add(at, FaultKind::kCrashHost, h);
    add(at + dur, FaultKind::kRecoverHost, h);
  }

  // Manager-set reconfiguration: Managers(app) becomes a random subset of
  // size in [C, M] (never below the check quorum — a smaller set would make
  // the protocol's own C > |Managers| precondition unsatisfiable).
  const int reconfigs = static_cast<int>(faults.next_below(3));
  for (int i = 0; i < reconfigs; ++i) {
    const sim::Duration at = uniform_offset(faults, window);
    const int size = static_cast<int>(
        faults.next_in_range(p.check_quorum, M));
    std::vector<int> pool;
    for (int m = 0; m < M; ++m) pool.push_back(m);
    std::vector<int> members;
    for (int k = 0; k < size; ++k) {
      const auto j = faults.next_below(pool.size());
      members.push_back(pool[j]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
    }
    std::sort(members.begin(), members.end());
    FaultEvent& e = add(at, FaultKind::kReconfigure);
    e.members = std::move(members);
  }

  // --- opt-in adversities ---------------------------------------------------
  // These drawing sites come strictly AFTER every base site on the `faults`
  // stream, and are skipped entirely when the option is off, so plans for
  // historical seeds are bit-identical to what they were before the options
  // existed.

  // One-way link cuts: the a -> b direction drops while b -> a delivers.
  if (opts.asymmetric) {
    const int oneway = 1 + static_cast<int>(faults.next_below(3));
    for (int i = 0; i < oneway; ++i) {
      const sim::Duration at = uniform_offset(faults, window);
      const sim::Duration dur = exp_duration(faults, 30.0, 5.0, 90.0);
      const int a = static_cast<int>(faults.next_below(
          static_cast<std::uint64_t>(sites)));
      int b = static_cast<int>(faults.next_below(
          static_cast<std::uint64_t>(sites - 1)));
      if (b >= a) ++b;
      add(at, FaultKind::kCutLinkOneWay, a, b);
      add(at + dur, FaultKind::kHealLinkOneWay, a, b);
    }
  }

  // Byzantine managers. Freeze runs are excluded: §3.3 pins C=1, and a check
  // quorum of one cannot out-vote even a single liar — the adversary there is
  // the freeze oracle's problem, not the quorum's. For quorum runs we impose
  // the intersection precondition ourselves: with C <= M-f check responders
  // required plus f slack, any C+f responders overlap every completed update
  // quorum of M-C+1 in at least f+1 managers, so at least one honest reply
  // carries the freshest version past up to f liars.
  if (opts.byzantine && !p.freeze_enabled) {
    const int f = std::max(1, std::min(opts.byzantine_max, M - 1));
    p.check_quorum = std::max(1, std::min(p.check_quorum, M - f));
    p.byzantine_slack = f;
    std::vector<int> pool;
    for (int m = 0; m < M; ++m) pool.push_back(m);
    for (int i = 0; i < f; ++i) {
      const auto j = faults.next_below(pool.size());
      const int m = pool[j];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
      const sim::Duration at = uniform_offset(faults, window);
      const sim::Duration dur = exp_duration(faults, 60.0, 10.0, 120.0);
      FaultEvent& flip = add(at, FaultKind::kByzantineManager, m);
      flip.aux = faults.next_u64();
      add(at + dur, FaultKind::kRestoreManager, m);
    }
  }

  std::stable_sort(ev.begin(), ev.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  return plan;
}

}  // namespace wan::chaos
