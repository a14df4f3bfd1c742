// Scenario: a fully wired simulated deployment.
//
// Builds the Figure 1 world — M manager hosts, H application hosts, U users,
// one application, a network with the chosen partition model, drifting
// clocks, the trusted name service and key registry — and wires every
// access decision into a metrics Collector backed by a GroundTruth timeline.
// Tests, benches, and examples all start from one of these.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "auth/credentials.hpp"
#include "metrics/collector.hpp"
#include "metrics/ground_truth.hpp"
#include "nameservice/name_service.hpp"
#include "net/network.hpp"
#include "proto/host.hpp"
#include "proto/user_agent.hpp"
#include "runtime/sim_env.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace wan::workload {

struct ScenarioConfig {
  int managers = 3;
  int app_hosts = 5;
  int users = 20;
  proto::ProtocolConfig protocol;

  enum class Partitions { kNone, kPairwise, kStorms, kScripted };
  Partitions partitions = Partitions::kNone;
  double pi = 0.1;                                     ///< kPairwise
  sim::Duration mean_down = sim::Duration::seconds(30);///< kPairwise
  net::ComponentStormPartitions::Config storm;         ///< kStorms

  /// Latency: constant (deterministic tests) or base+exponential tail (WAN).
  bool constant_latency = false;
  sim::Duration const_latency = sim::Duration::millis(50);
  sim::Duration latency_base = sim::Duration::millis(40);
  sim::Duration latency_tail = sim::Duration::millis(20);
  double loss = 0.0;
  double duplicate = 0.0;  ///< P(datagram delivered twice); chaos harness knob

  /// Sample per-host clocks within the protocol's bound b (perfect clocks
  /// when false — deterministic tests).
  bool drifting_clocks = false;

  std::uint64_t seed = 1;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// The single application under test.
  [[nodiscard]] AppId app() const noexcept { return app_; }

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] net::Network& network() noexcept { return *net_; }
  /// The runtime seam every protocol module in this scenario runs on.
  [[nodiscard]] runtime::Env& env() noexcept { return *env_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  [[nodiscard]] int manager_count() const noexcept;
  [[nodiscard]] int host_count() const noexcept;
  [[nodiscard]] int user_count() const noexcept;

  [[nodiscard]] proto::ManagerHost& manager(int i);
  [[nodiscard]] proto::AppHost& host(int i);
  [[nodiscard]] UserId user(int i) const;
  [[nodiscard]] proto::UserAgent& agent(int i);
  /// The user's key pair (tests craft raw signed messages with it).
  [[nodiscard]] const auth::KeyPair& user_keys(int i) const;
  [[nodiscard]] const std::vector<HostId>& manager_ids() const noexcept {
    return manager_ids_;
  }
  [[nodiscard]] const std::vector<HostId>& host_ids() const noexcept {
    return host_ids_;
  }

  /// Issues Add(app, user, use) from manager `mgr` (-1 = round-robin over UP
  /// managers); the ground truth records grants at issue and revokes at their
  /// quorum instant. Returns false (and records nothing) if the chosen — or,
  /// for round-robin, every — manager is crashed.
  bool grant(UserId user, int mgr = -1, std::function<void()> on_quorum = nullptr);
  /// Issues Revoke(app, user, use), same conventions.
  bool revoke(UserId user, int mgr = -1, std::function<void()> on_quorum = nullptr);

  /// An access check at host `host_idx`; decisions flow into the collector.
  void check(int host_idx, UserId user, proto::CheckCallback done = nullptr);

  [[nodiscard]] metrics::GroundTruth& truth() noexcept { return truth_; }
  [[nodiscard]] metrics::Collector& collector() noexcept { return *collector_; }

  /// The effective configuration (after validation).
  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }

  /// The trusted name service (manager-set reconfiguration goes through it).
  [[nodiscard]] ns::NameService& names() noexcept { return names_; }

  /// Restricts which managers the round-robin grant/revoke path may target —
  /// the workload's view of the current Managers(app) membership. Indices are
  /// into manager(i); the set must be non-empty. Explicit-manager grant() /
  /// revoke() calls are unaffected (tests address non-members deliberately).
  void set_active_managers(const std::vector<int>& indices);

  /// The scripted partition model (only with Partitions::kScripted).
  [[nodiscard]] net::ScriptedPartitions& scripted();

  /// The same model, as its full directional interface (one-way cuts).
  [[nodiscard]] net::DirectionalPartitions& directional();

  /// Runs the simulation forward.
  void run_for(sim::Duration d) { sched_.run_for(d); }

  /// All host ids (managers + app hosts), for partition-model construction
  /// and probes.
  [[nodiscard]] std::vector<HostId> all_site_ids() const;

 private:
  bool submit(acl::Op op, UserId user, int mgr, std::function<void()> on_quorum);

  ScenarioConfig config_;
  Rng rng_;
  sim::Scheduler sched_;
  AppId app_{1};
  ns::NameService names_;
  auth::KeyRegistry keys_;
  std::shared_ptr<net::PartitionModel> partitions_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<runtime::SimEnv> env_;
  std::vector<HostId> manager_ids_;
  std::vector<HostId> host_ids_;
  std::vector<std::unique_ptr<proto::ManagerHost>> managers_;
  std::vector<std::unique_ptr<proto::AppHost>> hosts_;
  std::vector<std::unique_ptr<proto::UserAgent>> agents_;
  std::vector<auth::KeyPair> user_keys_;
  metrics::GroundTruth truth_;
  std::unique_ptr<metrics::Collector> collector_;
  std::vector<bool> manager_active_;
  int next_mgr_ = 0;
};

}  // namespace wan::workload
