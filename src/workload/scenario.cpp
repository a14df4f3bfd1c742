#include "workload/scenario.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace wan::workload {

namespace {
constexpr std::uint32_t kManagerIdBase = 0;
constexpr std::uint32_t kHostIdBase = 1000;
constexpr std::uint32_t kAgentIdBase = 100000;
}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  WAN_REQUIRE(config_.managers >= 1);
  WAN_REQUIRE(config_.app_hosts >= 1);
  WAN_REQUIRE(config_.users >= 1);
  config_.protocol.validate();
  WAN_REQUIRE(config_.protocol.check_quorum <= config_.managers);

  collector_ =
      std::make_unique<metrics::Collector>(truth_, config_.protocol.Te);

  for (int i = 0; i < config_.managers; ++i)
    manager_ids_.push_back(HostId(kManagerIdBase + static_cast<std::uint32_t>(i)));
  for (int i = 0; i < config_.app_hosts; ++i)
    host_ids_.push_back(HostId(kHostIdBase + static_cast<std::uint32_t>(i)));

  // Partition models cover every site, including user-agent endpoints only
  // for the pairwise model's host list if needed; agents talk to app hosts
  // over the same fabric but the paper's analysis concerns host<->manager
  // links, so agents are left fully connected except under storms.
  std::vector<HostId> sites = all_site_ids();
  switch (config_.partitions) {
    case ScenarioConfig::Partitions::kNone:
      partitions_ = std::make_shared<net::FullConnectivity>();
      break;
    case ScenarioConfig::Partitions::kPairwise:
      partitions_ = std::make_shared<net::PairwiseMarkovPartitions>(
          sites, net::PairwiseMarkovPartitions::Config{config_.pi,
                                                       config_.mean_down});
      break;
    case ScenarioConfig::Partitions::kStorms:
      partitions_ =
          std::make_shared<net::ComponentStormPartitions>(sites, config_.storm);
      break;
    case ScenarioConfig::Partitions::kScripted:
      // The directional model is a strict superset of ScriptedPartitions, so
      // handing it out for every scripted scenario costs nothing and lets
      // tests and the chaos engine mix symmetric and one-way cuts freely.
      partitions_ = std::make_shared<net::DirectionalPartitions>();
      break;
  }

  net::Network::Config net_config;
  if (config_.constant_latency) {
    net_config.latency =
        std::make_unique<net::ConstantLatency>(config_.const_latency);
  } else {
    net_config.latency = std::make_unique<net::ExponentialTailLatency>(
        config_.latency_base, config_.latency_tail);
  }
  if (config_.loss > 0.0) {
    net_config.loss = std::make_unique<net::BernoulliLoss>(config_.loss);
  }
  net_config.duplicate = config_.duplicate;
  net_config.partitions = partitions_;
  net_ = std::make_unique<net::Network>(sched_, rng_.split(), std::move(net_config));
  env_ = std::make_unique<runtime::SimEnv>(*net_);

  names_.set_managers(app_, manager_ids_);
  auto make_clock = [&]() {
    if (!config_.drifting_clocks) return clk::LocalClock::perfect();
    return clk::LocalClock::sample(rng_, config_.protocol.clock_bound_b);
  };

  for (const HostId id : manager_ids_) {
    managers_.push_back(std::make_unique<proto::ManagerHost>(
        id, *env_, make_clock(), config_.protocol));
    managers_.back()->manager().manage_app(app_, manager_ids_);
  }

  for (const HostId id : host_ids_) {
    hosts_.push_back(std::make_unique<proto::AppHost>(
        id, *env_, make_clock(), names_, keys_, config_.protocol));
    auto& controller = hosts_.back()->controller();
    controller.register_app(app_, [](UserId, const std::string& payload) {
      return "ok:" + payload;  // echo application
    });
    controller.set_decision_observer(
        [this](const proto::AccessDecision& d) { collector_->observe(d); });
  }

  for (int i = 0; i < config_.users; ++i) {
    const UserId uid(static_cast<std::uint32_t>(i));
    const auth::KeyPair kp = auth::generate_keypair(rng_);
    keys_.register_user(uid, kp.public_key);
    user_keys_.push_back(kp);
    const HostId endpoint(kAgentIdBase + static_cast<std::uint32_t>(i));
    agents_.push_back(std::make_unique<proto::UserAgent>(
        endpoint, uid, kp, *env_, proto::UserAgent::Config{}));
    auto* agent = agents_.back().get();
    env_->transport().register_endpoint(
        endpoint, [agent](HostId from, const net::MessagePtr& msg) {
          agent->on_message(from, msg);
        });
  }

  net_->start();
}

Scenario::~Scenario() = default;

int Scenario::manager_count() const noexcept { return config_.managers; }
int Scenario::host_count() const noexcept { return config_.app_hosts; }
int Scenario::user_count() const noexcept { return config_.users; }

proto::ManagerHost& Scenario::manager(int i) {
  WAN_REQUIRE(i >= 0 && i < config_.managers);
  return *managers_[static_cast<std::size_t>(i)];
}

proto::AppHost& Scenario::host(int i) {
  WAN_REQUIRE(i >= 0 && i < config_.app_hosts);
  return *hosts_[static_cast<std::size_t>(i)];
}

UserId Scenario::user(int i) const {
  WAN_REQUIRE(i >= 0 && i < config_.users);
  return UserId(static_cast<std::uint32_t>(i));
}

proto::UserAgent& Scenario::agent(int i) {
  WAN_REQUIRE(i >= 0 && i < config_.users);
  return *agents_[static_cast<std::size_t>(i)];
}

const auth::KeyPair& Scenario::user_keys(int i) const {
  WAN_REQUIRE(i >= 0 && i < config_.users);
  return user_keys_[static_cast<std::size_t>(i)];
}

void Scenario::set_active_managers(const std::vector<int>& indices) {
  WAN_REQUIRE(!indices.empty());
  manager_active_.assign(static_cast<std::size_t>(config_.managers), false);
  for (const int i : indices) {
    WAN_REQUIRE(i >= 0 && i < config_.managers);
    manager_active_[static_cast<std::size_t>(i)] = true;
  }
}

bool Scenario::submit(acl::Op op, UserId user, int mgr,
                      std::function<void()> on_quorum) {
  if (mgr < 0) {
    // Round-robin over managers that are currently up and in the active
    // membership (a crashed or departed site cannot accept the operation;
    // the workload moves on, like a human operator would).
    const auto active = [this](int i) {
      return manager_active_.empty() ||
             manager_active_[static_cast<std::size_t>(i)];
    };
    for (int tried = 0; tried < config_.managers; ++tried) {
      const int candidate = (next_mgr_ + tried) % config_.managers;
      if (active(candidate) &&
          managers_[static_cast<std::size_t>(candidate)]->up()) {
        mgr = candidate;
        next_mgr_ = (candidate + 1) % config_.managers;
        break;
      }
    }
    if (mgr < 0) return false;  // every eligible manager is down
  }
  WAN_REQUIRE(mgr < config_.managers);
  if (!managers_[static_cast<std::size_t>(mgr)]->up()) return false;
  auto& module = managers_[static_cast<std::size_t>(mgr)]->manager();
  const bool granted = op == acl::Op::kAdd;
  // Ground-truth timing is asymmetric on purpose: a grant makes the user
  // legitimate the moment any manager accepts it (checks may see it before
  // the update quorum completes, and allowing then is not a violation of
  // anything), while a revoke only *guarantees* exclusion from its quorum
  // instant — that is the paper's Te reference point.
  if (granted) {
    WAN_DEBUG << "truth: grant " << to_string(user) << " @submit";
    truth_.record(app_, user, acl::Right::kUse, true, sched_.now());
  }
  module.submit_update(
      app_, op, user, acl::Right::kUse,
      [this, granted, cb = std::move(on_quorum)](const proto::UpdateOutcome& o) {
        if (!granted) {
          WAN_DEBUG << "truth: revoke " << to_string(o.update.user) << " @quorum="
                    << o.quorum_at.to_seconds();
          truth_.record(o.app, o.update.user, o.update.right, false, o.quorum_at);
        }
        if (cb) cb();
      });
  return true;
}

bool Scenario::grant(UserId user, int mgr, std::function<void()> on_quorum) {
  return submit(acl::Op::kAdd, user, mgr, std::move(on_quorum));
}

bool Scenario::revoke(UserId user, int mgr, std::function<void()> on_quorum) {
  return submit(acl::Op::kRevoke, user, mgr, std::move(on_quorum));
}

void Scenario::check(int host_idx, UserId user, proto::CheckCallback done) {
  WAN_REQUIRE(host_idx >= 0 && host_idx < config_.app_hosts);
  auto& controller = hosts_[static_cast<std::size_t>(host_idx)]->controller();
  if (!controller.up()) return;  // crashed host: the check simply never runs
  controller.check_access(app_, user,
                          done ? std::move(done)
                               : [](const proto::AccessDecision&) {});
}

net::ScriptedPartitions& Scenario::scripted() {
  auto* p = dynamic_cast<net::ScriptedPartitions*>(partitions_.get());
  WAN_REQUIRE(p != nullptr);
  return *p;
}

net::DirectionalPartitions& Scenario::directional() {
  auto* p = dynamic_cast<net::DirectionalPartitions*>(partitions_.get());
  WAN_REQUIRE(p != nullptr);
  return *p;
}

std::vector<HostId> Scenario::all_site_ids() const {
  std::vector<HostId> out = manager_ids_;
  out.insert(out.end(), host_ids_.begin(), host_ids_.end());
  return out;
}

}  // namespace wan::workload
