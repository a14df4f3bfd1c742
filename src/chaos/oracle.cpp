#include "chaos/oracle.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "acl/cache.hpp"
#include "metrics/collector.hpp"
#include "proto/access_controller.hpp"
#include "proto/host.hpp"
#include "proto/manager.hpp"
#include "util/assert.hpp"

namespace wan::chaos {

const char* to_cstring(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kSecurityDecision: return "security-decision";
    case ViolationKind::kCacheTtlBound: return "cache-ttl-bound";
    case ViolationKind::kLatentRevokedEntry: return "latent-revoked-entry";
    case ViolationKind::kQuorumConflict: return "quorum-conflict";
    case ViolationKind::kStoreDivergence: return "store-divergence";
    case ViolationKind::kGroundTruthMismatch: return "ground-truth-mismatch";
    case ViolationKind::kFrozenManagerAnswered: return "frozen-manager-answered";
    case ViolationKind::kFreezeBoundExceeded: return "freeze-bound-exceeded";
    case ViolationKind::kPrematureUnfreeze: return "premature-unfreeze";
    case ViolationKind::kOneWayDeliveryLeak: return "one-way-delivery-leak";
  }
  return "?";
}

InvariantOracle::InvariantOracle(workload::Scenario& scenario, Config config,
                                 TraceHasher* hasher)
    : scenario_(&scenario), config_(config), hasher_(hasher) {}

InvariantOracle::~InvariantOracle() {
  if (!installed_) return;
  scenario_->scheduler().set_event_observer(nullptr);
  scenario_->network().set_send_observer(nullptr);
  auto* collector = &scenario_->collector();
  for (int i = 0; i < scenario_->host_count(); ++i) {
    scenario_->host(i).controller().set_decision_observer(
        [collector](const proto::AccessDecision& d) { collector->observe(d); });
  }
  for (int m = 0; m < scenario_->manager_count(); ++m) {
    scenario_->manager(m).manager().set_response_observer(nullptr);
  }
}

void InvariantOracle::install() {
  WAN_REQUIRE(!installed_);
  installed_ = true;
  for (int i = 0; i < scenario_->host_count(); ++i) {
    scenario_->host(i).controller().set_decision_observer(
        [this](const proto::AccessDecision& d) { ingest(d); });
  }
  for (int m = 0; m < scenario_->manager_count(); ++m) {
    scenario_->manager(m).manager().set_response_observer(
        [this, m](const proto::ManagerModule::QueryAnswerEvent& ev) {
          ingest_response(m, ev);
        });
  }
  scenario_->network().set_send_observer([this](HostId from, HostId to) {
    if (one_way_cuts_.count({from.value(), to.value()}) != 0) {
      record(ViolationKind::kOneWayDeliveryLeak,
             "message delivered " + std::to_string(from.value()) + " -> " +
                 std::to_string(to.value()) +
                 " across a link direction the schedule cut");
    }
  });
  scenario_->scheduler().set_event_observer([this] { checkpoint(); });
}

void InvariantOracle::note_one_way_cut(HostId from, HostId to) {
  one_way_cuts_.emplace(from.value(), to.value());
}

void InvariantOracle::note_one_way_heal(HostId from, HostId to) {
  one_way_cuts_.erase({from.value(), to.value()});
}

void InvariantOracle::note_all_one_way_healed() { one_way_cuts_.clear(); }

void InvariantOracle::record(ViolationKind kind, std::string detail) {
  ++violation_count_;
  if (violations_.size() >= config_.max_violations) return;
  Violation v;
  v.kind = kind;
  v.at = scenario_->scheduler().now();
  v.event_index = scenario_->scheduler().executed_events();
  v.detail = std::move(detail);
  violations_.push_back(std::move(v));
}

void InvariantOracle::ingest(const proto::AccessDecision& d) {
  ++decisions_;
  if (hasher_ != nullptr) {
    hasher_->mix(d.user.value());
    hasher_->mix(d.host.value());
    hasher_->mix(d.allowed ? 1 : 0);
    hasher_->mix(static_cast<std::uint64_t>(d.path));
    hasher_->mix(static_cast<std::uint64_t>(d.decided.nanos_since_origin()));
  }

  // Keep the run's metrics flowing; the classification doubles as the
  // decision oracle's verdict.
  const metrics::DecisionClass cls = scenario_->collector().observe(d);
  if (cls == metrics::DecisionClass::kSecurityViolation) {
    if (config_.default_allow_expected &&
        d.path == proto::DecisionPath::kDefaultAllow) {
      ++expected_leaks_;  // Fig. 4 availability-first policy, working as sold
    } else {
      record(ViolationKind::kSecurityDecision,
             "user " + std::to_string(d.user.value()) + " allowed at host " +
                 std::to_string(d.host.value()) + " via " +
                 proto::to_cstring(d.path) + " (basis version " +
                 std::to_string(d.basis_version.counter) + "," +
                 std::to_string(d.basis_version.origin.value()) + "," +
                 std::to_string(d.basis_version.stamp) +
                 ") beyond Te past its revoke quorum");
    }
  }

  // Freeze oracle, bound arm: in a §3.3 run the mechanism arithmetic itself
  // promises an allow can trail a revoke quorum by at most Ti (silence until
  // the stale manager freezes) plus te*b (worst-case real lifetime of the
  // last entry it handed out), and never more than Te. Recomputing the bound
  // from the configured Ti / te / b — instead of trusting the headline Te —
  // catches a mis-derived expiry period even when it still sneaks under Te.
  const auto& protocol = scenario_->config().protocol;
  if (protocol.freeze_enabled && d.allowed &&
      !(config_.default_allow_expected &&
        d.path == proto::DecisionPath::kDefaultAllow)) {
    const auto since = scenario_->truth().unauthorized_since(
        scenario_->app(), d.user, acl::Right::kUse, d.decided);
    if (since) {
      const sim::Duration te_real = sim::Duration::nanos(
          static_cast<std::int64_t>(
              static_cast<double>(protocol.expiry_period().count_nanos()) *
              protocol.clock_bound_b));
      const sim::Duration bound = std::min(protocol.Te, protocol.Ti + te_real);
      if (d.decided - *since > bound + config_.tolerance) {
        record(ViolationKind::kFreezeBoundExceeded,
               "user " + std::to_string(d.user.value()) + " allowed at host " +
                   std::to_string(d.host.value()) + " " +
                   std::to_string((d.decided - *since).to_seconds()) +
                   "s after revoke quorum; freeze bound min(Te, Ti + te*b) = " +
                   std::to_string(bound.to_seconds()) + "s");
      }
    }
  }

  // Version oracle: the check quorum C intersects every update quorum
  // M-C+1, so two decisions whose freshest basis is the SAME update version
  // must agree — one update is one op, it cannot read as both grant and
  // revoke. Counter-0 versions carry no update identity (never-written
  // register) and are skipped. A decision flagged conflicting_replies
  // resolved an equal-version contradiction deny-wins; its basis version is
  // tainted by a liar and is not that version's authoritative reading.
  if (d.conflicting_replies) return;
  switch (d.path) {
    case proto::DecisionPath::kCacheHit:
    case proto::DecisionPath::kQuorumGranted:
    case proto::DecisionPath::kQuorumDenied: {
      if (d.basis_version.initial()) break;
      const auto key = std::make_tuple(d.user.value(),
                                       d.basis_version.counter,
                                       d.basis_version.origin.value(),
                                       d.basis_version.stamp);
      // A version some liar has answered with is exempt: the liar can show
      // an incomplete update's version with a flipped bit to hosts whose
      // honest responders are still behind it, and no intersection argument
      // contradicts that (the update never completed, so no Te clock runs).
      if (byzantine_versions_.count(key) != 0) break;
      const auto [it, inserted] = version_decisions_.emplace(key, d.allowed);
      if (!inserted && it->second != d.allowed) {
        record(ViolationKind::kQuorumConflict,
               "user " + std::to_string(d.user.value()) + " version (" +
                   std::to_string(d.basis_version.counter) + "," +
                   std::to_string(d.basis_version.origin.value()) +
                   ") decided both allow and deny");
      }
      break;
    }
    default:
      break;
  }
}

void InvariantOracle::ingest_response(
    int manager_idx, const proto::ManagerModule::QueryAnswerEvent& ev) {
  // The response observer fires at SEND time, before any host can decide on
  // this answer, so tainting here always lands before the version oracle
  // sees a decision built from it.
  if (ev.byzantine && !ev.version.initial()) {
    byzantine_versions_.emplace(ev.user.value(), ev.version.counter,
                                ev.version.origin.value(), ev.version.stamp);
  }
  // Freeze oracle, silence arm: §3.3's whole safety argument is that a
  // manager which has not heard every peer within its local Ti/b threshold
  // SHUTS UP — its store may have missed a revoke, so any answer it gives
  // (honest-stale or lying) can seed an unbounded-stale cache entry. The
  // event carries the honest silence computation at send time; an answer
  // sent while it said "frozen" is a protocol bug (or a planted compromise).
  if (!scenario_->config().protocol.freeze_enabled) return;
  if (ev.frozen_by_silence) {
    record(ViolationKind::kFrozenManagerAnswered,
           "manager " + std::to_string(manager_idx) + " answered host " +
               std::to_string(ev.host.value()) + " for user " +
               std::to_string(ev.user.value()) +
               " while frozen by peer silence" +
               (ev.byzantine ? " (byzantine)" : ""));
  }
}

void InvariantOracle::checkpoint() {
  ++checkpoints_;
  const AppId app = scenario_->app();
  const auto& protocol = scenario_->config().protocol;
  const sim::Duration te = protocol.expiry_period();
  const sim::TimePoint now = scenario_->scheduler().now();

  // Freeze oracle, unfreeze arm: a manager may report unfrozen only while
  // every current peer is tracked and was heard within Ti/b on its clock.
  // frozen() and peer_silences() read the same bookkeeping through different
  // code paths, so a disagreement means the silence computation rotted (or a
  // test override planted exactly that, to prove this check works).
  if (protocol.freeze_enabled) {
    for (int m = 0; m < scenario_->manager_count(); ++m) {
      if (reported_unfreeze_.count(m) != 0) continue;
      auto& mgr = scenario_->manager(m).manager();
      if (!mgr.up() || !mgr.synced(app) || mgr.frozen(app)) continue;
      for (const auto& ps : mgr.peer_silences(app)) {
        if (!ps.tracked ||
            ps.silence > mgr.freeze_threshold() + config_.tolerance) {
          reported_unfreeze_.insert(m);
          record(ViolationKind::kPrematureUnfreeze,
                 "manager " + std::to_string(m) +
                     " reports unfrozen while peer " +
                     std::to_string(ps.peer.value()) +
                     (ps.tracked
                          ? " has been silent " +
                                std::to_string(ps.silence.to_seconds()) +
                                "s (threshold " +
                                std::to_string(
                                    mgr.freeze_threshold().to_seconds()) +
                                "s)"
                          : " is not tracked by the silence bookkeeping"));
          break;
        }
      }
    }
  }

  for (int i = 0; i < scenario_->host_count(); ++i) {
    auto& host = scenario_->host(i);
    if (!host.up()) continue;
    const acl::AclCache* cache = host.controller().cache(app);
    if (cache == nullptr || cache->size() == 0) continue;
    const clk::LocalTime local_now = host.controller().local_now();

    for (const UserId user : cache->cached_users()) {
      const auto entry = cache->peek(user);
      if (!entry) continue;
      ++entries_audited_;

      // Fig. 3 inserts entries with limit = now + (te - delta), delta >= 0,
      // and the local clock only moves forward: the limit can never sit more
      // than te ahead. Anything further is a corrupted/planted entry.
      if (entry->limit - local_now > te + config_.tolerance) {
        if (reported_ttl_
                .emplace(i, user.value(), entry->limit.nanos())
                .second) {
          record(ViolationKind::kCacheTtlBound,
                 "host " + std::to_string(i) + " user " +
                     std::to_string(user.value()) + " cache limit " +
                     std::to_string((entry->limit - local_now).to_seconds()) +
                     "s ahead of local clock; te = " +
                     std::to_string(te.to_seconds()) + "s");
        }
        continue;
      }

      // A live entry whose user went unauthorized more than Te ago would let
      // the next lookup allow an access past the paper's bound. Entries
      // cached BEFORE the revoke expire within Te of insertion (< revoke +
      // Te), so a live one this late implies a post-revoke insertion — a
      // quorum-intersection or flush failure.
      if (entry->limit > local_now) {
        const auto since = scenario_->truth().unauthorized_since(
            app, user, acl::Right::kUse, now);
        if (since && now - *since > protocol.Te + config_.tolerance) {
          if (reported_latent_
                  .emplace(i, user.value(), since->nanos_since_origin())
                  .second) {
            record(ViolationKind::kLatentRevokedEntry,
                   "host " + std::to_string(i) + " user " +
                       std::to_string(user.value()) +
                       " still cached live " +
                       std::to_string((now - *since).to_seconds()) +
                       "s after revoke quorum (Te = " +
                       std::to_string(protocol.Te.to_seconds()) + "s)");
          }
        }
      }
    }
  }
}

void InvariantOracle::final_checks(const std::vector<int>& members) {
  const AppId app = scenario_->app();
  const auto& protocol = scenario_->config().protocol;
  const sim::TimePoint now = scenario_->scheduler().now();

  // Store convergence: at quiescence every up, synced member holds the same
  // register state (LWW merge over a common update set is order-free).
  const acl::AclStore* reference = nullptr;
  int reference_m = -1;
  for (const int m : members) {
    auto& mgr = scenario_->manager(m).manager();
    if (!mgr.up() || !mgr.synced(app)) continue;
    const acl::AclStore* store = mgr.store(app);
    if (store == nullptr) continue;
    if (reference == nullptr) {
      reference = store;
      reference_m = m;
      continue;
    }
    if (store->snapshot() != reference->snapshot()) {
      record(ViolationKind::kStoreDivergence,
             "manager " + std::to_string(m) + " store differs from manager " +
                 std::to_string(reference_m) + " at quiescence");
    }
  }

  // Ground-truth agreement, revoke direction only: a user unauthorized for
  // more than Te must not be granted in any member store. (The grant
  // direction is deliberately not checked: ground truth records grants at
  // issue time, and a grant whose issuing manager crashed pre-dissemination
  // is legitimately absent everywhere.)
  for (int u = 0; u < scenario_->user_count(); ++u) {
    const UserId uid = scenario_->user(u);
    const auto since =
        scenario_->truth().unauthorized_since(app, uid, acl::Right::kUse, now);
    if (!since || now - *since <= protocol.Te + config_.tolerance) continue;
    for (const int m : members) {
      auto& mgr = scenario_->manager(m).manager();
      if (!mgr.up() || !mgr.synced(app)) continue;
      const acl::AclStore* store = mgr.store(app);
      if (store != nullptr && store->check(uid, acl::Right::kUse)) {
        record(ViolationKind::kGroundTruthMismatch,
               "manager " + std::to_string(m) + " still grants user " +
                   std::to_string(uid.value()) + " " +
                   std::to_string((now - *since).to_seconds()) +
                   "s after its revoke quorum");
      }
    }
  }
}

}  // namespace wan::chaos
