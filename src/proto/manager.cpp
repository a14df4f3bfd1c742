#include "proto/manager.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/journal.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace wan::proto {

namespace {

// "update.quorum" / "update.submit" span arg: op in a1 (1 = revoke), shared
// with obs::TeProbe::analyze.
std::int64_t op_arg(acl::Op op) { return op == acl::Op::kRevoke ? 1 : 0; }

obs::Counter& update_quorum_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_update_quorums_total");
  return c;
}

}  // namespace

ManagerModule::ManagerModule(HostId self, runtime::Env& env,
                             clk::LocalClock clock, ProtocolConfig config)
    : self_(self),
      env_(env),
      net_(env.transport()),
      clock_(env, clock),
      config_(config),
      disseminator_(self_, env_, config_.Te, config_.revoke_retransmit,
                    *this) {
  config_.validate();
}

ManagerModule::~ManagerModule() = default;

ManagerModule::AppCtl* ManagerModule::ctl_of(AppId app) {
  const auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

const ManagerModule::AppCtl* ManagerModule::ctl_of(AppId app) const {
  const auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

void ManagerModule::manage_app(AppId app, std::vector<HostId> managers) {
  WAN_REQUIRE(app.valid());
  WAN_REQUIRE(std::find(managers.begin(), managers.end(), self_) != managers.end());
  WAN_REQUIRE(config_.check_quorum <= static_cast<int>(managers.size()));
  AppCtl& ctl = apps_[app];
  ctl.managers = std::move(managers);
  ctl.peers.clear();
  for (const HostId m : ctl.managers) {
    if (m != self_) ctl.peers.push_back(m);
  }
  ctl.check_quorum = config_.check_quorum;
  const clk::LocalTime now = local_now();
  for (const HostId p : ctl.peers) ctl.last_heard[p] = now;
  if (config_.freeze_enabled) start_heartbeats(app, ctl);
}

void ManagerModule::reconfigure_app(AppId app, std::vector<HostId> managers) {
  WAN_REQUIRE(std::find(managers.begin(), managers.end(), self_) !=
              managers.end());
  const bool newcomer = ctl_of(app) == nullptr;
  if (newcomer) {
    manage_app(app, std::move(managers));
    AppCtl& ctl = apps_[app];
    begin_sync(app, ctl);  // do not answer queries until caught up
    return;
  }
  AppCtl& ctl = apps_[app];
  ctl.managers = std::move(managers);
  ctl.peers.clear();
  for (const HostId m : ctl.managers) {
    if (m != self_) ctl.peers.push_back(m);
  }
  // Refresh freeze bookkeeping: drop departed peers, adopt new ones as
  // just-heard (they get a full Ti before they can freeze us).
  const clk::LocalTime now = local_now();
  std::unordered_map<HostId, clk::LocalTime> heard;
  for (const HostId p : ctl.peers) {
    const auto it = ctl.last_heard.find(p);
    heard[p] = it != ctl.last_heard.end() ? it->second : now;
  }
  ctl.last_heard = std::move(heard);
  // Departed peers will never ack: prune them from in-flight work so
  // transactions can complete (or retire) against the new membership.
  for (auto it = ctl.txns.begin(); it != ctl.txns.end();) {
    Txn& txn = *it->second;
    for (auto p = txn.pending_peers.begin(); p != txn.pending_peers.end();) {
      p = is_peer(ctl, *p) ? std::next(p) : txn.pending_peers.erase(p);
    }
    it = txn.pending_peers.empty() ? ctl.txns.erase(it) : std::next(it);
  }
}

void ManagerModule::forget_app(AppId app) {
  disseminator_.drop_app(app);
  apps_.erase(app);
}

void ManagerModule::start_heartbeats(AppId app, AppCtl& ctl) {
  ctl.heartbeat = std::make_unique<runtime::PeriodicTimer>(env_.make_periodic_timer());
  ctl.heartbeat->start(config_.heartbeat_period, [this, app] {
    AppCtl* ctl = ctl_of(app);
    if (ctl == nullptr || !up_) return;
    const auto ping =
        net::make_message<HeartbeatPing>(app, ++ctl->heartbeat_seq);
    for (const HostId p : ctl->peers) net_.send(self_, p, ping);
  });
}

bool ManagerModule::is_peer(const AppCtl& ctl, HostId from) noexcept {
  return std::find(ctl.peers.begin(), ctl.peers.end(), from) != ctl.peers.end();
}

void ManagerModule::note_peer(AppCtl& ctl, HostId peer) {
  const auto it = ctl.last_heard.find(peer);
  if (it != ctl.last_heard.end()) it->second = local_now();
}

sim::Duration ManagerModule::freeze_threshold() const {
  // Ti is a real-time bound; this clock may run up to b times slow, so the
  // local threshold is Ti / b ("care must be taken to account for clock rate
  // differences at managers", §3.3).
  return sim::Duration::from_seconds(config_.Ti.to_seconds() /
                                     config_.clock_bound_b);
}

bool ManagerModule::frozen_by_silence(AppId app) const {
  if (!config_.freeze_enabled) return false;
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return false;
  const sim::Duration threshold = freeze_threshold();
  const clk::LocalTime now = clock_.local_now();
  for (const auto& [peer, heard] : ctl->last_heard) {
    if (now - heard > threshold) return true;
  }
  return false;
}

bool ManagerModule::frozen(AppId app) const {
  if (debug_frozen_.has_value()) return *debug_frozen_;
  return frozen_by_silence(app);
}

std::vector<ManagerModule::PeerSilence> ManagerModule::peer_silences(
    AppId app) const {
  std::vector<PeerSilence> out;
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return out;
  const clk::LocalTime now = clock_.local_now();
  for (const HostId p : ctl->peers) {
    PeerSilence ps;
    ps.peer = p;
    if (const auto it = ctl->last_heard.find(p); it != ctl->last_heard.end()) {
      ps.tracked = true;
      ps.silence = now - it->second;
    }
    out.push_back(ps);
  }
  return out;
}

bool ManagerModule::synced(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl != nullptr && ctl->synced;
}

const acl::AclStore* ManagerModule::store(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? nullptr : &ctl->store;
}

std::vector<HostId> ManagerModule::granted_hosts(AppId app, UserId user) const {
  const AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return {};
  const auto it = ctl->grant_table.find(user);
  if (it == ctl->grant_table.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::size_t ManagerModule::inflight_updates(AppId app) const {
  const AppCtl* ctl = ctl_of(app);
  return ctl == nullptr ? 0 : ctl->txns.size();
}

// ------------------------------------------------------------- operations

void ManagerModule::submit_update(AppId app, acl::Op op, UserId user,
                                  acl::Right right, UpdateCallback done) {
  WAN_REQUIRE(up_);
  AppCtl* ctl = ctl_of(app);
  WAN_REQUIRE(ctl != nullptr);

  // While recovering, this manager's store is not a valid version floor: a
  // C == 1 read would complete against the empty store and mint a version
  // that LOSES to every completed update — a revoke issued that way is a
  // silent no-op everywhere (found by chaos seed 645). The paper's blocking
  // Add/Revoke call simply waits for the §3.4 sync to finish. A compromised
  // manager parks submits for the same reason: its frozen store is an equally
  // invalid floor, and the admin's operation must not be minted into a
  // version that loses everywhere.
  if (!ctl->synced || byzantine_) {
    ctl->deferred_submits.push_back(
        DeferredSubmit{op, user, right, std::move(done)});
    return;
  }

  // Phase 1: version read from a check quorum of C managers (self included).
  const int needed = std::min(ctl->check_quorum,
                              static_cast<int>(ctl->managers.size()));
  const std::uint64_t read_id = next_read_id_++;
  auto read = std::make_unique<PendingRead>(needed, env_);
  read->op = op;
  read->user = user;
  read->right = right;
  read->done = std::move(done);
  read->issued = env_.now();
  read->max_seen = ctl->store.max_version();
  read->trace = obs::mint(obs::TraceKind::kUpdate, self_, next_trace_seq_++);
  read->readers.record(self_);
  obs::record(read->trace, obs::SpanKind::kBegin, self_, env_.now(),
              "update.submit", user.value(), op_arg(op));
  static obs::Counter& submits =
      obs::Registry::global().counter("wan_updates_submitted_total");
  submits.inc();
  if (read->readers.reached()) {
    issue_write(app, std::move(read));
    return;
  }
  const obs::TraceId trace = read->trace;
  ctl->reads.emplace(read_id, std::move(read));
  const auto msg = net::make_message<VersionQuery>(app, read_id);
  for (const HostId p : ctl->peers) {
    obs::record(trace, obs::SpanKind::kSend, self_, env_.now(),
                "version.query.send", p.value());
    net_.send(self_, p, msg);
  }
  ctl->reads.at(read_id)->retry.arm(
      config_.update_retransmit,
      [this, app, read_id] { retransmit_read(app, read_id); });
}

void ManagerModule::retransmit_read(AppId app, std::uint64_t read_id) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_) return;
  const auto it = ctl->reads.find(read_id);
  if (it == ctl->reads.end()) return;
  const auto msg = net::make_message<VersionQuery>(app, read_id);
  for (const HostId p : ctl->peers) {
    if (!it->second->readers.has(p)) net_.send(self_, p, msg);
  }
  it->second->retry.arm(config_.update_retransmit, [this, app, read_id] {
    retransmit_read(app, read_id);
  });
}

void ManagerModule::handle_version_reply(HostId from, const VersionReply& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  const auto it = ctl->reads.find(m.read_id);
  if (it == ctl->reads.end()) return;
  PendingRead& read = *it->second;
  obs::record(read.trace, obs::SpanKind::kRecv, self_, env_.now(),
              "version.reply.recv", from.value(),
              static_cast<std::int64_t>(m.max_version.counter));
  if (m.max_version > read.max_seen) read.max_seen = m.max_version;
  if (!read.readers.record(from)) return;
  auto owned = std::move(it->second);
  ctl->reads.erase(it);
  owned->retry.cancel();
  issue_write(m.app, std::move(owned));
}

void ManagerModule::issue_write(AppId app, std::unique_ptr<PendingRead> read) {
  AppCtl* ctl = ctl_of(app);
  WAN_ASSERT(ctl != nullptr);

  acl::AclUpdate update;
  update.user = read->user;
  update.right = read->right;
  update.op = read->op;
  // Dominates every completed update (via the read quorum) and everything
  // this manager has applied since the read began.
  acl::Version base = read->max_seen;
  if (ctl->store.max_version() > base) base = ctl->store.max_version();
  // The stamp makes a post-crash reissue of an already-used counter compare
  // strictly newer than the lost original (see acl/version.hpp). The local
  // clock is monotone across crashes; the +1 floor only orders same-instant
  // issues within one incarnation and cannot outrun the clock in practice.
  const std::int64_t stamp =
      std::max(version_stamp_ + 1, local_now().nanos());
  version_stamp_ = stamp;
  update.version = base.next(self_, stamp);
  apply_update(app, *ctl, update);

  const acl::Op op = read->op;
  const UserId user = read->user;
  UpdateCallback done = std::move(read->done);
  const std::uint64_t txn_id = next_txn_id_++;
  auto txn = std::make_unique<Txn>(update_quorum(*ctl), env_);
  txn->update = update;
  txn->txn_id = txn_id;
  txn->issued = read->issued;  // the user's operation began at the read
  txn->done = std::move(done);
  txn->trace = read->trace;
  txn->acks.record(self_);  // the issuer counts toward the update quorum
  for (const HostId p : ctl->peers) txn->pending_peers.insert(p);
  obs::record(txn->trace, obs::SpanKind::kInstant, self_, env_.now(),
              "update.issue", user.value(),
              static_cast<std::int64_t>(update.version.counter));

  WAN_DEBUG << to_string(self_) << " issues " << acl::to_cstring(op) << "("
            << to_string(app) << "," << to_string(user) << ") v"
            << update.version.counter;

  Txn& ref = *txn;
  ctl->txns.emplace(txn_id, std::move(txn));

  if (op == acl::Op::kRevoke) {
    start_revoke_forwarding(app, *ctl, user, update.version, ref.trace);
  }

  if (ref.acks.reached() && !ref.quorum_fired) {
    // Update quorum of 1 (C == M): guaranteed as soon as it is local.
    ref.quorum_fired = true;
    obs::record(ref.trace, obs::SpanKind::kDecision, self_, env_.now(),
                "update.quorum", user.value(), op_arg(op));
    update_quorum_counter().inc();
    if (ref.done) {
      ref.done(UpdateOutcome{app, ref.update, ref.issued, env_.now(),
                             ref.acks.count()});
    }
  }

  if (ref.pending_peers.empty()) {
    ctl->txns.erase(txn_id);
    return;
  }
  const auto msg = net::make_message<UpdateMsg>(app, update, txn_id, ref.trace);
  for (const HostId p : ref.pending_peers) {
    obs::record(ref.trace, obs::SpanKind::kSend, self_, env_.now(),
                "update.send", p.value());
    net_.send(self_, p, msg);
  }
  ref.retry.arm(config_.update_retransmit,
                [this, app, txn_id] { retransmit_txn(app, txn_id); });
}

void ManagerModule::retransmit_txn(AppId app, std::uint64_t txn_id) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_) return;
  const auto it = ctl->txns.find(txn_id);
  if (it == ctl->txns.end()) return;
  Txn& txn = *it->second;
  // "A manager issuing an update uses a persistent strategy ... it repeatedly
  // transmits the update to every manager until it succeeds."
  obs::record(txn.trace, obs::SpanKind::kTimer, self_, env_.now(),
              "update.retransmit",
              static_cast<std::int64_t>(txn.pending_peers.size()));
  static obs::Counter& retx =
      obs::Registry::global().counter("wan_update_retransmits_total");
  retx.inc();
  const auto msg = net::make_message<UpdateMsg>(app, txn.update, txn_id,
                                                txn.trace);
  for (const HostId p : txn.pending_peers) net_.send(self_, p, msg);
  txn.retry.arm(config_.update_retransmit,
                [this, app, txn_id] { retransmit_txn(app, txn_id); });
}

void ManagerModule::start_revoke_forwarding(AppId app, AppCtl& ctl, UserId user,
                                            acl::Version version,
                                            obs::TraceId trace) {
  // The grant table stays the manager's: the disseminator is handed the row
  // and reports per-host delivery back through Sink::delivered.
  const auto git = ctl.grant_table.find(user);
  if (git == ctl.grant_table.end() || git->second.empty()) return;
  disseminator_.revoke(app, user, version, git->second, trace);
}

// Disseminator::Sink -------------------------------------------------------

void ManagerModule::send(HostId to, const net::MessagePtr& msg) {
  net_.send(self_, to, msg);
}

void ManagerModule::delivered(AppId app, HostId host, UserId user,
                              acl::Version /*version*/) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr) return;
  // The host flushed its cache; it no longer holds a grant from us.
  if (auto git = ctl->grant_table.find(user); git != ctl->grant_table.end()) {
    git->second.erase(host);
  }
}

// --------------------------------------------------------------- receive

void ManagerModule::on_message(HostId from, const net::MessagePtr& msg) {
  if (!up_) return;
  if (byzantine_) {
    byzantine_on_message(from, msg);
    return;
  }
  if (const auto* q = net::message_cast<QueryRequest>(msg)) {
    handle_query(from, *q);
  } else if (const auto* u = net::message_cast<UpdateMsg>(msg)) {
    handle_update(from, *u);
  } else if (const auto* a = net::message_cast<UpdateAck>(msg)) {
    handle_update_ack(from, *a);
  } else if (disseminator_.on_message(from, msg)) {
    // Revocation fan-out acks (RevokeNotifyAck): consumed by the
    // disseminator, which reports per-host delivery back through
    // Sink::delivered.
  } else if (const auto* vq = net::message_cast<VersionQuery>(msg)) {
    if (AppCtl* ctl = ctl_of(vq->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
      // An unsynced (recovering) manager cannot vouch for a version floor.
      if (ctl->synced) {
        net_.send(self_, from,
                  net::make_message<VersionReply>(vq->app, vq->read_id,
                                                  ctl->store.max_version()));
      }
    }
  } else if (const auto* vr = net::message_cast<VersionReply>(msg)) {
    handle_version_reply(from, *vr);
  } else if (const auto* s = net::message_cast<SyncRequest>(msg)) {
    handle_sync_request(from, *s);
  } else if (const auto* sr = net::message_cast<SyncResponse>(msg)) {
    handle_sync_response(from, *sr);
  } else if (const auto* sp = net::message_cast<SyncPush>(msg)) {
    handle_sync_push(from, *sp);
  } else if (const auto* ping = net::message_cast<HeartbeatPing>(msg)) {
    if (AppCtl* ctl = ctl_of(ping->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
      net_.send(self_, from,
                net::make_message<HeartbeatPong>(ping->app, ping->seq));
    }
  } else if (const auto* pong = net::message_cast<HeartbeatPong>(msg)) {
    if (AppCtl* ctl = ctl_of(pong->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
    }
  }
}

void ManagerModule::handle_query(HostId from, const QueryRequest& q) {
  AppCtl* ctl = ctl_of(q.app);
  if (ctl == nullptr) return;
  // A recovering manager answers nothing until synced (§3.4); a frozen one
  // answers nothing until all peers are reachable again (§3.3).
  if (!ctl->synced || frozen(q.app)) {
    obs::record(q.trace, obs::SpanKind::kInstant, self_, env_.now(),
                "query.refuse", from.value(), ctl->synced ? 1 : 0);
    static obs::Counter& refused =
        obs::Registry::global().counter("wan_queries_refused_total");
    refused.inc();
    return;
  }

  const acl::RightSet rights = ctl->store.rights_of(q.user);
  // The decision-relevant version is the "use" register's: a fresher write to
  // the unrelated "manage" register must not let stale use-rights win a
  // freshest-response race at the host.
  acl::Version version{};
  if (const auto st = ctl->store.state(q.user, acl::Right::kUse)) {
    version = st->version;
  }
  if (response_observer_) {
    response_observer_(QueryAnswerEvent{q.app, q.user, from, version,
                                        frozen_by_silence(q.app), ctl->synced,
                                        /*byzantine=*/false});
  }
  obs::record(q.trace, obs::SpanKind::kSend, self_, env_.now(), "query.answer",
              from.value(), static_cast<std::int64_t>(version.counter));
  static obs::Counter& answered =
      obs::Registry::global().counter("wan_queries_answered_total");
  answered.inc();
  net_.send(self_, from,
            net::make_message<QueryResponse>(q.app, q.user, q.query_id, rights,
                                             version, config_.expiry_period(),
                                             q.trace));
  if (rights.has(acl::Right::kUse)) {
    // Remember who holds cached rights so revocations can be forwarded.
    ctl->grant_table[q.user].insert(from);
  }
}

// ----------------------------------------------------- byzantine behaviour

void ManagerModule::set_byzantine(std::uint64_t lie_seed, LieMode mode) {
  WAN_REQUIRE(up_);
  byzantine_ = true;
  lie_mode_ = mode;
  lie_rng_ = Rng(lie_seed);
}

void ManagerModule::restore_honest() {
  if (!byzantine_) return;
  byzantine_ = false;
  // Operations parked during the compromise window resume exactly like
  // operations parked during a recovery sync.
  flush_deferred_submits();
}

void ManagerModule::flush_deferred_submits() {
  for (auto& [app, ctl] : apps_) {
    if (!ctl.synced) continue;  // still parked for the §3.4 reason
    std::vector<DeferredSubmit> parked;
    parked.swap(ctl.deferred_submits);
    for (DeferredSubmit& s : parked) {
      submit_update(app, s.op, s.user, s.right, std::move(s.done));
    }
  }
}

void ManagerModule::byzantine_on_message(HostId from, const net::MessagePtr& msg) {
  if (const auto* q = net::message_cast<QueryRequest>(msg)) {
    byzantine_answer_query(from, *q);
    return;
  }
  if (const auto* u = net::message_cast<UpdateMsg>(msg)) {
    // Never apply the update (the store stays frozen at its pre-flip state),
    // and never send a usable ack. Half the time, mis-ack with a mangled txn
    // id: the issuer's lookup misses, so the liar can neither stall the
    // quorum nor count toward it — exactly the "at most f liars are outside
    // every update quorum" premise byzantine_slack relies on.
    AppCtl* ctl = ctl_of(u->app);
    if (ctl != nullptr && is_peer(*ctl, from) && lie_rng_.next_bool(0.5)) {
      net_.send(self_, from,
                net::make_message<UpdateAck>(
                    u->app, u->txn_id ^ 0x8000000000000000ULL));
    }
    return;
  }
  if (const auto* ping = net::message_cast<HeartbeatPing>(msg)) {
    // Keep pinging back: a liar that played dead would trip the freeze
    // strategy and bench itself — answering heartbeats while lying about
    // rights is the strictly nastier adversary.
    if (AppCtl* ctl = ctl_of(ping->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
      net_.send(self_, from,
                net::make_message<HeartbeatPong>(ping->app, ping->seq));
    }
    return;
  }
  if (const auto* pong = net::message_cast<HeartbeatPong>(msg)) {
    if (AppCtl* ctl = ctl_of(pong->app); ctl != nullptr && is_peer(*ctl, from)) {
      note_peer(*ctl, from);
    }
    return;
  }
  // VersionQuery, SyncRequest, sync traffic, acks: silence. Manager-side
  // quorums (version reads, recovery syncs) therefore only ever assemble
  // from honest peers.
}

void ManagerModule::byzantine_answer_query(HostId from, const QueryRequest& q) {
  AppCtl* ctl = ctl_of(q.app);
  if (ctl == nullptr || !ctl->synced) return;  // nothing plausible to lie with

  LieMode mode = lie_mode_;
  if (mode == LieMode::kSeeded) {
    const double roll = lie_rng_.next_uniform(0.0, 1.0);
    if (roll < 0.25) {
      mode = LieMode::kSilent;
    } else if (roll < 0.625) {
      mode = LieMode::kInvert;
    } else {
      mode = LieMode::kStale;
    }
  }
  if (mode == LieMode::kSilent) return;

  // Everything the liar says derives from its frozen store: admin-signed
  // updates mean it cannot fabricate versions it never received, only
  // misreport the rights attached to ones it did.
  acl::RightSet rights = ctl->store.rights_of(q.user);
  acl::Version version{};
  if (const auto st = ctl->store.state(q.user, acl::Right::kUse)) {
    version = st->version;
  }
  if (mode == LieMode::kInvert) {
    if (rights.has(acl::Right::kUse)) {
      rights.remove(acl::Right::kUse);
    } else {
      rights.add(acl::Right::kUse);
    }
  }
  sim::Duration expiry = config_.expiry_period();
  if (mode == LieMode::kHugeExpiry) {
    expiry = sim::Duration::nanos(expiry.count_nanos() * 64);
  }
  if (response_observer_) {
    response_observer_(QueryAnswerEvent{q.app, q.user, from, version,
                                        frozen_by_silence(q.app), ctl->synced,
                                        /*byzantine=*/true});
  }
  net_.send(self_, from,
            net::make_message<QueryResponse>(q.app, q.user, q.query_id, rights,
                                             version, expiry, q.trace));
  // Deliberately no grant_table insert: the liar also shirks its revocation
  // forwarding duty for grants it hands out.
}

void ManagerModule::handle_update(HostId from, const UpdateMsg& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  obs::record(m.trace, obs::SpanKind::kRecv, self_, env_.now(), "update.recv",
              from.value(),
              static_cast<std::int64_t>(m.update.version.counter));
  const bool applied = apply_update(m.app, *ctl, m.update);
  net_.send(self_, from, net::make_message<UpdateAck>(m.app, m.txn_id));
  if (applied && m.update.op == acl::Op::kRevoke) {
    // Each manager forwards the revocation to the hosts *it* granted (§3.1);
    // the forwarded notifies stay on the ISSUER's trace, so the full
    // revocation fan-out reconstructs from one id.
    start_revoke_forwarding(m.app, *ctl, m.update.user, m.update.version,
                            m.trace);
  }
}

void ManagerModule::handle_update_ack(HostId from, const UpdateAck& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  const auto it = ctl->txns.find(m.txn_id);
  if (it == ctl->txns.end()) return;
  Txn& txn = *it->second;
  txn.pending_peers.erase(from);
  obs::record(txn.trace, obs::SpanKind::kRecv, self_, env_.now(), "update.ack",
              from.value());
  txn.acks.record(from);
  if (txn.acks.reached() && !txn.quorum_fired) {
    txn.quorum_fired = true;
    obs::record(txn.trace, obs::SpanKind::kDecision, self_, env_.now(),
                "update.quorum", txn.update.user.value(),
                op_arg(txn.update.op));
    update_quorum_counter().inc();
    WAN_DEBUG << to_string(self_) << " update v" << txn.update.version.counter
              << " reached quorum (" << txn.acks.count() << " acks)";
    if (txn.done) {
      txn.done(UpdateOutcome{m.app, txn.update, txn.issued, env_.now(),
                             txn.acks.count()});
    }
  }
  if (txn.pending_peers.empty()) ctl->txns.erase(it);
}

void ManagerModule::handle_sync_request(HostId from, const SyncRequest& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  if (!ctl->synced) return;  // cannot vouch for state we have not recovered
  net_.send(self_, from,
            net::make_message<SyncResponse>(m.app, m.sync_id,
                                            ctl->store.snapshot()));
}

void ManagerModule::handle_sync_response(HostId from, const SyncResponse& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  if (m.sync_id != ctl->sync_id) return;
  if (ctl->synced) {
    // Straggler from the sync that already completed. It can still carry an
    // update the quorum responders never saw (stranded by an issuer crash),
    // so merge it — and if it taught us anything, spread the news.
    if (merge_snapshot(m.app, *ctl, m.snapshot) > 0) push_snapshot(m.app, *ctl);
    return;
  }
  if (ctl->sync_votes == nullptr) return;
  merge_snapshot(m.app, *ctl, m.snapshot);
  record_sync_vote(m.app, *ctl, from);
}

void ManagerModule::record_sync_vote(AppId app, AppCtl& ctl, HostId from) {
  if (ctl.sync_votes == nullptr || !ctl.sync_votes->record(from)) return;
  ctl.synced = true;
  ctl.sync_votes.reset();
  if (ctl.sync_timer) ctl.sync_timer->cancel();
  ctl.sync_timer.reset();
  WAN_DEBUG << to_string(self_) << " recovery sync complete for "
            << to_string(app);
  // Push the merged state back: peers that missed a partially-disseminated
  // update (whose issuer crashed and lost its retransmission duty) pick it
  // up here, restoring store convergence that pull-only sync cannot.
  push_snapshot(app, ctl);
  // Release operations that blocked on the sync, in submission order.
  flush_deferred_submits();
}

void ManagerModule::handle_sync_push(HostId from, const SyncPush& m) {
  AppCtl* ctl = ctl_of(m.app);
  if (ctl == nullptr || !is_peer(*ctl, from)) return;
  note_peer(*ctl, from);
  // Merging is safe in every state (idempotent, version-gated); receipt
  // never triggers a further push, so pushes cannot cascade.
  merge_snapshot(m.app, *ctl, m.snapshot);
}

void ManagerModule::push_snapshot(AppId app, AppCtl& ctl) {
  if (ctl.peers.empty()) return;
  const auto msg = net::make_message<SyncPush>(app, ctl.store.snapshot());
  for (const HostId p : ctl.peers) net_.send(self_, p, msg);
}

void ManagerModule::begin_sync(AppId app, AppCtl& ctl) {
  if (ctl.peers.empty()) {
    ctl.synced = true;  // single-manager degenerate case (see header)
    return;
  }
  ctl.synced = false;
  ctl.sync_id = next_sync_id_++;
  const int needed = std::min(ctl.check_quorum,
                              static_cast<int>(ctl.peers.size()));
  ctl.sync_votes = std::make_unique<quorum::QuorumTracker>(needed);
  ctl.sync_timer = std::make_unique<runtime::Timer>(env_.make_timer());
  sync_round(app);
}

void ManagerModule::sync_round(AppId app) {
  AppCtl* ctl = ctl_of(app);
  if (ctl == nullptr || !up_ || ctl->synced) return;
  // Retransmit until enough snapshots arrive.
  const auto msg = net::make_message<SyncRequest>(app, ctl->sync_id);
  for (const HostId p : ctl->peers) net_.send(self_, p, msg);
  if (ctl->sync_timer) {
    ctl->sync_timer->arm(config_.sync_retransmit,
                         [this, app] { sync_round(app); });
  }
}

// ------------------------------------------------------ durable state

std::size_t ManagerModule::attach_journal(ManagerJournal* journal) {
  journal_ = journal;
  if (journal_ == nullptr) return 0;
  std::size_t replayed = 0;
  journal_->replay([this, &replayed](AppId app, const acl::AclUpdate& u) {
    AppCtl* ctl = ctl_of(app);
    if (ctl == nullptr) return;  // app no longer managed; records are inert
    // Direct apply: replay must not re-append what is already durable.
    ctl->store.apply(u);
    // Restore the issue-stamp floor from our own updates so a restarted
    // incarnation never mints a stamp at or below one it already used.
    if (u.version.origin == self_ && u.version.stamp > version_stamp_) {
      version_stamp_ = u.version.stamp;
    }
    ++replayed;
  });
  obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
              "journal.replay", static_cast<std::int64_t>(replayed));
  return replayed;
}

bool ManagerModule::apply_update(AppId app, AppCtl& ctl,
                                 const acl::AclUpdate& update) {
  const bool applied = ctl.store.apply(update);
  if (applied && journal_ != nullptr) {
    journal_->append(app, update);
    maybe_compact(app, ctl);
  }
  return applied;
}

std::size_t ManagerModule::merge_snapshot(
    AppId app, AppCtl& ctl, const std::vector<acl::AclUpdate>& snapshot) {
  // AclStore::merge is a loop of applies; doing the loop here keeps the
  // journal exact (only registers that actually changed are appended).
  std::size_t changed = 0;
  for (const acl::AclUpdate& u : snapshot) {
    if (apply_update(app, ctl, u)) ++changed;
  }
  return changed;
}

void ManagerModule::maybe_compact(AppId app, AppCtl& ctl) {
  // Past this many log records a replay costs more than a snapshot write;
  // stale log entries surviving a crash-between-rename-and-truncate are
  // re-applied as no-ops, so the threshold is pure tuning.
  constexpr std::size_t kCompactAfter = 256;
  if (journal_->log_records(app) >= kCompactAfter) {
    const auto snapshot = ctl.store.snapshot();
    journal_->compact(app, snapshot);
    obs::record(/*trace=*/0, obs::SpanKind::kInstant, self_, env_.now(),
                "journal.compact", static_cast<std::int64_t>(snapshot.size()));
  }
}

// ------------------------------------------------------ crash / recovery

void ManagerModule::crash() {
  up_ = false;
  byzantine_ = false;  // a crashed-and-reimaged replica comes back honest
  for (auto& [app, ctl] : apps_) {
    ctl.store = acl::AclStore{};
    ctl.grant_table.clear();
    ctl.reads.clear();
    ctl.txns.clear();
    ctl.last_heard.clear();
    ctl.sync_votes.reset();
    ctl.sync_timer.reset();
    if (ctl.heartbeat) ctl.heartbeat->stop();
    ctl.heartbeat.reset();
    ctl.synced = false;
    ctl.deferred_submits.clear();  // ops die with the crash; callers time out
  }
  // Every in-flight revocation fan-out is volatile state.
  disseminator_.shutdown();
}

void ManagerModule::recover() {
  up_ = true;
  const clk::LocalTime now = local_now();
  for (auto& [app, ctl] : apps_) {
    for (const HostId p : ctl.peers) ctl.last_heard[p] = now;
    if (config_.freeze_enabled) start_heartbeats(app, ctl);
    begin_sync(app, ctl);
  }
}

void ManagerModule::resync(AppId app) {
  AppCtl* ctl = ctl_of(app);
  if (!up_ || ctl == nullptr || !ctl->synced) return;
  begin_sync(app, *ctl);
}

}  // namespace wan::proto
