#include "proto/access_controller.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace wan::proto {

namespace {

/// How long a host stops querying a manager whose replies contradicted its
/// own earlier replies. Doubles per repeat offense, capped at 32x.
constexpr sim::Duration kQuarantineBackoff = sim::Duration::seconds(30);

/// The shortest hedge delay. On a loopback a round trip is tens of
/// microseconds, and one receive batch of the host's own loop can outlast
/// twice that: below this floor the spread a hedge would react to is the
/// host's scheduling, not the managers'.
constexpr sim::Duration kMinHedgeDelay = sim::Duration::millis(1);

// Metric handles resolve once (function-local static) and then cost one
// relaxed atomic add per event.
obs::Counter& decision_counter(DecisionPath p) {
  auto& reg = obs::Registry::global();
  switch (p) {
    case DecisionPath::kCacheHit: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"cache-hit\"}");
      return c;
    }
    case DecisionPath::kQuorumGranted: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"quorum-granted\"}");
      return c;
    }
    case DecisionPath::kQuorumDenied: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"quorum-denied\"}");
      return c;
    }
    case DecisionPath::kDefaultAllow: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"default-allow\"}");
      return c;
    }
    case DecisionPath::kUnverifiableDeny: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"unverifiable-deny\"}");
      return c;
    }
    case DecisionPath::kAuthRejected: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"auth-rejected\"}");
      return c;
    }
    case DecisionPath::kUnknownApp: {
      static obs::Counter& c =
          reg.counter("wan_decisions_total{path=\"unknown-app\"}");
      return c;
    }
  }
  static obs::Counter& c = reg.counter("wan_decisions_total{path=\"?\"}");
  return c;
}

// "check.decide" span arg encoding, shared with obs::TeProbe::analyze:
// allowed in bit 8, DecisionPath in the low byte.
std::int64_t encode_decision(bool allowed, DecisionPath path) {
  return (static_cast<std::int64_t>(allowed) << 8) |
         static_cast<std::int64_t>(path);
}

// Puts `key -> value` into `map` through `node`, a node extracted from it
// earlier, so a map at its working size stops allocating. An empty node
// (a slot's first use) falls back to a plain insert.
template <typename Map>
void insert_node(Map& map, typename Map::node_type& node,
                 typename Map::key_type key, typename Map::mapped_type value) {
  if (node.empty()) {
    map.emplace(key, value);
    return;
  }
  node.key() = key;
  node.mapped() = value;
  map.insert(std::move(node));
}

}  // namespace

const char* to_cstring(DecisionPath p) noexcept {
  switch (p) {
    case DecisionPath::kCacheHit: return "cache-hit";
    case DecisionPath::kQuorumGranted: return "quorum-granted";
    case DecisionPath::kQuorumDenied: return "quorum-denied";
    case DecisionPath::kDefaultAllow: return "default-allow";
    case DecisionPath::kUnverifiableDeny: return "unverifiable-deny";
    case DecisionPath::kAuthRejected: return "auth-rejected";
    case DecisionPath::kUnknownApp: return "unknown-app";
  }
  return "?";
}

const char* to_cstring(DenyReason r) noexcept {
  switch (r) {
    case DenyReason::kNone: return "none";
    case DenyReason::kAuthentication: return "authentication";
    case DenyReason::kNotAuthorized: return "not-authorized";
    case DenyReason::kUnverifiable: return "unverifiable";
    case DenyReason::kUnknownApp: return "unknown-app";
  }
  return "?";
}

AccessController::AccessController(HostId self, runtime::Env& env,
                                   clk::LocalClock clock,
                                   const ns::NameService& names,
                                   const auth::KeyRegistry& keys,
                                   ProtocolConfig config)
    : self_(self),
      env_(env),
      net_(env.transport()),
      clock_(env, clock),
      resolver_(names, config.name_service_ttl),
      authenticator_(keys),
      config_(config),
      sweep_timer_(env.make_periodic_timer()) {
  config_.validate();
  sweep_timer_.start(config_.cache_sweep_period, [this] { sweep_tick(); });
}

void AccessController::sweep_tick() {
  if (!up_) return;
  const clk::LocalTime now = local_now();
  for (auto& [app, state] : apps_) {
    state.cache.sweep(now, config_.cache_idle_limit);
  }
}

AccessController::~AccessController() = default;

void AccessController::register_app(AppId app, AppHandler handler) {
  WAN_REQUIRE(app.valid());
  WAN_REQUIRE(handler != nullptr);
  apps_[app].handler = std::move(handler);
}

AccessController::AppState* AccessController::app_state(AppId app) {
  const auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

const acl::AclCache* AccessController::cache(AppId app) const {
  const auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second.cache;
}

acl::AclCache* AccessController::mutable_cache(AppId app) {
  AppState* state = app_state(app);
  return state == nullptr ? nullptr : &state->cache;
}

void AccessController::on_message(HostId from, const net::MessagePtr& msg) {
  if (!up_) return;
  if (const auto* invoke = net::message_cast<InvokeRequest>(msg)) {
    handle_invoke(from, msg, *invoke);
  } else if (const auto* resp = net::message_cast<QueryResponse>(msg)) {
    handle_query_response(from, *resp);
  } else if (const auto* revoke = net::message_cast<RevokeNotify>(msg)) {
    handle_revoke(from, *revoke);
  }
  // Other message types are not addressed to an application host; a real
  // deployment would log and drop, which is exactly what happens here.
}

void AccessController::handle_invoke(HostId from, const net::MessagePtr& msg,
                                     const InvokeRequest& req) {
  // Latency clock starts at arrival: every decision stemming from this
  // invoke — including the cache hit decided later in this same handler —
  // charges authentication and lookup time to wan_check_latency_seconds.
  const sim::TimePoint arrived = env_.now();
  AppState* state = app_state(req.app);
  if (state == nullptr) {
    AccessDecision d;
    d.app = req.app;
    d.user = req.user;
    d.host = self_;
    d.requested = arrived;
    d.decided = env_.now();
    d.allowed = false;
    d.path = DecisionPath::kUnknownApp;
    d.reason = DenyReason::kUnknownApp;
    emit(d);
    net_.send(self_, from,
              net::make_message<InvokeReply>(req.request_id, false,
                                             DenyReason::kUnknownApp, ""));
    return;
  }

  const auth::AuthResult auth = authenticator_.authenticate(
      req.user, req.payload, req.nonce, req.signature);
  if (auth != auth::AuthResult::kOk) {
    WAN_DEBUG << to_string(self_) << " rejects " << to_string(req.user)
              << ": " << auth::to_string(auth);
    AccessDecision d;
    d.app = req.app;
    d.user = req.user;
    d.host = self_;
    d.requested = arrived;
    d.decided = env_.now();
    d.allowed = false;
    d.path = DecisionPath::kAuthRejected;
    d.reason = DenyReason::kAuthentication;
    emit(d);
    net_.send(self_, from,
              net::make_message<InvokeReply>(req.request_id, false,
                                             DenyReason::kAuthentication, ""));
    return;
  }

  // Authenticated; now the Fig. 3 access check. A session waiter keeps the
  // request so coalesced sessions answer every pending invocation.
  if (const auto d =
          decide_from_cache(*state, req.app, req.user, req.trace, arrived)) {
    answer_invoke(from, req, *d);
    return;
  }
  join_or_start(req.app, req.user, Waiter{msg, from, nullptr}, req.trace,
                arrived);
}

void AccessController::answer(const Waiter& w, const AccessDecision& d) {
  if (w.done) {
    w.done(d);
  } else {
    answer_invoke(w.from, static_cast<const InvokeRequest&>(*w.invoke), d);
  }
}

void AccessController::answer_invoke(HostId from, const InvokeRequest& req,
                                     const AccessDecision& d) {
  AppState* state = app_state(req.app);
  if (state == nullptr) return;  // app deregistered while checking
  if (d.allowed) {
    std::string result = state->handler(d.user, req.payload);
    net_.send(self_, from,
              net::make_message<InvokeReply>(req.request_id, true,
                                             DenyReason::kNone,
                                             std::move(result)));
  } else {
    net_.send(self_, from,
              net::make_message<InvokeReply>(req.request_id, false, d.reason,
                                             ""));
  }
}

void AccessController::check_access(AppId app, UserId user, CheckCallback done,
                                    obs::TraceId parent,
                                    std::optional<sim::TimePoint> requested) {
  WAN_REQUIRE(done != nullptr);
  if (!up_) return;  // a crashed host runs nothing; the caller's session dies
  const sim::TimePoint t_req = requested.value_or(env_.now());
  AppState* state = app_state(app);
  if (state == nullptr) {
    AccessDecision d;
    d.app = app;
    d.user = user;
    d.host = self_;
    d.requested = t_req;
    d.decided = env_.now();
    d.allowed = false;
    d.path = DecisionPath::kUnknownApp;
    d.reason = DenyReason::kUnknownApp;
    emit(d);
    done(d);
    return;
  }

  if (const auto d = decide_from_cache(*state, app, user, parent, t_req)) {
    done(*d);
    return;
  }
  join_or_start(app, user, Waiter{nullptr, HostId{}, std::move(done)}, parent,
                t_req);
}

std::optional<AccessDecision> AccessController::decide_from_cache(
    AppState& state, AppId app, UserId user, obs::TraceId parent,
    sim::TimePoint requested) {
  // Fig. 3 fast path: live cache entry with the "use" right.
  const clk::LocalTime now_local = local_now();
  const auto entry = state.cache.lookup(user, now_local);
  // A cached entry *without* the use right cannot exist (only grants are
  // cached), so a miss here always means "ask the managers".
  if (!entry || !entry->rights.has(acl::Right::kUse)) return std::nullopt;
  const obs::TraceId trace =
      obs::mint(obs::TraceKind::kCheck, self_, next_trace_seq_++);
  obs::record(trace, obs::SpanKind::kBegin, self_, env_.now(), "check.begin",
              user.value(), static_cast<std::int64_t>(parent));
  obs::record(trace, obs::SpanKind::kDecision, self_, env_.now(),
              "check.decide", user.value(),
              encode_decision(true, DecisionPath::kCacheHit));
  AccessDecision d;
  d.app = app;
  d.user = user;
  d.host = self_;
  d.requested = requested;
  d.decided = env_.now();
  d.allowed = true;
  d.path = DecisionPath::kCacheHit;
  d.basis_version = entry->version;
  emit(d);
  return d;
}

void AccessController::join_or_start(AppId app, UserId user, Waiter waiter,
                                     obs::TraceId parent,
                                     sim::TimePoint requested) {
  if (const auto it = sessions_.find(session_key(app, user));
      it != sessions_.end()) {
    obs::record(it->second->trace, obs::SpanKind::kInstant, self_, env_.now(),
                "check.join", user.value(), static_cast<std::int64_t>(parent));
    it->second->waiters.push_back(std::move(waiter));
    return;
  }
  start_session(app, user, std::move(waiter), parent, requested);
}

void AccessController::start_session(AppId app, UserId user, Waiter waiter,
                                     obs::TraceId parent,
                                     sim::TimePoint requested) {
  const ns::ManagerSet* record = resolver_.resolve(app, local_now());

  const std::vector<HostId>* managers =
      record != nullptr ? &record->managers : nullptr;

  if (managers == nullptr || managers->empty()) {
    AccessDecision d;
    d.app = app;
    d.user = user;
    d.host = self_;
    d.requested = requested;
    d.decided = env_.now();
    d.allowed = config_.exhausted_policy == ExhaustedPolicy::kAllow;
    d.path = d.allowed ? DecisionPath::kDefaultAllow
                       : DecisionPath::kUnverifiableDeny;
    d.reason = d.allowed ? DenyReason::kNone : DenyReason::kUnverifiable;
    emit(d);
    answer(waiter, d);
    return;
  }

  // With byzantine_slack = f, C + f responders guarantee an intersection of
  // at least f + 1 with every completed update quorum: at least one honest
  // responder has seen every completed update, so freshest-wins still reads
  // current state past up to f liars. Refusing to decide on fewer IS the
  // defense: capping at a smaller manager set would let <= f liars decide
  // alone (a reconfiguration down to one compromised manager could then
  // serve a stale grant forever). A set too small to ever assemble C + f
  // exhausts to the configured policy — availability, never the Te bound.
  const int needed =
      config_.byzantine_slack > 0
          ? config_.check_quorum + config_.byzantine_slack
          : std::min<int>(config_.check_quorum,
                          static_cast<int>(managers->size()));
  if (free_sessions_.empty()) {
    session_slots_.push_back(std::make_unique<CheckSession>(env_));
    free_sessions_.push_back(session_slots_.back().get());
  }
  CheckSession& s = *free_sessions_.back();
  free_sessions_.pop_back();
  s.app = app;
  s.user = user;
  s.started = requested;
  s.query_id = 0;
  s.attempts = 0;
  s.managers.assign(managers->begin(), managers->end());
  s.responders.set_needed(needed);  // begin_attempt clears the votes
  s.any_reply = false;
  s.conflict = false;
  s.trace = obs::mint(obs::TraceKind::kCheck, self_, next_trace_seq_++);
  s.waiters.push_back(std::move(waiter));
  obs::record(s.trace, obs::SpanKind::kBegin, self_, env_.now(),
              "check.begin", user.value(), static_cast<std::int64_t>(parent));
  insert_node(sessions_, s.session_node, session_key(app, user), &s);
  begin_attempt(s);
}

void AccessController::begin_attempt(CheckSession& s) {
  if (const auto it = query_to_session_.find(s.query_id);
      it != query_to_session_.end()) {
    s.query_node = query_to_session_.extract(it);
  }
  s.query_id = next_query_id_++;
  insert_node(query_to_session_, s.query_node, s.query_id, &s);
  s.attempt_sent = env_.now();
  s.responders.reset();
  s.best_rights = acl::RightSet{};
  s.best_version = acl::Version{};
  s.best_expiry = sim::Duration{};
  s.scanned = 0;
  s.hedged = false;

  // First wave: a quorum's worth of managers. The session's one timer fires
  // first at the hedge deadline if any manager is left to widen to.
  send_queries(s, static_cast<std::size_t>(s.responders.needed()));
  if (s.scanned == s.managers.size()) {
    s.timer.arm(config_.query_timeout, [this, &s] { on_attempt_timeout(s); });
    return;
  }
  const sim::Duration cap = config_.query_timeout / 2;
  s.timer.arm(srtt_ ? std::min(std::max(2 * *srtt_, kMinHedgeDelay), cap) : cap,
              [this, &s] { on_hedge(s); });
}

void AccessController::send_queries(CheckSession& s, std::size_t limit) {
  // The window moves on by a quorum per retry, so repeated failures try
  // "different managers" (Fig. 2's loop).
  const std::size_t m = s.managers.size();
  const auto needed = static_cast<std::size_t>(s.responders.needed());
  const std::size_t start =
      (first_wave_start(m) + static_cast<std::size_t>(s.attempts) * needed) % m;
  // Quarantined managers are not queried: their replies would be ignored
  // anyway, and skipping them gives honest managers the attempt's airtime.
  // If every manager is benched the attempt sends nothing and times out into
  // the exhausted policy — an unverifiable access, which is the safe reading.
  const clk::LocalTime bench_now = local_now();
  const auto msg =
      net::make_message<QueryRequest>(s.app, s.user, s.query_id, s.trace);
  static obs::Counter& queries_sent =
      obs::Registry::global().counter("wan_queries_sent_total");
  for (std::size_t sent = 0; s.scanned < m && sent < limit; ++s.scanned) {
    const std::size_t at = start + s.scanned;  // < 2m
    const HostId target = s.managers[at < m ? at : at - m];
    if (quarantined(target, bench_now)) {
      ++hardening_.queries_suppressed;
      continue;
    }
    obs::record(s.trace, obs::SpanKind::kSend, self_, env_.now(), "query.send",
                target.value(), s.attempts);
    queries_sent.inc();
    net_.send(self_, target, msg);
    ++sent;
  }
}

void AccessController::on_hedge(CheckSession& s) {
  s.hedged = true;
  obs::record(s.trace, obs::SpanKind::kTimer, self_, env_.now(), "check.hedge",
              s.attempts);
  static obs::Counter& hedges =
      obs::Registry::global().counter("wan_query_hedges_total");
  hedges.inc();
  send_queries(s, s.managers.size());
  s.timer.arm(std::max(sim::Duration{},
                       s.attempt_sent + config_.query_timeout - env_.now()),
              [this, &s] { on_attempt_timeout(s); });
}

void AccessController::handle_query_response(HostId from,
                                             const QueryResponse& resp) {
  // Counted before the session lookup: a reply to an attempt that already
  // decided or timed out (the slower half of a hedged attempt) still
  // arrived, and a query it answers must not look lost.
  static obs::Counter& replies =
      obs::Registry::global().counter("wan_query_replies_total");
  replies.inc();
  const auto qit = query_to_session_.find(resp.query_id);
  if (qit == query_to_session_.end()) return;  // stale attempt (Fig. 3 timer)
  CheckSession& s = *qit->second;
  WAN_ASSERT(resp.app == s.app && resp.user == s.user);
  obs::record(s.trace, obs::SpanKind::kRecv, self_, env_.now(), "query.recv",
              from.value(),
              static_cast<std::int64_t>(resp.version.counter));
  // Only the managers this session queried may vote: the paper's trust model
  // authenticates manager traffic, so a response from anyone else is forged.
  if (std::find(s.managers.begin(), s.managers.end(), from) ==
      s.managers.end()) {
    WAN_WARN << to_string(self_) << " dropped QueryResponse from non-manager "
             << to_string(from);
    return;
  }

  if (!admit_reply(from, resp)) return;

  acl::RightSet rights = resp.rights;
  acl::Version version = resp.version;
  // Deny floor: a grant claim at or below a deny this host already saw
  // (clean quorum deny or RevokeNotify) is the signature move of a stale-
  // store liar. The host's own evidence supersedes the claim — the reply is
  // downgraded to a deny vote at the floor version, so it still counts toward
  // the quorum (an honest-but-lagging manager must not starve assembly) but
  // can never be the allow the liar wanted. Only active under a Byzantine
  // threat model (slack > 0): an honest lagging manager's stale grant is the
  // same wire bytes, and honouring it during a revoke's in-flight window is
  // paper-legal availability the crash-only configuration must keep. Lie
  // resistance trades availability; it never gets to trade it for free.
  if (config_.byzantine_slack > 0 && rights.has(acl::Right::kUse)) {
    if (const auto fit = deny_floor_.find(user_key(resp.app, resp.user));
        fit != deny_floor_.end() && version <= fit->second) {
      ++hardening_.stale_replies_discarded;
      rights = acl::RightSet{};
      version = fit->second;
    }
  }

  const bool claims_use = rights.has(acl::Right::kUse);
  // Clamp the advertised lifetime to this host's own configured te: a liar
  // must not be able to stretch a cache entry past the bound the host's
  // application chose.
  const sim::Duration expiry =
      std::min(resp.expiry_period, config_.expiry_period());
  if (!s.any_reply || version > s.best_version) {
    s.best_version = version;
    s.best_rights = rights;
    s.best_expiry = expiry;
  } else if (version == s.best_version &&
             claims_use != s.best_rights.has(acl::Right::kUse)) {
    // Contradictory rights at the SAME version: quorum intersection makes an
    // honest pair impossible, so one of the two lied — and the host cannot
    // tell which. Deny is the side that cannot break the Te bound; the
    // decision is flagged so the version oracle knows its basis is tainted.
    s.conflict = true;
    ++hardening_.conflicting_replies;
    if (!claims_use) {
      s.best_rights = rights;
      s.best_expiry = expiry;
    }
  }
  s.any_reply = true;
  if (!s.responders.record(from)) return;

  // Check quorum assembled; freshest response decides. The update quorum
  // (M - C + 1) guarantees at least one responder saw any completed update.
  // Fig. 3's delta: the host measures the whole attempt round trip on its
  // own clock. It also sets the hedge delay, sampled only from attempts that
  // did not hedge (Karn's rule: a hedged attempt's round trip mixes waves).
  const clk::LocalTime now_local = local_now();
  const sim::Duration delta = now_local - clock_.skew().now(s.attempt_sent);
  if (!s.hedged) srtt_ = srtt_ ? *srtt_ + (delta - *srtt_) / 8 : delta;
  if (s.best_rights.has(acl::Right::kUse)) {
    // Cache with delta subtracted: an upper bound on the response's age,
    // which only shortens the entry.
    AppState* state = app_state(s.app);
    WAN_ASSERT(state != nullptr);
    const sim::Duration remaining = s.best_expiry - delta;
    if (remaining > sim::Duration{}) {
      state->cache.insert(s.user, s.best_rights, now_local + remaining,
                          s.best_version, now_local);
    }
    finish_session(s, true, DecisionPath::kQuorumGranted, DenyReason::kNone);
  } else {
    // A clean quorum deny at a real version is authoritative evidence: any
    // later grant claim at or below it contradicts a completed update. A
    // conflicted quorum's version is tainted and must not raise the floor —
    // the deny side of the contradiction may itself be the lie.
    if (!s.conflict && !s.best_version.initial()) {
      acl::Version& floor = deny_floor_[user_key(s.app, s.user)];
      if (s.best_version > floor) floor = s.best_version;
    }
    finish_session(s, false, DecisionPath::kQuorumDenied,
                   DenyReason::kNotAuthorized);
  }
}

bool AccessController::quarantined(HostId manager, clk::LocalTime now) const {
  // offenses gates the comparison: local clocks may legitimately read
  // negative (arbitrary per-host epoch offsets), so the zero-valued
  // quarantined_until of a fresh, innocent profile must not look like a
  // bench that extends past `now`.
  const auto it = profiles_.find(manager);
  return it != profiles_.end() && it->second.offenses > 0 &&
         now < it->second.quarantined_until;
}

void AccessController::quarantine(HostId manager, clk::LocalTime now) {
  ManagerProfile& prof = profiles_[manager];
  const std::uint32_t shift = std::min<std::uint32_t>(prof.offenses, 5);
  ++prof.offenses;
  prof.quarantined_until =
      now + sim::Duration::nanos(kQuarantineBackoff.count_nanos() << shift);
  ++hardening_.quarantines_imposed;
  WAN_WARN << to_string(self_) << " quarantines manager "
           << to_string(manager) << " (offense " << prof.offenses << ")";
}

bool AccessController::manager_quarantined(HostId manager) const {
  return quarantined(manager, clock_.local_now());
}

bool AccessController::admit_reply(HostId from, const QueryResponse& resp) {
  const clk::LocalTime now = local_now();
  if (quarantined(from, now)) {
    ++hardening_.quarantined_replies_ignored;
    return false;
  }
  const std::uint64_t key = user_key(resp.app, resp.user);
  const bool claims_use = resp.rights.has(acl::Right::kUse);

  // Self-consistency: a manager's use register is an LWW cell, so the version
  // in a reply fully determines the use bit — two replies from the SAME
  // manager at the SAME version with different bits is something no honest
  // manager produces under any schedule, and benches the sender for a backoff
  // window. (Version *regressions* are NOT evidence: the network can reorder
  // one manager's in-flight replies, and a crash-recovered manager honestly
  // regresses past updates that never completed a quorum. Those replies are
  // admitted; the deny floor below separately defuses stale grants.)
  ManagerProfile& prof = profiles_[from];
  if (const auto it = prof.reported.find(key); it != prof.reported.end()) {
    const ManagerReport& prev = it->second;
    if (resp.version == prev.version && claims_use != prev.claims_use) {
      ++hardening_.self_inconsistent_replies;
      quarantine(from, now);
      return false;
    }
  }
  prof.reported[key] = ManagerReport{resp.version, claims_use};
  return true;
}

void AccessController::on_attempt_timeout(CheckSession& s) {
  ++s.attempts;
  obs::record(s.trace, obs::SpanKind::kTimer, self_, env_.now(),
              "check.timeout", s.attempts);
  static obs::Counter& timeouts =
      obs::Registry::global().counter("wan_check_attempt_timeouts_total");
  timeouts.inc();
  if (config_.max_attempts > 0 && s.attempts >= config_.max_attempts) {
    if (config_.exhausted_policy == ExhaustedPolicy::kAllow) {
      // Fig. 4: "when attempt to verify access right has failed R times,
      // allow access". No authoritative information exists, so nothing is
      // cached — the next invocation re-verifies.
      finish_session(s, true, DecisionPath::kDefaultAllow, DenyReason::kNone);
    } else {
      finish_session(s, false, DecisionPath::kUnverifiableDeny,
                     DenyReason::kUnverifiable);
    }
    return;
  }
  begin_attempt(s);
}

void AccessController::finish_session(CheckSession& s, bool allowed,
                                      DecisionPath path, DenyReason reason) {
  // Take the session out of the maps before invoking waiters: a waiter may
  // immediately issue another check_access for the same (app, user), which
  // must start a fresh session (in another slot).
  detach(s);
  obs::record(s.trace, obs::SpanKind::kDecision, self_, env_.now(),
              "check.decide", s.user.value(), encode_decision(allowed, path));

  AccessDecision d;
  d.app = s.app;
  d.user = s.user;
  d.host = self_;
  d.requested = s.started;
  d.decided = env_.now();
  d.allowed = allowed;
  d.path = path;
  d.reason = reason;
  d.attempts = s.attempts + (path == DecisionPath::kQuorumGranted ||
                                     path == DecisionPath::kQuorumDenied
                                 ? 1
                                 : 0);
  d.basis_version = s.best_version;
  d.conflicting_replies = s.conflict;
  // One decision record per coalesced invocation: each represents a user
  // access, and the metrics layer weights availability by accesses.
  for (std::size_t i = 0; i < s.waiters.size(); ++i) emit(d);
  for (const Waiter& waiter : s.waiters) answer(waiter, d);
  release_session(s);
}

void AccessController::detach(CheckSession& s) {
  s.session_node = sessions_.extract(session_key(s.app, s.user));
  s.query_node = query_to_session_.extract(s.query_id);
  s.timer.cancel();
}

void AccessController::release_session(CheckSession& s) {
  s.waiters.clear();
  free_sessions_.push_back(&s);
}

bool AccessController::sender_is_manager(AppId app, HostId from) {
  const auto managers = resolver_.resolve(app, local_now());
  return managers && std::find(managers->managers.begin(),
                               managers->managers.end(),
                               from) != managers->managers.end();
}

void AccessController::handle_revoke(HostId from, const RevokeNotify& msg) {
  // Only genuine managers may flush the cache — otherwise any host could
  // deny service to arbitrary users with spoofed RevokeNotify datagrams.
  if (!sender_is_manager(msg.app, from)) {
    WAN_WARN << to_string(self_) << " dropped RevokeNotify from non-manager "
             << to_string(from);
    return;
  }
  // Fig. 2: flush unconditionally. If the user was meanwhile re-granted, the
  // flush only costs one re-check — safe for security, cheap for availability.
  // The flush span lands on the *issuing manager's* update trace, closing the
  // revocation chain at each notified host.
  obs::record(msg.trace, obs::SpanKind::kRecv, self_, env_.now(),
              "revoke.flush", msg.user.value(),
              static_cast<std::int64_t>(msg.version.counter));
  static obs::Counter& flushes =
      obs::Registry::global().counter("wan_revoke_flushes_total");
  flushes.inc();
  if (AppState* state = app_state(msg.app)) {
    state->cache.remove_on_revoke(msg.user);
  }
  // The notify is authoritative deny evidence at its version: remember it so
  // a lying manager's stale grant replies at or below it are discarded.
  if (!msg.version.initial()) {
    acl::Version& floor = deny_floor_[user_key(msg.app, msg.user)];
    if (msg.version > floor) floor = msg.version;
  }
  net_.send(self_, from,
            net::make_message<RevokeNotifyAck>(msg.app, msg.user, msg.version));
}

void AccessController::crash() {
  up_ = false;
  while (!sessions_.empty()) {
    CheckSession& s = *sessions_.begin()->second;
    detach(s);
    release_session(s);
  }
  for (auto& [app, state] : apps_) state.cache.clear();
  // Hardening memory (reports, floors, benches) is volatile like the cache;
  // the stats ledger survives, like any metrics counter would.
  profiles_.clear();
  deny_floor_.clear();
  srtt_.reset();
  authenticator_.reset();
  resolver_.clear();
  sweep_timer_.stop();
}

void AccessController::recover() {
  // §3.4: "ACL_cache(A) can simply be initialized to null and refilled using
  // the normal algorithm" — crash() already dropped it; nothing to restore.
  up_ = true;
  sweep_timer_.start(config_.cache_sweep_period, [this] { sweep_tick(); });
}

void AccessController::emit(const AccessDecision& d) {
  decision_counter(d.path).inc();
  static obs::Histo& latency =
      obs::Registry::global().histogram("wan_check_latency_seconds");
  latency.observe(d.decided - d.requested);
  if (observer_) observer_(d);
}

}  // namespace wan::proto
