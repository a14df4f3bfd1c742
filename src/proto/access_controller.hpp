// Host-side access control — the paper's "Access Control" + "Access Control
// Management" components (Figure 1), implementing the extended protocol of
// Figure 3 plus the quorum extension of §3.3 and the high-availability rule
// of Figure 4.
//
// The paper's pseudo-code blocks inside `Invoke`; an event-driven simulator
// cannot block, so the query loop becomes an explicit CheckSession state
// machine: each *attempt* sends QueryRequests to managers, arms the Fig. 3
// timer, counts distinct responders toward the check quorum C, and either
// decides (freshest-version response wins) or retries with the next attempt
// until R attempts are exhausted.
//
// An attempt first asks a quorum's worth of managers (C, or C + f under
// Byzantine slack): the paper's "communication with at least C managers"
// (§4.1). Each host starts that window at its own offset into the manager
// list, and each retry moves it on by a quorum, as Fig. 2's loop tries
// "different managers". If the quorum has not answered by the hedge delay
// (twice the smoothed attempt round trip, at least 1 ms and at most half the
// query timeout), the attempt widens to every other usable manager, so one attempt still
// reaches any C reachable managers: the premise of the paper's PA(C).
//
// Concurrent invocations by the same (app, user) coalesce onto one session —
// an optimization the paper does not discuss but any implementation needs to
// avoid query storms; it is behaviour-preserving because all coalesced
// invocations would have received identical responses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acl/cache.hpp"
#include "auth/authenticator.hpp"
#include "clock/local_clock.hpp"
#include "nameservice/name_service.hpp"
#include "proto/config.hpp"
#include "proto/decision.hpp"
#include "proto/messages.hpp"
#include "quorum/quorum.hpp"
#include "runtime/env.hpp"

namespace wan::proto {

/// Handles an authorized application message; the return value is sent back
/// to the user in the InvokeReply. This is the paper's "Application"
/// component: it never sees unauthorized traffic — the access-control wrapper
/// filters first, which is what lets existing applications be wrapped
/// transparently.
using AppHandler = std::function<std::string(UserId, const std::string& payload)>;

/// Completion callback for a programmatic access check.
using CheckCallback = std::function<void(const AccessDecision&)>;

class AccessController {
 public:
  AccessController(HostId self, runtime::Env& env, clk::LocalClock clock,
                   const ns::NameService& names, const auth::KeyRegistry& keys,
                   ProtocolConfig config);
  ~AccessController();
  AccessController(const AccessController&) = delete;
  AccessController& operator=(const AccessController&) = delete;

  /// Installs the application behind the access-control wrapper.
  void register_app(AppId app, AppHandler handler);

  /// Network receive entry point; wire this as the host's net handler.
  void on_message(HostId from, const net::MessagePtr& msg);

  /// Programmatic access check (used by benches and tests; skips user
  /// authentication, which the paper treats as an orthogonal oracle).
  /// `parent` links the check's trace to an enclosing causal chain (the
  /// invoke path passes the InvokeRequest's trace); 0 = standalone.
  /// `requested` backdates the decision's latency clock to when the work
  /// actually began (the invoke path passes its arrival time, so the
  /// wan_check_latency_seconds histogram includes authentication); unset =
  /// the check starts now.
  void check_access(AppId app, UserId user, CheckCallback done,
                    obs::TraceId parent = 0,
                    std::optional<sim::TimePoint> requested = std::nullopt);

  /// Observer for every decision this host makes (metrics hook).
  void set_decision_observer(std::function<void(const AccessDecision&)> obs) {
    observer_ = std::move(obs);
  }

  /// Crash: all volatile state (caches, sessions, replay floors) is lost.
  /// In-flight invocations die silently, like the host they ran on.
  void crash();

  /// Recovery re-initializes ACL_cache(A) to empty (§3.4) and resumes.
  void recover();

  [[nodiscard]] bool up() const noexcept { return up_; }
  [[nodiscard]] HostId id() const noexcept { return self_; }
  [[nodiscard]] const ProtocolConfig& config() const noexcept { return config_; }

  /// Cache under an app (nullptr if the app is not registered here).
  [[nodiscard]] const acl::AclCache* cache(AppId app) const;

  /// Writable cache handle, for fault injection by the chaos harness and its
  /// oracle self-tests (planting a deliberately broken entry proves the
  /// oracle detects it). Protocol code must never use this.
  [[nodiscard]] acl::AclCache* mutable_cache(AppId app);

  /// Byzantine-hardening counters (reply rejections, quarantines). Survives
  /// crash() — it is a metrics ledger, not protocol state.
  [[nodiscard]] const HardeningStats& hardening_stats() const noexcept {
    return hardening_;
  }

  /// Whether `manager` is currently benched by the self-inconsistency
  /// quarantine (test/diag hook).
  [[nodiscard]] bool manager_quarantined(HostId manager) const;

  /// Where this host's first query wave starts in a manager list of `m`
  /// entries: its own id mod m, so hosts spread their checks over the set.
  [[nodiscard]] std::size_t first_wave_start(std::size_t m) const noexcept {
    return self_.value() % m;
  }

  /// Local clock reading (the paper's Time()).
  [[nodiscard]] clk::LocalTime local_now() const {
    return clock_.local_now();
  }

 private:
  struct AppState {
    AppHandler handler;
    acl::AclCache cache;
  };

  /// One caller waiting on a check: an invocation, answered with an
  /// InvokeReply carrying the application's result, or a check_access
  /// caller. The invocation keeps its request message (and so its payload)
  /// alive until the decision; nothing is copied.
  struct Waiter {
    net::MessagePtr invoke;  ///< the InvokeRequest; null for check_access
    HostId from{};           ///< the invoking user agent
    CheckCallback done;      ///< set for check_access
  };

  struct CheckSession;
  using SessionKey = std::uint64_t;  ///< (app,user) packed
  using SessionMap = std::unordered_map<SessionKey, CheckSession*>;
  using QueryMap = std::unordered_map<std::uint64_t, CheckSession*>;

  /// One check in flight. Slots are reused: a finished session goes back on
  /// free_sessions_ keeping its timer, vectors, tracker capacity and its
  /// two map nodes, so checks at a steady rate allocate nothing.
  struct CheckSession {
    AppId app{};
    UserId user{};
    sim::TimePoint started{};
    sim::TimePoint attempt_sent{};
    std::uint64_t query_id = 0;
    int attempts = 0;
    std::size_t scanned = 0;  ///< positions of this attempt's window tried
    bool hedged = false;      ///< this attempt widened past its first wave
    std::vector<HostId> managers;
    quorum::QuorumTracker responders;
    acl::RightSet best_rights;
    acl::Version best_version{};
    sim::Duration best_expiry{};
    bool any_reply = false;    ///< best_* fields hold a real response
    bool conflict = false;     ///< equal-version contradiction seen (liar present)
    obs::TraceId trace = 0;    ///< this check's causal chain
    std::vector<Waiter> waiters;
    runtime::Timer timer;
    /// This slot's sessions_ / query_to_session_ nodes while they are out of
    /// the maps (empty before the slot's first use).
    SessionMap::node_type session_node;
    QueryMap::node_type query_node;

    explicit CheckSession(runtime::Env& env)
        : responders(0), timer(env.make_timer()) {}
  };

  static SessionKey session_key(AppId app, UserId user) noexcept {
    return (static_cast<std::uint64_t>(app.value()) << 32) | user.value();
  }

  void handle_invoke(HostId from, const net::MessagePtr& msg,
                     const InvokeRequest& req);
  void handle_query_response(HostId from, const QueryResponse& resp);
  void handle_revoke(HostId from, const RevokeNotify& msg);
  /// Whether `from` is a manager of `app` (name-service record) — the trust
  /// gate every revocation message goes through.
  [[nodiscard]] bool sender_is_manager(AppId app, HostId from);
  /// Periodic housekeeping: cache sweep.
  void sweep_tick();

  /// Fig. 3 fast path: the decision, already emitted, when `user` has a live
  /// cache entry with the use right; nullopt when the managers must be asked.
  std::optional<AccessDecision> decide_from_cache(AppState& state, AppId app,
                                                  UserId user,
                                                  obs::TraceId parent,
                                                  sim::TimePoint requested);
  /// Joins the session already checking (app, user), or starts one.
  void join_or_start(AppId app, UserId user, Waiter waiter,
                     obs::TraceId parent, sim::TimePoint requested);
  void start_session(AppId app, UserId user, Waiter waiter,
                     obs::TraceId parent, sim::TimePoint requested);
  void begin_attempt(CheckSession& s);
  /// Queries up to `limit` more usable managers of this attempt's window.
  void send_queries(CheckSession& s, std::size_t limit);
  /// The hedge timer: widens the attempt to the rest of the managers.
  void on_hedge(CheckSession& s);
  void on_attempt_timeout(CheckSession& s);
  void finish_session(CheckSession& s, bool allowed, DecisionPath path,
                      DenyReason reason);
  /// Takes `s` out of both maps (keeping the nodes) and cancels its timer.
  void detach(CheckSession& s);
  /// Drops `s`'s waiters and puts the slot back on free_sessions_; `s` must
  /// be detached.
  void release_session(CheckSession& s);
  /// Delivers a decision to one waiter.
  void answer(const Waiter& w, const AccessDecision& d);
  /// Replies to an invocation: the application's result on allow.
  void answer_invoke(HostId from, const InvokeRequest& req,
                     const AccessDecision& d);
  void emit(const AccessDecision& d);

  AppState* app_state(AppId app);

  // --- Byzantine hardening (tentpole PR: lying managers) -------------------
  // The wire format is unchanged; all defenses are local bookkeeping:
  //  * deny_floor_ remembers the highest version at which this host saw
  //    authoritative deny evidence (a clean quorum deny, or a RevokeNotify);
  //    any later grant claim at or below that version contradicts an update
  //    the host already knows completed, and is downgraded to a deny vote at
  //    the floor version (still counted toward the quorum, never an allow).
  //  * profiles_ remembers each manager's own last (version, use-bit) report
  //    per user; a rights flip at the same version is self-inconsistent —
  //    only a liar does that (honest reorderings and crash recoveries can
  //    regress versions, but never flip the bit a version carries) — and
  //    benches the manager for a backoff window (never queried, replies
  //    ignored).
  //  * equal-version contradictions BETWEEN managers can't identify the liar,
  //    so the session takes the deny side and flags the decision.

  struct ManagerReport {
    acl::Version version{};
    bool claims_use = false;
  };
  struct ManagerProfile {
    std::unordered_map<std::uint64_t, ManagerReport> reported;  ///< by user key
    clk::LocalTime quarantined_until{};
    std::uint32_t offenses = 0;
  };

  static std::uint64_t user_key(AppId app, UserId user) noexcept {
    return (static_cast<std::uint64_t>(app.value()) << 32) | user.value();
  }
  [[nodiscard]] bool quarantined(HostId manager, clk::LocalTime now) const;
  void quarantine(HostId manager, clk::LocalTime now);
  /// Returns false if the reply must be ignored (quarantined sender, stale
  /// grant under the deny floor, or a self-inconsistent report).
  bool admit_reply(HostId from, const QueryResponse& resp);

  HostId self_;
  runtime::Env& env_;
  runtime::Transport& net_;
  runtime::Clock clock_;
  ns::ManagerResolver resolver_;
  auth::Authenticator authenticator_;
  ProtocolConfig config_;
  bool up_ = true;

  std::map<AppId, AppState> apps_;
  /// Every session slot ever made (owner); the slab only grows.
  std::vector<std::unique_ptr<CheckSession>> session_slots_;
  std::vector<CheckSession*> free_sessions_;  ///< idle slots, reused LIFO
  SessionMap sessions_;                       ///< live sessions by (app,user)
  QueryMap query_to_session_;                 ///< live attempt's query id
  std::unordered_map<HostId, ManagerProfile> profiles_;
  std::unordered_map<std::uint64_t, acl::Version> deny_floor_;  ///< by user key

  HardeningStats hardening_;
  /// Smoothed round trip (EWMA, gain 1/8) of attempts that reached their
  /// quorum without hedging; unset until the first such attempt.
  std::optional<sim::Duration> srtt_;
  std::uint64_t next_query_id_ = 1;
  // Minted unconditionally (a plain increment) so the ids riding in messages
  // do not depend on whether a tracer happens to be installed — traced and
  // untraced runs of the same seed stay bit-identical.
  std::uint32_t next_trace_seq_ = 1;
  runtime::PeriodicTimer sweep_timer_;
  std::function<void(const AccessDecision&)> observer_;
};

}  // namespace wan::proto
