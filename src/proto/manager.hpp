// Manager side of the protocol (§3.1, §3.3, §3.4).
//
// A manager holds the authoritative ACL for each application it manages and
// implements:
//
//  * Add/Revoke operations with *persistent dissemination*: the update is
//    retransmitted to every peer manager until acknowledged. The operation's
//    guarantee point is when an update quorum (M - C + 1 managers, counting
//    the issuer) has acknowledged — from then on, at most Te passes before
//    the operation is globally effective.
//  * The grant table: per user, the set of application hosts this manager has
//    granted cached rights to. On revocation (locally issued or received from
//    a peer) the manager forwards RevokeNotify to exactly those hosts and
//    retries until acked — or until the right would have expired anyway, at
//    which point retrying is pointless and stops (§3.4).
//  * The freeze strategy (§3.3 alternative): with heartbeats tracking peer
//    reachability on the local clock, the manager refuses to answer host
//    queries while any peer has been silent longer than Ti (scaled by the
//    clock bound b), guaranteeing the time bound without quorums at the cost
//    of availability.
//  * Crash recovery: the ACL is volatile; a recovering manager re-syncs by
//    merging snapshots from C distinct peers before answering queries. Any
//    update that completed its quorum of M - C + 1 managers is present in at
//    least M - C of the M - 1 peers, and any C-subset of peers intersects
//    that set. (Degenerate cases: with M == 1 there are no peers and the
//    store simply restarts empty; with C == M the required C peers do not
//    exist, so we sync from all M - 1 — an update acknowledged only by the
//    crashed issuer can then be lost, which is the price the paper's C == M
//    corner pays without stable storage. Expiry still bounds the damage.)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acl/store.hpp"
#include "clock/local_clock.hpp"
#include "proto/config.hpp"
#include "proto/dissemination.hpp"
#include "proto/messages.hpp"
#include "quorum/quorum.hpp"
#include "runtime/env.hpp"
#include "util/rng.hpp"

namespace wan::proto {

class ManagerJournal;

/// Result of a manager Add/Revoke operation, reported when the update quorum
/// is assembled (the paper's blocking call "returning").
struct UpdateOutcome {
  AppId app{};
  acl::AclUpdate update{};
  sim::TimePoint issued_at{};
  sim::TimePoint quorum_at{};
  int acks_at_quorum = 0;  ///< managers (incl. issuer) acked at quorum time
};

using UpdateCallback = std::function<void(const UpdateOutcome&)>;

class ManagerModule : private Disseminator::Sink {
 public:
  ManagerModule(HostId self, runtime::Env& env, clk::LocalClock clock,
                ProtocolConfig config);
  ~ManagerModule();
  ManagerModule(const ManagerModule&) = delete;
  ManagerModule& operator=(const ManagerModule&) = delete;

  /// Declares that this manager manages `app`; `managers` is the full set
  /// Managers(app) including this manager. check_quorum must be <= M.
  void manage_app(AppId app, std::vector<HostId> managers);

  /// Applies a manager-set change (§3.2: the set "changes relatively
  /// infrequently" and is published through the trusted name service; hosts
  /// pick it up when their cached resolution expires). Call on every member
  /// of the NEW set after updating the name service:
  ///  * an existing member keeps its store and prunes departed peers from
  ///    in-flight transactions;
  ///  * a newcomer starts unsynced and recovers state from C peers before
  ///    answering queries (same machinery as crash recovery).
  /// Departed managers should call forget_app().
  void reconfigure_app(AppId app, std::vector<HostId> managers);

  /// Stops managing `app` entirely (the manager left the set).
  void forget_app(AppId app);

  /// The paper's Add(A,U,R) / Revoke(A,U,R). Two phases:
  ///  1. version read — collect the freshest store version from a check
  ///     quorum of C managers (self included), so the new update's version
  ///     dominates every previously *completed* update (see VersionQuery);
  ///  2. persistent dissemination with update-quorum acknowledgment.
  /// `done` fires when the update quorum is reached (the guarantee point);
  /// dissemination to remaining managers continues in the background. Under
  /// a partition that denies even the read quorum, the operation simply
  /// blocks (retrying) until connectivity returns — the paper's blocking
  /// semantics.
  void submit_update(AppId app, acl::Op op, UserId user, acl::Right right,
                     UpdateCallback done = nullptr);

  /// Network receive entry point.
  void on_message(HostId from, const net::MessagePtr& msg);

  /// Attaches a durable journal (proto/journal.hpp) and replays its records
  /// into the stores of currently-managed apps — call after manage_app() and
  /// before the node starts answering. Every subsequent store mutation
  /// (local issue, peer dissemination, sync merge) is appended to the
  /// journal before the manager acts on the result, and the journal is
  /// compacted to a snapshot once the log grows past a threshold. Replayed
  /// records also restore the version-stamp floor for updates this manager
  /// issued, so a restarted manager never reissues a stamp. The grant table
  /// is deliberately NOT journaled: a restarted manager that forgot a grant
  /// merely fails to forward one revocation, and the paper's Te expiry
  /// already bounds that exposure (§3.4) — the resync it runs on restart
  /// (gated on ManagerJournal::had_state()) restores the ACL itself exactly.
  /// Non-owning; pass nullptr to detach. Returns records replayed.
  std::size_t attach_journal(ManagerJournal* journal);

  /// Crash: the whole manager state is volatile (§3.4).
  void crash();
  /// Recovery: re-syncs every managed app before answering queries.
  void recover();

  /// Administrative anti-entropy: re-runs the recovery sync (pull snapshots
  /// from peers, merge, push the merge back) without a crash. Operators run
  /// this after an incident to re-converge updates stranded by issuer
  /// crashes; the chaos harness runs it at quiescence for the same reason.
  /// No-op while down, unsynced, or peerless.
  void resync(AppId app);

  [[nodiscard]] bool up() const noexcept { return up_; }
  [[nodiscard]] HostId id() const noexcept { return self_; }

  /// Whether the freeze strategy currently suppresses responses for `app`.
  /// Honours debug_override_frozen(); protocol code routes through this.
  [[nodiscard]] bool frozen(AppId app) const;
  /// The honest §3.3 computation only: has any tracked peer been silent
  /// longer than the local threshold? Ignores the debug override — the chaos
  /// oracle uses this as ground truth when auditing frozen().
  [[nodiscard]] bool frozen_by_silence(AppId app) const;
  /// Local-clock silence threshold at which frozen_by_silence trips (Ti / b).
  [[nodiscard]] sim::Duration freeze_threshold() const;
  /// Test hook: forces frozen() to the given value (nullopt restores the
  /// honest computation). Exists so freeze-oracle self-tests can plant a
  /// manager that answers while it should be frozen, or reports unfrozen
  /// while a peer is long silent, and prove the oracle catches both.
  void debug_override_frozen(std::optional<bool> forced) {
    debug_frozen_ = forced;
  }
  /// Whether this manager is synced (false while recovering).
  [[nodiscard]] bool synced(AppId app) const;

  /// Per-peer silence on this manager's local clock (freeze diagnostics; the
  /// oracle's premature-unfreeze check reads it). `tracked == false` means
  /// the peer is in Managers(app) but missing from the silence bookkeeping —
  /// itself a freeze bug, since an untracked peer can never freeze us.
  struct PeerSilence {
    HostId peer{};
    bool tracked = false;
    sim::Duration silence{};
  };
  [[nodiscard]] std::vector<PeerSilence> peer_silences(AppId app) const;

  // --- compromise injection (chaos harness) --------------------------------
  // A Byzantine manager keeps its pre-flip store but stops cooperating:
  //  * host check queries get stale or inverted grant/deny answers (or
  //    silence), all derived from the frozen store — the trust model signs
  //    ACL updates at the admin, so a liar can misreport rights it holds but
  //    cannot fabricate versions it never saw;
  //  * peer updates are dropped, or mis-acked with a mangled txn id the
  //    issuer will not recognize — a liar never counts toward update quorums;
  //  * version reads and recovery syncs from peers go unanswered, keeping
  //    manager-side quorums all-honest;
  //  * admin submits THROUGH the compromised manager park exactly like
  //    submits on an unsynced one, and release on restore.
  // All lie choices are deterministic in `lie_seed`.

  /// How a Byzantine manager answers host check queries. kSeeded mixes the
  /// others pseudo-randomly; the fixed modes exist for deterministic tests.
  enum class LieMode : std::uint8_t {
    kSeeded,      ///< draw silent/stale/invert per query from lie_seed
    kStale,       ///< answer honestly from the frozen (stale) store
    kInvert,      ///< flip the use right, version kept from the store
    kSilent,      ///< never answer
    kHugeExpiry,  ///< stale answer advertising a 64x expiry period
  };

  void set_byzantine(std::uint64_t lie_seed, LieMode mode = LieMode::kSeeded);
  /// Back to honest operation with whatever (stale) store survived; parked
  /// submits are released. State is kept — this is remediation, not
  /// reimaging (crash()/recover() models the latter and also clears the flag).
  void restore_honest();
  [[nodiscard]] bool byzantine() const noexcept { return byzantine_; }

  /// One record per QueryResponse this manager actually sends (honest or
  /// lying); the freeze oracle audits answered-while-frozen through it.
  struct QueryAnswerEvent {
    AppId app{};
    UserId user{};
    HostId host{};  ///< the asking host
    acl::Version version{};
    bool frozen_by_silence = false;  ///< honest §3.3 reading at send time
    bool synced = true;
    bool byzantine = false;
  };
  void set_response_observer(std::function<void(const QueryAnswerEvent&)> obs) {
    response_observer_ = std::move(obs);
  }

  [[nodiscard]] const acl::AclStore* store(AppId app) const;

  /// Hosts currently in the grant table for (app, user) — test/diag hook.
  [[nodiscard]] std::vector<HostId> granted_hosts(AppId app, UserId user) const;

  /// Count of in-flight originated updates (diagnostics).
  [[nodiscard]] std::size_t inflight_updates(AppId app) const;

  /// Revocations still fanning out (all apps) — owned by the disseminator
  /// (proto/dissemination.hpp).
  [[nodiscard]] std::size_t inflight_revocations() const {
    return disseminator_.inflight();
  }

 private:
  struct PendingRead {
    acl::Op op = acl::Op::kAdd;
    UserId user{};
    acl::Right right = acl::Right::kUse;
    UpdateCallback done;
    sim::TimePoint issued{};
    quorum::QuorumTracker readers;
    acl::Version max_seen{};
    obs::TraceId trace = 0;  ///< the update's causal chain (minted at submit)
    runtime::Timer retry;

    PendingRead(int quorum, runtime::Env& env)
        : readers(quorum), retry(env.make_timer()) {}
  };

  struct Txn {
    acl::AclUpdate update{};
    std::uint64_t txn_id = 0;
    sim::TimePoint issued{};
    quorum::QuorumTracker acks;
    std::set<HostId> pending_peers;
    UpdateCallback done;
    bool quorum_fired = false;
    obs::TraceId trace = 0;  ///< inherited from the PendingRead
    runtime::Timer retry;

    Txn(int quorum, runtime::Env& env) : acks(quorum), retry(env.make_timer()) {}
  };

  struct DeferredSubmit {
    acl::Op op = acl::Op::kAdd;
    UserId user{};
    acl::Right right = acl::Right::kUse;
    UpdateCallback done;
  };

  struct AppCtl {
    std::vector<HostId> managers;  ///< full set, incl. self
    std::vector<HostId> peers;     ///< managers minus self
    int check_quorum = 1;
    acl::AclStore store;
    std::map<UserId, std::set<HostId>> grant_table;
    std::unordered_map<std::uint64_t, std::unique_ptr<PendingRead>> reads;
    std::unordered_map<std::uint64_t, std::unique_ptr<Txn>> txns;
    std::unordered_map<HostId, clk::LocalTime> last_heard;  ///< freeze input
    bool synced = true;
    /// Operations submitted while recovering (§3.4: an unsynced manager can
    /// vouch for nothing, not even its own version floor); issued in order
    /// once the sync completes. The paper's blocking call simply waits.
    std::vector<DeferredSubmit> deferred_submits;
    std::uint64_t sync_id = 0;
    std::unique_ptr<quorum::QuorumTracker> sync_votes;
    std::unique_ptr<runtime::Timer> sync_timer;
    std::unique_ptr<runtime::PeriodicTimer> heartbeat;
    std::uint64_t heartbeat_seq = 0;
  };

  void handle_query(HostId from, const QueryRequest& q);
  void byzantine_on_message(HostId from, const net::MessagePtr& msg);
  void byzantine_answer_query(HostId from, const QueryRequest& q);
  void flush_deferred_submits();
  void handle_version_reply(HostId from, const VersionReply& m);
  void retransmit_read(AppId app, std::uint64_t read_id);
  void issue_write(AppId app, std::unique_ptr<PendingRead> read);
  void handle_update(HostId from, const UpdateMsg& m);
  void handle_update_ack(HostId from, const UpdateAck& m);
  void handle_sync_request(HostId from, const SyncRequest& m);
  void handle_sync_response(HostId from, const SyncResponse& m);
  void handle_sync_push(HostId from, const SyncPush& m);
  /// Records a sync vote from `from`; on quorum, completes the recovery.
  void record_sync_vote(AppId app, AppCtl& ctl, HostId from);
  void push_snapshot(AppId app, AppCtl& ctl);

  void start_revoke_forwarding(AppId app, AppCtl& ctl, UserId user,
                               acl::Version version, obs::TraceId trace);
  void retransmit_txn(AppId app, std::uint64_t txn_id);
  // Disseminator::Sink — the disseminator's way back into the manager.
  void send(HostId to, const net::MessagePtr& msg) override;
  void delivered(AppId app, HostId host, UserId user,
                 acl::Version version) override;
  /// The journaled mutation path: AclStore::apply plus, when a journal is
  /// attached and the update changed a register, a durable append (and a
  /// compaction check). Every store mutation site routes through this or
  /// merge_snapshot() so durable state can never miss an applied update.
  bool apply_update(AppId app, AppCtl& ctl, const acl::AclUpdate& update);
  /// Journaled AclStore::merge (a merge is a loop of applies); returns the
  /// number of registers changed.
  std::size_t merge_snapshot(AppId app, AppCtl& ctl,
                             const std::vector<acl::AclUpdate>& snapshot);
  void maybe_compact(AppId app, AppCtl& ctl);

  void begin_sync(AppId app, AppCtl& ctl);
  void sync_round(AppId app);
  void start_heartbeats(AppId app, AppCtl& ctl);
  void note_peer(AppCtl& ctl, HostId peer);
  /// Manager-to-manager messages are only honoured from genuine peers (the
  /// paper's model authenticates manager traffic; crash-only managers never
  /// lie, so anything else claiming to be one is an outsider).
  [[nodiscard]] static bool is_peer(const AppCtl& ctl, HostId from) noexcept;
  [[nodiscard]] int update_quorum(const AppCtl& ctl) const noexcept {
    return static_cast<int>(ctl.managers.size()) - ctl.check_quorum + 1;
  }
  [[nodiscard]] clk::LocalTime local_now() const {
    return clock_.local_now();
  }

  AppCtl* ctl_of(AppId app);
  const AppCtl* ctl_of(AppId app) const;

  HostId self_;
  runtime::Env& env_;
  runtime::Transport& net_;
  runtime::Clock clock_;
  ProtocolConfig config_;
  bool up_ = true;
  bool byzantine_ = false;
  ManagerJournal* journal_ = nullptr;  ///< non-owning; nullptr == volatile
  LieMode lie_mode_ = LieMode::kSeeded;
  Rng lie_rng_{0};
  /// Revocation fan-out (owns all in-flight revoke state, which crash()
  /// drops via shutdown()).
  Disseminator disseminator_;
  std::optional<bool> debug_frozen_;
  std::function<void(const QueryAnswerEvent&)> response_observer_;

  std::map<AppId, AppCtl> apps_;
  /// Floor for version issue stamps: strictly increasing per issued update
  /// and across crash/recover. Deliberately NOT wiped by crash() — it stands
  /// in for the local hardware clock, which keeps ticking through a crash
  /// (the same property LocalClock has; the floor only adds tie-breaking for
  /// same-instant issues).
  std::int64_t version_stamp_ = 0;
  std::uint64_t next_txn_id_ = 1;
  std::uint64_t next_sync_id_ = 1;
  std::uint64_t next_read_id_ = 1;
  // Minted unconditionally so message-borne trace ids never depend on whether
  // a tracer is installed (traced/untraced runs stay bit-identical).
  std::uint32_t next_trace_seq_ = 1;
};

}  // namespace wan::proto
