// Revocation dissemination — a manager's revoke fan-out (§3.1, §3.4).
//
// The paper's loop: one RevokeNotify per cached host per revoked right,
// retransmitted until acked or until the right would have expired anyway
// (deadline = issue + Te). Every frame goes straight from the manager to the
// host that caches the right (Fig. 2): no other host forwards a revocation,
// so a host accepts revocations from managers only.
//
// The Disseminator reports per-(host, right) delivery through
// Sink::delivered so the owning ManagerModule can retire grant-table
// entries. It owns all in-flight state; ManagerModule::crash() drops it
// through shutdown() like any other volatile state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "acl/store.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
#include "runtime/env.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::proto {

class Disseminator {
 public:
  /// How the disseminator talks back to its owning manager. `send` puts a
  /// frame on the wire from the manager's address; `delivered` reports that
  /// `host` confirmed flushing (user, version) — the manager erases the
  /// matching grant-table entry.
  struct Sink {
    virtual ~Sink() = default;
    virtual void send(HostId to, const net::MessagePtr& msg) = 0;
    virtual void delivered(AppId app, HostId host, UserId user,
                           acl::Version version) = 0;
  };

  /// `te` bounds every fan-out (deadline = now + te at revoke time) and
  /// `retransmit` paces the retry loop — both come from the manager's
  /// ProtocolConfig.
  Disseminator(HostId self, runtime::Env& env, sim::Duration te,
               sim::Duration retransmit, Sink& sink)
      : self_(self), env_(env), te_(te), retransmit_(retransmit), sink_(sink) {}

  /// Begins fan-out of the revocation (user, version) to `hosts` (the grant
  /// table's row) on the issuing manager's trace, retransmitting until every
  /// host confirmed or the Te deadline passes.
  void revoke(AppId app, UserId user, acl::Version version,
              const std::set<HostId>& hosts, obs::TraceId trace);

  /// Offers an inbound message. Returns true when consumed (a RevokeNotifyAck
  /// — even if it matched no in-flight state), false otherwise.
  bool on_message(HostId from, const net::MessagePtr& msg);

  /// Rights still awaiting confirmations (test/diag hook).
  [[nodiscard]] std::size_t inflight() const { return fwds_.size(); }

  /// Drops in-flight state for one app (the manager left its manager set).
  void drop_app(AppId app);

  /// Drops all in-flight state (manager crash: everything here is volatile).
  void shutdown() { fwds_.clear(); }

 private:
  /// One in-flight right, keyed by (app, user, version counter).
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  static Key key_of(AppId app, UserId user, const acl::Version& v) {
    return {app.value(), user.value(), v.counter};
  }

  struct Fwd {
    AppId app{};
    UserId user{};
    acl::Version version{};
    std::set<HostId> pending;
    sim::TimePoint deadline{};
    obs::TraceId trace = 0;
    runtime::Timer retry;

    explicit Fwd(runtime::Env& env) : retry(env.make_timer()) {}
  };

  void retransmit(Key key);

  HostId self_;
  runtime::Env& env_;
  sim::Duration te_;
  sim::Duration retransmit_;
  Sink& sink_;
  std::map<Key, std::unique_ptr<Fwd>> fwds_;
};

}  // namespace wan::proto
