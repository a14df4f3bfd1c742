// Collective revocation dissemination — the strategy behind a manager's
// revoke fan-out (§3.1, §3.4).
//
// The reference protocol unicasts one RevokeNotify per cached host per
// revoked right and retransmits until acked or until the right would have
// expired anyway (deadline = issue + Te). At large Hosts(A) that loop is the
// scale frontier: a mass revocation of U rights cached at H hosts costs
// U x H frames. The Disseminator interface makes the loop pluggable:
//
//   * kUnicast   — the reference, frame-for-frame identical to the old
//                  inline loop (pinned by the conformance sweeps);
//   * kCoalesced — buffers (user, version) rights for a small flush window
//                  and sends ONE RevokeBatch per destination, so a storm
//                  costs H frames instead of U x H.
//
// Both strategies send every frame straight from the manager to the host
// that caches the right (Fig. 2): no other host forwards a revocation, so a
// host accepts revocations from managers only.
//
// Both strategies keep the manager's retransmit-until-deadline discipline and
// reports per-(host, right) delivery through Sink::delivered so the owning
// ManagerModule can retire grant-table entries exactly as before. The
// strategy owns all in-flight state; ManagerModule::crash() drops it through
// shutdown() like any other volatile state.
#pragma once

#include <cstddef>
#include <memory>
#include <set>

#include "acl/store.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
#include "runtime/env.hpp"
#include "runtime/env_options.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::proto {

class Disseminator {
 public:
  /// How a strategy talks back to its owning manager. `send` puts a frame on
  /// the wire from the manager's address; `delivered` reports that `host`
  /// confirmed flushing (user, version) — the manager erases the matching
  /// grant-table entry, exactly what the old inline ack handler did.
  struct Sink {
    virtual ~Sink() = default;
    virtual void send(HostId to, const net::MessagePtr& msg) = 0;
    virtual void delivered(AppId app, HostId host, UserId user,
                           acl::Version version) = 0;
  };

  virtual ~Disseminator() = default;

  /// Begins fan-out of the revocation (user, version) to `hosts` (the grant
  /// table's row) on the issuing manager's trace. The strategy retransmits
  /// until every host confirmed or the Te deadline passes.
  virtual void revoke(AppId app, UserId user, acl::Version version,
                      const std::set<HostId>& hosts, obs::TraceId trace) = 0;

  /// Offers an inbound message. Returns true when consumed (an ack kind this
  /// strategy understands — even if it matched no in-flight state), false
  /// when the message is not dissemination traffic.
  virtual bool on_message(HostId from, const net::MessagePtr& msg) = 0;

  /// Rights still awaiting confirmations (test/diag hook).
  [[nodiscard]] virtual std::size_t inflight() const = 0;

  /// Drops in-flight state for one app (the manager left its manager set).
  virtual void drop_app(AppId app) = 0;

  /// Drops all in-flight state (manager crash: everything here is volatile).
  virtual void shutdown() = 0;
};

/// Builds the strategy `kind` names. `te` bounds every fan-out
/// (deadline = now + te at revoke time) and `retransmit_period` paces the
/// retry loop — both come from the manager's ProtocolConfig.
[[nodiscard]] std::unique_ptr<Disseminator> make_disseminator(
    runtime::DisseminationKind kind, HostId self, runtime::Env& env,
    sim::Duration te, sim::Duration retransmit_period, Disseminator::Sink& sink);

}  // namespace wan::proto
