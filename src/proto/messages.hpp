// Wire messages of the access-control protocol.
//
// Message flows (paper Figures 1-3, §3.3-3.4):
//
//   user agent -> app host    InvokeRequest / InvokeReply
//   app host  <-> manager     QueryRequest / QueryResponse
//   manager    -> app host    RevokeNotify   (acked with RevokeNotifyAck)
//   manager   <-> manager     UpdateMsg / UpdateAck  (persistent dissemination)
//   manager   <-> manager     SyncRequest / SyncResponse (recovery, §3.4)
//   manager   <-> manager     HeartbeatPing / HeartbeatPong (freeze strategy)
//
// Wire sizes are rough estimates of an early-Internet datagram encoding;
// they only feed the bandwidth-overhead accounting.
//
// Messages that continue a causal chain — invoke -> check (InvokeRequest),
// check -> query (QueryRequest/QueryResponse), update dissemination
// (UpdateMsg), and revocation flush (RevokeNotify) — carry the chain's
// obs::TraceId so spans recorded at the receiving node land on the same
// trace. The field defaults to 0 ("untraced") and adds 8 bytes of wire size,
// the cost of making the propagation timeline observable end to end.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "acl/rights.hpp"
#include "acl/store.hpp"
#include "auth/credentials.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
#include "proto/wire.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::proto {

/// User -> application host: "Invoke(A)" carrying the application payload,
/// authenticated with the user's signature over payload+nonce.
struct InvokeRequest final : net::Message {
  AppId app{};
  UserId user{};
  std::uint64_t request_id = 0;
  std::uint64_t nonce = 0;
  auth::Signature signature{};
  std::string payload;
  obs::TraceId trace = 0;  ///< the agent's invoke chain

  InvokeRequest(AppId a, UserId u, std::uint64_t req, std::uint64_t n,
                auth::Signature sig, std::string body, obs::TraceId tr = 0)
      : app(a), user(u), request_id(req), nonce(n), signature(sig),
        payload(std::move(body)), trace(tr) {}

  WAN_MESSAGE_TYPE("InvokeRequest")
  std::size_t wire_size() const override { return 72 + payload.size(); }
};

/// Why an invocation was rejected (surfaced to the user agent and metrics).
enum class DenyReason : std::uint8_t {
  kNone,             ///< not denied
  kAuthentication,   ///< signature/replay failure
  kNotAuthorized,    ///< managers say the user lacks the "use" right
  kUnverifiable,     ///< could not assemble a check quorum within R attempts
  kUnknownApp,       ///< this host does not run the application
};

[[nodiscard]] const char* to_cstring(DenyReason r) noexcept;

/// Application host -> user.
struct InvokeReply final : net::Message {
  std::uint64_t request_id = 0;
  bool accepted = false;
  DenyReason reason = DenyReason::kNone;
  std::string result;

  InvokeReply(std::uint64_t req, bool ok, DenyReason why, std::string res)
      : request_id(req), accepted(ok), reason(why), result(std::move(res)) {}

  WAN_MESSAGE_TYPE("InvokeReply")
  std::size_t wire_size() const override { return 32 + result.size(); }
};

/// Application host -> manager: "does `user` hold rights on `app`?"
struct QueryRequest final : net::Message {
  AppId app{};
  UserId user{};
  std::uint64_t query_id = 0;  ///< identifies the host's check attempt
  obs::TraceId trace = 0;      ///< the host's check chain

  QueryRequest(AppId a, UserId u, std::uint64_t q, obs::TraceId tr = 0)
      : app(a), user(u), query_id(q), trace(tr) {}

  WAN_MESSAGE_TYPE("QueryRequest")
  std::size_t wire_size() const override { return 48; }
};

/// Manager -> application host. Carries the user's current rights, the
/// version they were last written at, and the local-clock expiration period
/// te the host must apply (extended protocol, Fig. 3).
struct QueryResponse final : net::Message {
  AppId app{};
  UserId user{};
  std::uint64_t query_id = 0;
  acl::RightSet rights;          ///< empty set == no rights / unknown user
  acl::Version version{};        ///< freshest version backing `rights`
  sim::Duration expiry_period{}; ///< te = Te / b
  obs::TraceId trace = 0;        ///< echoed from the QueryRequest

  QueryResponse(AppId a, UserId u, std::uint64_t q, acl::RightSet r,
                acl::Version v, sim::Duration te, obs::TraceId tr = 0)
      : app(a), user(u), query_id(q), rights(r), version(v), expiry_period(te),
        trace(tr) {}

  WAN_MESSAGE_TYPE("QueryResponse")
  std::size_t wire_size() const override { return 64; }
};

/// Manager -> application host: flush `user` from ACL_cache(app) (Fig. 2).
struct RevokeNotify final : net::Message {
  AppId app{};
  UserId user{};
  acl::Version version{};
  obs::TraceId trace = 0;  ///< the issuing manager's update chain

  RevokeNotify(AppId a, UserId u, acl::Version v, obs::TraceId tr = 0)
      : app(a), user(u), version(v), trace(tr) {}

  WAN_MESSAGE_TYPE("RevokeNotify")
  std::size_t wire_size() const override { return 48; }
};

/// Application host -> manager: stops the revoke retransmission loop.
struct RevokeNotifyAck final : net::Message {
  AppId app{};
  UserId user{};
  acl::Version version{};

  RevokeNotifyAck(AppId a, UserId u, acl::Version v) : app(a), user(u), version(v) {}

  WAN_MESSAGE_TYPE("RevokeNotifyAck")
  std::size_t wire_size() const override { return 40; }
};

/// Manager -> manager: persistent dissemination of one ACL update.
struct UpdateMsg final : net::Message {
  AppId app{};
  acl::AclUpdate update{};
  std::uint64_t txn_id = 0;
  obs::TraceId trace = 0;  ///< the issuing manager's update chain

  UpdateMsg(AppId a, acl::AclUpdate u, std::uint64_t t, obs::TraceId tr = 0)
      : app(a), update(u), txn_id(t), trace(tr) {}

  WAN_MESSAGE_TYPE("UpdateMsg")
  std::size_t wire_size() const override { return 64; }
};

/// Manager -> manager: acknowledges an UpdateMsg.
struct UpdateAck final : net::Message {
  AppId app{};
  std::uint64_t txn_id = 0;

  UpdateAck(AppId a, std::uint64_t t) : app(a), txn_id(t) {}

  WAN_MESSAGE_TYPE("UpdateAck")
  std::size_t wire_size() const override { return 24; }
};

/// Manager -> manager: version read for the pre-write quorum. Before issuing
/// an update, a manager reads the freshest version from a *check quorum* of
/// C managers (itself included): any C-subset intersects every completed
/// update's M-C+1 ack set, so the new update's version strictly dominates
/// everything already guaranteed — without this read, a revoke issued at a
/// version-lagging manager could lose the last-writer-wins race against an
/// older grant and never take effect, silently voiding the Te bound.
struct VersionQuery final : net::Message {
  AppId app{};
  std::uint64_t read_id = 0;

  VersionQuery(AppId a, std::uint64_t r) : app(a), read_id(r) {}

  WAN_MESSAGE_TYPE("VersionQuery")
  std::size_t wire_size() const override { return 24; }
};

/// Manager -> manager: the responder's freshest store version.
struct VersionReply final : net::Message {
  AppId app{};
  std::uint64_t read_id = 0;
  acl::Version max_version{};

  VersionReply(AppId a, std::uint64_t r, acl::Version v)
      : app(a), read_id(r), max_version(v) {}

  WAN_MESSAGE_TYPE("VersionReply")
  std::size_t wire_size() const override { return 32; }
};

/// Recovering manager -> peer: "send me your ACL for `app`" (§3.4).
struct SyncRequest final : net::Message {
  AppId app{};
  std::uint64_t sync_id = 0;

  SyncRequest(AppId a, std::uint64_t s) : app(a), sync_id(s) {}

  WAN_MESSAGE_TYPE("SyncRequest")
  std::size_t wire_size() const override { return 24; }
};

/// Peer -> recovering manager: full ACL snapshot.
struct SyncResponse final : net::Message {
  AppId app{};
  std::uint64_t sync_id = 0;
  std::vector<acl::AclUpdate> snapshot;

  SyncResponse(AppId a, std::uint64_t s, std::vector<acl::AclUpdate> snap)
      : app(a), sync_id(s), snapshot(std::move(snap)) {}

  WAN_MESSAGE_TYPE("SyncResponse")
  std::size_t wire_size() const override {
    return 24 + AclSlicePayload::estimate(snapshot.size());
  }
};

/// Recovered manager -> peers: its merged post-sync snapshot, pushed so that
/// updates stranded by an issuer crash (partially disseminated, issuer's
/// retransmission state lost) still reach every member. Pull-only §3.4
/// recovery cannot converge those; the push is the one extra message per peer
/// that can. Best-effort, unacknowledged — the next recovery pushes again.
struct SyncPush final : net::Message {
  AppId app{};
  std::vector<acl::AclUpdate> snapshot;

  SyncPush(AppId a, std::vector<acl::AclUpdate> snap)
      : app(a), snapshot(std::move(snap)) {}

  WAN_MESSAGE_TYPE("SyncPush")
  std::size_t wire_size() const override {
    return 16 + AclSlicePayload::estimate(snapshot.size());
  }
};

/// Manager <-> manager liveness probes for the freeze strategy (§3.3).
struct HeartbeatPing final : net::Message {
  AppId app{};
  std::uint64_t seq = 0;

  HeartbeatPing(AppId a, std::uint64_t s) : app(a), seq(s) {}

  WAN_MESSAGE_TYPE("HeartbeatPing")
  std::size_t wire_size() const override { return 24; }
};

struct HeartbeatPong final : net::Message {
  AppId app{};
  std::uint64_t seq = 0;

  HeartbeatPong(AppId a, std::uint64_t s) : app(a), seq(s) {}

  WAN_MESSAGE_TYPE("HeartbeatPong")
  std::size_t wire_size() const override { return 24; }
};

}  // namespace wan::proto
