#include "proto/wire.hpp"

#include <mutex>

#include "proto/messages.hpp"

namespace wan::proto {
namespace {

using net::WireReader;
using net::WireWriter;

// --- shared field layouts ---------------------------------------------------

void put_version(WireWriter& w, const acl::Version& v) {
  w.u64(v.counter);
  w.host_id(v.origin);
  w.i64(v.stamp);
}

acl::Version get_version(WireReader& r) {
  acl::Version v;
  v.counter = r.u64();
  v.origin = r.host_id();
  v.stamp = r.i64();
  return v;
}

void put_rights(WireWriter& w, acl::RightSet rights) {
  std::uint8_t bits = 0;
  if (rights.has(acl::Right::kUse)) bits |= 1u;
  if (rights.has(acl::Right::kManage)) bits |= 2u;
  w.u8(bits);
}

acl::RightSet get_rights(WireReader& r) {
  const std::uint8_t bits = r.u8();
  if (bits > 3) r.fail();  // only the two paper rights exist
  acl::RightSet rights;
  if (bits & 1u) rights.add(acl::Right::kUse);
  if (bits & 2u) rights.add(acl::Right::kManage);
  return rights;
}

void put_update(WireWriter& w, const acl::AclUpdate& u) {
  w.user_id(u.user);
  w.u8(static_cast<std::uint8_t>(u.right));
  w.u8(static_cast<std::uint8_t>(u.op));
  put_version(w, u.version);
}

acl::AclUpdate get_update(WireReader& r) {
  acl::AclUpdate u;
  u.user = r.user_id();
  const std::uint8_t right = r.u8();
  if (right != static_cast<std::uint8_t>(acl::Right::kUse) &&
      right != static_cast<std::uint8_t>(acl::Right::kManage)) {
    r.fail();
  } else {
    u.right = static_cast<acl::Right>(right);
  }
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(acl::Op::kRevoke)) {
    r.fail();
  } else {
    u.op = static_cast<acl::Op>(op);
  }
  u.version = get_version(r);
  return u;
}

// --- per-type codecs --------------------------------------------------------
//
// Encode writes fields in declaration order; decode mirrors it and validates
// every enum against its legal range, so a flipped bit in flight surfaces as
// a malformed-frame drop instead of an out-of-range enum inside the protocol.

template <typename T>
void reg(const char* type_name, net::WireTag tag,
         void (*encode)(const T&, WireWriter&),
         net::MessagePtr (*decode)(WireReader&)) {
  net::CodecRegistry::global().register_codec(
      tag, net::TypeId::intern(type_name),
      [encode](const net::Message& m, WireWriter& w) {
        encode(static_cast<const T&>(m), w);
      },
      [decode](WireReader& r) { return decode(r); });
}

void do_register() {
  reg<InvokeRequest>(
      "InvokeRequest", kTagInvokeRequest,
      [](const InvokeRequest& m, WireWriter& w) {
        w.app_id(m.app);
        w.user_id(m.user);
        w.u64(m.request_id);
        w.u64(m.nonce);
        w.u64(m.signature.value);
        w.str(m.payload);
        w.u64(m.trace);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const UserId user = r.user_id();
        const std::uint64_t request_id = r.u64();
        const std::uint64_t nonce = r.u64();
        const auth::Signature sig{r.u64()};
        std::string payload = r.str();
        const obs::TraceId trace = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<InvokeRequest>(app, user, request_id, nonce,
                                                sig, std::move(payload), trace);
      });

  reg<InvokeReply>(
      "InvokeReply", kTagInvokeReply,
      [](const InvokeReply& m, WireWriter& w) {
        w.u64(m.request_id);
        w.boolean(m.accepted);
        w.u8(static_cast<std::uint8_t>(m.reason));
        w.str(m.result);
      },
      [](WireReader& r) -> net::MessagePtr {
        const std::uint64_t request_id = r.u64();
        const bool accepted = r.boolean();
        const std::uint8_t reason = r.u8();
        if (reason > static_cast<std::uint8_t>(DenyReason::kUnknownApp)) {
          r.fail();
        }
        std::string result = r.str();
        if (!r.ok()) return nullptr;
        return net::make_message<InvokeReply>(request_id, accepted,
                                              static_cast<DenyReason>(reason),
                                              std::move(result));
      });

  reg<QueryRequest>(
      "QueryRequest", kTagQueryRequest,
      [](const QueryRequest& m, WireWriter& w) {
        w.app_id(m.app);
        w.user_id(m.user);
        w.u64(m.query_id);
        w.u64(m.trace);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const UserId user = r.user_id();
        const std::uint64_t query_id = r.u64();
        const obs::TraceId trace = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<QueryRequest>(app, user, query_id, trace);
      });

  reg<QueryResponse>(
      "QueryResponse", kTagQueryResponse,
      [](const QueryResponse& m, WireWriter& w) {
        w.app_id(m.app);
        w.user_id(m.user);
        w.u64(m.query_id);
        put_rights(w, m.rights);
        put_version(w, m.version);
        w.duration(m.expiry_period);
        w.u64(m.trace);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const UserId user = r.user_id();
        const std::uint64_t query_id = r.u64();
        const acl::RightSet rights = get_rights(r);
        const acl::Version version = get_version(r);
        const sim::Duration te = r.duration();
        const obs::TraceId trace = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<QueryResponse>(app, user, query_id, rights,
                                                version, te, trace);
      });

  reg<RevokeNotify>(
      "RevokeNotify", kTagRevokeNotify,
      [](const RevokeNotify& m, WireWriter& w) {
        w.app_id(m.app);
        w.user_id(m.user);
        put_version(w, m.version);
        w.u64(m.trace);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const UserId user = r.user_id();
        const acl::Version version = get_version(r);
        const obs::TraceId trace = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<RevokeNotify>(app, user, version, trace);
      });

  reg<RevokeNotifyAck>(
      "RevokeNotifyAck", kTagRevokeNotifyAck,
      [](const RevokeNotifyAck& m, WireWriter& w) {
        w.app_id(m.app);
        w.user_id(m.user);
        put_version(w, m.version);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const UserId user = r.user_id();
        const acl::Version version = get_version(r);
        if (!r.ok()) return nullptr;
        return net::make_message<RevokeNotifyAck>(app, user, version);
      });

  reg<UpdateMsg>(
      "UpdateMsg", kTagUpdateMsg,
      [](const UpdateMsg& m, WireWriter& w) {
        w.app_id(m.app);
        put_update(w, m.update);
        w.u64(m.txn_id);
        w.u64(m.trace);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const acl::AclUpdate update = get_update(r);
        const std::uint64_t txn_id = r.u64();
        const obs::TraceId trace = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<UpdateMsg>(app, update, txn_id, trace);
      });

  reg<UpdateAck>(
      "UpdateAck", kTagUpdateAck,
      [](const UpdateAck& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.txn_id);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t txn_id = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<UpdateAck>(app, txn_id);
      });

  reg<VersionQuery>(
      "VersionQuery", kTagVersionQuery,
      [](const VersionQuery& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.read_id);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t read_id = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<VersionQuery>(app, read_id);
      });

  reg<VersionReply>(
      "VersionReply", kTagVersionReply,
      [](const VersionReply& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.read_id);
        put_version(w, m.max_version);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t read_id = r.u64();
        const acl::Version version = get_version(r);
        if (!r.ok()) return nullptr;
        return net::make_message<VersionReply>(app, read_id, version);
      });

  reg<SyncRequest>(
      "SyncRequest", kTagSyncRequest,
      [](const SyncRequest& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.sync_id);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t sync_id = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<SyncRequest>(app, sync_id);
      });

  reg<SyncResponse>(
      "SyncResponse", kTagSyncResponse,
      [](const SyncResponse& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.sync_id);
        AclSlicePayload::encode(w, m.snapshot);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t sync_id = r.u64();
        std::vector<acl::AclUpdate> snap = AclSlicePayload::decode(r);
        if (!r.ok()) return nullptr;
        return net::make_message<SyncResponse>(app, sync_id, std::move(snap));
      });

  reg<SyncPush>(
      "SyncPush", kTagSyncPush,
      [](const SyncPush& m, WireWriter& w) {
        w.app_id(m.app);
        AclSlicePayload::encode(w, m.snapshot);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        std::vector<acl::AclUpdate> snap = AclSlicePayload::decode(r);
        if (!r.ok()) return nullptr;
        return net::make_message<SyncPush>(app, std::move(snap));
      });

  reg<HeartbeatPing>(
      "HeartbeatPing", kTagHeartbeatPing,
      [](const HeartbeatPing& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.seq);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t seq = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<HeartbeatPing>(app, seq);
      });

  reg<HeartbeatPong>(
      "HeartbeatPong", kTagHeartbeatPong,
      [](const HeartbeatPong& m, WireWriter& w) {
        w.app_id(m.app);
        w.u64(m.seq);
      },
      [](WireReader& r) -> net::MessagePtr {
        const AppId app = r.app_id();
        const std::uint64_t seq = r.u64();
        if (!r.ok()) return nullptr;
        return net::make_message<HeartbeatPong>(app, seq);
      });
}

}  // namespace

void AclSlicePayload::encode(WireWriter& w,
                             const std::vector<acl::AclUpdate>& slice) {
  w.u32(static_cast<std::uint32_t>(slice.size()));
  for (const acl::AclUpdate& u : slice) put_update(w, u);
}

std::vector<acl::AclUpdate> AclSlicePayload::decode(WireReader& r) {
  const std::uint32_t count = r.u32();
  // A hostile count field must not drive the allocation: every entry takes
  // kEntryWireSize bytes, so a count the remaining payload cannot hold is
  // malformed by construction.
  if (count > r.remaining() / kEntryWireSize) {
    r.fail();
    return {};
  }
  std::vector<acl::AclUpdate> slice;
  slice.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    slice.push_back(get_update(r));
  }
  return slice;
}

void register_wire_messages() {
  static std::once_flag once;
  std::call_once(once, do_register);
}

}  // namespace wan::proto
