// Wire codecs for the access-control protocol messages.
//
// net/codec.hpp owns the framing and the tag registry but knows nothing
// about concrete message types (net/ sits below proto/ in the layer
// diagram); this translation unit supplies the per-type field layouts and
// registers them under their stable tags. docs/WIRE_FORMAT.md is the
// authoritative tag table — tags here are frozen: never renumbered, never
// reused, new types get new tags and removed types leave holes.
//
// Call register_wire_messages() once before touching the codec (socket
// transports, codec tests). It is idempotent and thread-safe; it is an
// explicit call rather than a static initializer because these codecs live
// in a static library, where unreferenced global constructors are dropped
// by the linker.
#pragma once

#include <cstddef>
#include <vector>

#include "acl/store.hpp"
#include "net/codec.hpp"

namespace wan::proto {

/// Stable wire tags for every message in proto/messages.hpp. The enum is
/// public so tests and docs can enumerate the full table.
enum WireTags : net::WireTag {
  kTagInvokeRequest = 1,
  kTagInvokeReply = 2,
  kTagQueryRequest = 3,
  kTagQueryResponse = 4,
  kTagRevokeNotify = 5,
  kTagRevokeNotifyAck = 6,
  kTagUpdateMsg = 7,
  kTagUpdateAck = 8,
  kTagVersionQuery = 9,
  kTagVersionReply = 10,
  kTagSyncRequest = 11,
  kTagSyncResponse = 12,
  kTagSyncPush = 13,
  kTagHeartbeatPing = 14,
  kTagHeartbeatPong = 15,
  // 16 and 17 are retired (reliability envelope); 18 to 21 are retired
  // (sharding); 22 and 23 are retired (coalesced revocation batches); 24
  // and 25 are retired (relay tree); 26 and 27 are retired (delta ACL
  // sync). Never reuse them.
};

/// The shared on-wire layout of an ACL slice — a `u32` entry count followed
/// by that many fixed-size AclUpdate records. Two messages carry one
/// (SyncResponse, SyncPush); both encode through this helper so the layout, the hostile-count bound check, and the
/// simulated-bandwidth estimate exist exactly once.
struct AclSlicePayload {
  /// Real codec bytes per entry (bounds a claimed count before allocation).
  static constexpr std::size_t kEntryWireSize = 4 + 1 + 1 + (8 + 4 + 8);
  /// Simulated-bandwidth estimate per entry (feeds Message::wire_size(),
  /// which models an early-Internet datagram encoding, not this codec).
  static constexpr std::size_t kEntryEstimate = 32;

  static void encode(net::WireWriter& w, const std::vector<acl::AclUpdate>& slice);
  /// Empty + reader failed on a malformed slice (bad count, bad enum, short).
  static std::vector<acl::AclUpdate> decode(net::WireReader& r);
  /// wire_size() contribution of a slice with `entries` updates.
  static constexpr std::size_t estimate(std::size_t entries) noexcept {
    return entries * kEntryEstimate;
  }
};

/// Registers the codec for every protocol message type with the global
/// net::CodecRegistry. Idempotent; safe to call from multiple threads.
void register_wire_messages();

}  // namespace wan::proto
