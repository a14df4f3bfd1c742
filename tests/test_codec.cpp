// Wire codec tests: the registry covers every protocol message, randomized
// round-trips are lossless and canonical (re-encoding a decoded frame yields
// the original bytes), and every class of hostile input — truncation, bad
// magic/version/flags, unknown tags, trailing bytes, non-canonical payloads,
// adversarial length fields, plain garbage — is rejected without crashing or
// allocating unboundedly. Appending frames to a buffer (encode_append, the
// socket fabric's in-place encode) yields exactly the concatenation of
// encode(), and a refused append leaves the buffer as it was. The frame
// layout and tag table under test are documented in docs/WIRE_FORMAT.md;
// tags are frozen there.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "util/rng.hpp"

namespace wan {
namespace {

using net::CodecRegistry;
using net::DecodeError;

acl::Version random_version(Rng& rng) {
  return acl::Version{rng.next_u64(),
                      HostId(static_cast<std::uint32_t>(rng.next_u64())),
                      static_cast<std::int64_t>(rng.next_u64())};
}

acl::RightSet random_rights(Rng& rng) {
  acl::RightSet rights;
  if ((rng.next_u64() & 1) != 0) rights.add(acl::Right::kUse);
  if ((rng.next_u64() & 1) != 0) rights.add(acl::Right::kManage);
  return rights;
}

acl::AclUpdate random_update(Rng& rng) {
  return acl::AclUpdate{
      UserId(static_cast<std::uint32_t>(rng.next_u64())),
      (rng.next_u64() & 1) != 0 ? acl::Right::kUse : acl::Right::kManage,
      (rng.next_u64() & 1) != 0 ? acl::Op::kAdd : acl::Op::kRevoke,
      random_version(rng)};
}

std::vector<acl::AclUpdate> random_snapshot(Rng& rng) {
  std::vector<acl::AclUpdate> snap;
  const std::size_t n = rng.next_u64() % 6;
  snap.reserve(n);
  for (std::size_t i = 0; i < n; ++i) snap.push_back(random_update(rng));
  return snap;
}

std::string random_payload(Rng& rng) {
  std::string s(rng.next_u64() % 48, '\0');
  for (char& c : s) c = static_cast<char>(rng.next_u64() & 0xFF);
  return s;
}

AppId random_app(Rng& rng) {
  return AppId(static_cast<std::uint32_t>(rng.next_u64()));
}
UserId random_user(Rng& rng) {
  return UserId(static_cast<std::uint32_t>(rng.next_u64()));
}

/// One seeded generator per message type, in wire-tag order 1..15. Tags
/// 16-17 (reliability envelope), 18-21 (sharding), 22-23 (coalesced
/// revocation batches), 24-25 (relay tree) and 26-27 (delta sync) are
/// retired and stay unregistered. Adding a message type without extending this list fails the
/// coverage check below.
std::vector<std::function<net::MessagePtr(Rng&)>> generators() {
  using net::make_message;
  return {
      [](Rng& rng) {
        return make_message<proto::InvokeRequest>(
            random_app(rng), random_user(rng), rng.next_u64(), rng.next_u64(),
            auth::Signature{rng.next_u64()}, random_payload(rng),
            rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::InvokeReply>(
            rng.next_u64(), (rng.next_u64() & 1) != 0,
            static_cast<proto::DenyReason>(rng.next_u64() % 5),
            random_payload(rng));
      },
      [](Rng& rng) {
        return make_message<proto::QueryRequest>(
            random_app(rng), random_user(rng), rng.next_u64(), rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::QueryResponse>(
            random_app(rng), random_user(rng), rng.next_u64(),
            random_rights(rng), random_version(rng),
            sim::Duration::nanos(static_cast<std::int64_t>(rng.next_u64())),
            rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::RevokeNotify>(
            random_app(rng), random_user(rng), random_version(rng),
            rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::RevokeNotifyAck>(
            random_app(rng), random_user(rng), random_version(rng));
      },
      [](Rng& rng) {
        return make_message<proto::UpdateMsg>(random_app(rng),
                                              random_update(rng),
                                              rng.next_u64(), rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::UpdateAck>(random_app(rng), rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::VersionQuery>(random_app(rng),
                                                 rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::VersionReply>(random_app(rng),
                                                 rng.next_u64(),
                                                 random_version(rng));
      },
      [](Rng& rng) {
        return make_message<proto::SyncRequest>(random_app(rng),
                                                rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::SyncResponse>(
            random_app(rng), rng.next_u64(), random_snapshot(rng));
      },
      [](Rng& rng) {
        return make_message<proto::SyncPush>(random_app(rng),
                                             random_snapshot(rng));
      },
      [](Rng& rng) {
        return make_message<proto::HeartbeatPing>(random_app(rng),
                                                  rng.next_u64());
      },
      [](Rng& rng) {
        return make_message<proto::HeartbeatPong>(random_app(rng),
                                                  rng.next_u64());
      },
  };
}

std::vector<std::uint8_t> encode_or_die(const net::Message& msg,
                                        HostId from = HostId(11),
                                        HostId to = HostId(22)) {
  const auto frame = CodecRegistry::global().encode(from, to, msg);
  EXPECT_TRUE(frame.has_value());
  return frame.value_or(std::vector<std::uint8_t>{});
}

TEST(Codec, RegistryCoversEveryMessageType) {
  proto::register_wire_messages();
  EXPECT_EQ(CodecRegistry::global().registered_count(),
            generators().size());
  // Live tags are the frozen contiguous block 1..15; 16-27 are retired and
  // never reused (docs/WIRE_FORMAT.md).
  const std::vector<net::WireTag> tags = CodecRegistry::global().tags();
  ASSERT_EQ(tags.size(), 15u);
  ASSERT_EQ(tags.size(), generators().size());
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(tags[i], static_cast<net::WireTag>(i + 1));
  }
  for (net::WireTag retired = 16; retired <= 27; ++retired) {
    EXPECT_EQ(std::count(tags.begin(), tags.end(), retired), 0)
        << "retired tag " << retired << " is registered again";
  }
}

/// Every registered message type, in the order generators() builds them.
using RegisteredTypes =
    std::tuple<proto::InvokeRequest, proto::InvokeReply, proto::QueryRequest,
               proto::QueryResponse, proto::RevokeNotify,
               proto::RevokeNotifyAck, proto::UpdateMsg, proto::UpdateAck,
               proto::VersionQuery, proto::VersionReply, proto::SyncRequest,
               proto::SyncResponse, proto::SyncPush, proto::HeartbeatPing,
               proto::HeartbeatPong>;

/// message_cast<T>(msg) for every T in `Types`: the cast result, in order.
template <typename... Types>
std::vector<const void*> cast_to_each(const net::MessagePtr& msg,
                                      std::tuple<Types...>* /*types*/) {
  return {static_cast<const void*>(net::message_cast<Types>(msg))...};
}

// message_cast is one TypeId compare: over every pair of registered types it
// hits its own type and misses every other.
TEST(Codec, MessageCastHitsExactlyItsOwnType) {
  proto::register_wire_messages();
  Rng rng{7};
  const auto gens = generators();
  ASSERT_EQ(gens.size(), std::tuple_size_v<RegisteredTypes>);
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const net::MessagePtr msg = gens[i](rng);
    const std::vector<const void*> casts =
        cast_to_each(msg, static_cast<RegisteredTypes*>(nullptr));
    for (std::size_t j = 0; j < casts.size(); ++j) {
      EXPECT_EQ(casts[j], i == j ? static_cast<const void*>(msg.get()) : nullptr)
          << msg->type_name() << " cast to registered type #" << j;
    }
  }
  EXPECT_EQ(net::message_cast<proto::QueryRequest>(net::MessagePtr{}), nullptr);
}

TEST(Codec, RegistrationIsIdempotent) {
  proto::register_wire_messages();
  const std::size_t count = CodecRegistry::global().registered_count();
  proto::register_wire_messages();  // must not abort on duplicate tags
  EXPECT_EQ(CodecRegistry::global().registered_count(), count);
}

// The core property: decode(encode(m)) succeeds, preserves the endpoint ids
// and the message type, and — because encoders are deterministic functions
// of the fields — re-encoding the decoded message reproduces the original
// bytes exactly. Byte-equality covers every field of every type at once; a
// single dropped, reordered, or misparsed field breaks it.
TEST(Codec, RandomizedRoundTripIsLosslessAndCanonical) {
  proto::register_wire_messages();
  Rng rng{20260805};
  for (const auto& gen : generators()) {
    for (int iter = 0; iter < 64; ++iter) {
      const net::MessagePtr msg = gen(rng);
      const HostId from(static_cast<std::uint32_t>(rng.next_u64()));
      const HostId to(static_cast<std::uint32_t>(rng.next_u64()));
      const auto frame = CodecRegistry::global().encode(from, to, *msg);
      ASSERT_TRUE(frame.has_value()) << msg->type_name();
      const auto decoded =
          CodecRegistry::global().decode(frame->data(), frame->size());
      ASSERT_TRUE(decoded.ok())
          << msg->type_name() << ": " << net::to_cstring(decoded.error);
      EXPECT_EQ(decoded.frame->from, from);
      EXPECT_EQ(decoded.frame->to, to);
      EXPECT_EQ(decoded.frame->msg->type_id().value(), msg->type_id().value());
      const auto again =
          CodecRegistry::global().encode(from, to, *decoded.frame->msg);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*frame, *again) << msg->type_name();
    }
  }
}

// Byte-equality proves fidelity only if encoders read the fields; spot-check
// a representative message against explicit field values.
TEST(Codec, FieldFidelitySpotCheck) {
  proto::register_wire_messages();
  acl::RightSet rights;
  rights.add(acl::Right::kUse);
  const acl::Version version{42, HostId(2), 777};
  const auto msg = net::make_message<proto::QueryResponse>(
      AppId(9), UserId(13), 555, rights, version,
      sim::Duration::millis(1250), 31337);
  const auto frame = encode_or_die(*msg);
  const auto decoded =
      CodecRegistry::global().decode(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  const auto& out =
      static_cast<const proto::QueryResponse&>(*decoded.frame->msg);
  EXPECT_EQ(out.app, AppId(9));
  EXPECT_EQ(out.user, UserId(13));
  EXPECT_EQ(out.query_id, 555u);
  EXPECT_EQ(out.rights, rights);
  EXPECT_EQ(out.version, version);
  EXPECT_EQ(out.expiry_period, sim::Duration::millis(1250));
  EXPECT_EQ(out.trace, 31337u);
}

// Every strict prefix of every frame must be rejected — no partial parse,
// no out-of-bounds read. (ASAN-clean under the sanitizer CI job.)
TEST(CodecReject, EveryTruncationOfEveryFrame) {
  proto::register_wire_messages();
  Rng rng{7};
  for (const auto& gen : generators()) {
    const net::MessagePtr msg = gen(rng);
    const auto frame = encode_or_die(*msg);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const auto decoded = CodecRegistry::global().decode(frame.data(), len);
      EXPECT_FALSE(decoded.ok())
          << msg->type_name() << " parsed from a " << len << "-byte prefix";
    }
  }
}

TEST(CodecReject, HeaderFieldValidation) {
  proto::register_wire_messages();
  const auto msg = net::make_message<proto::HeartbeatPing>(AppId(1), 99);
  const auto frame = encode_or_die(*msg);

  {
    auto bad = frame;
    bad[0] ^= 0xFF;  // magic
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kBadMagic);
  }
  {
    auto bad = frame;
    bad[2] = net::kWireVersion + 1;  // future format version
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kBadVersion);
  }
  {
    auto bad = frame;
    bad[3] = 0x80;  // reserved flags must be zero
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kBadVersion);
  }
  {
    auto bad = frame;
    const std::uint16_t tag = 999;  // never assigned
    std::memcpy(bad.data() + 4, &tag, sizeof tag);
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kUnknownTag);
  }
}

// decode takes exactly one frame: any disagreement between the payload
// length field and the bytes it is given is truncation/padding.
TEST(CodecReject, PayloadLengthMustMatchDatagram) {
  proto::register_wire_messages();
  const auto msg = net::make_message<proto::UpdateAck>(AppId(3), 4);
  const auto frame = encode_or_die(*msg);
  {
    auto bad = frame;
    bad.push_back(0);  // padded datagram
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kTruncated);
  }
  {
    auto bad = frame;
    bad.pop_back();  // truncated in flight
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kTruncated);
  }
}

// Non-canonical payload bytes: values a conforming encoder can never emit
// (booleans > 1, out-of-range enums, impossible right bits) are malformed,
// not silently coerced.
TEST(CodecReject, NonCanonicalPayloadBytes) {
  proto::register_wire_messages();
  {
    // InvokeReply payload: request_id u64 @0, accepted u8 @8, reason u8 @9.
    const auto msg = net::make_message<proto::InvokeReply>(
        1, true, proto::DenyReason::kNone, "r");
    const auto frame = encode_or_die(*msg);
    auto bad = frame;
    bad[net::kWireHeaderSize + 8] = 2;  // boolean must be 0 or 1
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kMalformed);
    bad = frame;
    bad[net::kWireHeaderSize + 9] = 9;  // DenyReason has 5 values
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kMalformed);
  }
  {
    // QueryResponse payload: app u32, user u32, query_id u64, rights u8 @16.
    const auto msg = net::make_message<proto::QueryResponse>(
        AppId(1), UserId(2), 3, acl::RightSet{}, acl::Version{},
        sim::Duration::millis(1), 0);
    auto bad = encode_or_die(*msg);
    bad[net::kWireHeaderSize + 16] = 0xF0;  // bits beyond kUse|kManage
    EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
              DecodeError::kMalformed);
  }
}

// An adversarial snapshot count must be rejected by comparing it against the
// bytes actually present — not trusted into a reserve()/resize() call.
TEST(CodecReject, HostileSnapshotCountDoesNotAllocate) {
  proto::register_wire_messages();
  const auto msg = net::make_message<proto::SyncResponse>(
      AppId(1), 2, std::vector<acl::AclUpdate>{});
  auto bad = encode_or_die(*msg);
  // SyncResponse payload: app u32 @0, sync_id u64 @4, count u32 @12.
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bad.data() + net::kWireHeaderSize + 12, &huge, sizeof huge);
  EXPECT_EQ(CodecRegistry::global().decode(bad.data(), bad.size()).error,
            DecodeError::kMalformed);
}

// Seeded garbage fuzz: random buffers must never crash the decoder, and a
// buffer that does not start with the magic can never decode.
TEST(CodecReject, GarbageBuffersNeverParse) {
  proto::register_wire_messages();
  Rng rng{99};
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> buf(rng.next_u64() % 128);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto decoded = CodecRegistry::global().decode(buf.data(), buf.size());
    if (buf.size() < net::kWireHeaderSize ||
        buf[0] != 0xDC || buf[1] != 0xAC) {
      EXPECT_FALSE(decoded.ok());
    }
  }
  // Garbage behind a valid header prefix exercises the per-type decoders.
  const auto msg = net::make_message<proto::InvokeRequest>(
      AppId(1), UserId(2), 3, 4, auth::Signature{5}, "p", 6);
  const auto frame = encode_or_die(*msg);
  for (int iter = 0; iter < 4000; ++iter) {
    auto bad = frame;
    const std::size_t at =
        net::kWireHeaderSize + rng.next_u64() % (bad.size() - net::kWireHeaderSize);
    bad[at] = static_cast<std::uint8_t>(rng.next_u64());
    const auto decoded = CodecRegistry::global().decode(bad.data(), bad.size());
    if (decoded.ok()) {
      // A mutation may land on a byte whose value is unconstrained (ids,
      // counters, payload text): the decode must then still round-trip.
      const auto again = CodecRegistry::global().encode(
          decoded.frame->from, decoded.frame->to, *decoded.frame->msg);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, bad);
    }
  }
}

// Checked-in crash corpus: every datagram that has ever been rejected (or,
// for ok_*, accepted as a wire-stability pin) lives in tests/corpus/codec/
// and is replayed here. The filename prefix names the expected outcome, so
// adding a regression is dropping a .bin file in the directory — no code
// change. A decoder behavior change that reclassifies any corpus entry
// fails loudly instead of silently shifting drop-counter reasons.
TEST(CodecCorpus, EveryCheckedInFrameKeepsItsOutcome) {
  proto::register_wire_messages();
  // Longest-prefix match: "bad_version" must win over a hypothetical "bad".
  const std::vector<std::pair<std::string, std::optional<DecodeError>>>
      outcomes = {
          {"ok", std::nullopt},
          {"truncated", DecodeError::kTruncated},
          {"bad_magic", DecodeError::kBadMagic},
          {"bad_version", DecodeError::kBadVersion},
          {"unknown_tag", DecodeError::kUnknownTag},
          {"malformed", DecodeError::kMalformed},
      };
  const std::filesystem::path dir = WAN_CODEC_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".bin") continue;
    const std::string name = entry.path().stem().string();
    std::optional<DecodeError> expected;
    std::size_t best = 0;
    for (const auto& [prefix, outcome] : outcomes) {
      if (prefix.size() > best && name.compare(0, prefix.size(), prefix) == 0) {
        best = prefix.size();
        expected = outcome;
      }
    }
    ASSERT_GT(best, 0u) << "corpus file with unknown outcome prefix: " << name;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const auto decoded =
        CodecRegistry::global().decode(bytes.data(), bytes.size());
    if (expected.has_value()) {
      EXPECT_FALSE(decoded.ok()) << name << " decoded but is pinned rejected";
      EXPECT_EQ(decoded.error, *expected)
          << name << ": got " << net::to_cstring(decoded.error);
    } else {
      ASSERT_TRUE(decoded.ok())
          << name << ": " << net::to_cstring(decoded.error);
    }
    ++seen;
  }
  // The corpus shipped with 14 entries, grew to 19 with the reliability
  // envelope (tags 16/17), to 25 with the shard messages (tags 18-21), and
  // to 35 with the dissemination/delta-sync messages (tags 22-27); it only
  // ever grows. Those frames (tags 16-27, since retired) stay as
  // unknown_tag_16_* .. unknown_tag_27_* pins; a tag 17 frame whose header
  // already overclaims its datagram stays a truncated pin.
  EXPECT_GE(seen, 35u);
}

// The one accepted corpus frame is a wire-stability pin: these exact bytes
// must decode to these exact field values forever (docs/WIRE_FORMAT.md
// freezes the layout). Regenerating the frame from current encoders would
// test nothing — the bytes on disk are the contract.
TEST(CodecCorpus, OkHeartbeatPingPinsWireLayout) {
  proto::register_wire_messages();
  const std::filesystem::path file =
      std::filesystem::path(WAN_CODEC_CORPUS_DIR) / "ok_heartbeat_ping.bin";
  std::ifstream in(file, std::ios::binary);
  ASSERT_TRUE(in) << file;
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), net::kWireHeaderSize + 12u);
  const auto decoded =
      CodecRegistry::global().decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << net::to_cstring(decoded.error);
  EXPECT_EQ(decoded.frame->from, HostId(1));
  EXPECT_EQ(decoded.frame->to, HostId(2));
  const auto& ping =
      static_cast<const proto::HeartbeatPing&>(*decoded.frame->msg);
  EXPECT_EQ(ping.app, AppId(7));
  EXPECT_EQ(ping.seq, 4242u);
  // And the canonical re-encode reproduces the checked-in bytes.
  const auto again = CodecRegistry::global().encode(
      decoded.frame->from, decoded.frame->to, *decoded.frame->msg);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, bytes);
}

/// A message type no codec is ever registered for.
struct Unwired final : net::Message {
  WAN_MESSAGE_TYPE("Unwired")
};

// Oversize frames fail at encode time (they could never fit one datagram).
// encode_into() tells that apart from an unregistered type with one lookup:
// the socket's send path maps the two to different drop reasons.
TEST(CodecReject, OversizePayloadFailsEncode) {
  proto::register_wire_messages();
  const auto msg = net::make_message<proto::InvokeRequest>(
      AppId(1), UserId(2), 3, 4, auth::Signature{5},
      std::string(net::kMaxFrameSize, 'x'), 6);
  EXPECT_FALSE(
      CodecRegistry::global().encode(HostId(1), HostId(2), *msg).has_value());

  std::vector<std::uint8_t> out;
  auto error = CodecRegistry::EncodeError::kUnregistered;
  EXPECT_FALSE(CodecRegistry::global().encode_into(HostId(1), HostId(2), *msg,
                                                   &out, &error));
  EXPECT_EQ(error, CodecRegistry::EncodeError::kOversize);
  error = CodecRegistry::EncodeError::kOversize;
  EXPECT_FALSE(CodecRegistry::global().encode_into(HostId(1), HostId(2),
                                                   Unwired{}, &out, &error));
  EXPECT_EQ(error, CodecRegistry::EncodeError::kUnregistered);
}

std::vector<std::uint8_t> bytes_of(const net::WireWriter& w) {
  return {w.data(), w.data() + w.size()};
}

// encode_append() is how the socket fabric encodes into a datagram bundle:
// for every registered type, frames appended one after another to a buffer
// that already holds bytes are exactly the concatenation of encode() of
// each, after the bytes that were there.
TEST(CodecAppend, AppendedFramesAreTheConcatenationOfEncode) {
  proto::register_wire_messages();
  Rng rng{20261018};
  for (const auto& gen : generators()) {
    net::WireWriter bundle;
    const std::uint8_t prefix[] = {0xde, 0xad, 0xbe, 0xef, 0x01};
    bundle.raw(prefix, sizeof prefix);
    std::vector<std::uint8_t> want(std::begin(prefix), std::end(prefix));
    for (int n = 0; n < 8; ++n) {
      const net::MessagePtr msg = gen(rng);
      const HostId from(static_cast<std::uint32_t>(rng.next_u64()));
      const HostId to(static_cast<std::uint32_t>(rng.next_u64()));
      const auto frame = CodecRegistry::global().encode(from, to, *msg);
      ASSERT_TRUE(frame.has_value()) << msg->type_name();
      ASSERT_TRUE(
          CodecRegistry::global().encode_append(from, to, *msg, &bundle))
          << msg->type_name();
      want.insert(want.end(), frame->begin(), frame->end());
      ASSERT_EQ(bytes_of(bundle), want) << msg->type_name() << " frame " << n;
    }
  }
}

// A refused append leaves the frames already in the buffer intact: its
// size and bytes are restored, and the error names the refusal.
TEST(CodecAppend, RefusalRestoresTheBuffer) {
  proto::register_wire_messages();
  const auto good = net::make_message<proto::HeartbeatPing>(AppId(3), 9);
  const auto oversize = net::make_message<proto::InvokeRequest>(
      AppId(1), UserId(2), 3, 4, auth::Signature{5},
      std::string(net::kMaxFrameSize, 'x'), 6);
  const struct {
    const net::Message* msg;
    CodecRegistry::EncodeError error;
  } refusals[] = {{nullptr, CodecRegistry::EncodeError::kUnregistered},
                  {oversize.get(), CodecRegistry::EncodeError::kOversize}};
  const Unwired unwired;
  for (const auto& refusal : refusals) {
    const net::Message& msg = refusal.msg != nullptr ? *refusal.msg : unwired;
    net::WireWriter bundle;
    ASSERT_TRUE(CodecRegistry::global().encode_append(HostId(1), HostId(2),
                                                      *good, &bundle));
    ASSERT_TRUE(CodecRegistry::global().encode_append(HostId(1), HostId(3),
                                                      *good, &bundle));
    const std::vector<std::uint8_t> before = bytes_of(bundle);
    auto error = refusal.error == CodecRegistry::EncodeError::kOversize
                     ? CodecRegistry::EncodeError::kUnregistered
                     : CodecRegistry::EncodeError::kOversize;
    EXPECT_FALSE(CodecRegistry::global().encode_append(HostId(1), HostId(2),
                                                       msg, &bundle, &error));
    EXPECT_EQ(error, refusal.error);
    EXPECT_EQ(bundle.size(), before.size());
    EXPECT_EQ(bytes_of(bundle), before);
    // The buffer still takes frames after the refusal.
    EXPECT_TRUE(CodecRegistry::global().encode_append(HostId(1), HostId(2),
                                                      *good, &bundle));
    std::vector<std::uint8_t> want = before;
    const auto third = encode_or_die(*good, HostId(1), HostId(2));
    want.insert(want.end(), third.begin(), third.end());
    EXPECT_EQ(bytes_of(bundle), want);
  }
}

/// A message whose type is chosen at run time, so one class can stand for
/// any number of registered types.
struct RaceProbe final : net::Message {
  RaceProbe(net::TypeId t, std::uint64_t v) : type(t), value(v) {}
  [[nodiscard]] std::string type_name() const override {
    return net::TypeId::name_of(type.value());
  }
  [[nodiscard]] net::TypeId type_id() const override { return type; }
  net::TypeId type;
  std::uint64_t value;
};

// Lookups take no lock. Several threads encode and decode through a
// registry while another registers new tags: every published type round
// trips, and a decode of the tag being registered right now sees it either
// not at all or complete.
TEST(CodecRegistry, LookupsRunConcurrentlyWithRegistration) {
  constexpr int kTypes = 48;
  constexpr net::WireTag kFirstTag = 200;
  auto reg = std::make_unique<CodecRegistry>();
  std::vector<net::TypeId> types;
  for (int k = 0; k < kTypes; ++k) {
    types.push_back(net::TypeId::intern("CodecRaceProbe" + std::to_string(k)));
  }
  const auto register_type = [&](int k) {
    const net::TypeId type = types[static_cast<std::size_t>(k)];
    reg->register_codec(
        static_cast<net::WireTag>(kFirstTag + k), type,
        [](const net::Message& m, net::WireWriter& w) {
          w.u64(static_cast<const RaceProbe&>(m).value);
        },
        [type](net::WireReader& r) -> net::MessagePtr {
          return net::make_message<RaceProbe>(type, r.u64());
        });
  };
  register_type(0);

  std::atomic<int> published{0};  // types [0, published] are registered
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint8_t> frame;
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        const int last = published.load(std::memory_order_acquire);
        const int k = static_cast<int>((i + static_cast<std::uint64_t>(t)) %
                                       static_cast<std::uint64_t>(last + 1));
        const RaceProbe msg(types[static_cast<std::size_t>(k)], i);
        if (!reg->encode_into(HostId(1), HostId(2), msg, &frame)) {
          ++failures;
          continue;
        }
        const CodecRegistry::Decoded d = reg->decode(frame.data(), frame.size());
        if (!d.ok() || d.frame->msg->type_id().value() != msg.type.value() ||
            static_cast<const RaceProbe&>(*d.frame->msg).value != i) {
          ++failures;
        }
        // The next tag, possibly mid-registration: unknown or whole.
        if (last + 1 < kTypes) {
          const auto next = static_cast<net::WireTag>(kFirstTag + last + 1);
          std::memcpy(frame.data() + 4, &next, sizeof next);
          const CodecRegistry::Decoded n =
              reg->decode(frame.data(), frame.size());
          if (n.ok() ? n.frame->msg->type_id().value() !=
                           types[static_cast<std::size_t>(last + 1)].value()
                     : n.error != DecodeError::kUnknownTag) {
            ++failures;
          }
        }
      }
    });
  }
  for (int k = 1; k < kTypes; ++k) {
    register_type(k);
    published.store(k, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop = true;
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(reg->registered_count(), static_cast<std::size_t>(kTypes));
}

}  // namespace
}  // namespace wan
