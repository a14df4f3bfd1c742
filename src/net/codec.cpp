#include "net/codec.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wan::net {

const char* to_cstring(DecodeError e) noexcept {
  switch (e) {
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kBadVersion: return "bad_version";
    case DecodeError::kUnknownTag: return "unknown_tag";
    case DecodeError::kMalformed: return "malformed";
  }
  return "?";
}

CodecRegistry& CodecRegistry::global() {
  static CodecRegistry* instance = new CodecRegistry();
  return *instance;
}

void CodecRegistry::register_codec(WireTag tag, TypeId type, EncodeFn encode,
                                   DecodeFn decode) {
  WAN_REQUIRE(encode != nullptr);
  WAN_REQUIRE(decode != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  WAN_REQUIRE_MSG(by_tag_.find(tag) == by_tag_.end(),
                  "wire tag already registered — tags are stable and never "
                  "reused (see docs/WIRE_FORMAT.md)");
  WAN_REQUIRE_MSG(by_type_.find(type.value()) == by_type_.end(),
                  "message type already has a wire codec");
  by_tag_.emplace(tag, std::move(decode));
  by_type_.emplace(type.value(), Entry{tag, std::move(encode)});
}

std::optional<std::vector<std::uint8_t>> CodecRegistry::encode(
    HostId from, HostId to, const Message& msg) const {
  std::vector<std::uint8_t> frame;
  if (!encode_into(from, to, msg, &frame)) return std::nullopt;
  return frame;
}

bool CodecRegistry::encode_into(HostId from, HostId to, const Message& msg,
                                std::vector<std::uint8_t>* out,
                                EncodeError* error) const {
  WAN_REQUIRE(out != nullptr);
  WireTag tag = 0;
  const EncodeFn* encode = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_type_.find(msg.type_id().value());
    if (it == by_type_.end()) {
      out->clear();
      if (error != nullptr) *error = EncodeError::kUnregistered;
      return false;
    }
    tag = it->second.tag;
    encode = &it->second.encode;
  }
  // Encoders are registered once at startup and never replaced, so calling
  // through the pointer outside the lock is safe (unordered_map never moves
  // a node) and keeps payload serialization out of the critical section.
  WireWriter w(std::move(*out));
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(0);  // flags
  w.u16(tag);
  w.host_id(from);
  w.host_id(to);
  w.u32(0);  // payload length, patched below
  (*encode)(msg, w);
  *out = w.take();
  if (out->size() > kMaxFrameSize) {
    out->clear();
    if (error != nullptr) *error = EncodeError::kOversize;
    return false;
  }
  const auto payload_len =
      static_cast<std::uint32_t>(out->size() - kWireHeaderSize);
  std::memcpy(out->data() + kWireHeaderSize - sizeof payload_len, &payload_len,
              sizeof payload_len);
  return true;
}

std::size_t frame_extent(const std::uint8_t* data, std::size_t size) noexcept {
  if (size < kWireHeaderSize) return size;
  std::uint32_t payload_len = 0;
  std::memcpy(&payload_len, data + kWireHeaderSize - sizeof payload_len,
              sizeof payload_len);
  return payload_len <= size - kWireHeaderSize ? kWireHeaderSize + payload_len
                                               : size;
}

CodecRegistry::Decoded CodecRegistry::decode(const std::uint8_t* data,
                                             std::size_t size) const {
  Decoded out;
  if (size < kWireHeaderSize) {
    out.error = DecodeError::kTruncated;
    return out;
  }
  WireReader header(data, kWireHeaderSize);
  const std::uint16_t magic = header.u16();
  const std::uint8_t version = header.u8();
  const std::uint8_t flags = header.u8();
  const WireTag tag = header.u16();
  const HostId from = header.host_id();
  const HostId to = header.host_id();
  const std::uint32_t payload_len = header.u32();
  if (magic != kWireMagic) {
    out.error = DecodeError::kBadMagic;
    return out;
  }
  if (version != kWireVersion || flags != 0) {
    out.error = DecodeError::kBadVersion;
    return out;
  }
  if (size - kWireHeaderSize != payload_len) {
    // The caller hands exactly one frame (frame_extent() delimits it): a
    // length that disagrees with those bytes means truncation in flight (or
    // padding injected by something that is not this codec) — reject,
    // never guess.
    out.error = DecodeError::kTruncated;
    return out;
  }
  const DecodeFn* decode = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_tag_.find(tag);
    if (it == by_tag_.end()) {
      out.error = DecodeError::kUnknownTag;
      return out;
    }
    decode = &it->second;
  }
  // Called through the pointer outside the lock, as for encoders: decoders
  // are never replaced and map nodes never move.
  WireReader payload(data + kWireHeaderSize, payload_len);
  MessagePtr msg = (*decode)(payload);
  if (msg == nullptr || !payload.ok() || !payload.exhausted()) {
    out.error = DecodeError::kMalformed;
    return out;
  }
  out.frame = WireFrame{from, to, std::move(msg)};
  return out;
}

std::size_t CodecRegistry::registered_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_tag_.size();
}

std::vector<WireTag> CodecRegistry::tags() const {
  std::vector<WireTag> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(by_tag_.size());
    for (const auto& [tag, fn] : by_tag_) out.push_back(tag);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wan::net
