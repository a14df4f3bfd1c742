#include "net/codec.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wan::net {

void WireWriter::grow(std::size_t n) {
  const std::size_t cap = std::max({cap_ * 2, size_ + n, std::size_t{64}});
  auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
  if (size_ != 0) std::memcpy(bigger.get(), data_.get(), size_);
  data_ = std::move(bigger);
  cap_ = cap;
}

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
  WAN_REQUIRE_MSG(tag < kMaxTags,
                  "wire tag past CodecRegistry::kMaxTags: raise the limit");
  WAN_REQUIRE_MSG(type.value() < kMaxTypes,
                  "TypeId past CodecRegistry::kMaxTypes: raise the limit");
  const std::lock_guard<std::mutex> lock(mu_);
  std::atomic<const Entry*>& tag_slot = by_tag_[tag];
  std::atomic<const Entry*>& type_slot = by_type_[type.value()];
  WAN_REQUIRE_MSG(tag_slot.load(std::memory_order_relaxed) == nullptr,
                  "wire tag already registered — tags are stable and never "
                  "reused (see docs/WIRE_FORMAT.md)");
  WAN_REQUIRE_MSG(type_slot.load(std::memory_order_relaxed) == nullptr,
                  "message type already has a wire codec");
  const Entry* entry = entries_
                           .emplace_back(std::make_unique<const Entry>(
                               Entry{tag, std::move(encode), std::move(decode)}))
                           .get();
  // Published complete: a lookup that loads the pointer sees the entry.
  tag_slot.store(entry, std::memory_order_release);
  type_slot.store(entry, std::memory_order_release);
}

std::optional<std::vector<std::uint8_t>> CodecRegistry::encode(
    HostId from, HostId to, const Message& msg) const {
  std::vector<std::uint8_t> frame;
  if (!encode_into(from, to, msg, &frame)) return std::nullopt;
  return frame;
}

bool CodecRegistry::encode_append(HostId from, HostId to, const Message& msg,
                                  WireWriter* out, EncodeError* error) const {
  WAN_REQUIRE(out != nullptr);
  const std::uint32_t type = msg.type_id().value();
  const Entry* entry =
      type < kMaxTypes ? by_type_[type].load(std::memory_order_acquire)
                       : nullptr;
  if (entry == nullptr) {
    if (error != nullptr) *error = EncodeError::kUnregistered;
    return false;
  }
  const std::size_t start = out->size();
  out->u16(kWireMagic);
  out->u8(kWireVersion);
  out->u8(0);  // flags
  out->u16(entry->tag);
  out->host_id(from);
  out->host_id(to);
  out->u32(0);  // payload length, patched below
  entry->encode(msg, *out);
  const std::size_t frame = out->size() - start;
  if (frame > kMaxFrameSize) {
    out->truncate(start);
    if (error != nullptr) *error = EncodeError::kOversize;
    return false;
  }
  const auto payload_len = static_cast<std::uint32_t>(frame - kWireHeaderSize);
  std::memcpy(out->data() + start + kWireHeaderSize - sizeof payload_len,
              &payload_len, sizeof payload_len);
  return true;
}

bool CodecRegistry::encode_into(HostId from, HostId to, const Message& msg,
                                std::vector<std::uint8_t>* out,
                                EncodeError* error) const {
  WAN_REQUIRE(out != nullptr);
  thread_local WireWriter scratch;
  scratch.clear();
  if (!encode_append(from, to, msg, &scratch, error)) {
    out->clear();
    return false;
  }
  out->assign(scratch.data(), scratch.data() + scratch.size());
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
  const Entry* entry =
      tag < kMaxTags ? by_tag_[tag].load(std::memory_order_acquire) : nullptr;
  if (entry == nullptr) {
    out.error = DecodeError::kUnknownTag;
    return out;
  }
  WireReader payload(data + kWireHeaderSize, payload_len);
  MessagePtr msg = entry->decode(payload);
  if (msg == nullptr || !payload.ok() || !payload.exhausted()) {
    out.error = DecodeError::kMalformed;
    return out;
  }
  out.frame = WireFrame{from, to, std::move(msg)};
  return out;
}

std::size_t CodecRegistry::registered_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<WireTag> CodecRegistry::tags() const {
  std::vector<WireTag> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(entry->tag);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wan::net
