// Versioned binary wire codec for network messages.
//
// The simulator moves net::MessagePtr *pointers* (its nodes live in one
// address space). A real socket transport moves bytes, so messages need a
// serialized form. This header provides the three pieces, all
// protocol-agnostic:
//
//   * WireWriter / WireReader — bounds-checked little-endian primitives.
//     A reader that runs past the end of its buffer latches a failure bit
//     instead of touching out-of-range memory; decoders check ok() once at
//     the end rather than after every field.
//   * The frame header — magic, format version, message tag, source and
//     destination endpoint ids, and an explicit payload length:
//
//         offset  size  field
//              0     2  magic 0xACDC (little-endian on the wire)
//              2     1  format version (kWireVersion; bump on layout change)
//              3     1  flags (reserved, must be 0)
//              4     2  wire tag (identifies the message type)
//              6     4  source HostId
//             10     4  destination HostId
//             14     4  payload length in bytes
//             18     …  payload (message fields, per-type layout)
//
//     A datagram carries one or more whole frames back to back, each
//     delimited by its own payload length (frame_extent() splits them).
//     decode takes exactly one frame and rejects anything whose payload
//     length disagrees with the bytes it is given, so a truncated or padded
//     frame can never half-parse.
//   * CodecRegistry — maps stable wire tags to per-type encode/decode
//     functions. Message structs live in protocol layers above net/, so the
//     registry is populated by those layers (see src/proto/wire.hpp);
//     transports depend only on this registry and stay protocol-agnostic.
//
// Wire tags are part of the protocol's public interface: once assigned they
// are never reused or renumbered (docs/WIRE_FORMAT.md is the authoritative
// table). The version byte covers the framing and all payload layouts; any
// incompatible change bumps it and old frames are rejected, not misread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::net {

/// Stable identifier of a message type on the wire. Tags are assigned once,
/// in docs/WIRE_FORMAT.md, and never reused.
using WireTag = std::uint16_t;

inline constexpr std::uint16_t kWireMagic = 0xACDC;
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderSize = 18;
/// Largest frame a transport will move: the practical single-datagram UDP
/// payload ceiling (65535 - 8 UDP - 20 IP). Encoding anything bigger fails
/// (the caller counts it as an oversize drop) rather than fragmenting.
inline constexpr std::size_t kMaxFrameSize = 65507;
/// Cap on a datagram that bundles several frames: a 1500-byte Ethernet MTU
/// minus the 20-byte IP and 8-byte UDP headers, so a bundle never causes IP
/// fragmentation on a WAN path. A frame bigger than this travels alone.
inline constexpr std::size_t kBundleBytes = 1472;

/// Append-only little-endian serializer over its own contiguous buffer.
/// A fixed-width field is one capacity check and one constant-size memcpy;
/// growth, out of line, never zero-fills. clear() and truncate() keep the
/// capacity, so a writer that is reused (a socket's outbound bundle) stops
/// allocating once it has grown to its working size.
class WireWriter {
 public:
  WireWriter() = default;
  WireWriter(WireWriter&& other) noexcept
      : data_(std::move(other.data_)),
        size_(std::exchange(other.size_, 0)),
        cap_(std::exchange(other.cap_, 0)) {}
  WireWriter& operator=(WireWriter&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    cap_ = std::exchange(other.cap_, 0);
    return *this;
  }

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void duration(sim::Duration d) { i64(d.count_nanos()); }
  /// Length-prefixed byte string (u32 length + raw bytes).
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  /// Raw byte run, no length prefix — the caller's layout carries the length
  /// (the reliability envelope embeds whole frames this way).
  void raw(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;
    if (cap_ - size_ < n) grow(n);
    std::memcpy(data_.get() + size_, p, n);
    size_ += n;
  }
  void host_id(HostId id) { u32(id.value()); }
  void user_id(UserId id) { u32(id.value()); }
  void app_id(AppId id) { u32(id.value()); }

  [[nodiscard]] std::uint8_t* data() noexcept { return data_.get(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return data_.get();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  void clear() noexcept { size_ = 0; }
  /// Keeps the first `n` bytes (n <= size()) and drops the rest.
  void truncate(std::size_t n) noexcept { size_ = n; }

 private:
  template <typename T>
  void put(T v) {
    if (cap_ - size_ < sizeof(T)) grow(sizeof(T));
    std::memcpy(data_.get() + size_, &v, sizeof(T));
    size_ += sizeof(T);
  }
  /// Reallocates so that `n` more bytes fit.
  void grow(std::size_t n);

  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// Bounds-checked little-endian deserializer. Reading past the end latches
/// ok() == false and yields zero values; decoders verify ok() (and usually
/// exhausted()) once when done.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int64_t i64() { return read<std::int64_t>(); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;  // canonical bools only: reject 2..255
    return v == 1;
  }
  sim::Duration duration() { return sim::Duration::nanos(i64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  HostId host_id() { return HostId(u32()); }
  UserId user_id() { return UserId(u32()); }
  AppId app_id() { return AppId(u32()); }
  /// Raw byte run of exactly `n` bytes (no length prefix); fails when fewer
  /// remain.
  std::vector<std::uint8_t> raw(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint8_t> out(p_, p_ + n);
    p_ += n;
    return out;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when every byte has been consumed — decoders require this so a
  /// frame with trailing garbage is rejected, not silently accepted.
  [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  void fail() noexcept { ok_ = false; }

 private:
  template <typename T>
  T read() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

/// A decoded frame: who sent it, who it is for, and the message itself.
struct WireFrame {
  HostId from{};
  HostId to{};
  MessagePtr msg;
};

/// Why a decode was rejected (transports feed these into drop counters).
enum class DecodeError : std::uint8_t {
  kTruncated,    ///< shorter than the header, or payload shorter than length
  kBadMagic,     ///< first two bytes are not kWireMagic
  kBadVersion,   ///< format version this build does not speak
  kUnknownTag,   ///< no decoder registered for the tag
  kMalformed,    ///< per-type decoder rejected the payload
};

[[nodiscard]] const char* to_cstring(DecodeError e) noexcept;

/// Bytes of the frame starting at `data`, read from its header's payload
/// length: how a receiver splits a datagram into frames. Returns `size`, the
/// whole rest, when fewer than kWireHeaderSize bytes remain or the stated
/// payload overruns them, so decode() rejects that rest as truncated.
[[nodiscard]] std::size_t frame_extent(const std::uint8_t* data,
                                       std::size_t size) noexcept;

/// Tag-keyed registry of per-type wire codecs.
///
/// Protocol layers register each message type once under its stable tag
/// (duplicate tags or types abort: both are programming errors caught at
/// startup). Thread safety: registration is serialized by a mutex and may
/// happen on any thread, at any time. Each registration builds one entry
/// that never moves or changes and publishes it, with a release store, into
/// two fixed arrays of atomic pointers indexed by tag and by TypeId value.
/// encode/decode look up with one acquire load and take no lock, so they
/// are safe from any thread, concurrently with registration; a lookup that
/// races a registration sees the type either fully registered or not at
/// all.
class CodecRegistry {
 public:
  /// Serializes `msg`'s fields (not the frame header).
  using EncodeFn = std::function<void(const Message& msg, WireWriter& w)>;
  /// Parses one payload; returns nullptr if the bytes are malformed. The
  /// registry additionally rejects decoders that leave bytes unconsumed.
  using DecodeFn = std::function<MessagePtr(WireReader& r)>;

  [[nodiscard]] static CodecRegistry& global();

  /// Tags and TypeId values a registry can hold: [0, kMaxTags) and
  /// [0, kMaxTypes).
  static constexpr std::size_t kMaxTags = 256;
  static constexpr std::size_t kMaxTypes = 1024;

  /// Registers a codec for `type` under `tag`. Aborts on tag or type reuse,
  /// and on a tag or TypeId value past the table sizes above.
  void register_codec(WireTag tag, TypeId type, EncodeFn encode,
                      DecodeFn decode);

  /// Encodes a full frame (header + payload). Returns nullopt when the type
  /// is unregistered or the frame would exceed kMaxFrameSize.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> encode(
      HostId from, HostId to, const Message& msg) const;

  /// Why encode_append() or encode_into() refused a message.
  enum class EncodeError : std::uint8_t {
    kUnregistered,  ///< the message's type has no codec
    kOversize,      ///< the frame would exceed kMaxFrameSize
  };

  /// Appends one whole frame (header + payload) at the end of `*out`: how
  /// the socket fabric encodes straight into a datagram bundle. Returns
  /// false when the type is unregistered or the frame would exceed
  /// kMaxFrameSize, restoring *out to its previous size, so the frames
  /// already in it stay intact; says which in *error when it is non-null:
  /// one registry lookup classifies and encodes.
  bool encode_append(HostId from, HostId to, const Message& msg,
                     WireWriter* out, EncodeError* error = nullptr) const;

  /// Same as encode(), but recycles `out`'s allocation (cleared then filled
  /// from this thread's encode scratch). Returns false, leaving *out
  /// cleared, on the refusals of encode_append().
  bool encode_into(HostId from, HostId to, const Message& msg,
                   std::vector<std::uint8_t>* out,
                   EncodeError* error = nullptr) const;

  /// Decodes a full frame. Exactly one of the result fields is set.
  struct Decoded {
    std::optional<WireFrame> frame;
    DecodeError error = DecodeError::kTruncated;
    [[nodiscard]] bool ok() const noexcept { return frame.has_value(); }
  };
  [[nodiscard]] Decoded decode(const std::uint8_t* data,
                               std::size_t size) const;

  [[nodiscard]] std::size_t registered_count() const;

  /// Registered tags in ascending order (docs and tests enumerate these).
  [[nodiscard]] std::vector<WireTag> tags() const;

 private:
  struct Entry {
    WireTag tag = 0;
    EncodeFn encode;
    DecodeFn decode;
  };

  mutable std::mutex mu_;  ///< serializes registration; lookups skip it
  std::vector<std::unique_ptr<const Entry>> entries_;  ///< owns; mu_
  std::array<std::atomic<const Entry*>, kMaxTags> by_tag_{};
  std::array<std::atomic<const Entry*>, kMaxTypes> by_type_{};
};

}  // namespace wan::net
