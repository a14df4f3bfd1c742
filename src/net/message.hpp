// Type-erased network messages.
//
// The network layer is protocol-agnostic: it moves immutable, reference-
// counted message objects between hosts. Protocol layers (src/proto,
// src/baseline) define concrete message structs deriving from Message and
// downcast on receipt. Immutability (const payloads) models the fact that a
// datagram, once sent, cannot be altered by the sender.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace wan::net {

/// Process-wide interned identifier for a message type. Ids are dense small
/// integers, so per-type statistics index a vector on the send hot path
/// instead of a string-keyed map. Interning is thread-safe (the threaded
/// runtime sends from fabric workers and the driver thread); each message class interns exactly
/// once via the function-local static in its WAN_MESSAGE_TYPE-generated
/// type_id() override.
class TypeId {
 public:
  constexpr TypeId() noexcept = default;

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }

  /// Interns `name`, returning the existing id if the name is already known.
  static TypeId intern(std::string_view name);

  /// Name for an interned id value (stats materialization).
  static const std::string& name_of(std::uint32_t value);

 private:
  constexpr explicit TypeId(std::uint32_t v) noexcept : value_(v) {}
  std::uint32_t value_ = 0;
};

/// Base class for everything that travels over the simulated network.
class Message {
 public:
  virtual ~Message() = default;

  /// Short type name for traces and per-type statistics ("QueryRequest" ...).
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Interned type id for per-type statistics on the send hot path. The
  /// WAN_MESSAGE_TYPE macro overrides this with a cached id; this fallback
  /// interns per call and is only hit by types that bypass the macro.
  [[nodiscard]] virtual TypeId type_id() const {
    return TypeId::intern(type_name());
  }

  /// Approximate wire size in bytes; used for bandwidth-overhead accounting
  /// in the O(C/Te) experiments. Default models a small control packet.
  [[nodiscard]] virtual std::size_t wire_size() const { return 64; }

  /// Whether a transport with a reliability layer enabled should move this
  /// message through it (ack/retransmit/dedup; see runtime/reliable_channel).
  /// Defaults to true — grants, revokes, syncs, and recovery traffic must
  /// survive loss. Periodic best-effort probes (heartbeats) and the
  /// reliability envelope itself override to false.
  [[nodiscard]] virtual bool reliable() const { return true; }
};

/// Declares a message type's name and cached interned id in one shot:
///
///   struct QueryRequest final : net::Message {
///     WAN_MESSAGE_TYPE("QueryRequest")
///     ...
///   };
#define WAN_MESSAGE_TYPE(NAME)                                                \
  [[nodiscard]] std::string type_name() const override { return NAME; }       \
  [[nodiscard]] ::wan::net::TypeId type_id() const override {                 \
    static const ::wan::net::TypeId kId = ::wan::net::TypeId::intern(NAME);   \
    return kId;                                                               \
  }

using MessagePtr = std::shared_ptr<const Message>;

/// Convenience for constructing immutable messages.
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

/// Safe downcast used by receive handlers; returns nullptr on type mismatch.
template <typename T>
const T* message_cast(const MessagePtr& msg) noexcept {
  return dynamic_cast<const T*>(msg.get());
}

}  // namespace wan::net
