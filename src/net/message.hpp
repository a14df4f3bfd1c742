// Type-erased network messages.
//
// The network layer is protocol-agnostic: it moves immutable, reference-
// counted message objects between hosts. Protocol layers (src/proto,
// src/baseline) define concrete message structs deriving from Message and
// downcast on receipt. Immutability (const payloads) models the fact that a
// datagram, once sent, cannot be altered by the sender.
//
// Lifetime rule. A message lives exactly as long as some MessagePtr refers
// to it. make_message (which every decoder uses) takes the object's block
// from a per-type free list owned by the calling thread, and the block goes
// back on the list of whichever thread drops the last reference, where the
// next make_message of that type on that thread reuses it. So:
//   * a `const T*` from message_cast, or a reference into a message, is
//     valid only while the MessagePtr it came from is held — a receive
//     handler may use it for the duration of the call;
//   * anything that outlives that (a posted closure, a retransmit queue, a
//     reordered frame held back by a fault plan) keeps the MessagePtr, not a
//     raw pointer;
//   * a message may be built on one thread and released on another.
// Each list holds at most kMessagePoolCap blocks, and a thread's lists are
// freed when it exits. Under AddressSanitizer, blocks on a list are
// poisoned and a released block waits behind kMessagePoolQuarantine later
// releases of its type before it is reused, so a read through a pointer
// kept past the last reference is reported as a use-after-poison until
// then; once the block is reused, such a read sees the new message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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
  constexpr bool operator==(const TypeId&) const noexcept = default;

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
};

/// Declares a message type's name and cached interned id in one shot:
///
///   struct QueryRequest final : net::Message {
///     WAN_MESSAGE_TYPE("QueryRequest")
///     ...
///   };
///
/// static_type_id() is what message_cast compares against.
#define WAN_MESSAGE_TYPE(NAME)                                                \
  [[nodiscard]] static ::wan::net::TypeId static_type_id() {                  \
    static const ::wan::net::TypeId kId = ::wan::net::TypeId::intern(NAME);   \
    return kId;                                                               \
  }                                                                           \
  [[nodiscard]] std::string type_name() const override { return NAME; }       \
  [[nodiscard]] ::wan::net::TypeId type_id() const override {                 \
    return static_type_id();                                                  \
  }

using MessagePtr = std::shared_ptr<const Message>;

/// Free blocks one thread keeps per message type. A release past the cap
/// goes back to the heap, so a burst does not pin memory.
inline constexpr std::uint32_t kMessagePoolCap = 256;

/// Later releases of its type a released block waits behind before it is
/// handed out again. None normally: the last block released is the next one
/// handed out. Under AddressSanitizer the list is first-in, first-out and
/// keeps this many blocks back, so a stale read hits poisoned memory rather
/// than the next message of the type.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr std::uint32_t kMessagePoolQuarantine = 64;
#else
inline constexpr std::uint32_t kMessagePoolQuarantine = 0;
#endif
static_assert(kMessagePoolQuarantine < kMessagePoolCap);

namespace detail {

/// One thread's free list of one block size. Trivially destructible, so it
/// stays readable while the thread's other thread_local objects are torn
/// down; `closed` then sends every release straight to the heap.
struct FreeList {
  void* head = nullptr;
  void* tail = nullptr;  ///< last block; appended to under AddressSanitizer
  std::uint32_t size = 0;
  std::uint32_t block_bytes = 0;
  bool guarded = false;  ///< registered with this thread's exit guard
  bool closed = false;   ///< the thread is exiting
};

/// Registers `list` to be drained when the calling thread exits. Returns
/// false if it cannot (the caller then frees the block itself).
bool guard_on_exit(FreeList& list) noexcept;

inline void poison(void* block, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

inline void unpoison(void* block, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
  (void)block;
  (void)bytes;
#endif
}

/// Pops the head block, or returns nullptr when the list is empty.
inline void* pop(FreeList& list) noexcept {
  void* block = list.head;
  if (block == nullptr) return nullptr;
  unpoison(block, list.block_bytes);
  list.head = *static_cast<void**>(block);
  if (list.head == nullptr) list.tail = nullptr;
  --list.size;
  return block;
}

/// A block for make_message, or nullptr when none is past the quarantine.
inline void* take(FreeList& list) noexcept {
  if (list.size <= kMessagePoolQuarantine) return nullptr;
  return pop(list);
}

/// Pushes a block; returns false when the list is full or closed.
inline bool give(FreeList& list, void* block) noexcept {
  if (list.size >= kMessagePoolCap || list.closed) return false;
  if (!list.guarded && !guard_on_exit(list)) return false;
#if defined(__SANITIZE_ADDRESS__)
  *static_cast<void**>(block) = nullptr;
  if (list.tail == nullptr) {
    list.head = block;
  } else {
    unpoison(list.tail, sizeof(void*));
    *static_cast<void**>(list.tail) = block;
    poison(list.tail, sizeof(void*));
  }
  list.tail = block;
#else
  *static_cast<void**>(block) = list.head;
  list.head = block;
#endif
  ++list.size;
  poison(block, list.block_bytes);
  return true;
}

/// The calling thread's list for blocks of type `Block`.
template <typename Block>
FreeList& free_list() noexcept {
  static_assert(sizeof(Block) >= sizeof(void*));
  static_assert(alignof(Block) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static thread_local FreeList list{.block_bytes = sizeof(Block)};
  return list;
}

/// Allocator that make_message hands to std::allocate_shared, which rebinds
/// it to its control block (the block that also holds the message).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 1) {
      if (void* block = take(free_list<T>())) return static_cast<T*>(block);
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1 && give(free_list<T>(), p)) return;
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace detail

/// Constructs an immutable message in a block from the calling thread's free
/// list for T (see the lifetime rule at the top of this file).
template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::allocate_shared<T>(detail::PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

/// Safe downcast used by receive handlers; returns nullptr on type mismatch.
/// One TypeId compare: T must be a final type declared with
/// WAN_MESSAGE_TYPE, so matching its id means the object is exactly a T.
template <typename T>
const T* message_cast(const MessagePtr& msg) noexcept {
  static_assert(std::is_final_v<T>,
                "message_cast needs a final WAN_MESSAGE_TYPE type");
  return msg != nullptr && msg->type_id() == T::static_type_id()
             ? static_cast<const T*>(msg.get())
             : nullptr;
}

}  // namespace wan::net
