// Non-cryptographic hashing helpers.
//
// FNV-1a is used for hashing composite keys (e.g. (app, user) pairs) and as
// the mixing primitive inside the toy signature scheme in src/auth. It is
// explicitly NOT a cryptographic hash; see auth/credentials.hpp for the
// security disclaimer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wan {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over raw bytes, continuing from `seed`.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Mixes a 64-bit value into a running hash (for composite keys).
constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Combines two std::size_t hashes (boost::hash_combine recipe).
constexpr std::size_t hash_combine(std::size_t a, std::size_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace wan
