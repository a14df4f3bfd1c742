// User identities and a simulation-grade signature scheme.
//
// The paper assumes an authentication method (e.g. RSA) so that "a message
// sent by user U has indeed been sent by this user", and treats it as a
// black box. We honour the black box: the protocol only ever calls
// sign()/verify(). The implementation here is a *keyed hash* over FNV-1a —
// deterministic, dependency-free, and adequate for exercising the
// authenticated/forged/tampered code paths in a simulator.
//
//   *** NOT CRYPTOGRAPHICALLY SECURE. Simulation stand-in only. ***
//
// Swapping in a real scheme means reimplementing Signer/Verifier against a
// crypto library; no protocol code changes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/hash.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace wan::auth {

/// Opaque signature value carried inside signed messages.
struct Signature {
  std::uint64_t value = 0;
  bool operator==(const Signature&) const = default;
};

/// A user's long-term key pair. In the toy scheme the "private key" is a
/// random 64-bit secret and the "public key" is a commitment to it that the
/// verifier can check signatures against without learning the secret
/// (trivially breakable; see file comment).
struct KeyPair {
  std::uint64_t secret = 0;
  std::uint64_t public_key = 0;
};

/// Derives the public commitment for a secret.
[[nodiscard]] std::uint64_t derive_public_key(std::uint64_t secret) noexcept;

/// Generates a fresh key pair from the given randomness stream.
[[nodiscard]] KeyPair generate_keypair(Rng& rng) noexcept;

/// Signs `payload` (arbitrary bytes) as `user` with `secret`.
[[nodiscard]] Signature sign(UserId user, std::string_view payload,
                             std::uint64_t secret) noexcept;

/// Verifies `sig` by `user` (holder of `public_key`) over the concatenation
/// of `parts`. The parts are hashed as one stream, so the result equals
/// verifying their joined bytes without building them.
[[nodiscard]] bool verify_parts(UserId user, std::uint64_t public_key,
                                std::initializer_list<std::string_view> parts,
                                Signature sig) noexcept;

/// Trusted registry of user public keys — the paper's authentication
/// infrastructure (Kerberos/RSA certificate directory) reduced to a map.
/// One instance is shared by all hosts in a simulation (it models globally
/// pre-distributed certificates, not an online service).
class KeyRegistry {
 public:
  /// Registers a user's public key; re-registration overwrites (models
  /// re-keying after a compromise).
  void register_user(UserId user, std::uint64_t public_key);

  [[nodiscard]] std::optional<std::uint64_t> lookup(UserId user) const;

  /// Verifies that `sig` is a valid signature by `user` over `payload`.
  /// Unknown users verify as false.
  [[nodiscard]] bool verify(UserId user, std::string_view payload,
                            Signature sig) const;

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::unordered_map<UserId, std::uint64_t> keys_;
};

}  // namespace wan::auth
