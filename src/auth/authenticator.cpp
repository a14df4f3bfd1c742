#include "auth/authenticator.hpp"

#include <array>
#include <cstddef>
#include <string>

namespace wan::auth {

const char* to_string(AuthResult r) noexcept {
  switch (r) {
    case AuthResult::kOk: return "ok";
    case AuthResult::kUnknownUser: return "unknown-user";
    case AuthResult::kBadSignature: return "bad-signature";
    case AuthResult::kReplayed: return "replayed";
  }
  return "?";
}

namespace {
// The 8-byte little-endian nonce suffix of the signed bytes.
std::array<char, 8> nonce_bytes(std::uint64_t nonce) noexcept {
  std::array<char, 8> bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>((nonce >> (i * 8)) & 0xff);
  return bytes;
}
}  // namespace

std::string Authenticator::signed_bytes(std::string_view payload,
                                        std::uint64_t nonce) {
  const std::array<char, 8> suffix = nonce_bytes(nonce);
  std::string bytes(payload);
  bytes.append(suffix.data(), suffix.size());
  return bytes;
}

AuthResult Authenticator::authenticate(UserId user, std::string_view payload,
                                       std::uint64_t nonce, Signature sig) {
  const auto public_key = registry_->lookup(user);
  if (!public_key) return AuthResult::kUnknownUser;
  // Hashes the bytes signed_bytes() would build, without building them.
  const std::array<char, 8> suffix = nonce_bytes(nonce);
  if (!verify_parts(user, *public_key,
                    {payload, std::string_view(suffix.data(), suffix.size())},
                    sig))
    return AuthResult::kBadSignature;
  auto [it, inserted] = last_nonce_.try_emplace(user, nonce);
  if (!inserted) {
    if (nonce <= it->second) return AuthResult::kReplayed;
    it->second = nonce;
  }
  return AuthResult::kOk;
}

}  // namespace wan::auth
