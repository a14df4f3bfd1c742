#include "auth/credentials.hpp"

namespace wan::auth {

namespace {
// One extra mixing round keeps signatures visually uncorrelated with inputs.
constexpr std::uint64_t remix(std::uint64_t v) noexcept {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ULL;
  v ^= v >> 33;
  return v;
}

// The hash state a signature by `user` under `public_key` starts from.
std::uint64_t signature_seed(UserId user, std::uint64_t public_key) noexcept {
  return hash_mix(remix(public_key ^ 0x5eed5eed5eed5eedULL), user.value());
}
}  // namespace

std::uint64_t derive_public_key(std::uint64_t secret) noexcept {
  return remix(secret ^ 0xa5a5a5a5deadbeefULL);
}

KeyPair generate_keypair(Rng& rng) noexcept {
  KeyPair kp;
  kp.secret = rng.next_u64();
  kp.public_key = derive_public_key(kp.secret);
  return kp;
}

Signature sign(UserId user, std::string_view payload, std::uint64_t secret) noexcept {
  // The verifier recomputes this from the public key; in this toy scheme the
  // public key determines the signing seed, so "only the secret holder can
  // sign" is a simulation convention, not a cryptographic property (see the
  // header's disclaimer). Honest principals call sign(); an adversary without
  // the key pair is modeled as producing garbage signatures.
  const std::uint64_t h =
      fnv1a(payload, signature_seed(user, derive_public_key(secret)));
  return Signature{remix(h)};
}

bool verify_parts(UserId user, std::uint64_t public_key,
                  std::initializer_list<std::string_view> parts,
                  Signature sig) noexcept {
  std::uint64_t h = signature_seed(user, public_key);
  for (const std::string_view part : parts) h = fnv1a(part, h);
  return Signature{remix(h)} == sig;
}

void KeyRegistry::register_user(UserId user, std::uint64_t public_key) {
  keys_[user] = public_key;
}

std::optional<std::uint64_t> KeyRegistry::lookup(UserId user) const {
  const auto it = keys_.find(user);
  if (it == keys_.end()) return std::nullopt;
  return it->second;
}

bool KeyRegistry::verify(UserId user, std::string_view payload, Signature sig) const {
  const auto pk = lookup(user);
  return pk && verify_parts(user, *pk, {payload}, sig);
}

}  // namespace wan::auth
