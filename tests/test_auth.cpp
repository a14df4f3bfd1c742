// Unit tests for the toy signature scheme and the replay-suppressing
// authenticator.
#include <gtest/gtest.h>

#include "auth/authenticator.hpp"
#include "auth/credentials.hpp"
#include "util/rng.hpp"

namespace wan::auth {
namespace {

TEST(Credentials, KeypairDerivesPublicFromSecret) {
  Rng rng(1);
  const KeyPair kp = generate_keypair(rng);
  EXPECT_EQ(kp.public_key, derive_public_key(kp.secret));
  EXPECT_NE(kp.public_key, kp.secret);
}

TEST(Credentials, DistinctKeypairs) {
  Rng rng(2);
  const KeyPair a = generate_keypair(rng);
  const KeyPair b = generate_keypair(rng);
  EXPECT_NE(a.secret, b.secret);
  EXPECT_NE(a.public_key, b.public_key);
}

TEST(Credentials, SignVerifyRoundTrip) {
  Rng rng(3);
  const KeyPair kp = generate_keypair(rng);
  KeyRegistry reg;
  reg.register_user(UserId(1), kp.public_key);
  const Signature sig = sign(UserId(1), "hello", kp.secret);
  EXPECT_TRUE(reg.verify(UserId(1), "hello", sig));
}

TEST(Credentials, TamperedPayloadFails) {
  Rng rng(4);
  const KeyPair kp = generate_keypair(rng);
  KeyRegistry reg;
  reg.register_user(UserId(1), kp.public_key);
  const Signature sig = sign(UserId(1), "hello", kp.secret);
  EXPECT_FALSE(reg.verify(UserId(1), "hellO", sig));
}

TEST(Credentials, WrongUserFails) {
  Rng rng(5);
  const KeyPair kp = generate_keypair(rng);
  KeyRegistry reg;
  reg.register_user(UserId(1), kp.public_key);
  reg.register_user(UserId(2), kp.public_key);
  const Signature sig = sign(UserId(1), "hello", kp.secret);
  EXPECT_FALSE(reg.verify(UserId(2), "hello", sig));
}

TEST(Credentials, WrongKeyFails) {
  Rng rng(6);
  const KeyPair kp = generate_keypair(rng);
  const KeyPair other = generate_keypair(rng);
  KeyRegistry reg;
  reg.register_user(UserId(1), kp.public_key);
  const Signature sig = sign(UserId(1), "hello", other.secret);
  EXPECT_FALSE(reg.verify(UserId(1), "hello", sig));
}

TEST(Credentials, UnknownUserFailsVerify) {
  KeyRegistry reg;
  EXPECT_FALSE(reg.verify(UserId(9), "x", Signature{123}));
  EXPECT_FALSE(reg.lookup(UserId(9)).has_value());
}

TEST(Credentials, ReRegistrationModelsRekeying) {
  Rng rng(7);
  const KeyPair old_kp = generate_keypair(rng);
  const KeyPair new_kp = generate_keypair(rng);
  KeyRegistry reg;
  reg.register_user(UserId(1), old_kp.public_key);
  const Signature old_sig = sign(UserId(1), "m", old_kp.secret);
  EXPECT_TRUE(reg.verify(UserId(1), "m", old_sig));
  reg.register_user(UserId(1), new_kp.public_key);
  EXPECT_FALSE(reg.verify(UserId(1), "m", old_sig));
  EXPECT_TRUE(reg.verify(UserId(1), "m", sign(UserId(1), "m", new_kp.secret)));
}

struct AuthenticatorFixture : ::testing::Test {
  Rng rng{10};
  KeyPair kp = generate_keypair(rng);
  KeyRegistry reg;
  UserId user{1};

  AuthenticatorFixture() { reg.register_user(user, kp.public_key); }

  Signature make_sig(std::string_view payload, std::uint64_t nonce) {
    return sign(user, Authenticator::signed_bytes(payload, nonce), kp.secret);
  }
};

TEST_F(AuthenticatorFixture, AcceptsValidMessage) {
  Authenticator auth(reg);
  EXPECT_EQ(auth.authenticate(user, "msg", 1, make_sig("msg", 1)),
            AuthResult::kOk);
}

TEST_F(AuthenticatorFixture, RejectsUnknownUser) {
  Authenticator auth(reg);
  EXPECT_EQ(auth.authenticate(UserId(99), "msg", 1, make_sig("msg", 1)),
            AuthResult::kUnknownUser);
}

TEST_F(AuthenticatorFixture, RejectsBadSignature) {
  Authenticator auth(reg);
  EXPECT_EQ(auth.authenticate(user, "msg", 1, Signature{0xdead}),
            AuthResult::kBadSignature);
}

TEST_F(AuthenticatorFixture, RejectsNonceReplay) {
  Authenticator auth(reg);
  EXPECT_EQ(auth.authenticate(user, "msg", 5, make_sig("msg", 5)),
            AuthResult::kOk);
  EXPECT_EQ(auth.authenticate(user, "msg", 5, make_sig("msg", 5)),
            AuthResult::kReplayed);
  EXPECT_EQ(auth.authenticate(user, "msg", 4, make_sig("msg", 4)),
            AuthResult::kReplayed);
  EXPECT_EQ(auth.authenticate(user, "msg", 6, make_sig("msg", 6)),
            AuthResult::kOk);
}

TEST_F(AuthenticatorFixture, NonceBoundToSignature) {
  Authenticator auth(reg);
  // A valid signature for nonce 1 presented with nonce 2 must fail.
  EXPECT_EQ(auth.authenticate(user, "msg", 2, make_sig("msg", 1)),
            AuthResult::kBadSignature);
}

TEST_F(AuthenticatorFixture, ResetClearsReplayFloor) {
  Authenticator auth(reg);
  EXPECT_EQ(auth.authenticate(user, "msg", 5, make_sig("msg", 5)),
            AuthResult::kOk);
  auth.reset();
  EXPECT_EQ(auth.authenticate(user, "msg", 5, make_sig("msg", 5)),
            AuthResult::kOk);
}

// authenticate() hashes the payload and the nonce into one stream instead
// of building signed_bytes(): for every payload length across the small-
// string boundary, a signature over signed_bytes() still verifies, and a
// flipped payload byte, nonce or signature bit does not.
TEST_F(AuthenticatorFixture, StreamedVerifyMatchesSignedBytesAtEveryLength) {
  for (std::size_t len = 0; len <= 64; ++len) {
    std::string payload(len, 'p');
    for (std::size_t i = 0; i < len; ++i) {
      payload[i] = static_cast<char>('a' + (i * 7 + len) % 26);
    }
    const std::uint64_t nonce = 0x0102030405060708ULL + len;
    const Signature sig = make_sig(payload, nonce);
    EXPECT_TRUE(reg.verify(user, Authenticator::signed_bytes(payload, nonce),
                           sig)) << len;

    Authenticator auth(reg);
    EXPECT_EQ(auth.authenticate(user, payload, nonce, sig), AuthResult::kOk)
        << len;
    Authenticator fresh(reg);
    EXPECT_EQ(fresh.authenticate(user, payload, nonce ^ 1, sig),
              AuthResult::kBadSignature) << len;
    EXPECT_EQ(fresh.authenticate(user, payload, nonce, Signature{sig.value ^ 1}),
              AuthResult::kBadSignature) << len;
    if (len > 0) {
      std::string tampered = payload;
      tampered[len / 2] ^= 0x20;
      EXPECT_EQ(fresh.authenticate(user, tampered, nonce, sig),
                AuthResult::kBadSignature) << len;
    }
  }
}

TEST(AuthResultNames, AllDistinct) {
  EXPECT_STREQ(to_string(AuthResult::kOk), "ok");
  EXPECT_STREQ(to_string(AuthResult::kReplayed), "replayed");
  EXPECT_STREQ(to_string(AuthResult::kBadSignature), "bad-signature");
  EXPECT_STREQ(to_string(AuthResult::kUnknownUser), "unknown-user");
}

}  // namespace
}  // namespace wan::auth
