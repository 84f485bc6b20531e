#include "crypto/vss.hpp"

#include <gtest/gtest.h>

namespace lyra::crypto {
namespace {

class VssTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 7;
  static constexpr std::uint32_t kThreshold = 5;  // 2f+1 with f=2

  VssTest()
      : rng_(55), registry_(kN, kThreshold, rng_),
        vss_(&registry_, kN, kThreshold) {}

  std::vector<VssShare> shares_from(const VssCipher& cipher,
                                    std::initializer_list<NodeId> owners) {
    std::vector<VssShare> out;
    for (NodeId i : owners) {
      out.push_back(vss_.partial_decrypt(cipher, registry_.signer_for(i)));
    }
    return out;
  }

  Rng rng_;
  KeyRegistry registry_;
  Vss vss_;
};

TEST_F(VssTest, EncryptDecryptRoundTrip) {
  const Bytes payload = to_bytes("transfer 100 from alice to bob");
  const VssCipher cipher = vss_.encrypt(payload, rng_);
  const auto plain =
      vss_.decrypt(cipher, shares_from(cipher, {0, 1, 2, 3, 4}));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, payload);
}

TEST_F(VssTest, AnyThresholdSubsetDecrypts) {
  const Bytes payload = to_bytes("payload");
  const VssCipher cipher = vss_.encrypt(payload, rng_);
  const auto plain =
      vss_.decrypt(cipher, shares_from(cipher, {2, 4, 5, 6, 0}));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, payload);
}

TEST_F(VssTest, CiphertextDiffersFromPayload) {
  const Bytes payload = to_bytes("visible-payload-visible-payload!");
  const VssCipher cipher = vss_.encrypt(payload, rng_);
  EXPECT_NE(cipher.ciphertext, payload);
}

TEST_F(VssTest, TooFewSharesFail) {
  const VssCipher cipher = vss_.encrypt(to_bytes("secret"), rng_);
  EXPECT_FALSE(vss_.decrypt(cipher, shares_from(cipher, {0, 1, 2, 3}))
                   .has_value());
}

TEST_F(VssTest, DuplicateSharesDoNotReachThreshold) {
  const VssCipher cipher = vss_.encrypt(to_bytes("secret"), rng_);
  auto shares = shares_from(cipher, {0, 1, 2, 3});
  shares.push_back(shares[0]);
  EXPECT_FALSE(vss_.decrypt(cipher, shares).has_value());
}

TEST_F(VssTest, SharesVerifyAgainstCommitments) {
  const VssCipher cipher = vss_.encrypt(to_bytes("secret"), rng_);
  for (NodeId i = 0; i < kN; ++i) {
    const VssShare share =
        vss_.partial_decrypt(cipher, registry_.signer_for(i));
    EXPECT_TRUE(vss_.verify_share(cipher, share));
  }
}

TEST_F(VssTest, CorruptedShareIsDetectedAndIgnored) {
  const Bytes payload = to_bytes("secret");
  const VssCipher cipher = vss_.encrypt(payload, rng_);
  auto shares = shares_from(cipher, {0, 1, 2, 3, 4, 5});
  shares[0].key_share.y[0] ^= 0xff;  // Byzantine share
  EXPECT_FALSE(vss_.verify_share(cipher, shares[0]));
  // Five honest shares remain: decryption still succeeds.
  const auto plain = vss_.decrypt(cipher, shares);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, payload);
}

TEST_F(VssTest, MislabeledOwnerIsRejected) {
  const VssCipher cipher = vss_.encrypt(to_bytes("secret"), rng_);
  VssShare share = vss_.partial_decrypt(cipher, registry_.signer_for(1));
  share.owner = 2;  // claim someone else produced it
  EXPECT_FALSE(vss_.verify_share(cipher, share));
}

TEST_F(VssTest, WrongProcessCannotUnsealAnotherShare) {
  // Process 1 "stealing" process 0's sealed share gets garbage that fails
  // the commitment check.
  const VssCipher cipher = vss_.encrypt(to_bytes("secret"), rng_);
  VssShare stolen = vss_.partial_decrypt(cipher, registry_.signer_for(1));
  // Re-label the unsealed bytes as share 0.
  stolen.owner = 0;
  stolen.key_share.x = 1;
  EXPECT_FALSE(vss_.verify_share(cipher, stolen));
}

TEST_F(VssTest, EncryptSetsTheCheckedId) {
  const VssCipher cipher = vss_.encrypt(to_bytes("secret"), rng_);
  EXPECT_EQ(cipher.id, cipher.compute_id());
  EXPECT_NE(cipher.id, Digest{});
}

TEST_F(VssTest, AlteredIdFailsEveryHonestShare) {
  // verify_share and partial_decrypt trust the carried id; a cipher whose
  // id does not match its content yields no share that verifies and so
  // never decrypts.
  const Bytes payload = to_bytes("secret");
  const VssCipher cipher = vss_.encrypt(payload, rng_);
  VssCipher altered = cipher;
  altered.id[0] ^= 0x01;
  ASSERT_NE(altered.id, altered.compute_id());
  std::vector<VssShare> honest;
  for (NodeId i = 0; i < kN; ++i) {
    const VssShare share =
        vss_.partial_decrypt(cipher, registry_.signer_for(i));
    EXPECT_FALSE(vss_.verify_share(altered, share)) << "share " << i;
    honest.push_back(share);
  }
  EXPECT_FALSE(vss_.decrypt(altered, honest).has_value());
  EXPECT_FALSE(
      vss_.decrypt(altered, shares_from(altered, {0, 1, 2, 3, 4, 5, 6}))
          .has_value());
  EXPECT_EQ(vss_.decrypt(cipher, honest), payload);
}

TEST_F(VssTest, DistinctEncryptionsOfSamePayloadDiffer) {
  const Bytes payload = to_bytes("same payload");
  const VssCipher c1 = vss_.encrypt(payload, rng_);
  const VssCipher c2 = vss_.encrypt(payload, rng_);
  EXPECT_NE(c1.ciphertext, c2.ciphertext);  // fresh key per encryption
}

TEST_F(VssTest, EmptyPayloadRoundTrips) {
  const VssCipher cipher = vss_.encrypt(Bytes{}, rng_);
  const auto plain =
      vss_.decrypt(cipher, shares_from(cipher, {0, 1, 2, 3, 4}));
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->empty());
}

TEST_F(VssTest, LargePayloadRoundTrips) {
  Bytes payload(100 * 1024);
  Rng fill(123);
  for (auto& b : payload) b = static_cast<std::uint8_t>(fill.next_u64());
  const VssCipher cipher = vss_.encrypt(payload, rng_);
  const auto plain =
      vss_.decrypt(cipher, shares_from(cipher, {6, 5, 4, 3, 2}));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, payload);
}

}  // namespace
}  // namespace lyra::crypto
