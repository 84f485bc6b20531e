#include "crypto/keys.hpp"

#include <gtest/gtest.h>

#include "support/hex.hpp"

namespace lyra::crypto {
namespace {

class KeysTest : public ::testing::Test {
 protected:
  KeysTest() : rng_(101), registry_(7, 5, rng_) {}  // n=7, f=2, 2f+1=5

  Rng rng_;
  KeyRegistry registry_;
};

TEST_F(KeysTest, SignVerifyRoundTrip) {
  const Bytes msg = to_bytes("tx-payload");
  const Signer signer = registry_.signer_for(3);
  const Signature sig = signer.sign(msg);
  EXPECT_TRUE(registry_.verify(msg, sig, 3));
}

TEST_F(KeysTest, VerifyRejectsWrongSigner) {
  const Bytes msg = to_bytes("tx-payload");
  const Signature sig = registry_.signer_for(3).sign(msg);
  EXPECT_FALSE(registry_.verify(msg, sig, 4));
}

TEST_F(KeysTest, VerifyRejectsTamperedMessage) {
  const Signature sig = registry_.signer_for(0).sign(to_bytes("original"));
  EXPECT_FALSE(registry_.verify(to_bytes("tampered"), sig, 0));
}

TEST_F(KeysTest, VerifyRejectsForgedClaim) {
  // A Byzantine process relabeling its own signature as another's fails.
  Signature sig = registry_.signer_for(1).sign(to_bytes("m"));
  sig.signer = 2;
  EXPECT_FALSE(registry_.verify(to_bytes("m"), sig, 2));
}

TEST_F(KeysTest, ShareSignVerifyRoundTrip) {
  const Bytes msg = to_bytes("value");
  const SigShare share = registry_.signer_for(6).share_sign(msg);
  EXPECT_TRUE(registry_.share_verify(msg, share, 6));
  EXPECT_FALSE(registry_.share_verify(msg, share, 5));
}

TEST_F(KeysTest, ShareAndSignatureDomainsAreSeparated) {
  // share-sign(m) must not validate as private-sign(m).
  const Bytes msg = to_bytes("value");
  const SigShare share = registry_.signer_for(2).share_sign(msg);
  const Signature as_sig{share.signer, share.mac};
  EXPECT_FALSE(registry_.verify(msg, as_sig, 2));
}

TEST_F(KeysTest, CombineNeedsThresholdShares) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 4; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  EXPECT_FALSE(registry_.share_combine(msg, shares).has_value());
  shares.push_back(registry_.signer_for(4).share_sign(msg));
  EXPECT_TRUE(registry_.share_combine(msg, shares).has_value());
}

TEST_F(KeysTest, CombineIgnoresDuplicatesAndInvalid) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  // Duplicate of share 0 and one corrupted share must not help or hurt.
  shares.push_back(shares[0]);
  SigShare bad = registry_.signer_for(5).share_sign(to_bytes("other"));
  shares.push_back(bad);
  const auto combined = registry_.share_combine(msg, shares);
  ASSERT_TRUE(combined.has_value());
  EXPECT_EQ(combined->shares.size(), 5u);
  EXPECT_TRUE(registry_.threshold_verify(*combined, msg));
}

TEST_F(KeysTest, CombineRejectsDuplicatesOnlyQuorum) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares(5, registry_.signer_for(0).share_sign(msg));
  EXPECT_FALSE(registry_.share_combine(msg, shares).has_value());
}

TEST_F(KeysTest, ThresholdVerifyRejectsWrongMessage) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  const auto combined = registry_.share_combine(msg, shares);
  ASSERT_TRUE(combined.has_value());
  EXPECT_FALSE(registry_.threshold_verify(*combined, to_bytes("decide-0")));
}

TEST_F(KeysTest, ThresholdVerifyRejectsDuplicatedShares) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  auto combined = registry_.share_combine(msg, shares);
  ASSERT_TRUE(combined.has_value());
  combined->shares[4] = combined->shares[0];  // forged proof
  EXPECT_FALSE(registry_.threshold_verify(*combined, msg));
}

TEST_F(KeysTest, DeriveSecretIsStablePerContext) {
  const Signer s = registry_.signer_for(1);
  const Bytes ctx1 = to_bytes("cipher-1");
  const Bytes ctx2 = to_bytes("cipher-2");
  EXPECT_EQ(s.derive_secret(ctx1), s.derive_secret(ctx1));
  EXPECT_NE(s.derive_secret(ctx1), s.derive_secret(ctx2));
  EXPECT_NE(s.derive_secret(ctx1), registry_.signer_for(2).derive_secret(ctx1));
}

// Known answers of a seeded 4-process registry. Simulated runs cannot tell
// a wrong-but-consistent MAC from the right one, so these pin the bytes of
// every keyed primitive directly. The messages cover the empty message, a
// short one, the 55/56-byte padding edge of the inner block (4-byte domain
// tag plus 52 bytes) and a body spanning two blocks.
TEST(KeysKnownAnswer, SeededRegistryMacs) {
  Rng rng(42);
  const KeyRegistry registry(4, 3, rng);
  Bytes edge(52);
  for (std::size_t i = 0; i < edge.size(); ++i) {
    edge[i] = static_cast<std::uint8_t>(i);
  }
  Bytes two_blocks(100);
  for (std::size_t i = 0; i < two_blocks.size(); ++i) {
    two_blocks[i] = static_cast<std::uint8_t>(0xa5 ^ i);
  }
  const auto hex = [](const Digest& d) { return to_hex(d); };
  EXPECT_EQ(hex(registry.signer_for(0).sign(Bytes{}).mac),
            "36c23bc563cf56a88906b49dc24d634adcc709b9be45d8d0ae5f1c6b5eb6506b");
  EXPECT_EQ(hex(registry.signer_for(1).sign(to_bytes("kat")).mac),
            "6f7bfb4a5e53f4838f32606af4785c7e01060f556e306adbdeeeabc9e320d54d");
  EXPECT_EQ(hex(registry.signer_for(3).sign(edge).mac),
            "18b3410a073d180235430dcdafbed0eadb4940a6135d8e29a1333819551035a8");
  EXPECT_EQ(hex(registry.signer_for(2).share_sign(to_bytes("kat")).mac),
            "c66e202064bd0929646691c95d85da639ad96bf879a1d764bb99445ac60c7f32");
  EXPECT_EQ(hex(registry.signer_for(3).share_sign(two_blocks).mac),
            "5559a172e5f75d145a9b8e6eb08fe784b758cae5ca05caf9330f0b4e58ca07a7");
  EXPECT_EQ(hex(registry.signer_for(0).derive_secret(to_bytes("cipher"))),
            "ef845946abada9b9133c900bb10a3adf7743d31a3dccf134b13e4117f8b78795");
}

}  // namespace
}  // namespace lyra::crypto
