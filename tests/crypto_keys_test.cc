#include "crypto/keys.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "util/stats.h"

namespace zr::crypto {
namespace {

const PreparedCipher& CipherOf(const KeyStore& ks, GroupId group) {
  auto cipher = ks.Cipher(group);
  EXPECT_TRUE(cipher.ok()) << cipher.status();
  return **cipher;
}

// The raw AES-CTR keystream of a group's cipher: differs iff the enc keys do.
std::string Keystream(const KeyStore& ks, GroupId group) {
  return CipherOf(ks, group).CtrTransform(1, std::string(32, '\0'));
}

TEST(KeyStoreTest, CreateGroupOnceOnly) {
  KeyStore ks("seed");
  EXPECT_TRUE(ks.CreateGroup(1).ok());
  EXPECT_TRUE(ks.CreateGroup(1).IsAlreadyExists());
  EXPECT_TRUE(ks.HasGroup(1));
  EXPECT_FALSE(ks.HasGroup(2));
}

TEST(KeyStoreTest, GroupKeysHaveExpectedSizes) {
  // Replays the store's DRBG to recover group 5's master secret, derives
  // the keys by hand, and checks that the store's prepared cipher is
  // exactly AES-128 under the 16-byte enc key with HMAC under the 32-byte
  // mac key.
  Drbg drbg("seed");
  (void)drbg.GenerateBytes(32);  // directory key
  (void)drbg.NextU64();          // nonce salt
  std::string master = drbg.GenerateBytes(32);
  std::string enc_key =
      DigestToKey(DeriveKey(master, "zerber-enc", "")).substr(0, 16);
  std::string mac_key = DigestToKey(DeriveKey(master, "zerber-mac", ""));
  EXPECT_EQ(enc_key.size(), 16u);  // AES-128
  EXPECT_EQ(mac_key.size(), 32u);  // HMAC-SHA-256
  EXPECT_NE(enc_key, mac_key.substr(0, 16));

  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(5).ok());
  auto expected = PreparedCipher::Create(enc_key, mac_key);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(CipherOf(ks, 5).Seal(9, "payload"), expected->Seal(9, "payload"));
}

TEST(KeyStoreTest, UnknownGroupIsNotFound) {
  KeyStore ks("seed");
  EXPECT_TRUE(ks.Cipher(9).status().IsNotFound());
}

TEST(KeyStoreTest, GroupsHaveIndependentKeys) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(1).ok());
  ASSERT_TRUE(ks.CreateGroup(2).ok());
  ASSERT_TRUE(ks.Cipher(1).ok() && ks.Cipher(2).ok());
  EXPECT_NE(Keystream(ks, 1), Keystream(ks, 2));
  // Group 2's MAC key rejects group 1's tag.
  EXPECT_TRUE(CipherOf(ks, 2)
                  .Open(CipherOf(ks, 1).Seal(3, "payload"))
                  .status()
                  .IsCorruption());
}

TEST(KeyStoreTest, DeterministicAcrossInstancesWithSameSeed) {
  KeyStore a("same-seed"), b("same-seed");
  ASSERT_TRUE(a.CreateGroup(1).ok());
  ASSERT_TRUE(b.CreateGroup(1).ok());
  EXPECT_EQ(Keystream(a, 1), Keystream(b, 1));
  EXPECT_EQ(a.TermPseudonym("hello"), b.TermPseudonym("hello"));
}

TEST(KeyStoreTest, DifferentSeedsDifferentKeys) {
  KeyStore a("seed-1"), b("seed-2");
  ASSERT_TRUE(a.CreateGroup(1).ok());
  ASSERT_TRUE(b.CreateGroup(1).ok());
  EXPECT_NE(Keystream(a, 1), Keystream(b, 1));
  EXPECT_NE(a.TermPseudonym("hello"), b.TermPseudonym("hello"));
}

TEST(KeyStoreTest, TermPseudonymsDistinctPerTerm) {
  KeyStore ks("seed");
  std::set<uint64_t> pseudonyms;
  for (int i = 0; i < 1000; ++i) {
    pseudonyms.insert(ks.TermPseudonym("term" + std::to_string(i)));
  }
  EXPECT_EQ(pseudonyms.size(), 1000u);
}

TEST(KeyStoreTest, DeterministicUnitInRangeAndUniform) {
  KeyStore ks("seed");
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    double v = ks.DeterministicUnit("rare-term", static_cast<uint64_t>(i));
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    values.push_back(v);
  }
  // Pseudo-random TRS values for unseen terms must look uniform: that is the
  // paper's Section 5.1.1 requirement.
  EXPECT_LT(KolmogorovSmirnovUniform(values), 0.03);
}

TEST(KeyStoreTest, DeterministicUnitIsStable) {
  KeyStore ks("seed");
  EXPECT_EQ(ks.DeterministicUnit("t", 1), ks.DeterministicUnit("t", 1));
  EXPECT_NE(ks.DeterministicUnit("t", 1), ks.DeterministicUnit("t", 2));
  EXPECT_NE(ks.DeterministicUnit("t", 1), ks.DeterministicUnit("u", 1));
}

TEST(KeyStoreTest, NoncesNeverRepeat) {
  KeyStore ks("seed");
  std::set<uint64_t> nonces;
  for (int i = 0; i < 10000; ++i) nonces.insert(ks.NextNonce());
  EXPECT_EQ(nonces.size(), 10000u);
}

}  // namespace
}  // namespace zr::crypto
