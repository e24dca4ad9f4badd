// Known-answer test for sealing: fixed KeyStore seed, groups, payloads and
// seal order pin the exact bytes of sealed posting elements and snippets,
// and the values of TermPseudonym and DeterministicUnit. Snapshots, WALs
// and the privacy baseline all store or replay these bytes, so any change
// to key derivation, nonce generation, CTR or the MAC shows up here.
// The vectors were produced by the implementation that derived the group
// keys anew for every element; the prepared per-group cipher must match it.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "crypto/keys.h"
#include "zerber/document_store.h"
#include "zerber/posting_element.h"

namespace zr::zerber {
namespace {

std::string Hex(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

TEST(SealingKnownAnswerTest, SealedElementsAndSnippetsAreByteExact) {
  crypto::KeyStore keys("zerber-kat-seed");
  for (crypto::GroupId g : {1u, 7u, 300u}) ASSERT_TRUE(keys.CreateGroup(g).ok());

  const struct {
    PostingPayload payload;
    crypto::GroupId group;
    const char* hex;
  } kElements[] = {
      {{0, 0, 0.0}, 1, "30c4abe6d9ccc0ed8d4e15812a4968f9700badee26a4826e3846"},
      {{7, 99, 0.125},
       7,
       "30c4abe6d9ccc0ef905e1d545d535ee794c2359c8b8b0c07a3d5"},
      {{300, 70000, 1.0 / 3},
       300,
       "30c4abe6d9ccc0e9ab76468c01a40ff442fdf7a143f4f3a2430b07cefc"},
      {{0xFFFFFFFFu, 0xFFFFFFFFu, 1.0},
       1,
       "30c4abe6d9ccc0ebc2c7acbef0f5a14a8a969cee58ea45d2f2addcde6ab5dfd1c1b8"},
  };
  const struct {
    std::string text;
    crypto::GroupId group;
    const char* hex;
  } kSnippets[] = {
      {"", 7, "30c4abe6d9ccc0ec5c64ea07e6ec79b7"},
      {"short snippet", 1,
       "30c4abe6d9ccc0eea0bd1e6c62a8d2dd8fa5ab39d0117365e73889d3d9"},
      {std::string(64, 's'), 300,
       "30c4abe6d9ccc0e8fad2a1bcc1844c80eb420adcaf166255d268a0f392fb757ee563ac"
       "809906d6bce59b61956927f7a0772ff9f3b4ad38b52d2e5b7dcc17091de576f568a211"
       "5ecbba34a7e8e777aa1c"},
      {"The quick brown fox jumps over the lazy dog; a snippet long enough to "
       "span several AES blocks and two SHA-256 blocks of MAC input.",
       7,
       "30c4abe6d9ccc0eafdbfb167dad8f7e8e1cc3f34e6a48755d4e8f9fd166874e7576dae"
       "5749a885070900ab2b271736ecebaa2c0a67849f88985a0f7f8d0b0e37a0e58581da40"
       "ca1a456b4d0252e60e4f1c4e54d91fb9f10789ce228201ae2164cc9f6c299cbba20578"
       "975b424d6678d0a884417d6239a2101897138818faac2980a17b41044f5d7d0153ab7f"
       "cf8d405492e1"},
  };

  // Elements and snippets interleave, so each draws the next nonce.
  for (int i = 0; i < 4; ++i) {
    const auto& e = kElements[i];
    auto element = SealPostingElement(e.payload, e.group, 0.5, &keys);
    ASSERT_TRUE(element.ok()) << element.status();
    EXPECT_EQ(Hex(element->sealed.view()), e.hex) << "element " << i;
    auto opened = OpenPostingElement(*element, keys);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(*opened, e.payload);

    const auto& s = kSnippets[i];
    auto snippet = SealSnippet(s.text, s.group, &keys);
    ASSERT_TRUE(snippet.ok()) << snippet.status();
    EXPECT_EQ(Hex(snippet->sealed.view()), s.hex) << "snippet " << i;
    auto text = OpenSnippet(*snippet, keys);
    ASSERT_TRUE(text.ok()) << text.status();
    EXPECT_EQ(*text, s.text);
  }
}

TEST(SealingKnownAnswerTest, DirectoryKeyValuesAreExact) {
  crypto::KeyStore keys("zerber-kat-seed");
  EXPECT_EQ(keys.TermPseudonym(""), 0x70f837b75ed22892ULL);
  EXPECT_EQ(keys.TermPseudonym("alpha"), 0x8d1554996d0fa8ddULL);
  EXPECT_EQ(keys.TermPseudonym("confidential"), 0x772f8bc213d86c0cULL);

  const struct {
    uint64_t context;
    uint64_t bits;
  } kUnits[] = {
      {0, 0x3fcde2b4c08b7cd8ULL},
      {12345, 0x3fe1fc2ad2a4e654ULL},
      {0xFFFFFFFFFFFFFFFFULL, 0x3fdd08c00e3c4404ULL},
  };
  for (const auto& u : kUnits) {
    double v = keys.DeterministicUnit("rare-term", u.context);
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    EXPECT_EQ(bits, u.bits) << "context " << u.context;
  }
}

}  // namespace
}  // namespace zr::zerber
