// Group key management.
//
// In the Zerber model (paper Sections 2-3) documents belong to collaboration
// groups; members of a group share key material that the index server never
// sees. The KeyStore draws a master secret per group, derives independent
// encryption/MAC subkeys from it once, when the group is created, and keeps
// only the group's PreparedCipher (crypto/ctr.h): the expanded AES-128 key
// schedule plus the HMAC-SHA-256 states after the ipad and opad blocks.
// Sealing or opening a posting element therefore does no key derivation or
// key setup. A corpus-wide directory key, prepared the same way, maps terms
// to opaque pseudonyms so the server only ever sees posting-list IDs.

#ifndef ZERBERR_CRYPTO_KEYS_H_
#define ZERBERR_CRYPTO_KEYS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "crypto/ctr.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::crypto {

/// Identifier of a collaboration group.
using GroupId = uint32_t;

/// Client-side key store. The index server has no access to an instance of
/// this class; it only ever handles sealed bytes and pseudonymous IDs.
class KeyStore {
 public:
  /// Creates a store whose keys are derived deterministically from `seed`
  /// (reproducible experiments). Use a high-entropy seed in production.
  explicit KeyStore(std::string_view seed);

  /// Registers a group: generates its master secret, derives its 16-byte
  /// AES-128 key and 32-byte HMAC key under distinct labels, and prepares
  /// its cipher. AlreadyExists if the group was registered before.
  Status CreateGroup(GroupId group);

  /// True if the group exists.
  bool HasGroup(GroupId group) const;

  /// The group's prepared cipher. NotFound if unknown. The pointer stays
  /// valid for the store's lifetime (groups are never removed).
  StatusOr<const PreparedCipher*> Cipher(GroupId group) const;

  /// Deterministic pseudonym of a term under the directory key. The server
  /// observes pseudonyms (as posting-list lookup keys), never terms.
  uint64_t TermPseudonym(std::string_view term) const;

  /// Deterministic pseudo-random value in [0,1) bound to (term, context).
  /// Used for assigning random-but-reproducible TRS values to terms that
  /// were absent from the RSTF training set (paper Section 5.1.1).
  double DeterministicUnit(std::string_view term, uint64_t context) const;

  /// Fresh unique nonce for sealing (monotonic counter mixed with the
  /// seed). Safe to call from concurrent sealing threads — the counter is
  /// atomic, so nonces stay unique under the multi-threaded load driver.
  uint64_t NextNonce();

 private:
  Drbg drbg_;  // Declared first: the constructor draws directory_key_ from it.
  PreparedHmac directory_key_;
  std::map<GroupId, PreparedCipher> ciphers_;
  std::atomic<uint64_t> nonce_counter_{0};
  uint64_t nonce_salt_ = 0;
};

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_KEYS_H_
