// AES-CTR stream encryption (SP 800-38A) with an HMAC integrity tag.
//
// Posting elements are sealed with Encrypt-then-MAC: AES-CTR for
// confidentiality, truncated HMAC-SHA-256 for integrity. The nonce is caller
// supplied and must be unique per (key, message).

#ifndef ZERBERR_CRYPTO_CTR_H_
#define ZERBERR_CRYPTO_CTR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::crypto {

/// Bytes of HMAC tag appended by Seal (truncated HMAC-SHA-256).
constexpr size_t kSealTagSize = 8;

/// Bytes of nonce prepended by Seal.
constexpr size_t kSealNonceSize = 8;

/// An Encrypt-then-MAC cipher with its key setup done once: the expanded AES
/// key schedule and the prepared HMAC. Seal and Open do no key work.
/// Immutable after Create; safe to share across threads.
class PreparedCipher {
 public:
  /// `enc_key` must be 16 or 32 bytes (InvalidArgument otherwise); `mac_key`
  /// should be independent of it (see DeriveKey).
  static StatusOr<PreparedCipher> Create(std::string_view enc_key,
                                         std::string_view mac_key);

  /// Raw CTR keystream transform: out = data XOR AES-CTR(enc_key, nonce).
  /// Symmetric: applying it twice with the same nonce restores the input.
  std::string CtrTransform(uint64_t nonce, std::string_view data) const;

  /// Authenticated encryption: nonce (8B BE) || ciphertext || tag (8B).
  std::string Seal(uint64_t nonce, std::string_view plaintext) const;

  /// Inverse of Seal. Corruption if the tag does not verify or the message
  /// is malformed.
  StatusOr<std::string> Open(std::string_view sealed) const;

 private:
  PreparedCipher(Aes aes, std::string_view mac_key)
      : aes_(aes), mac_(mac_key) {}

  // XORs the keystream for `nonce` into data[0, len).
  void ApplyKeystream(uint64_t nonce, char* data, size_t len) const;

  Aes aes_;
  PreparedHmac mac_;
};

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_CTR_H_
