// Encrypted posting elements (paper Sections 3.1 and 5).
//
// A posting element carries (term, document, raw relevance score) sealed
// under the owning group's keys. The server additionally sees:
//   * the group tag (needed to enforce access control),
//   * the transformed relevance score TRS (Zerber+R; enables server-side
//     top-k without revealing term-specific score distributions).
// For the plain Zerber baseline the TRS field holds a random placement key
// instead, reproducing Zerber's "posting elements are placed randomly inside
// the merged posting list".

#ifndef ZERBERR_ZERBER_POSTING_ELEMENT_H_
#define ZERBERR_ZERBER_POSTING_ELEMENT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "crypto/keys.h"
#include "text/document.h"
#include "text/vocabulary.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::zerber {

/// The confidential payload of a posting element (client-side only).
struct PostingPayload {
  text::TermId term = 0;
  text::DocId doc = 0;
  /// Raw relevance score rscore(t, d) = TF/|d| (Equation 4).
  double score = 0.0;

  friend bool operator==(const PostingPayload&, const PostingPayload&) = default;
};

/// Ciphertext produced by crypto::PreparedCipher::Seal, as a distinct type.
///
/// The confidential boundary of the system: anything crossing to the
/// untrusted server — frame encoders in net/, WAL appends in store/ — must
/// be sealed. Keeping sealed bytes in their own type makes that boundary
/// checkable: a raw std::string (potential plaintext) cannot be assigned
/// into a sealed slot; it must come out of Seal or be explicitly adopted at
/// a deserialization boundary. tools/check_sealed.py audits both the Adopt
/// call sites and the raw flows this type cannot see.
///
/// One pointer wide: the bytes live in a single heap block behind a size_t
/// length prefix (no block when empty). The index server holds one per
/// posting element and shifts them on every sorted insert and erase, so
/// each element stays small.
class SealedBytes {
 public:
  SealedBytes() = default;
  SealedBytes(const SealedBytes& other) : block_(Allocate(other.view())) {}
  SealedBytes(SealedBytes&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  SealedBytes& operator=(const SealedBytes& other) {
    if (this != &other) *this = SealedBytes(other);
    return *this;
  }
  // Steals rather than swaps: a vector shifting elements on insert/erase
  // chains move-assignments through neighbouring slots, and a swap makes
  // each one wait on the previous store.
  SealedBytes& operator=(SealedBytes&& other) noexcept {
    if (this != &other) {
      delete[] block_;
      block_ = std::exchange(other.block_, nullptr);
    }
    return *this;
  }
  ~SealedBytes() { delete[] block_; }

  /// Wraps bytes that are already ciphertext: Seal output, or bytes read
  /// back from a frame/WAL that themselves came from Seal. Every call site
  /// is a trust assertion; tools/check_sealed.py allowlists the files that
  /// may make it.
  static SealedBytes Adopt(std::string_view bytes) {
    return SealedBytes(Allocate(bytes));
  }

  /// Reading sealed bytes is unrestricted — they are ciphertext.
  operator std::string_view() const { return view(); }
  std::string_view view() const {
    return block_ == nullptr ? std::string_view()
                             : std::string_view(block_ + kHeader, size());
  }
  size_t size() const {
    size_t n = 0;
    if (block_ != nullptr) std::memcpy(&n, block_, kHeader);
    return n;
  }
  bool empty() const { return block_ == nullptr; }

  /// Mutable byte access (tamper-injection tests flip ciphertext bits).
  /// Out of line: inlined after a copy, gcc follows the empty (null block)
  /// branch and reports the write as -Wstringop-overflow.
  char& operator[](size_t i);
  char operator[](size_t i) const { return block_[kHeader + i]; }

  friend bool operator==(const SealedBytes& a, const SealedBytes& b) {
    return a.view() == b.view();
  }

 private:
  static constexpr size_t kHeader = sizeof(size_t);

  explicit SealedBytes(char* block) : block_(block) {}

  // A length-prefixed copy of `bytes`; nullptr when empty.
  static char* Allocate(std::string_view bytes) {
    if (bytes.empty()) return nullptr;
    size_t n = bytes.size();
    char* block = new char[kHeader + n];
    std::memcpy(block, &n, kHeader);
    std::memcpy(block + kHeader, bytes.data(), n);
    return block;
  }

  char* block_ = nullptr;
};

/// A posting element as stored on the (untrusted) index server.
struct EncryptedPostingElement {
  /// Owning collaboration group (server-visible; drives ACL filtering).
  crypto::GroupId group = 0;

  /// Server-assigned element handle (unique per server instance, 0 before
  /// insertion). Lets clients reference elements for deletion without the
  /// server learning their contents ("unlimited index update and insert
  /// operations", paper Section 7).
  uint64_t handle = 0;

  /// Transformed relevance score in [0, 1] (server-visible sort key).
  double trs = 0.0;

  /// The group cipher's Seal(nonce, serialized PostingPayload).
  SealedBytes sealed;

  /// Serialized wire size in bytes.
  size_t WireSize() const;
};

/// Serializes a payload (varint term, varint doc, fixed64 score bits).
std::string SerializePayload(const PostingPayload& payload);

/// Parses a payload; Corruption on malformed input.
StatusOr<PostingPayload> ParsePayload(std::string_view data);

/// Seals `payload` into an element for `group` with the given TRS.
/// Fails if the key store has no keys for the group.
StatusOr<EncryptedPostingElement> SealPostingElement(
    const PostingPayload& payload, crypto::GroupId group, double trs,
    crypto::KeyStore* keys);

/// Opens an element. PermissionDenied if the key store lacks the group's
/// keys; Corruption if authentication fails.
StatusOr<PostingPayload> OpenPostingElement(
    const EncryptedPostingElement& element, const crypto::KeyStore& keys);

/// Serializes an element for network transfer / persistence.
void AppendElement(std::string* dst, const EncryptedPostingElement& element);

/// Parses one element from a reader; Corruption on malformed input.
StatusOr<EncryptedPostingElement> ParseElement(std::string_view* data);

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_POSTING_ELEMENT_H_
