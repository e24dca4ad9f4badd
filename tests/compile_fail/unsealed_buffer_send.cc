// Negative-compile: a raw std::string (potential plaintext) must not flow
// into the sealed slot of a posting element. Only a cipher's Seal output —
// adopted at a boundary tools/check_sealed.py audits — may cross to the
// untrusted server. Unlike the thread-safety snippets this one fails on
// every compiler: SealedBytes has no public constructor from raw bytes.
//
// expect-error: SealedBytes

#include <string>
#include <utility>

#include "zerber/posting_element.h"

int main() {
  zr::zerber::EncryptedPostingElement element;
  std::string plaintext = "confidential term bytes";
#ifndef ZR_SANITY_ONLY
  element.sealed = plaintext;  // BAD: plaintext across the sealed boundary.
#else
  element.sealed = zr::zerber::SealedBytes::Adopt(std::move(plaintext));
#endif
  return static_cast<int>(element.sealed.size());
}
