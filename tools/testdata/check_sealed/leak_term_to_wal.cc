// Fixture: opening a sealed element inside the WAL writer and appending
// the recovered plaintext term bytes to a log record. The WAL lives on
// server-controlled disk, so everything appended must stay ciphertext;
// crypto::PreparedCipher::Open belongs on the trusted client side only.

#include <string>

namespace zr {

struct WalWriter {
  std::string buffer;
  void Append(const std::string& record);
};

std::string OpenPostingElement(const std::string& sealed);  // expect-finding: plaintext-type-at-boundary

void LogInsert(WalWriter* wal, const std::string& frame) {
  auto plain = OpenPostingElement(frame);  // expect-finding: plaintext-type-at-boundary
  wal->Append(plain);  // expect-finding: tainted-flow
}

}  // namespace zr
