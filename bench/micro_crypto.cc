// Microbenchmarks: crypto substrate throughput (google-benchmark).
//
// Not a paper figure; documents implementation speed, and times the
// client's real posting-element seal/open path through the KeyStore.

#include <benchmark/benchmark.h>

#include <string>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "zerber/posting_element.h"

namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
  auto aes = zr::crypto::Aes::Create(std::string(16, 'k'));
  zr::crypto::AesBlock block{};
  for (auto _ : state) {
    aes->EncryptBlock(&block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = zr::crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  std::string key(32, 'k');
  std::string data(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    auto mac = zr::crypto::HmacSha256(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(1024);

// A posting payload whose serialized size is state.range(0) bytes: 8 bytes
// of score plus a term and a doc id of (range - 8) / 2 varint bytes each.
zr::zerber::PostingPayload PayloadOfSize(int64_t bytes) {
  const int varint_bytes = static_cast<int>(bytes - 8) / 2;
  const uint32_t id = varint_bytes >= 5
                          ? 0xFFFFFFFFu
                          : (uint32_t{1} << (7 * varint_bytes)) - 1;
  return zr::zerber::PostingPayload{id, id, 0.25};
}

// Both posting-element benches go through the KeyStore, as the client does:
// a group lookup plus the group's prepared cipher.
void BM_SealPostingElementSizedPayload(benchmark::State& state) {
  zr::crypto::KeyStore keys("bench");
  if (!keys.CreateGroup(1).ok()) state.SkipWithError("CreateGroup failed");
  zr::zerber::PostingPayload payload = PayloadOfSize(state.range(0));
  for (auto _ : state) {
    auto element = zr::zerber::SealPostingElement(payload, 1, 0.5, &keys);
    benchmark::DoNotOptimize(element);
  }
}
BENCHMARK(BM_SealPostingElementSizedPayload)->Arg(10)->Arg(18);

void BM_OpenPostingElement(benchmark::State& state) {
  zr::crypto::KeyStore keys("bench");
  if (!keys.CreateGroup(1).ok()) state.SkipWithError("CreateGroup failed");
  auto element = zr::zerber::SealPostingElement(
      zr::zerber::PostingPayload{4711, 90210, 0.125}, 1, 0.5, &keys);
  if (!element.ok()) state.SkipWithError("SealPostingElement failed");
  for (auto _ : state) {
    auto opened = zr::zerber::OpenPostingElement(*element, keys);
    benchmark::DoNotOptimize(opened);
  }
}
BENCHMARK(BM_OpenPostingElement);

void BM_DrbgBytes(benchmark::State& state) {
  zr::crypto::Drbg drbg("bench");
  std::string out;
  for (auto _ : state) {
    out.clear();
    drbg.Generate(static_cast<size_t>(state.range(0)), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgBytes)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
