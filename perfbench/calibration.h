// In-run machine-speed calibration.
//
// The benchmark's host drifts: per-second throughput of one unchanged run
// moves by ±25% in regimes of 10-20 s, with under 3% steal time, because
// the CPU itself runs slower while neighbours load the host. A kernel
// timed between the measured ops tracks that drift (perfbench/NOTES.md has
// the measurements), so each run reports its time metrics in calibrated
// seconds as well: wall time scaled by kReferenceNs / (median kernel time
// of the run).
//
// The kernel is the SHA-256 compression function, written here rather than
// taken from src/crypto so that no change to the program can move it. It
// has the high instruction-level parallelism of the program's hot path
// (HMAC-SHA-256 key derivation), which is what makes it sensitive to the
// same contention.

#ifndef ZR_PERFBENCH_CALIBRATION_H_
#define ZR_PERFBENCH_CALIBRATION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "trace.h"

namespace zr::perfbench {

class Calibration {
 public:
  /// Kernel time the calibrated metrics are scaled to: the kernel's median
  /// on the 4-vCPU KVM guest the bounds were measured on, in a quiet period.
  static constexpr double kReferenceNs = 1.40e6;

  /// Times one kernel run and records it.
  void Sample() {
    const uint64_t start = NowNs();
    const uint32_t digest = Kernel();
    samples_.push_back(NowNs() - start);
    if (digest == 0x5EED) std::abort();  // keeps the result observable
  }

  size_t samples() const { return samples_.size(); }

  /// Median kernel time of the run; kReferenceNs before any sample.
  double MedianNs() const {
    if (samples_.empty()) return kReferenceNs;
    std::vector<uint64_t> v = samples_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return static_cast<double>(v[v.size() / 2]);
  }

  /// Multiply a wall-clock duration by this to get calibrated time.
  double TimeScale() const { return kReferenceNs / MedianNs(); }

 private:
  static uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

  /// 4000 SHA-256 compressions, each block chained to the previous state.
  static uint32_t Kernel() {
    static constexpr std::array<uint32_t, 8> kInit = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    std::array<uint32_t, 8> st = kInit;
    std::array<uint32_t, 64> w{};
    for (int block = 0; block < 4000; ++block) {
      w[0] = st[0];
      w[1] = st[3];
      for (int i = 16; i < 64; ++i) {
        uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
      }
      uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
      uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
      for (int i = 0; i < 64; ++i) {
        uint32_t t1 = h + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) +
                      ((e & f) ^ (~e & g)) + w[i] + 0x428a2f98u * static_cast<uint32_t>(i);
        uint32_t t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) +
                      ((a & b) ^ (a & c) ^ (b & c));
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
      }
      st[0] += a;
      st[1] += b;
      st[2] += c;
      st[3] += d;
      st[4] += e;
      st[5] += f;
      st[6] += g;
      st[7] += h;
    }
    return st[0] ^ st[7];
  }

  std::vector<uint64_t> samples_;
};

}  // namespace zr::perfbench

#endif  // ZR_PERFBENCH_CALIBRATION_H_
