// Small measurement helpers shared by the rdabench workloads: a steady
// clock, fixed-memory latency reservoirs, per-call timers, the value
// encoding the correctness shadow relies on, and a Zipf sampler.
#ifndef RDABENCH_BENCH_UTIL_H_
#define RDABENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <string>
#include <vector>

namespace rdabench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

// splitmix64: the benchmark's only source of pseudo-randomness, so a seed
// fully determines every generated input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a * 0x2545f4914f6cdd1dULL ^ b);
  return rng.Next();
}

// Uniform sample of at most `capacity` values (Algorithm R). The storage is
// allocated and touched up front, so the benchmark's resident memory does
// not grow with run length.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity, uint64_t seed = 1)
      : values_(capacity, 0.0f), rng_(seed) {}

  void Add(double value) {
    if (seen_ < values_.size()) {
      values_[seen_] = static_cast<float>(value);
    } else {
      const uint64_t slot = rng_.Uniform(seen_ + 1);
      if (slot < values_.size()) {
        values_[slot] = static_cast<float>(value);
      }
    }
    ++seen_;
  }
  // Appends the retained sample to `out`.
  void AppendTo(std::vector<double>* out) const {
    const size_t kept = std::min<uint64_t>(seen_, values_.size());
    out->insert(out->end(), values_.begin(), values_.begin() + kept);
  }

 private:
  std::vector<float> values_;
  uint64_t seen_ = 0;
  Rng rng_;
};

// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

// The facade calls the benchmark times. Each has a per-thread CallStats.
enum Call : int {
  kBegin,
  kRead,
  kWrite,
  kCommit,
  kAbort,
  kCheckpoint,
  kCrash,
  kRecover,
  kFailRebuild,
  kVerifyParity,
  kReadBack,  // RawReadPage sweeps of the correctness gate.
  kArchive,
  kNumCalls,
};

inline const char* CallName(int call) {
  static constexpr std::array<const char*, kNumCalls> kNames = {
      "begin",  "read",    "write",        "commit",        "abort",
      "ckpt",   "crash",   "recover",      "fail_rebuild",  "verify_parity",
      "read_back", "archive"};
  return kNames[call];
}

struct CallStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  Reservoir sample{1 << 14};

  void Add(uint64_t ns) {
    ++count;
    total_ns += ns;
    sample.Add(static_cast<double>(ns) / 1000.0);
  }
};

// One thread's timers. Only the per-operation transaction calls are gated
// by tracing; the rest are always timed because end-to-end metrics use them.
struct CallTimers {
  std::array<CallStats, kNumCalls> calls;

  template <typename Fn>
  auto Time(int call, Fn&& fn) {
    const uint64_t start = NowNs();
    auto result = fn();
    calls[call].Add(NowNs() - start);
    return result;
  }
};

// Deterministic contents for a page's user region or a record: the value
// is a pure function of a 64-bit stamp, so the correctness shadow stores
// one stamp per item and the benchmark can rebuild the expected bytes.
inline void FillValue(uint64_t stamp, uint8_t* out, size_t size) {
  const uint8_t filler = static_cast<uint8_t>((stamp * 0x9e3779b97f4a7c15ULL) >> 56);
  std::memset(out, filler, size);
  const size_t edge = std::min<size_t>(sizeof(stamp), size);
  std::memcpy(out, &stamp, edge);
  if (size >= 2 * sizeof(stamp)) {
    std::memcpy(out + size - sizeof(stamp), &stamp, sizeof(stamp));
  }
}

inline bool ValueMatches(uint64_t stamp, const uint8_t* data, size_t size) {
  thread_local std::vector<uint8_t> expected;
  expected.resize(size);
  FillValue(stamp, expected.data(), size);
  return std::memcmp(expected.data(), data, size) == 0;
}

// Zipf(theta) over [0, n) by inverse CDF; rank r has weight 1/(r+1)^theta.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  uint64_t Sample(Rng* rng) const {
    const double u = rng->Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// A field of /proc/self/status given in kB ("VmRSS:", "VmHWM:"), in MB.
inline double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0;
}

// High-water resident set of this process (VmHWM), in MB.
inline double PeakRssMb() { return StatusMb("VmHWM:"); }

// Resident set once the allocator has handed its free memory back to the
// system, in MB: the memory the program holds. How much freed memory the
// allocator keeps depends on how threads interleave, so the plain resident
// set varies between runs of the same code.
inline double TrimmedRssMb() {
  malloc_trim(0);
  return StatusMb("VmRSS:");
}

}  // namespace rdabench

#endif  // RDABENCH_BENCH_UTIL_H_
