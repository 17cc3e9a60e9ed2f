#ifndef RDA_OBS_METRICS_H_
#define RDA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rda::obs {

// A named monotonic counter. Instrumented components cache the pointer once
// (AttachObs) and increment through it on the hot path — one add, no lookup.
// A registry-only counter's pointer is null while the component has no
// registry (metrics disabled or not attached); Inc() is the null-safe
// increment for those. Counters behind a stats() view are StatCounters
// (below) and are never null. Increments are lock-free (relaxed atomics):
// counters are aggregates, not synchronization points, so concurrent
// writers only need to not lose updates.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// An always-on counter owned by a component whose stats() view or logic
// reads it. It counts into its own storage until Bind() redirects it to the
// registry's counter of the same name, so one event is one add whether or
// not metrics are enabled, and the view and the registry export read the
// same number. Bind while no other thread increments (at attach time).
class StatCounter {
 public:
  void Add(uint64_t delta = 1) { target_->Add(delta); }
  uint64_t value() const { return target_->value(); }
  void Reset() { target_->Reset(); }
  // Counts into `shared` from now on (own storage when null), carrying the
  // current value over so value() never goes backwards.
  void Bind(Counter* shared);

 private:
  Counter local_;
  Counter* target_ = &local_;
};

// A named point-in-time value (signed: deltas may go negative transiently).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
// order; one extra overflow bucket catches everything above the last bound.
// Cheap enough for hot paths: Observe is a linear scan over a handful of
// bounds plus three scalar updates, under a private mutex — a histogram
// update touches four fields, so unlike Counter it cannot be a single
// atomic. The plain accessors are for quiesced readers (tests, report
// generation after the workload joined).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const;
  double sum() const;
  double max() const;
  // Bucket-interpolated quantile estimate (q in [0,1]); see
  // QuantileFromBuckets for the estimation rules. 0 when empty.
  double Quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket. Snapshot
  // copy so a concurrent Observe cannot shear the read.
  std::vector<uint64_t> buckets() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> bounds_;  // Immutable after construction.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

// A coherent copy of every metric, detached from the registry (safe to keep
// across further engine activity). Entries are sorted by name.
struct MetricsSnapshot {
  struct HistogramSnapshot {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0;
    double max = 0;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Value of a counter by exact name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
  // Sum of all counters whose name starts with `prefix` (metric names follow
  // the `subsystem.name` convention, so "wal." sums the WAL subsystem).
  uint64_t CounterSum(std::string_view prefix) const;
  // Histogram snapshot by exact name; null when absent.
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

// Bucket-interpolated quantile estimate over a fixed-bucket histogram.
// `bounds` are inclusive upper bounds; `buckets` has one extra overflow
// entry. The target rank q*count is located by cumulative count, then
// linearly interpolated inside its bucket (a bucket's observations are
// assumed uniform over [lower bound, upper bound]). The overflow bucket
// interpolates between the last bound and `max_value` — the observed
// maximum bounds the estimate instead of returning +inf. Returns 0 for an
// empty histogram; q is clamped to [0,1].
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets, double q,
                           double max_value);

// Convenience overload using the snapshot's own buckets and observed max.
double Quantile(const MetricsSnapshot::HistogramSnapshot& histogram,
                double q);

// Registry of named metrics. Get* creates on first use and returns a stable
// pointer (node-based map), so components resolve each name exactly once.
// Names follow the `subsystem.name` convention ("parity.unlogged_first").
// Lookups/creation are serialized by a registry mutex; the returned metric
// objects are individually thread-safe, so hot-path updates never touch the
// registry lock.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  // `bounds` is used on first creation only; later calls return the existing
  // histogram regardless of bounds.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Null-safe hot-path helpers: a disabled registry hands out null pointers
// and instrumentation collapses to one branch.
inline void Inc(Counter* counter, uint64_t delta = 1) {
  if (counter != nullptr) {
    counter->Add(delta);
  }
}

inline void Observe(Histogram* histogram, double value) {
  if (histogram != nullptr) {
    histogram->Observe(value);
  }
}

}  // namespace rda::obs

#endif  // RDA_OBS_METRICS_H_
