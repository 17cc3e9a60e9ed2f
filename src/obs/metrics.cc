#include "obs/metrics.h"

#include <algorithm>

namespace rda::obs {

void StatCounter::Bind(Counter* shared) {
  Counter* next = shared != nullptr ? shared : &local_;
  if (next == target_) {
    return;
  }
  const uint64_t carried = target_->value();
  if (next == &local_) {
    local_.Reset();
  }
  next->Add(carried);
  target_ = next;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

void Histogram::Observe(double value) {
  size_t bucket = bounds_.size();  // Overflow bucket by default.
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

std::vector<uint64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> buckets;
  double max_value;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buckets = buckets_;
    max_value = max_;
  }
  return QuantileFromBuckets(bounds_, buckets, q, max_value);
}

double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets, double q,
                           double max_value) {
  uint64_t total = 0;
  for (const uint64_t count : buckets) {
    total += count;
  }
  if (total == 0) {
    return 0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  // A single observation needs no interpolation: the tracked max IS the
  // value, so every quantile equals it (max_value 0 means "not tracked" —
  // the interpolation below is then the best available estimate).
  if (total == 1 && max_value > 0) {
    return max_value;
  }
  // No observation exceeds the tracked max, so the upper edge of the LAST
  // non-empty bucket — the one holding the max — is min(bound, max), not
  // the raw bucket bound. Without this clamp q=1 (and anything
  // interpolating into that bucket) overshoots whenever the observed max
  // falls below the last finite bound.
  size_t last_nonempty = buckets.size();
  for (size_t i = buckets.size(); i-- > 0;) {
    if (buckets[i] > 0) {
      last_nonempty = i;
      break;
    }
  }
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next < target) {
      cumulative = next;
      continue;
    }
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    // Overflow bucket: the observed maximum is the only honest upper edge.
    double upper = i < bounds.size() ? bounds[i] : std::max(max_value, lower);
    if (i == last_nonempty && max_value > 0) {
      upper = std::max(lower, std::min(upper, max_value));
    }
    const double fraction =
        (target - cumulative) / static_cast<double>(buckets[i]);
    return lower + fraction * (upper - lower);
  }
  // q == 1 with rounding dust: the last non-empty bucket's upper edge.
  if (last_nonempty < buckets.size()) {
    double upper = last_nonempty < bounds.size() ? bounds[last_nonempty]
                                                 : max_value;
    if (max_value > 0) {
      upper = std::min(upper, max_value);
    }
    return upper;
  }
  return 0;
}

double Quantile(const MetricsSnapshot::HistogramSnapshot& histogram,
                double q) {
  return QuantileFromBuckets(histogram.bounds, histogram.buckets, q,
                             histogram.max);
}

const MetricsSnapshot::HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& histogram : histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) {
      return value;
    }
  }
  return 0;
}

uint64_t MetricsSnapshot::CounterSum(std::string_view prefix) const {
  uint64_t sum = 0;
  for (const auto& [counter_name, value] : counters) {
    if (counter_name.size() >= prefix.size() &&
        std::string_view(counter_name).substr(0, prefix.size()) == prefix) {
      sum += value;
    }
  }
  return sum;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // try_emplace constructs in place: Counter holds an atomic and is
    // neither movable nor copyable.
    it = counters_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name), std::move(bounds)).first;
  }
  return &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter.value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge.value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramSnapshot h;
    h.name = name;
    h.bounds = histogram.bounds();
    h.buckets = histogram.buckets();
    h.count = histogram.count();
    h.sum = histogram.sum();
    h.max = histogram.max();
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter.Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge.Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram.Reset();
  }
}

}  // namespace rda::obs
