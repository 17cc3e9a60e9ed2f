#ifndef RDA_OBS_OBS_H_
#define RDA_OBS_OBS_H_

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace rda::obs {

struct ObsOptions {
  bool enable_metrics = true;
  bool enable_trace = true;
  // Ring capacity of the trace buffer (oldest events dropped beyond this).
  size_t trace_capacity = 4096;
  // Latency spans: per-thread lock-free rings of ScopedSpan records.
  bool enable_spans = true;
  size_t span_ring_capacity = 1024;
  // Crash flight recorder: dumps the last `flight_last_n` spans per thread
  // plus the retained trace on fault escalation / crash-point trip. When
  // `flight_path` is empty the dump is kept in memory only (last_dump()).
  bool enable_flight = true;
  size_t flight_last_n = 64;
  std::string flight_path;
};

// The per-database observability hub: one MetricsRegistry plus one
// TraceBuffer, one SpanCollector and one FlightRecorder, handed (as a
// nullable pointer) to every engine component via AttachObs. Disabled
// facilities return null, and registry-only instrumentation collapses to a
// pointer test — the registry-null-check flavour of zero-cost-when-disabled.
// StatCounters keep counting into their own storage.
class ObsHub {
 public:
  explicit ObsHub(const ObsOptions& options) : options_(options) {
    if (options.enable_metrics) {
      metrics_ = std::make_unique<MetricsRegistry>();
    }
    if (options.enable_trace) {
      trace_ = std::make_unique<TraceBuffer>(options.trace_capacity);
    }
    if (trace_ != nullptr && metrics_ != nullptr) {
      // Ring-overflow drops become a visible metric instead of silence.
      trace_->SetDroppedCounter(metrics_->GetCounter("obs.trace_dropped"));
    }
    if (options.enable_spans) {
      spans_ = std::make_unique<SpanCollector>(options.span_ring_capacity);
    }
    if (options.enable_flight) {
      flight_ = std::make_unique<FlightRecorder>(spans_.get(), trace_.get(),
                                                 options.flight_last_n);
      flight_->set_output_path(options.flight_path);
    }
  }

  ObsHub(const ObsHub&) = delete;
  ObsHub& operator=(const ObsHub&) = delete;

  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  TraceBuffer* trace() { return trace_.get(); }
  const TraceBuffer* trace() const { return trace_.get(); }
  SpanCollector* spans() { return spans_.get(); }
  const SpanCollector* spans() const { return spans_.get(); }
  FlightRecorder* flight() { return flight_.get(); }
  const FlightRecorder* flight() const { return flight_.get(); }
  const ObsOptions& options() const { return options_; }

 private:
  ObsOptions options_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TraceBuffer> trace_;
  std::unique_ptr<SpanCollector> spans_;
  std::unique_ptr<FlightRecorder> flight_;
};

// Attach-time helpers: components resolve their counters once through these
// and end up with plain (possibly null) pointers for the hot path.
inline MetricsRegistry* RegistryOf(ObsHub* hub) {
  return hub != nullptr ? hub->metrics() : nullptr;
}

inline TraceBuffer* TraceOf(ObsHub* hub) {
  return hub != nullptr ? hub->trace() : nullptr;
}

inline SpanCollector* SpansOf(ObsHub* hub) {
  return hub != nullptr ? hub->spans() : nullptr;
}

inline FlightRecorder* FlightOf(ObsHub* hub) {
  return hub != nullptr ? hub->flight() : nullptr;
}

inline Counter* GetCounter(ObsHub* hub, std::string_view name) {
  MetricsRegistry* registry = RegistryOf(hub);
  return registry != nullptr ? registry->GetCounter(name) : nullptr;
}

inline Gauge* GetGauge(ObsHub* hub, std::string_view name) {
  MetricsRegistry* registry = RegistryOf(hub);
  return registry != nullptr ? registry->GetGauge(name) : nullptr;
}

inline Histogram* GetHistogram(ObsHub* hub, std::string_view name,
                               std::vector<double> bounds) {
  MetricsRegistry* registry = RegistryOf(hub);
  return registry != nullptr
             ? registry->GetHistogram(name, std::move(bounds))
             : nullptr;
}

}  // namespace rda::obs

#endif  // RDA_OBS_OBS_H_
