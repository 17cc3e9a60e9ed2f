#include "obs/flight.h"

#include <fstream>
#include <utility>

#include "obs/export.h"
#include "obs/json.h"

namespace rda::obs {

FlightRecorder::FlightRecorder(SpanCollector* spans, TraceBuffer* trace,
                               size_t last_n)
    : spans_(spans), trace_(trace), last_n_(last_n == 0 ? 1 : last_n) {}

void FlightRecorder::set_output_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
}

std::string FlightRecorder::output_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

std::string FlightRecorder::BuildDump(std::string_view reason) const {
  JsonWriter json;
  json.BeginObject().Key("reason").String(reason);
  json.Key("trigger").Uint(triggers_.load(std::memory_order_relaxed));
  json.Key("last_n").Uint(last_n_).Key("threads").BeginArray();
  if (spans_ != nullptr) {
    for (const auto& thread : spans_->SnapshotAll()) {
      json.BeginObject().Key("thread").Uint(thread.thread_index);
      json.Key("recorded").Uint(thread.recorded);
      json.Key("dropped").Uint(thread.dropped).Key("spans").BeginArray();
      const size_t begin =
          thread.spans.size() > last_n_ ? thread.spans.size() - last_n_ : 0;
      for (size_t i = begin; i < thread.spans.size(); ++i) {
        const SpanRecord& span = thread.spans[i];
        json.BeginObject().Key("name").String(SpanKindName(span.kind));
        json.Key("start_us").Fixed(span.start_ns / 1000.0, 3);
        json.Key("dur_us").Fixed(span.duration_ns / 1000.0, 3);
        json.Key("depth").Uint(span.depth);
        if (span.detail != 0) {
          json.Key("detail").Int(span.detail);
        }
        json.EndObject();
      }
      json.EndArray().EndObject();
    }
  }
  json.EndArray().Key("trace");
  if (trace_ != nullptr) {
    json.Raw(TraceToJson(*trace_));
  } else {
    json.Null();
  }
  json.EndObject();
  return json.str();
}

void FlightRecorder::Trigger(std::string_view reason) {
  triggers_.fetch_add(1, std::memory_order_relaxed);
  std::string dump = BuildDump(reason);
  std::lock_guard<std::mutex> lock(mu_);
  last_dump_ = std::move(dump);
  last_reason_ = std::string(reason);
  if (!path_.empty()) {
    std::ofstream file(path_, std::ios::trunc);
    if (file.is_open()) {
      file << last_dump_;
    }
  }
}

std::string FlightRecorder::last_dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_dump_;
}

std::string FlightRecorder::last_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_reason_;
}

}  // namespace rda::obs
