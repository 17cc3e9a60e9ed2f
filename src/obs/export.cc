#include "obs/export.h"

#include <sstream>

#include "obs/json.h"
#include "obs/scoped.h"

namespace rda::obs {

const char* SubsystemName(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kStorage:
      return "storage";
    case Subsystem::kBuffer:
      return "buffer";
    case Subsystem::kWal:
      return "wal";
    case Subsystem::kParity:
      return "parity";
    case Subsystem::kTxn:
      return "txn";
    case Subsystem::kRecovery:
      return "recovery";
  }
  return "unknown";
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kGroupTransition:
      return "group_transition";
    case EventKind::kTwinTransition:
      return "twin_transition";
    case EventKind::kDegradedRead:
      return "degraded_read";
    case EventKind::kRebuildProgress:
      return "rebuild_progress";
    case EventKind::kDiskFailed:
      return "disk_failed";
    case EventKind::kDiskReplaced:
      return "disk_replaced";
    case EventKind::kTxnBegin:
      return "txn_begin";
    case EventKind::kTxnCommit:
      return "txn_commit";
    case EventKind::kTxnAbort:
      return "txn_abort";
    case EventKind::kSteal:
      return "steal";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kPhaseBegin:
      return "phase_begin";
    case EventKind::kPhaseEnd:
      return "phase_end";
    case EventKind::kIoFault:
      return "io_fault";
    case EventKind::kIoRetry:
      return "io_retry";
    case EventKind::kSectorRepair:
      return "sector_repair";
    case EventKind::kEscalation:
      return "escalation";
    case EventKind::kOnDemandRebuild:
      return "on_demand_rebuild";
  }
  return "unknown";
}

const char* ParityStateName(uint8_t state) {
  // Values match storage/page.h ParityState.
  switch (state) {
    case 0:
      return "free";
    case 1:
      return "committed";
    case 2:
      return "obsolete";
    case 3:
      return "working";
    case 4:
      return "invalid";
  }
  return "unknown";
}

const char* GroupStateName(uint8_t state) {
  switch (state) {
    case 0:
      return "clean";
    case 1:
      return "dirty";
  }
  return "unknown";
}

const char* RecoveryPhaseName(RecoveryPhase phase) {
  return ScopedPhase::PhaseSlug(phase);
}

const char* ScopedPhase::PhaseSlug(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kDirectoryRebuild:
      return "directory_rebuild";
    case RecoveryPhase::kAnalysis:
      return "analysis";
    case RecoveryPhase::kRollForward:
      return "roll_forward";
    case RecoveryPhase::kLoggedUndo:
      return "logged_undo";
    case RecoveryPhase::kParityUndo:
      return "parity_undo";
    case RecoveryPhase::kRedo:
      return "redo";
    case RecoveryPhase::kLoserResolution:
      return "loser_resolution";
    case RecoveryPhase::kMediaRebuild:
      return "media_rebuild";
    case RecoveryPhase::kArchiveRestore:
      return "archive_restore";
    case RecoveryPhase::kParityReinit:
      return "parity_reinit";
  }
  return "unknown";
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    json.Key(name).Uint(value);
  }
  json.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    json.Key(name).Int(value);
  }
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& histogram : snapshot.histograms) {
    json.Key(histogram.name).BeginObject().Key("bounds").BeginArray();
    for (const double bound : histogram.bounds) {
      json.Significant(bound, 6);
    }
    json.EndArray().Key("buckets").BeginArray();
    for (const uint64_t bucket : histogram.buckets) {
      json.Uint(bucket);
    }
    json.EndArray().Key("count").Uint(histogram.count);
    json.Key("sum").Significant(histogram.sum, 6);
    json.Key("max").Significant(histogram.max, 6).EndObject();
  }
  json.EndObject().EndObject();
  return json.str();
}

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::ostringstream out;  // Default stream precision: 6 significant digits.
  out << "kind,name,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << "counter," << name << ',' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << "gauge," << name << ',' << value << '\n';
  }
  for (const auto& histogram : snapshot.histograms) {
    const std::string row = "histogram," + histogram.name;
    out << row << ".count," << histogram.count << '\n';
    out << row << ".sum," << histogram.sum << '\n';
    out << row << ".max," << histogram.max << '\n';
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      out << row << ".le_";
      if (i < histogram.bounds.size()) {
        out << histogram.bounds[i];
      } else {
        out << "inf";
      }
      out << ',' << histogram.buckets[i] << '\n';
    }
  }
  return out.str();
}

std::string ChromeTraceJson(const SpanCollector* spans,
                            const TraceBuffer* trace) {
  JsonWriter json;
  json.BeginObject().Key("displayTimeUnit").String("ms");
  json.Key("traceEvents").BeginArray();
  // One metadata event names the process for the Perfetto track header.
  json.BeginObject().Key("ph").String("M").Key("pid").Uint(1);
  json.Key("tid").Uint(0).Key("name").String("process_name");
  json.Key("args").BeginObject().Key("name").String("rda").EndObject();
  json.EndObject();
  if (spans != nullptr) {
    for (const auto& thread : spans->SnapshotAll()) {
      for (const SpanRecord& span : thread.spans) {
        json.BeginObject().Key("ph").String("X").Key("pid").Uint(1);
        json.Key("tid").Uint(thread.thread_index + 1);
        json.Key("cat").String("span");
        json.Key("name").String(SpanKindName(span.kind));
        json.Key("ts").Fixed(span.start_ns / 1000.0, 3);
        json.Key("dur").Fixed(span.duration_ns / 1000.0, 3);
        json.Key("args").BeginObject().Key("depth").Uint(span.depth);
        if (span.detail != 0) {
          json.Key("detail").Int(span.detail);
        }
        json.EndObject().EndObject();
      }
    }
  }
  if (trace != nullptr) {
    for (const TraceEvent& event : trace->Events()) {
      json.BeginObject().Key("ph").String("i").Key("s").String("p");
      json.Key("pid").Uint(1).Key("tid").Uint(0);
      json.Key("cat").String(SubsystemName(event.subsystem));
      json.Key("name").String(EventKindName(event.kind));
      json.Key("ts").Fixed(event.wall_ns / 1000.0, 3);
      json.Key("args").BeginObject().Key("tick").Uint(event.tick);
      if (event.page != kInvalidPageId) {
        json.Key("page").Uint(event.page);
      }
      if (event.txn != kInvalidTxnId) {
        json.Key("txn").Uint(event.txn);
      }
      json.EndObject().EndObject();
    }
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string TraceToJson(const TraceBuffer& trace) {
  JsonWriter json;
  json.BeginObject().Key("total_recorded").Uint(trace.total_recorded());
  json.Key("dropped").Uint(trace.dropped());
  json.Key("events").BeginArray();
  for (const TraceEvent& event : trace.Events()) {
    json.BeginObject().Key("tick").Uint(event.tick);
    json.Key("subsystem").String(SubsystemName(event.subsystem));
    json.Key("kind").String(EventKindName(event.kind));
    if (event.page != kInvalidPageId) {
      json.Key("page").Uint(event.page);
    }
    if (event.group != kInvalidGroupId) {
      json.Key("group").Uint(event.group);
    }
    if (event.txn != kInvalidTxnId) {
      json.Key("txn").Uint(event.txn);
    }
    switch (event.kind) {
      case EventKind::kGroupTransition:
        json.Key("from").String(GroupStateName(event.from_state));
        json.Key("to").String(GroupStateName(event.to_state));
        break;
      case EventKind::kTwinTransition:
        json.Key("twin").Int(event.detail);
        json.Key("from").String(ParityStateName(event.from_state));
        json.Key("to").String(ParityStateName(event.to_state));
        break;
      case EventKind::kPhaseBegin:
      case EventKind::kPhaseEnd:
        json.Key("phase").String(
            RecoveryPhaseName(static_cast<RecoveryPhase>(event.detail)));
        if (event.kind == EventKind::kPhaseEnd) {
          json.Key("transfers").Int(event.value);
        }
        break;
      case EventKind::kSteal:
        json.Key("modifiers").Int(event.detail);
        break;
      case EventKind::kTxnCommit:
      case EventKind::kTxnAbort:
        json.Key("transfers").Int(event.value);
        break;
      default:
        if (event.detail != 0) {
          json.Key("detail").Int(event.detail);
        }
        if (event.value != 0) {
          json.Key("value").Int(event.value);
        }
        break;
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

}  // namespace rda::obs
