#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

#include "obs/scoped.h"

namespace rda::obs {
namespace {

void AppendU64(std::string* out, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  *out += buffer;
}

void AppendI64(std::string* out, int64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64, value);
  *out += buffer;
}

void AppendDouble(std::string* out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  *out += buffer;
}

void AppendKey(std::string* out, std::string_view key) {
  *out += '"';
  AppendJsonEscaped(out, key);
  *out += "\":";
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

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
    case EventKind::kHealthChange:
      return "health_change";
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
  std::string out = "{";
  AppendKey(&out, "counters");
  out += '{';
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendKey(&out, name);
    AppendU64(&out, value);
  }
  out += "},";
  AppendKey(&out, "gauges");
  out += '{';
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendKey(&out, name);
    AppendI64(&out, value);
  }
  out += "},";
  AppendKey(&out, "histograms");
  out += '{';
  first = true;
  for (const auto& histogram : snapshot.histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendKey(&out, histogram.name);
    out += '{';
    AppendKey(&out, "bounds");
    out += '[';
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      AppendDouble(&out, histogram.bounds[i]);
    }
    out += "],";
    AppendKey(&out, "buckets");
    out += '[';
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      AppendU64(&out, histogram.buckets[i]);
    }
    out += "],";
    AppendKey(&out, "count");
    AppendU64(&out, histogram.count);
    out += ',';
    AppendKey(&out, "sum");
    AppendDouble(&out, histogram.sum);
    out += ',';
    AppendKey(&out, "max");
    AppendDouble(&out, histogram.max);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::string out = "kind,name,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out += "counter,";
    out += name;
    out += ',';
    AppendU64(&out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += "gauge,";
    out += name;
    out += ',';
    AppendI64(&out, value);
    out += '\n';
  }
  for (const auto& histogram : snapshot.histograms) {
    out += "histogram," + histogram.name + ".count,";
    AppendU64(&out, histogram.count);
    out += '\n';
    out += "histogram," + histogram.name + ".sum,";
    AppendDouble(&out, histogram.sum);
    out += '\n';
    out += "histogram," + histogram.name + ".max,";
    AppendDouble(&out, histogram.max);
    out += '\n';
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      out += "histogram," + histogram.name + ".le_";
      if (i < histogram.bounds.size()) {
        AppendDouble(&out, histogram.bounds[i]);
      } else {
        out += "inf";
      }
      out += ',';
      AppendU64(&out, histogram.buckets[i]);
      out += '\n';
    }
  }
  return out;
}

namespace {

void AppendMicros(std::string* out, uint64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                static_cast<double>(ns) / 1000.0);
  *out += buffer;
}

}  // namespace

std::string ChromeTraceJson(const SpanCollector* spans,
                            const TraceBuffer* trace) {
  std::string out = "{";
  AppendKey(&out, "displayTimeUnit");
  out += "\"ms\",";
  AppendKey(&out, "traceEvents");
  out += '[';
  bool first = true;
  auto comma = [&out, &first]() {
    if (!first) {
      out += ',';
    }
    first = false;
  };
  // One metadata event names the process for the Perfetto track header.
  comma();
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"rda\"}}";
  if (spans != nullptr) {
    for (const auto& thread : spans->SnapshotAll()) {
      for (const SpanRecord& span : thread.spans) {
        comma();
        out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
        AppendU64(&out, thread.thread_index + 1);
        out += ",\"cat\":\"span\",\"name\":\"";
        out += SpanKindName(span.kind);
        out += "\",\"ts\":";
        AppendMicros(&out, span.start_ns);
        out += ",\"dur\":";
        AppendMicros(&out, span.duration_ns);
        out += ",\"args\":{\"depth\":";
        AppendU64(&out, span.depth);
        if (span.detail != 0) {
          out += ",\"detail\":";
          AppendI64(&out, span.detail);
        }
        out += "}}";
      }
    }
  }
  if (trace != nullptr) {
    for (const TraceEvent& event : trace->Events()) {
      comma();
      out += "{\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":0,\"cat\":\"";
      out += SubsystemName(event.subsystem);
      out += "\",\"name\":\"";
      out += EventKindName(event.kind);
      out += "\",\"ts\":";
      AppendMicros(&out, event.wall_ns);
      out += ",\"args\":{\"tick\":";
      AppendU64(&out, event.tick);
      if (event.page != kInvalidPageId) {
        out += ",\"page\":";
        AppendU64(&out, event.page);
      }
      if (event.txn != kInvalidTxnId) {
        out += ",\"txn\":";
        AppendU64(&out, event.txn);
      }
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

std::string TraceToJson(const TraceBuffer& trace) {
  std::string out = "{";
  AppendKey(&out, "total_recorded");
  AppendU64(&out, trace.total_recorded());
  out += ',';
  AppendKey(&out, "dropped");
  AppendU64(&out, trace.dropped());
  out += ',';
  AppendKey(&out, "events");
  out += '[';
  bool first = true;
  for (const TraceEvent& event : trace.Events()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '{';
    AppendKey(&out, "tick");
    AppendU64(&out, event.tick);
    out += ',';
    AppendKey(&out, "subsystem");
    out += '"';
    out += SubsystemName(event.subsystem);
    out += "\",";
    AppendKey(&out, "kind");
    out += '"';
    out += EventKindName(event.kind);
    out += '"';
    if (event.page != kInvalidPageId) {
      out += ',';
      AppendKey(&out, "page");
      AppendU64(&out, event.page);
    }
    if (event.group != kInvalidGroupId) {
      out += ',';
      AppendKey(&out, "group");
      AppendU64(&out, event.group);
    }
    if (event.txn != kInvalidTxnId) {
      out += ',';
      AppendKey(&out, "txn");
      AppendU64(&out, event.txn);
    }
    switch (event.kind) {
      case EventKind::kGroupTransition:
        out += ',';
        AppendKey(&out, "from");
        out += '"';
        out += GroupStateName(event.from_state);
        out += "\",";
        AppendKey(&out, "to");
        out += '"';
        out += GroupStateName(event.to_state);
        out += '"';
        break;
      case EventKind::kTwinTransition:
        out += ',';
        AppendKey(&out, "twin");
        AppendI64(&out, event.detail);
        out += ',';
        AppendKey(&out, "from");
        out += '"';
        out += ParityStateName(event.from_state);
        out += "\",";
        AppendKey(&out, "to");
        out += '"';
        out += ParityStateName(event.to_state);
        out += '"';
        break;
      case EventKind::kPhaseBegin:
      case EventKind::kPhaseEnd:
        out += ',';
        AppendKey(&out, "phase");
        out += '"';
        out += RecoveryPhaseName(static_cast<RecoveryPhase>(event.detail));
        out += '"';
        if (event.kind == EventKind::kPhaseEnd) {
          out += ',';
          AppendKey(&out, "transfers");
          AppendI64(&out, event.value);
        }
        break;
      case EventKind::kSteal:
        out += ',';
        AppendKey(&out, "modifiers");
        AppendI64(&out, event.detail);
        break;
      case EventKind::kTxnCommit:
      case EventKind::kTxnAbort:
        out += ',';
        AppendKey(&out, "transfers");
        AppendI64(&out, event.value);
        break;
      default:
        if (event.detail != 0) {
          out += ',';
          AppendKey(&out, "detail");
          AppendI64(&out, event.detail);
        }
        if (event.value != 0) {
          out += ',';
          AppendKey(&out, "value");
          AppendI64(&out, event.value);
        }
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace rda::obs
