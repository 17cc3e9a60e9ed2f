#ifndef RDA_OBS_EXPORT_H_
#define RDA_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace rda::obs {

// Human/state names used by both exporters and tests.
const char* SubsystemName(Subsystem subsystem);
const char* EventKindName(EventKind kind);
// Numeric ParityState (storage/page.h values) -> name; also covers the
// GroupFigState values used by kGroupTransition via `group_transition`.
const char* ParityStateName(uint8_t state);
const char* GroupStateName(uint8_t state);
const char* RecoveryPhaseName(RecoveryPhase phase);

// Metrics -> JSON object:
//   {"counters":{"name":v,...},"gauges":{...},
//    "histograms":{"name":{"bounds":[...],"buckets":[...],
//                          "count":c,"sum":s,"max":m},...}}
std::string MetricsToJson(const MetricsSnapshot& snapshot);

// Metrics -> CSV lines: `kind,name,value` (histograms flattened to
// `histogram,name.count` / `.sum` / `.max` / `.le_<bound>` rows).
std::string MetricsToCsv(const MetricsSnapshot& snapshot);

// Trace -> JSON object:
//   {"total_recorded":n,"dropped":d,"events":[{...},...]}
// Transition events render their from/to states as names.
std::string TraceToJson(const TraceBuffer& trace);

// Spans (+ optionally trace events) -> Chrome Trace Event Format, loadable
// in Perfetto / chrome://tracing: complete ("ph":"X") events per span with
// microsecond ts/dur on one track per emitting thread (nesting reconstructs
// from containment), plus instant ("ph":"i") events for the retained
// TraceBuffer entries on track 0. Either pointer may be null.
std::string ChromeTraceJson(const SpanCollector* spans,
                            const TraceBuffer* trace);

}  // namespace rda::obs

#endif  // RDA_OBS_EXPORT_H_
