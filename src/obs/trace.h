#ifndef RDA_OBS_TRACE_H_
#define RDA_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace rda::obs {

// Which engine layer emitted an event.
enum class Subsystem : uint8_t {
  kStorage = 0,
  kBuffer = 1,
  kWal = 2,
  kParity = 3,
  kTxn = 4,
  kRecovery = 5,
};

// Structured event kinds. The parity transitions make the paper's two state
// machines directly observable: kGroupTransition is Figure 3 (a parity
// group moving CLEAN <-> DIRTY) and kTwinTransition is Figure 8 (one parity
// twin page moving between committed / obsolete / working / invalid).
enum class EventKind : uint8_t {
  // from_state/to_state: GroupFigState. page/txn: the covering update.
  kGroupTransition = 0,
  // detail = twin index; from_state/to_state: ParityState numeric values.
  kTwinTransition = 1,
  // A data page served (or restored) by XORing its group: page set.
  kDegradedRead = 2,
  // Media rebuild progress: detail = pages reconstructed so far on the
  // disk under rebuild (value = disk id).
  kRebuildProgress = 3,
  kDiskFailed = 4,    // value = disk id.
  kDiskReplaced = 5,  // value = disk id.
  kTxnBegin = 6,
  kTxnCommit = 7,  // value = page transfers attributed to the transaction.
  kTxnAbort = 8,   // value = page transfers attributed to the transaction.
  kSteal = 9,      // Buffer evicted a frame with uncommitted modifications.
  kCheckpoint = 10,
  kPhaseBegin = 11,  // detail = RecoveryPhase.
  kPhaseEnd = 12,    // detail = RecoveryPhase; value = page transfers spent.
  // A persistent sector-level fault (exhausted retries or checksum
  // mismatch): value = disk id.
  kIoFault = 13,
  kIoRetry = 14,  // One re-attempt after a transient error: value = disk id.
  // A faulty sector healed in place (reconstruct + write back): page/group
  // set when known; detail = 1 for a latent repair, 2 for corruption.
  kSectorRepair = 15,
  // A disk force-failed after exhausting its error budget: value = disk id.
  kEscalation = 16,
  // 17 is retired and stays unused: traces store kinds by value.
  // A foreground access reconstructed a not-yet-rebuilt group during an
  // online rebuild: group set, value = disk under rebuild.
  kOnDemandRebuild = 18,
};

// Figure 3 group states (from_state/to_state of kGroupTransition).
enum class GroupFigState : uint8_t { kClean = 0, kDirty = 1 };

// Recovery phases instrumented by the crash / media / archive paths. One
// PhaseCost per phase gives the Sauer-style phase-by-phase recovery
// timeline, in the paper's own unit (page transfers) plus wall clock.
// Trace events store the numeric value, so values never change; 3 is
// unused (the TWIST chain is counted inside kParityUndo).
enum class RecoveryPhase : uint8_t {
  kDirectoryRebuild = 0,  // Current_Parity, Figure 7 (the S/N term).
  kAnalysis = 1,          // Log scan, winner/loser determination.
  kRollForward = 2,       // Finalize winner twins.
  kLoggedUndo = 4,        // Before-images, reverse LSN order.
  kParityUndo = 5,        // Figure 6 twin-parity undo.
  kRedo = 6,              // Committed after-images, LSN order.
  kLoserResolution = 7,   // AbortComplete records + flush.
  kMediaRebuild = 8,      // Per-group reconstruction of a replaced disk.
  kArchiveRestore = 9,    // Snapshot rewrite of every data page.
  kParityReinit = 10,     // Recompute all parity from restored data.
};

struct PhaseCost {
  RecoveryPhase phase = RecoveryPhase::kAnalysis;
  uint64_t page_transfers = 0;
  double wall_ms = 0;
};

// One trace record. `tick` is a monotone operation tick assigned by the
// buffer at Record() time — the engine is a discrete-event simulator, so an
// ordering tick is the honest timestamp. `wall_ns` (also stamped at
// Record(), nanoseconds since the shared trace epoch — see TraceNowNs in
// span.h) aligns events with latency spans on exported timelines.
// detail/value carry kind-specific scalars (documented at each EventKind).
struct TraceEvent {
  uint64_t tick = 0;
  uint64_t wall_ns = 0;
  Subsystem subsystem = Subsystem::kStorage;
  EventKind kind = EventKind::kGroupTransition;
  PageId page = kInvalidPageId;
  GroupId group = kInvalidGroupId;
  TxnId txn = kInvalidTxnId;
  int64_t detail = 0;
  int64_t value = 0;
  uint8_t from_state = 0;
  uint8_t to_state = 0;
};

// Forward-declared: counting dropped events must not pull metrics.h into
// every trace consumer.
class Counter;

// Bounded ring buffer of TraceEvents. When full, the oldest events are
// overwritten and counted as dropped — tracing never blocks unboundedly or
// grows. A ring mutex serializes writers from different threads; the tick
// stays a total order over all recorded events.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  // Stamps `event` with the next tick, stores it, returns the tick.
  uint64_t Record(TraceEvent event);

  // Optional overflow counter (the hub wires "obs.trace_dropped"): bumped
  // once per event overwritten by a wrapping Record. Null detaches.
  void SetDroppedCounter(Counter* counter);

  // Events currently retained, in chronological order.
  std::vector<TraceEvent> Events() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const;
  uint64_t dropped() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  size_t next_ = 0;     // Next write position.
  uint64_t total_ = 0;  // Events ever recorded.
  Counter* dropped_counter_ = nullptr;  // Guarded by mu_.
};

// Null-safe helper mirroring obs::Inc for counters.
inline void Emit(TraceBuffer* trace, const TraceEvent& event) {
  if (trace != nullptr) {
    trace->Record(event);
  }
}

}  // namespace rda::obs

#endif  // RDA_OBS_TRACE_H_
