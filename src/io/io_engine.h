#ifndef RDA_IO_IO_ENGINE_H_
#define RDA_IO_IO_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "storage/page.h"

namespace rda::io {

// Tuning knob of the journal (surfaced through IoPolicy as
// DatabaseOptions::io.queue_watermark).
struct IoEngineOptions {
  // Pending writes on one disk at which the submission that reaches it
  // drains that disk's journal. Larger values widen the coalescing window;
  // Flush() always drains regardless.
  uint32_t queue_watermark = 32;
};

// Per-disk write journal (DESIGN.md section 16).
//
// Model: each disk has a submission queue that behaves like an NVRAM-backed
// write journal — a write is durable the moment SubmitWrite returns, and the
// journal is replayed onto the medium in elevator (slot-ascending) order.
// Because the journal holds at most one image per slot (last-writer-wins),
// rewrites of a page still in queue COALESCE into a single physical
// transfer; reads consult the journal first and are served from memory
// without touching the device at all.
//
// The engine owns no thread. A disk's journal is drained on the submitting
// thread by the submission that makes it reach the watermark, and Flush()
// and the destructor drain whatever is left. Two threads may still drain
// one disk (a watermark crossing racing a Flush), so drains of one disk are
// serialized; reads see an entry until its physical write has completed.
//
// The engine knows nothing about layouts, parity semantics or retry policy:
// the owner (DiskArray) supplies one `PhysicalWrite` callback that performs
// a single slot write with whatever retry/accounting machinery it already
// has. All transfer counters are therefore bumped exactly where the sync
// path bumps them — per PHYSICAL transfer, at drain — which keeps the fuzz
// oracle's counter-conservation invariants intact.
//
// Crash/failure semantics (the equivalence argument the tests verify):
//  * Crash: the journal is non-volatile, so Database::Crash() calls Flush()
//    before tearing down volatile state — every submitted write reaches the
//    medium, exactly as if it had been synchronous.
//  * Disk failure: Fail() destroys the whole medium, so queued writes for
//    that disk are moot; PurgeDisk drops them. This is indistinguishable
//    from the synchronous history "write completed, then the disk died".
class IoEngine {
 public:
  // Performs one physical slot write (retries, fault injection and transfer
  // accounting included).
  using PhysicalWrite =
      std::function<Status(DiskId disk, SlotId slot, const PageImage& image)>;

  IoEngine(uint32_t num_disks, const IoEngineOptions& options,
           PhysicalWrite writer);
  // Drains the remaining journal: nothing submitted is ever stranded.
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Journals `image` for (disk, slot); a write already queued for the slot
  // is replaced in place. If this submission makes the disk's journal
  // reach the watermark, the disk is drained before SubmitWrite returns.
  // `is_parity` tags parity-page slots for the batched-parity statistics
  // only. Drain errors are reported by Flush(), not here.
  void SubmitWrite(DiskId disk, SlotId slot, PageImage image, bool is_parity);

  // Serves a read from the journal (pending or in-flight image). Returns
  // true and fills *out on a hit. A hit is NOT a device transfer and bumps
  // no storage counters — only the engine's cache_hits statistic.
  bool ReadFromQueue(DiskId disk, SlotId slot, PageImage* out) const;

  // Drains every queue from the calling thread (per-disk drains are
  // serialized against watermark drains on other threads). Returns the
  // first sticky drain error across disks (lowest disk id), Ok otherwise.
  // Reported errors are cleared (report-once), so one historical failure
  // never wedges later flushes — scrub/rebuild passes in particular.
  Status Flush();

  // Drops every queued write for `disk` and clears its sticky error: the
  // dropped content is gone WITH the medium, exactly as if the writes had
  // completed before the failure.
  void PurgeDisk(DiskId disk);

  // Point-in-time statistics (monotonic counters; with a registry attached
  // they are its `io.<field>` counters, so they also include the counts of
  // any earlier engine attached to the same registry).
  struct StatsSnapshot {
    uint64_t submitted_writes = 0;  // SubmitWrite calls.
    uint64_t physical_writes = 0;   // Drained journal entries.
    uint64_t coalesced_writes = 0;  // Submissions merged into a queued entry.
    uint64_t batched_parity_rmw = 0;  // Coalesced writes on parity slots.
    uint64_t cache_hits = 0;        // Reads served from the journal.
    uint64_t purged_writes = 0;     // Entries dropped by PurgeDisk.
  };
  StatsSnapshot stats() const;

  // Pending journal entries across all disks right now.
  uint64_t QueueDepth() const;

  // `io.*` counters, the io.queue_depth gauge and per-disk dispatch-latency
  // histograms (io.diskN.dispatch_us: submit -> medium). Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  struct Pending {
    std::shared_ptr<PageImage> image;
    bool is_parity = false;
    std::chrono::steady_clock::time_point submitted;
  };

  struct DiskQueue {
    // Guards pending/inflight/error. Leaf lock: nothing is acquired under
    // it, and the physical write runs with it released.
    mutable std::mutex mu;
    // Slot-ordered pending writes — map order IS the elevator schedule.
    std::map<SlotId, Pending> pending;
    // Entries currently being written: still visible to ReadFromQueue so a
    // reader can never fall through to the device mid-write and see stale
    // bytes. Cleared as each write completes.
    std::map<SlotId, std::shared_ptr<PageImage>> inflight;
    // First unreported drain error on a still-live disk; cleared once a
    // Flush() reports it, or by PurgeDisk.
    Status error = Status::Ok();
  };

  // Drains `disk` until its pending map is empty. Serialized per disk.
  void DrainDisk(DiskId disk);

  const IoEngineOptions options_;
  const PhysicalWrite writer_;
  std::vector<DiskQueue> queues_;
  // Serializes drains of one disk between submitters and Flush() callers.
  // Taken before DiskQueue::mu, never while holding it.
  std::vector<std::unique_ptr<std::mutex>> drain_mus_;

  // The counters behind stats(), exported as `io.<field>`. Bumped by
  // submitters and drainers; each is one atomic.
  obs::StatCounter submitted_writes_;
  obs::StatCounter physical_writes_;
  obs::StatCounter coalesced_writes_;
  obs::StatCounter batched_parity_rmw_;
  mutable obs::StatCounter cache_hits_;  // Bumped by the const read path.
  obs::StatCounter purged_writes_;
  std::atomic<int64_t> depth_{0};

  // Observability (null = disabled).
  obs::Gauge* depth_gauge_ = nullptr;
  std::vector<obs::Histogram*> dispatch_hists_;
};

}  // namespace rda::io

#endif  // RDA_IO_IO_ENGINE_H_
