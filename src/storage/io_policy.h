#ifndef RDA_STORAGE_IO_POLICY_H_
#define RDA_STORAGE_IO_POLICY_H_

#include <cstdint>

namespace rda {

// How the array reacts to I/O errors (DESIGN.md section 10's retry /
// escalation state machine):
//
//   attempt -> kIoError (disk alive) -> retry up to max_*_retries with a
//   deterministic linear backoff charged to the disk's service clock ->
//   still failing (or kCorruption, which is never retried: checksums do
//   not heal by re-reading) -> persistent sector error, counted against
//   the disk's error budget -> budget exhausted -> the disk is escalated
//   to a full Fail() and must be rebuilt.
//
// Reads against a disk already marked failed are never retried — that is
// degraded mode, the recovery layer's job. The defaults retry transients
// but never escalate (disk_error_budget = 0), so an unconfigured array
// behaves exactly like the pre-policy code on the clean path. One
// exception ignores the budget: a journaled async write that exhausts its
// retries at drain time always escalates the disk, because its submitter
// already saw Ok and only redundancy can keep that promise (DESIGN.md
// section 16).
struct IoPolicy {
  // Extra attempts after the first failure. 0 disables retrying.
  uint32_t max_read_retries = 2;
  uint32_t max_write_retries = 2;
  // Service-time cost of the k-th retry is k * retry_backoff_ms, charged
  // to the disk's busy clock (deterministic, so simulations reproduce).
  double retry_backoff_ms = 0.5;
  // Persistent sector errors (exhausted retries or checksum mismatches)
  // tolerated per disk before it is escalated to Fail(). 0 = never
  // escalate.
  uint32_t disk_error_budget = 0;

  // --- asynchronous I/O engine (DESIGN.md section 16) ---

  // Worker threads of the per-disk submission-queue engine. 0 (the
  // default) disables the engine entirely: every write is synchronous and
  // the array behaves bit-for-bit like the pre-engine code.
  uint32_t width = 0;
  // Pending writes on one disk that wake its drain worker. Larger values
  // widen the coalescing window; Flush() always drains regardless.
  uint32_t queue_watermark = 32;
};

// Array-level accounting of the policy's work: a view over the array's
// storage.io_retries / storage.transient_faults / storage.sector_errors /
// storage.escalations counters.
struct IoPolicyStats {
  // Re-attempts performed (every loop iteration after the first).
  uint64_t io_retries = 0;
  // Faults that a retry absorbed (the attempt after them succeeded).
  uint64_t transient_faults = 0;
  // Faults that survived all retries, plus checksum mismatches.
  uint64_t sector_errors = 0;
  // Disks force-failed after exhausting their error budget.
  uint64_t escalations = 0;
};

class Status;

// True when `status` is worth retrying under the policy: an I/O error on a
// disk that is still alive. Corruption is persistent (re-reading cannot
// fix a checksum) and a failed disk is degraded mode, not a transient.
bool RetryableIoError(const Status& status, bool disk_failed);

// Deterministic linear backoff of the `attempt`-th retry (1-based).
double RetryBackoffMs(const IoPolicy& policy, uint32_t attempt);

}  // namespace rda

#endif  // RDA_STORAGE_IO_POLICY_H_
