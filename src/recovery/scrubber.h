#ifndef RDA_RECOVERY_SCRUBBER_H_
#define RDA_RECOVERY_SCRUBBER_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/token_bucket.h"
#include "exec/worker_pool.h"
#include "parity/twin_parity_manager.h"

namespace rda {

// Outcome of one scrub pass.
struct ScrubReport {
  uint32_t groups_checked = 0;
  // Covered by a live txn: data sectors healed, parity left unverified.
  uint32_t groups_skipped_dirty = 0;
  std::vector<GroupId> repaired;      // Parity recomputed after a mismatch.
  // Faulty sectors (latent errors, checksum mismatches — data and parity
  // pages alike) healed in place by the verify pass's repair-on-read.
  uint64_t sectors_repaired = 0;
};

// Background parity scrubber — the paper's "background process ... that
// runs during the idle periods of the system" (Section 4.2). Walks every
// parity group, verifies XOR(data) against the consistent twin and
// recomputes the parity of clean groups that fail the check (silent
// corruption, firmware bugs, torn maintenance). The parity of a dirty group
// is never verified or recomputed — its working parity is live undo state —
// but its data pages are read through the healed path, so faulty data
// sectors there are repaired too.
class ParityScrubber {
 public:
  // With a pool, the verify pass scans the array in contiguous bands of
  // groups (one per worker), each verified/repaired under its group latch;
  // per-group verdicts are merged in ascending group order, so the report
  // is identical at every thread count. Null pool = the serial loop.
  explicit ParityScrubber(TwinParityManager* parity,
                          exec::WorkerPool* pool = nullptr)
      : parity_(parity), pool_(pool) {}

  ParityScrubber(const ParityScrubber&) = delete;
  ParityScrubber& operator=(const ParityScrubber&) = delete;

  // Optional rate limit for background scrubs: charged N+1 tokens (one
  // group's pages) per group verified. Forces the serial scan (a shared
  // bucket would serialize the bands anyway). Not owned; null = unlimited.
  void SetThrottle(exec::TokenBucket* throttle) { throttle_ = throttle; }

  Result<ScrubReport> ScrubAll();

 private:
  TwinParityManager* parity_;
  exec::WorkerPool* pool_ = nullptr;
  exec::TokenBucket* throttle_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_SCRUBBER_H_
