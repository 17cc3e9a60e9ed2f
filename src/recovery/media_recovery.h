#ifndef RDA_RECOVERY_MEDIA_RECOVERY_H_
#define RDA_RECOVERY_MEDIA_RECOVERY_H_

#include <vector>

#include <atomic>

#include "common/status.h"
#include "common/types.h"
#include "exec/token_bucket.h"
#include "exec/worker_pool.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parity/twin_parity_manager.h"

namespace rda {

// What a disk rebuild did.
struct MediaRecoveryReport {
  DiskId disk = kInvalidDiskId;
  uint32_t data_pages_rebuilt = 0;
  uint32_t parity_pages_rebuilt = 0;
  uint32_t obsolete_twins_reset = 0;
  // Transactions whose in-flight unlogged update lost its undo coverage
  // because the failed disk held the OLD (valid) parity twin of a dirty
  // group. Their data survives, but they can no longer be rolled back —
  // the documented limit of the twin-page scheme under a worst-case single
  // disk failure. The caller must resolve them (force-commit or accept
  // kDataLoss on abort).
  std::vector<TxnId> undo_coverage_lost;
  // Cost of the rebuild as a single kMediaRebuild phase (page transfers +
  // wall clock). Always filled, whether or not observability is attached.
  std::vector<obs::PhaseCost> phases;
  // --- session accounting ---
  // Groups this call's sweep reconstructed itself.
  uint32_t groups_background = 0;
  // Groups foreground traffic had already repaired on demand / promoted by
  // the time the sweep reached them (totals over the whole session; zero
  // when no transaction touched the array during the rebuild).
  uint64_t groups_on_demand = 0;
  uint64_t write_promotions = 0;
  // False when the sweep returned early (cancelled) with groups still
  // pending; the session stays active and a later sweep resumes it.
  bool completed = true;
  // True when this call swept a session it did not begin: a cancelled one,
  // or one a concurrent call began first.
  bool resumed = false;
};

// Knobs of the rebuild sweep. All optional; null means unlimited rate /
// never cancelled / never paused.
struct OnlineRebuildOptions {
  // Token bucket charged data_pages_per_group + 1 tokens per group, so
  // rebuild I/O can be capped in pages/sec without starving foreground
  // commits. A throttled sweep runs serially. Not owned.
  exec::TokenBucket* throttle = nullptr;
  // Checked before each group; true skips the rest of the sweep
  // (report.completed=false).
  const std::atomic<bool>* cancel = nullptr;
  // While true the sweep naps before each group (cancel still honoured).
  const std::atomic<bool>* pause = nullptr;
};

// Media recovery (the classic redundant-array pay-off the paper builds on):
// rebuilds a single failed disk from the surviving members of each parity
// group. Data pages are recovered as XOR(other data pages, consistent
// parity); lost parity twins are recomputed from data.
class MediaRecovery {
 public:
  // With a pool, an unthrottled sweep is striped: each worker owns a
  // contiguous band of parity groups (WorkerPool's block partition), and
  // groups are rebuilt independently under their group latches. A null
  // pool (the default) sweeps the groups serially in ascending order.
  explicit MediaRecovery(TwinParityManager* parity,
                         exec::WorkerPool* pool = nullptr)
      : parity_(parity), pool_(pool) {}

  MediaRecovery(const MediaRecovery&) = delete;
  MediaRecovery& operator=(const MediaRecovery&) = delete;

  // Replaces `disk` with a fresh medium and reconstructs every page it
  // held, through a TwinParityManager online-rebuild session: Begin
  // installs the medium and the pending bitmap, the sweep drains it group
  // by group under the group latches, and End clears the rebuilding flag.
  // Transactions may run concurrently — a foreground access to a group the
  // sweep has not reached repairs it on demand. Requires that `disk` is the
  // only failed disk (kInvalidArgument when it has not failed,
  // kFailedPrecondition when another disk is down too), unless a cancelled
  // session of `disk` is still active: then the call resumes and finishes
  // it. A session of another disk makes it kFailedPrecondition. A cancel
  // leaves the session active (report.completed = false); so does a failed
  // sweep, whose disk keeps its persistent rebuilding flag.
  Result<MediaRecoveryReport> RebuildDisk(
      DiskId disk, const OnlineRebuildOptions& options = {});

  // Hooks rebuilds into the observability hub (kMediaRebuild phase cost
  // and kRebuildProgress trace events). Null detaches.
  void AttachObs(obs::ObsHub* hub) { hub_ = hub; }

 private:
  TwinParityManager* parity_;
  exec::WorkerPool* pool_ = nullptr;
  obs::ObsHub* hub_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_MEDIA_RECOVERY_H_
