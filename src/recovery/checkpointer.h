#ifndef RDA_RECOVERY_CHECKPOINTER_H_
#define RDA_RECOVERY_CHECKPOINTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// Checkpoint disciplines (paper Section 2, "Checkpointing Schemes"):
//  * TOC (transaction-oriented): the FORCE discipline — every commit
//    propagates the transaction's pages, so no periodic checkpoint runs.
//    An explicit TakeCheckpoint() still propagates every dirty buffer frame
//    and logs a kCheckpoint record, but FORCE restart does not start from
//    it and the master record is left alone.
//  * ACC (action-consistent, notFORCE): periodically propagate every
//    modified buffer page and log a kCheckpoint record that makes it a
//    restart point (DESIGN.md §4.3): the REDO floor, the unfinished-
//    transaction table and the next transaction id. Once the record is
//    durable the log's master record names it, and restart reads the log
//    from there instead of from its base.
class Checkpointer {
 public:
  // The steps of a checkpoint after its propagation, in order.
  enum class Step : uint8_t { kLogRecord, kWriteMaster };

  Checkpointer(TransactionManager* txn_manager, LogManager* log)
      : txn_manager_(txn_manager), log_(log) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Takes an action-consistent checkpoint: reads the REDO floor (the log's
  // next LSN), propagates all dirty buffer frames (uncommitted ones follow
  // the Figure 3 steal rule — this is where ACC algorithms harvest
  // unlogged propagations), appends and flushes the kCheckpoint record,
  // then (notFORCE) points the master record at it. The floor is read
  // before the propagation: every after-image below it belongs to a page
  // that propagation, or an earlier one, put on the array. The record's
  // own LSN is not such a floor — a commit can land in between.
  Status TakeCheckpoint();

  // LSN of the most recent checkpoint this process completed, or
  // kInvalidLsn. Volatile: a restart reads the log's master record
  // instead. Two concurrent checkpoints may complete in either order; the
  // later LSN wins.
  Lsn last_checkpoint_lsn() const {
    return last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoints_taken() const { return checkpoints_taken_.value(); }

  // Hooks checkpoints into the observability hub (`recovery.checkpoints`
  // counter and kCheckpoint trace events). Null detaches.
  void AttachObs(obs::ObsHub* hub);

  // Test hook: runs before each step; an error stops the checkpoint there,
  // as a crash inside it would. Null detaches.
  void SetBeforeStepForTest(std::function<Status(Step)> hook) {
    before_step_ = std::move(hook);
  }

 private:
  TransactionManager* txn_manager_;
  LogManager* log_;
  std::atomic<Lsn> last_checkpoint_lsn_{kInvalidLsn};
  // Exported as `recovery.checkpoints`.
  obs::StatCounter checkpoints_taken_;
  obs::TraceBuffer* trace_ = nullptr;
  std::function<Status(Step)> before_step_;
};

}  // namespace rda

#endif  // RDA_RECOVERY_CHECKPOINTER_H_
