#ifndef RDA_RECOVERY_CHECKPOINTER_H_
#define RDA_RECOVERY_CHECKPOINTER_H_

#include <atomic>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// Checkpoint disciplines (paper Section 2, "Checkpointing Schemes"):
//  * TOC (transaction-oriented): equivalent to the FORCE discipline — every
//    commit propagates the transaction's pages, so no separate checkpoint
//    operation exists. TakeCheckpoint() is a no-op in that configuration.
//  * ACC (action-consistent): periodically propagate every modified buffer
//    page (a quiescent point between update actions) and log a checkpoint
//    record naming the transactions then active. Bounds REDO work after a
//    crash.
class Checkpointer {
 public:
  Checkpointer(TransactionManager* txn_manager, LogManager* log)
      : txn_manager_(txn_manager), log_(log) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Takes an action-consistent checkpoint: propagates all dirty buffer
  // frames (uncommitted ones follow the Figure 3 steal rule — this is where
  // ACC algorithms harvest unlogged propagations), then appends and flushes
  // a kCheckpoint record.
  Status TakeCheckpoint();

  // LSN of the most recent completed checkpoint, or kInvalidLsn. Two
  // concurrent checkpoints may complete in either order; the later LSN
  // wins.
  Lsn last_checkpoint_lsn() const {
    return last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoints_taken() const { return checkpoints_taken_.value(); }

  // Hooks checkpoints into the observability hub (`recovery.checkpoints`
  // counter and kCheckpoint trace events). Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  TransactionManager* txn_manager_;
  LogManager* log_;
  std::atomic<Lsn> last_checkpoint_lsn_{kInvalidLsn};
  // Exported as `recovery.checkpoints`.
  obs::StatCounter checkpoints_taken_;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_CHECKPOINTER_H_
