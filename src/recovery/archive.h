#ifndef RDA_RECOVERY_ARCHIVE_H_
#define RDA_RECOVERY_ARCHIVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "obs/obs.h"
#include "parity/twin_parity_manager.h"
#include "recovery/crash_recovery.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// The traditional media-recovery substrate the paper contrasts redundant
// arrays with (Section 1: "media recovery is performed ... by periodically
// generating archive copies of the database and ... a redo log file").
// The array's parity survives any single-disk failure on its own; the
// archive covers the catastrophic case — more than one disk lost — and
// bounds the log: after a quiescent archive, the stable-log prefix can be
// truncated.
class ArchiveManager {
 public:
  // With a pool, the restore's page rewrite, parity reinitialization and
  // nested crash recovery all fan out over it; null keeps them serial.
  ArchiveManager(TransactionManager* txn_manager, TwinParityManager* parity,
                 LogManager* log, exec::WorkerPool* pool = nullptr)
      : txn_manager_(txn_manager), parity_(parity), log_(log), pool_(pool) {}

  ArchiveManager(const ArchiveManager&) = delete;
  ArchiveManager& operator=(const ArchiveManager&) = delete;

  // Takes a quiescent archive: requires no active transactions, propagates
  // every dirty buffer frame, snapshots all data-page payloads and the log
  // position; optionally truncates the stable log up to that position.
  // The snapshot read is I/O-accounted like any other scan of the array.
  Status TakeArchive(bool truncate_log);

  bool HasArchive() const { return archive_lsn_ != kInvalidLsn; }
  Lsn archive_lsn() const { return archive_lsn_; }
  uint64_t pages_archived() const {
    return static_cast<uint64_t>(snapshot_.size());
  }

  // Catastrophic restore: replaces any failed disks, logs a kArchiveRestore
  // marker, rewrites every data page from the snapshot, recomputes all
  // parity from the restored data, and re-runs restart recovery to REDO the
  // work committed since the archive (every image before the marker, FORCE
  // or not). In-flight work since the archive is lost per the usual
  // winner/loser rules.
  Result<CrashRecoveryReport> RestoreFromArchive();

  // Robustness hook: the next restore's roll-forward fails with kAborted
  // after `actions` recovery steps (see
  // CrashRecovery::InjectFaultAfterActions). One-shot.
  void InjectFaultAfterActions(uint64_t actions) { fault_actions_ = actions; }

  // Hooks archiving into the observability hub: `recovery.archives_taken`
  // counter, and restores report kArchiveRestore/kParityReinit phase costs
  // ahead of the nested crash-recovery phases. Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  TransactionManager* txn_manager_;
  TwinParityManager* parity_;
  LogManager* log_;
  exec::WorkerPool* pool_ = nullptr;
  std::vector<std::vector<uint8_t>> snapshot_;
  Lsn archive_lsn_ = kInvalidLsn;
  std::optional<uint64_t> fault_actions_;
  obs::ObsHub* hub_ = nullptr;
  obs::Counter* archives_counter_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_ARCHIVE_H_
