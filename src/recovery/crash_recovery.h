#ifndef RDA_RECOVERY_CRASH_RECOVERY_H_
#define RDA_RECOVERY_CRASH_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parity/twin_parity_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// What crash recovery did — surfaced so tests, examples and benches can
// assert the paper's claims (how much was undone via parity vs via the log).
struct CrashRecoveryReport {
  std::vector<TxnId> winners;
  std::vector<TxnId> losers;
  uint64_t groups_finalized = 0;   // Winner dirty groups rolled forward.
  uint64_t parity_undos = 0;       // Loser pages undone from twin parity.
  uint64_t logged_undos = 0;       // Loser images undone from the log.
  uint64_t redo_applied = 0;       // Committed after-images re-applied.
  uint64_t redo_skipped = 0;       // Images found already on the array.
  // Parity-undone pages that still carried their loser's stamp: the TWIST
  // chain members (paper Section 4.3) the undo found in place.
  uint64_t chain_pages_walked = 0;
  // LSN the analysis scan started at: the log base, or below the REDO
  // floor of the checkpoint the master record names (notFORCE).
  Lsn analysis_from = 0;
  // Per-phase cost breakdown (page transfers + wall clock), in execution
  // order. Always filled, whether or not observability is attached.
  std::vector<obs::PhaseCost> phases;
};

// System-failure recovery (paper Section 4.3), to be run against a
// TransactionManager whose volatile state was already dropped:
//
//  1. Rebuild the parity directory from the twin page headers
//     (Current_Parity, Figure 7; the S/N term of c'_s).
//  2. Analysis: scan the log; BOT without Commit/AbortComplete = loser.
//     Under notFORCE the scan starts at the last complete checkpoint the
//     log's master record names, and REDO folds only after-images at or
//     above its floor (see Recover).
//  3. Roll FORWARD: finalize dirty groups owned by winners (crash fell
//     between the commit record and twin finalization).
//  4. UNDO losers through TransactionManager::UndoPlan, the executor a
//     runtime abort uses: logged before-images in reverse LSN order, except
//     that an image logged before its page's unlogged window opened waits
//     until the parity undo of every loser-owned dirty group (which counts
//     the TWIST chain pages it finds stamped by the loser) has run.
//  5. REDO winners, page-ordered and read-once: each page with committed
//     after-images is read once, its images are folded over that image in
//     LSN order wherever the pageLSN shows them missing, and the page is
//     propagated at most once. Under FORCE a committed page reached the
//     array before its commit record, so only pages a non-winner wrote
//     (named by its before-images or chain heads, or the dirty page of a
//     loser's group) are read; the images of every other page count as
//     skipped. An archive restore logs a kArchiveRestore marker before it
//     rewrites the snapshot, and every page with a winner image logged
//     before the last marker is replayed as well — the restore's own
//     roll-forward and any restart after it take the same path.
//  6. Log AbortComplete for every loser and flush.
//
// Idempotent: crashing during recovery and re-running it converges to the
// same committed state.
class CrashRecovery {
 public:
  CrashRecovery(TransactionManager* txn_manager, TwinParityManager* parity,
                LogManager* log)
      : txn_manager_(txn_manager), parity_(parity), log_(log) {}

  CrashRecovery(const CrashRecovery&) = delete;
  CrashRecovery& operator=(const CrashRecovery&) = delete;

  Result<CrashRecoveryReport> Recover();

  // Hooks recovery into the observability hub (`recovery.phase.*` counters
  // and kPhaseBegin/kPhaseEnd trace events). Null detaches.
  void AttachObs(obs::ObsHub* hub) { hub_ = hub; }

  // Fans the REDO and parity-UNDO phases out over `pool` (DESIGN.md §13:
  // REDO is sharded by page id so each page is read, folded in LSN order
  // and propagated by one shard; parity undo runs per dirty group under the
  // group latches). Null (the default) keeps every phase on the serial path.
  void SetWorkerPool(exec::WorkerPool* pool) { pool_ = pool; }

  // Robustness hook: make Recover() fail with kAborted after `actions`
  // mutating recovery steps (finalizations, undos, and one per page REDO
  // visits), simulating a crash in the middle of recovery.
  void InjectFaultAfterActions(uint64_t actions) {
    fault_armed_ = true;
    fault_budget_ = actions;
  }

 private:
  // Consumes one unit of the fault budget; fails when it runs out. Safe to
  // call from concurrent recovery shards (the budget is claimed with CAS).
  Status ConsumeFaultBudget();

  bool fault_armed_ = false;
  std::atomic<uint64_t> fault_budget_{0};

  // REDO of one page: `images` index `records` for the page's committed
  // after-images in LSN order. Reads the page once, folds every image over
  // it (or LSN-skips it), and propagates the result once if any applied.
  // Tallies per image into the caller's per-shard counters.
  Status RedoPage(PageId page, const std::vector<LogRecord>& records,
                  std::span<const uint32_t> images, uint64_t* applied,
                  uint64_t* skipped);

  // Array + log transfers so far (phase deltas are charged per phase).
  uint64_t TransfersNow() const;

  TransactionManager* txn_manager_;
  TwinParityManager* parity_;
  LogManager* log_;
  obs::ObsHub* hub_ = nullptr;
  exec::WorkerPool* pool_ = nullptr;
};

}  // namespace rda

#endif  // RDA_RECOVERY_CRASH_RECOVERY_H_
