#ifndef RDA_TXN_TRANSACTION_MANAGER_H_
#define RDA_TXN_TRANSACTION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "lock/lock_manager.h"
#include "obs/obs.h"
#include "parity/twin_parity_manager.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace rda {

// Logging granularity (paper Sections 5.2 vs 5.3).
enum class LoggingMode : uint8_t { kPageLogging, kRecordLogging };

// Recovery-algorithm configuration, expressed in the paper's taxonomy
// (Haerder & Reuter): propagation is always notATOMIC (update-in-place),
// page replacement is always STEAL — the combination the paper restricts
// itself to ("the use of a log chain makes UNDO logging ... STEAL policy",
// Section 4.4) — while FORCE/notFORCE and RDA on/off are knobs.
struct TxnConfig {
  LoggingMode logging_mode = LoggingMode::kPageLogging;
  // FORCE: all pages a transaction modified are propagated before EOT
  // (TOC-style, no separate checkpoints). notFORCE pairs with ACC
  // checkpoints driven by recovery/Checkpointer.
  bool force = true;
  // Use the twin-page parity scheme to skip UNDO logging where Figure 3
  // permits. Off = the traditional baseline.
  bool rda_undo = true;
  // Record size for kRecordLogging (fixed-size slots).
  size_t record_size = 64;
};

// Outcome counters used by the simulator to report the paper's metrics.
struct TxnStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t before_images_logged = 0;
  uint64_t before_images_avoided = 0;  // Unlogged steals (the RDA win).
};

// Parameters for RunConcurrent: a closed-loop multi-threaded workload where
// each worker runs transactions back to back until its quota of commits is
// reached. Lock conflicts and mid-EOT frame collisions surface as kBusy and
// are resolved by abort-and-retry (deadlock victims included).
struct ConcurrentWorkload {
  uint32_t threads = 4;
  uint32_t txns_per_thread = 25;  // Commits each worker must complete.
  uint32_t ops_per_txn = 4;
  uint32_t pages = 64;      // Page ids drawn uniformly from [0, pages).
  double write_fraction = 1.0;
  uint64_t seed = 1;
  // Abort-and-retry attempts per transaction before giving up (livelock
  // guard; hitting it is an error).
  uint32_t max_attempts = 10000;
};

struct ConcurrentResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;      // Abort-and-retry cycles (all retried).
  uint64_t busy_retries = 0;  // kBusy occurrences that triggered a retry.
};

// The transaction manager: BOT/EOT processing, page- and record-granular
// updates through the buffer pool, the Figure 3 UNDO-logging decision on
// every steal, commit finalization of dirtied parity groups, and runtime
// abort via parity and/or logged before-images.
//
// Thread safety (DESIGN.md section 11): distinct transactions may run on
// distinct threads concurrently — one thread per transaction at a time.
// Lock conflicts surface as kBusy for the caller to retry or resolve via
// deadlock-victim abort, exactly as in the cooperative single-threaded
// simulator. Internally the manager relies on the buffer pool's shard
// latches for frame state, per-parity-group latches for group state, the
// per-transaction mutex for cross-thread eviction touches, and a small
// table mutex for the transaction map. The latch order is
//   buffer shard -> parity group -> txn mutex -> WAL / disk / lock table,
// and the only place a later lock is awaited while holding an earlier one
// is the eviction callback — which only ever try_locks transaction
// mutexes, so it can skip (kBusy) instead of deadlocking.
class TransactionManager {
 public:
  TransactionManager(const TxnConfig& config, TwinParityManager* parity,
                     LogManager* log, LockManager* locks,
                     const BufferPool::Options& pool_options);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  Result<TxnId> Begin();

  // Page-granular API (kPageLogging). `out`/`bytes` cover the user region
  // of the page: page_size - kDataRegionOffset bytes.
  Status ReadPage(TxnId txn, PageId page, std::vector<uint8_t>* out);
  Status WritePage(TxnId txn, PageId page, const std::vector<uint8_t>& bytes);

  // Record-granular API (kRecordLogging). `bytes` at most record_size.
  Status ReadRecord(TxnId txn, PageId page, RecordSlot slot,
                    std::vector<uint8_t>* out);
  Status WriteRecord(TxnId txn, PageId page, RecordSlot slot,
                     const std::vector<uint8_t>& bytes);

  Status Commit(TxnId txn);
  Status Abort(TxnId txn);

  // Runs `workload.threads` worker threads, each committing
  // `workload.txns_per_thread` transactions of `workload.ops_per_txn`
  // random page (or record) operations. kBusy outcomes abort and retry the
  // transaction. Returns aggregate outcome counts, or the first hard error
  // any worker hit.
  Result<ConcurrentResult> RunConcurrent(const ConcurrentWorkload& workload);

  // True iff `txn` is blocked in a deadlock cycle (scheduler picks victims).
  bool WouldDeadlock(TxnId txn) const { return locks_->WouldDeadlock(txn); }

  // Drops all volatile state: buffer, lock table, active-transaction table.
  void LoseVolatileState();

  Transaction* Find(TxnId txn);
  std::vector<TxnId> ActiveTxns() const;

  // The table an ACC checkpoint logs: every transaction not yet committed
  // or aborted, ascending, with the LSN of its BOT record (`not_logged` if
  // it has logged nothing yet), and in `*next_txn` the first id not yet
  // handed out, from one snapshot of the transaction table. A transaction
  // whose commit or abort-complete record is already appended counts as
  // unfinished until its EOT returns, so every finished one's EOT record
  // precedes a checkpoint record appended afterwards.
  std::vector<CheckpointTxn> UnfinishedTxns(Lsn not_logged,
                                            TxnId* next_txn) const;

  BufferPool* pool() { return &pool_; }
  TwinParityManager* parity() { return parity_; }
  LogManager* log() { return log_; }
  const TxnConfig& config() const { return config_; }
  // Snapshot by value: counters are bumped concurrently.
  TxnStats stats() const;
  void ResetStats();
  size_t user_page_size() const;
  uint32_t records_per_page() const;

  // Restores the transaction-id counter after recovery so new transactions
  // never reuse the id of a pre-crash one.
  void BumpNextTxnId(TxnId floor);

  // Hooks the manager (and its buffer pool) into the observability hub:
  // `txn.*` counters, per-transaction page-transfer attribution and the
  // txn-lifecycle trace events. Null detaches.
  void AttachObs(obs::ObsHub* hub);

  // Disk-level undo (paper Section 4.3): the one executor behind runtime
  // abort (one transaction, planned from memory) and restart (all losers,
  // planned from log analysis). Undo is reverse-chronological PER PAGE:
  //  - UndoLogged restores, in reverse LSN order, the before-images taken
  //    inside their page's unlogged window. Such an image can hold the
  //    owner's bytes from the unlogged steal, which the parity undo then
  //    cancels exactly (P xor P' is the unlogged delta; DESIGN.md 4.3).
  //    Images logged before their page's window opened are set aside.
  //  - UndoParity parity-undoes each planned group, rewinding its page to
  //    the window's base image, then restores the set-aside images in
  //    reverse LSN order. Applied before the parity undo, they would
  //    change the page under the XOR cancellation, which would then
  //    "restore" base xor new xor before.
  struct UndoPlan {
    // kBeforeImage records to restore, in reverse LSN order.
    std::vector<const LogRecord*> images;
    // Dirty groups to parity-undo, each with the transaction that owns its
    // unlogged window.
    std::vector<std::pair<GroupId, TxnId>> parity_groups;
    // LSN at which each (owner, page) unlogged window opened. An image of
    // that page by that owner with a smaller LSN predates the window; a
    // page without an entry counts as in-window throughout.
    std::map<std::pair<TxnId, PageId>, Lsn> window_open;
    // Runs before every disk-changing step; an error stops the undo (the
    // restart's injected crash points). May be called from pool threads.
    std::function<Status()> before_step;

    // Filled as the plan runs. `restored` holds the on-disk payload of
    // every page the undo rewrote, so a later record patch of the page
    // reads no disk and an abort can repair its buffer frames.
    std::vector<const LogRecord*> deferred;  // Pre-window, reverse LSN.
    std::unordered_map<PageId, std::vector<uint8_t>> restored;
    uint64_t logged_undos = 0;
    uint64_t parity_undos = 0;
    // Parity-undone pages that still carried their owner's stamp: the
    // TWIST chain members the undo found in place.
    uint64_t chain_pages_walked = 0;
  };
  Status UndoLogged(UndoPlan* plan);
  // Fans the parity undos out over `pool` (null = serial): each touches
  // only its own group under that group's latch.
  Status UndoParity(UndoPlan* plan, exec::WorkerPool* pool);

 private:
  // Eviction/propagation callback registered with the buffer pool: applies
  // the Figure 3 decision and performs logging + parity-maintained writes.
  // Runs under the frame's shard latch; takes the page's parity-group latch
  // across classify -> log -> propagate and try_locks every active
  // modifier's mutex — a busy or mid-EOT modifier makes it return kBusy so
  // the eviction walk can pick another victim.
  Status PropagateFrame(Frame* frame);

  // True iff parity undo of `frame`'s current propagation epoch would land
  // exactly on the logical before-state of `txn` (no committed-but-
  // unpropagated bytes of other transactions would be wiped).
  bool UnloggedCoverageExact(Frame* frame, TxnId txn);

  // Writes the BOT record if this is the transaction's first update. The
  // caller must hold txn->mu or have EOT exclusivity.
  Status EnsureBot(Transaction* txn);

  // Logs before-images for a steal that cannot use parity coverage, for
  // every active modifier of the frame (whose mutexes the caller holds),
  // then flushes (WAL rule).
  Status LogBeforeImagesForSteal(Frame* frame,
                                 const std::vector<Transaction*>& modifiers);

  // Restores one before-image (a whole page, or one record slot patched
  // into the page's current payload) with parity maintenance.
  Status RestoreBeforeImage(const LogRecord& image, UndoPlan* plan);

  // Reverts txn's record modifications inside resident frames and detaches
  // the transaction from them.
  void CleanBufferAfterAbort(
      Transaction* txn,
      const std::unordered_map<PageId, std::vector<uint8_t>>& restored_disk);

  // Logs the after-images of a committing transaction (REDO). Always, also
  // under FORCE: archive restore rolls committed work forward from them,
  // and the paper's cost model counts UNDO and REDO log files.
  Status LogAfterImages(Transaction* txn);

  // Array + log page transfers so far; deltas around an operation are the
  // transfers it caused (steals included — cost goes to the op that forced
  // them). Only consulted while observability is attached.
  uint64_t TransfersNow() const;
  uint64_t TransfersStart() const {
    return obs_attached_ ? TransfersNow() : 0;
  }
  void AttributeTransfers(Transaction* txn, uint64_t start) {
    if (obs_attached_ && txn != nullptr) {
      txn->transfers += TransfersNow() - start;
    }
  }

  TxnConfig config_;
  TwinParityManager* parity_;
  LogManager* log_;
  LockManager* locks_;
  BufferPool pool_;
  // Guards the map and the id counter only (leaf lock, held briefly);
  // Transaction objects are pointer-stable and carry their own mutex.
  mutable std::mutex txns_mu_;
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> txns_;
  TxnId next_txn_ = 1;

  // The counters behind stats(), exported as `txn.<field>`. Bumped from
  // several worker threads; each is one atomic.
  obs::StatCounter begun_;
  obs::StatCounter committed_;
  obs::StatCounter aborted_;
  obs::StatCounter before_images_logged_;
  obs::StatCounter before_images_avoided_;

  // Observability (null / false = disabled).
  bool obs_attached_ = false;
  obs::TraceBuffer* trace_ = nullptr;
  obs::Histogram* transfers_per_commit_ = nullptr;
  // Latency spans: the whole Commit()/Abort() plus its force/WAL/parity
  // segments, and the begin->EOT lifetime interval.
  obs::SpanCollector* spans_ = nullptr;
  obs::Histogram* commit_us_hist_ = nullptr;
  obs::Histogram* abort_us_hist_ = nullptr;
};

}  // namespace rda

#endif  // RDA_TXN_TRANSACTION_MANAGER_H_
