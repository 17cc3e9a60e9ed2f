#ifndef RDA_CORE_DATABASE_H_
#define RDA_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "lock/lock_manager.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "parity/twin_parity_manager.h"
#include "recovery/archive.h"
#include "recovery/checkpointer.h"
#include "recovery/crash_recovery.h"
#include "recovery/media_recovery.h"
#include "recovery/scrubber.h"
#include "storage/disk_array.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace rda {

// Everything needed to stand up one database instance. The defaults give a
// small array suitable for tests; the simulator scales them to the paper's
// parameters (B=300, S=5000, N=10, ...).
struct DatabaseOptions {
  DiskArray::Options array;
  BufferPool::Options buffer;
  TxnConfig txn;
  LogManager::Options log;
  // ACC checkpoint interval, measured in update operations; 0 (the
  // TOC / FORCE setting) disables automatic checkpoints. Under notFORCE
  // each checkpoint is a restart point: restart reads the log from the
  // last one (DESIGN.md §4.3), so the interval bounds restart work.
  uint64_t checkpoint_interval_updates = 0;
  // Engine-wide metrics + trace + latency spans. Disabling all of them
  // makes the hub null and instrumentation collapses to a pointer test
  // per site.
  obs::ObsOptions obs;
  // Sector-level fault injection (DESIGN.md section 10). With
  // fault.enabled false (the default) no injectors are created and every
  // disk access pays exactly one extra pointer test.
  FaultConfig fault;
  // Retry / escalation reaction to I/O errors. The defaults retry
  // transients but never escalate, matching pre-policy behaviour.
  IoPolicy io;
  // Parallel recovery (DESIGN.md section 13). recovery_threads=1 (the
  // default) keeps every recovery path bit-for-bit identical to the serial
  // algorithms: no pool is created and each loop runs inline.
  exec::RecoveryOptions recovery;
};

// The public facade of the library: a single-node database engine whose
// recovery component implements the paper's RDA scheme (twin-page parity
// over a redundant disk array) alongside the traditional log-only baseline.
//
// Lifecycle of the interesting events:
//   Begin / ReadPage / WritePage / ReadRecord / WriteRecord / Commit / Abort
//   Crash()  -> all volatile state is gone ->  Recover()
//   FailDisk(d)  -> degraded reads keep working
//     -> RebuildDisk(d): transactions keep committing while the
//        replacement disk fills group by group (touched groups are
//        repaired on demand, ahead of the sweep)
//     -> healthy again
// A background rebuild is RebuildDisk(d, {throttle, pause, cancel}) on a
// thread the caller owns (DESIGN.md section 14). Like every transaction
// thread, it must be joined before Crash() or RestoreFromArchive().
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- transaction API (thin forwarding; see TransactionManager) ---
  Result<TxnId> Begin() { return txn_manager_->Begin(); }
  Status ReadPage(TxnId txn, PageId page, std::vector<uint8_t>* out) {
    return txn_manager_->ReadPage(txn, page, out);
  }
  Status WritePage(TxnId txn, PageId page, const std::vector<uint8_t>& bytes);
  Status ReadRecord(TxnId txn, PageId page, RecordSlot slot,
                    std::vector<uint8_t>* out) {
    return txn_manager_->ReadRecord(txn, page, slot, out);
  }
  Status WriteRecord(TxnId txn, PageId page, RecordSlot slot,
                     const std::vector<uint8_t>& bytes);
  Status Commit(TxnId txn) { return txn_manager_->Commit(txn); }

  // Aborts `txn`. Returns kDataLoss — without aborting — if a disk failure
  // destroyed the undo coverage of one of its unlogged updates (see
  // MediaRecoveryReport::undo_coverage_lost); such a transaction can only
  // commit.
  Status Abort(TxnId txn);

  // Bulk-loads committed pages starting at page 0 using full-stripe writes
  // for every parity group whose members are all loaded (the paper's
  // Section 3.1 "large accesses": N+1 writes per group, no reads) and
  // plain small writes for the members of partly loaded groups, under
  // either layout. Requires a quiescent database (no active transactions).
  // `user_pages[i]` covers the user region of page i.
  Status BulkLoad(const std::vector<std::vector<uint8_t>>& user_pages);

  // --- checkpointing ---
  // Propagates every dirty frame and logs a kCheckpoint record; under
  // notFORCE the log's master record then names it as the restart point.
  Status Checkpoint() { return checkpointer_->TakeCheckpoint(); }

  // --- archive (catastrophic media recovery + log truncation) ---
  // Quiescent full snapshot; truncates the stable log prefix by default.
  Status TakeArchive(bool truncate_log = true) {
    return archive_->TakeArchive(truncate_log);
  }
  bool HasArchive() const { return archive_->HasArchive(); }
  // Restores after a catastrophe the array cannot survive (e.g. two disks
  // lost): replaces failed media, rewrites all pages from the snapshot,
  // recomputes parity and rolls committed work forward from the log.
  // Requires quiescence: join every transaction and rebuild thread first.
  Result<CrashRecoveryReport> RestoreFromArchive();
  // Test/robustness hook: like RestoreFromArchive(), but the roll-forward
  // fails with kAborted after `actions` recovery mutations — a crash during
  // the restore. Call Crash() and Recover() afterwards.
  Result<CrashRecoveryReport> RestoreFromArchiveWithInjectedFault(
      uint64_t actions);

  // Background parity scrub: verify all groups, repair clean ones that
  // fail the XOR check.
  Result<ScrubReport> Scrub() {
    ParityScrubber scrubber(parity_.get(), recovery_pool_.get());
    return scrubber.ScrubAll();
  }

  // --- failure injection & recovery ---
  // System crash: buffer pool, lock table, parity directory and unflushed
  // log records are lost. Join every transaction and rebuild thread
  // first; a cancelled or half-done rebuild leaves the disk's persistent
  // rebuilding flag set for Recover() to finish.
  void Crash();
  // Restart after Crash(): runs the Section 4.3 algorithm. Disks that were
  // mid-rebuild at the crash are failed (their media holds stale zeros for
  // un-rebuilt groups) and rebuilt before normal recovery.
  Result<CrashRecoveryReport> Recover();
  // Test/robustness hook: like Recover(), but fails with kAborted after
  // `actions` recovery mutations — simulating a crash DURING recovery.
  // Call Crash() and Recover() again afterwards; convergence is tested.
  Result<CrashRecoveryReport> RecoverWithInjectedFault(uint64_t actions);
  Status FailDisk(DiskId disk) { return array_->FailDisk(disk); }
  // Media rebuild: replaces the disk and reconstructs group by group under
  // the group latches; transactions may keep running. Foreground access to
  // a not-yet-rebuilt group repairs it on demand. Unthrottled, the sweep is
  // sharded over the recovery pool; `options` can throttle (then it runs
  // serially), pause or cancel it, and a later call resumes a cancelled
  // rebuild of the same disk. A background rebuild is this call on a
  // thread the caller owns.
  Result<MediaRecoveryReport> RebuildDisk(
      DiskId disk, const OnlineRebuildOptions& options = {});

  // Outcome of one RepairEscalations() pass. A disk whose rebuild fails no
  // longer aborts the pass: later escalated disks still get their turn, the
  // stragglers are reported, and the first error is preserved typed (e.g.
  // kDataLoss when two disks are down and only the archive can help).
  struct EscalationRepairReport {
    uint32_t repaired = 0;
    std::vector<DiskId> unrepaired;    // Ascending disk order.
    Status first_error = Status::Ok();
  };
  // Rebuilds every disk the I/O policy escalated (error budget exhausted):
  // replace + full media rebuild, one disk at a time in ascending disk
  // order. Safe to call periodically; a no-op when none. An escalation
  // only fails the disk: this call (or a RebuildDisk of the disk) is the
  // repair, nothing rebuilds it automatically.
  Result<EscalationRepairReport> RepairEscalations();

  // --- inspection ---
  // True iff every parity group's consistent twin equals XOR(data pages).
  Result<bool> VerifyAllParity();
  // Committed on-disk payload of a page (bypasses transactions; test/demo
  // helper). Reconstructs through parity if the owning disk is down.
  Result<std::vector<uint8_t>> RawReadPage(PageId page);

  DiskArray* array() { return array_.get(); }
  TwinParityManager* parity() { return parity_.get(); }
  LogManager* log() { return log_.get(); }
  TransactionManager* txn_manager() { return txn_manager_.get(); }
  Checkpointer* checkpointer() { return checkpointer_.get(); }
  const DatabaseOptions& options() const { return options_; }

  uint32_t num_pages() const { return array_->num_data_pages(); }
  size_t user_page_size() const { return txn_manager_->user_page_size(); }
  uint32_t records_per_page() const {
    return txn_manager_->records_per_page();
  }

  // Total page transfers so far (array + log), the paper's cost metric.
  uint64_t TotalPageTransfers() const;

  // One coherent snapshot of every counter the engine keeps.
  struct StatsSnapshot {
    IoCounters array;
    IoCounters log;
    double array_total_busy_ms = 0;
    double array_max_busy_ms = 0;
    BufferStats buffer;
    ParityStats parity;
    TxnStats txn;
    uint64_t checkpoints = 0;
    uint32_t dirty_groups = 0;
    uint32_t failed_disks = 0;
  };
  StatsSnapshot Stats() const;
  // Human-readable multi-line rendering of Stats() for logs and examples.
  std::string FormatStats() const;

  // --- observability ---
  // The hub (null iff both metrics and trace were disabled in options).
  obs::ObsHub* obs() { return obs_.get(); }
  // Point-in-time copy of every counter/gauge/histogram. Empty snapshot
  // when metrics are disabled.
  obs::MetricsSnapshot SnapshotMetrics() const;
  // JSON / CSV renderings of SnapshotMetrics().
  std::string MetricsJson() const { return obs::MetricsToJson(SnapshotMetrics()); }
  std::string MetricsCsv() const { return obs::MetricsToCsv(SnapshotMetrics()); }
  // Writes the retained trace (JSON) / metrics (JSON) to `path`.
  Status DumpTrace(const std::string& path) const;
  Status DumpMetrics(const std::string& path) const;
  // Writes the recorded latency spans (plus trace events) as a Chrome
  // Trace Event Format file, loadable in Perfetto / chrome://tracing.
  Status DumpChromeTrace(const std::string& path) const;

 private:
  explicit Database(const DatabaseOptions& options);

  Status MaybeAutoCheckpoint();
  // Recover() prologue: any disk whose persistent rebuilding flag is set
  // crashed mid-rebuild — its medium holds stale zeros wherever the sweep
  // had not reached. Fail it (so the directory rebuild reconstructs through
  // the survivors) and redo the rebuild.
  Status FinishInterruptedRebuilds();
  void MergeUndoLost(const std::vector<TxnId>& txns);

  DatabaseOptions options_;
  std::unique_ptr<obs::ObsHub> obs_;
  // Shared worker pool behind every parallel recovery path (crash recovery,
  // media rebuild, scrub, archive restore). Null when recovery_threads <= 1.
  std::unique_ptr<exec::WorkerPool> recovery_pool_;
  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<TwinParityManager> parity_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TransactionManager> txn_manager_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<ArchiveManager> archive_;
  std::atomic<uint64_t> updates_since_checkpoint_{0};
  // Transactions whose unlogged-undo coverage a media failure destroyed.
  // Guarded by undo_lost_mu_: a caller's rebuild thread merges into it
  // (RebuildDisk) while transaction threads call Abort().
  mutable std::mutex undo_lost_mu_;
  std::unordered_set<TxnId> undo_lost_txns_;
};

}  // namespace rda

#endif  // RDA_CORE_DATABASE_H_
