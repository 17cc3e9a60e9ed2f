#include "fuzz/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "exec/token_bucket.h"
#include "fuzz/oracle.h"
#include "sim/workload.h"

namespace rda::fuzz {
namespace {

// Every schedule runs against the same small array: 8 groups of 4 data
// pages + 2 parity twins over 6 disks, pages of 128 bytes. Small enough
// that hundreds of schedules stay fast, large enough that crashes land in
// distinct groups and disk failures hit both data and parity members.
DatabaseOptions MakeDbOptions(const Schedule& schedule,
                              const FuzzOptions& fuzz_options) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 32;
  options.array.page_size = 128;
  options.buffer.capacity = schedule.threads > 1 ? 24 : 12;
  options.buffer.shards = schedule.threads > 1 ? 4 : 1;
  options.txn.force = schedule.force;
  options.txn.rda_undo = schedule.rda;
  options.txn.logging_mode = schedule.mode;
  options.txn.record_size = 24;
  options.checkpoint_interval_updates = schedule.force ? 0 : 64;
  // Injectors armed, all probabilities zero: faults come exclusively from
  // the schedule's scripted events, so replays are exact.
  options.fault.enabled = true;
  options.io.max_read_retries = 4;
  options.io.max_write_retries = 4;
  options.io.width = fuzz_options.io_width;
  options.obs.enable_metrics = true;
  return options;
}

// One flattened workload step of a single-threaded run.
struct MicroOp {
  enum class Kind : uint8_t {
    kBegin,
    kRead,
    kWrite,
    kCommit,
    kAbort,
    kCheckpoint
  };
  Kind kind = Kind::kBegin;
  PageId page = 0;
  RecordSlot slot = 0;
};

class Runner {
 public:
  Runner(const Schedule& schedule, const FuzzOptions& options)
      : schedule_(schedule), options_(options) {}

  Result<RunOutcome> Run();

 private:
  using PendingWrites =
      std::vector<std::pair<std::pair<PageId, RecordSlot>, uint8_t>>;

  bool Violated() const { return violated_.load(std::memory_order_acquire); }
  void RecordViolation(const std::string& message) {
    std::lock_guard<std::mutex> lock(violation_mu_);
    if (!violated_.load(std::memory_order_acquire)) {
      violation_ = message;
      violated_.store(true, std::memory_order_release);
    }
  }

  uint8_t NextValue() {
    // Nonzero so committed data is distinguishable from the formatted
    // (all-zero) state the shadow model defaults to.
    return static_cast<uint8_t>(
        1 + value_counter_.fetch_add(1, std::memory_order_relaxed) % 255);
  }

  void ApplyPending(const PendingWrites& pending) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    for (const auto& [where, value] : pending) {
      if (schedule_.mode == LoggingMode::kPageLogging) {
        shadow_->CommitPage(where.first, value);
      } else {
        shadow_->CommitRecord(where.first, where.second, value);
      }
    }
  }

  uint8_t Expected(const PendingWrites& pending, PageId page,
                   RecordSlot slot) {
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      if (it->first.first == page &&
          (schedule_.mode == LoggingMode::kPageLogging ||
           it->first.second == slot)) {
        return it->second;
      }
    }
    std::lock_guard<std::mutex> lock(shadow_mu_);
    return schedule_.mode == LoggingMode::kPageLogging
               ? shadow_->ExpectedPage(page)
               : shadow_->ExpectedRecord(page, slot);
  }

  void RunOracle() {
    if (Violated()) {
      return;
    }
    Status status = CheckOracle(db_.get(), *shadow_);
    if (!status.ok()) {
      RecordViolation(status.ToString());
    }
  }

  void ApplyBugAfterRecovery();
  // Crash() + Recover() (optionally crashing the first recovery after
  // `recovery_faults` actions), then bug hook + oracle. Coordinator-only.
  void DoCrashAndRecover(uint32_t recovery_faults);
  // Applies one scripted fault synchronously. `cur`/`must_commit` (may be
  // null) let a disk-failure event flag the single-threaded run's active
  // transaction when its undo coverage was lost.
  void ApplyFault(const FaultEvent& fault, const TxnId* cur,
                  bool* must_commit);
  // A failed disk removes one member from EVERY group, so an unhealed
  // scripted sector fault anywhere else would turn into a double erasure —
  // outside the single-fault coverage the array promises. Heal them first
  // so the disk failure is each group's only fault. Returns false after
  // recording a violation.
  bool ScrubBeforeDiskFailure();

  void RunSingleThreaded();
  void RunMultiThreaded();
  void RunSegment(uint32_t segment_end, DiskId* pending_online_disk,
                  uint32_t online_rate);
  void WorkerLoop(uint32_t worker, uint32_t segment_end);
  // Commits `txn` because Abort reported kDataLoss (a disk failure consumed
  // the undo coverage of one of its unlogged updates). Returns false after
  // recording a violation.
  bool CommitInstead(TxnId txn, const PendingWrites& pending);

  const Schedule& schedule_;
  FuzzOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ShadowModel> shadow_;
  std::mutex shadow_mu_;
  size_t record_size_ = 0;

  std::atomic<uint64_t> value_counter_{0};
  std::atomic<uint64_t> committed_{0};
  uint32_t recoveries_ = 0;

  std::atomic<bool> violated_{false};
  std::mutex violation_mu_;
  std::string violation_;

  // Groups that carry an unscrubbed scripted persistent fault; sized in
  // Run(). Coordinator-only (faults fire at quiesced points).
  std::vector<bool> faulted_groups_;

  // Multi-threaded machinery.
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> generators_;
  std::atomic<uint32_t> next_txn_{0};
};

void Runner::ApplyBugAfterRecovery() {
  if (options_.bug != InjectedBug::kDropRecoveredPage) {
    return;
  }
  std::lock_guard<std::mutex> lock(shadow_mu_);
  for (PageId page = 0; page < db_->num_pages(); ++page) {
    bool holds_data = false;
    if (schedule_.mode == LoggingMode::kPageLogging) {
      holds_data = shadow_->ExpectedPage(page) != 0;
    } else {
      for (RecordSlot slot = 0; slot < shadow_->records_per_page(); ++slot) {
        if (shadow_->ExpectedRecord(page, slot) != 0) {
          holds_data = true;
          break;
        }
      }
    }
    if (holds_data) {
      // Straight to the array, bypassing parity maintenance: the committed
      // content vanishes and parity no longer covers the group.
      PageImage zeroed(db_->options().array.page_size);
      (void)db_->array()->WriteData(page, std::move(zeroed));
      return;
    }
  }
}

void Runner::DoCrashAndRecover(uint32_t recovery_faults) {
  db_->Crash();
  if (recovery_faults > 0) {
    Result<CrashRecoveryReport> first =
        db_->RecoverWithInjectedFault(recovery_faults);
    if (!first.ok()) {
      if (!first.status().IsAborted()) {
        RecordViolation("recovery (with injected mid-recovery crash) "
                        "failed: " +
                        first.status().ToString());
        return;
      }
      // The injected crash fired; recovery must converge when re-run.
      db_->Crash();
      Result<CrashRecoveryReport> second = db_->Recover();
      if (!second.ok()) {
        RecordViolation("recovery did not converge after a mid-recovery "
                        "crash: " +
                        second.status().ToString());
        return;
      }
    }
  } else {
    Result<CrashRecoveryReport> report = db_->Recover();
    if (!report.ok()) {
      RecordViolation("recovery failed: " + report.status().ToString());
      return;
    }
  }
  ++recoveries_;
  ApplyBugAfterRecovery();
  RunOracle();
}

void Runner::ApplyFault(const FaultEvent& fault, const TxnId* cur,
                        bool* must_commit) {
  DiskArray* array = db_->array();
  const Layout& layout = array->layout();
  switch (fault.kind) {
    case FaultEvent::Kind::kLatentSector:
    case FaultEvent::Kind::kTransientRead:
    case FaultEvent::Kind::kTransientWrite:
    case FaultEvent::Kind::kBitFlip:
    case FaultEvent::Kind::kTornWrite: {
      // Data pages only: parity-twin damage is scheduled indirectly (the
      // engine repairs or honestly reports it; a scripted fault on a dirty
      // group's before-image twin is kDataLoss by design, not a bug).
      PageId page = fault.a % db_->num_pages();
      if (fault.kind != FaultEvent::Kind::kTransientRead &&
          fault.kind != FaultEvent::Kind::kTransientWrite) {
        // Persistent sector damage (latent / flip / torn): XOR parity is
        // single-erasure code per group, so two unhealed scripted faults in
        // ONE group would be unrecoverable by design — found the hard way
        // by the first soak sweep. Probe forward to a group this schedule
        // has not damaged yet; deterministic, so replays are unchanged.
        for (PageId probe = 0; probe < db_->num_pages(); ++probe) {
          if (!faulted_groups_[layout.GroupOf(page)]) {
            break;
          }
          page = (page + 1) % db_->num_pages();
        }
        faulted_groups_[layout.GroupOf(page)] = true;
      }
      const PhysicalLocation loc = layout.DataLocation(page);
      FaultInjector* injector = array->injector(loc.disk);
      if (injector == nullptr) {
        RecordViolation("fault injection unavailable (injectors disarmed)");
        return;
      }
      // Transient bursts stay below the retry budget (4): the policy must
      // absorb them without surfacing an error.
      const uint32_t count = std::clamp<uint32_t>(fault.b, 1, 3);
      switch (fault.kind) {
        case FaultEvent::Kind::kLatentSector:
          injector->InjectLatentSector(loc.slot);
          break;
        case FaultEvent::Kind::kTransientRead:
          injector->ScheduleTransientRead(loc.slot, count);
          break;
        case FaultEvent::Kind::kTransientWrite:
          injector->ScheduleTransientWrite(loc.slot, count);
          break;
        case FaultEvent::Kind::kBitFlip:
          injector->ScheduleBitFlip(loc.slot,
                                    db_->options().array.page_size / 2, 0x10);
          break;
        case FaultEvent::Kind::kTornWrite:
          injector->ScheduleTornWrite(loc.slot);
          break;
        default:
          break;
      }
      return;
    }
    case FaultEvent::Kind::kDiskFailRebuild:
    case FaultEvent::Kind::kDiskFailOnlineRebuild: {
      const DiskId disk = fault.a % layout.num_disks();
      if (array->DiskFailed(disk)) {
        return;  // Already gone (stacked fail events); nothing new to do.
      }
      if (!ScrubBeforeDiskFailure()) {
        return;
      }
      Status failed = db_->FailDisk(disk);
      if (!failed.ok()) {
        RecordViolation("FailDisk: " + failed.ToString());
        return;
      }
      Result<MediaRecoveryReport> report =
          fault.kind == FaultEvent::Kind::kDiskFailOnlineRebuild
              ? db_->RebuildDiskOnline(disk)
              : db_->RebuildDisk(disk);
      if (!report.ok()) {
        RecordViolation("rebuild of disk " + std::to_string(disk) +
                        " failed: " + report.status().ToString());
        return;
      }
      if (cur != nullptr && must_commit != nullptr &&
          *cur != kInvalidTxnId) {
        for (TxnId lost : report->undo_coverage_lost) {
          if (lost == *cur) {
            *must_commit = true;  // Abort would be kDataLoss; commit at EOT.
          }
        }
      }
      return;
    }
  }
}

bool Runner::ScrubBeforeDiskFailure() {
  Result<ScrubReport> scrub = db_->Scrub();
  if (!scrub.ok()) {
    RecordViolation("scrub before scheduled disk failure failed: " +
                    scrub.status().ToString());
    return false;
  }
  std::fill(faulted_groups_.begin(), faulted_groups_.end(), false);
  return true;
}

bool Runner::CommitInstead(TxnId txn, const PendingWrites& pending) {
  Status commit = db_->Commit(txn);
  if (!commit.ok()) {
    RecordViolation("commit of an undo-coverage-lost transaction failed: " +
                    commit.ToString());
    return false;
  }
  ApplyPending(pending);
  committed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Runner::RunSingleThreaded() {
  sim::WorkloadOptions workload;
  workload.num_pages = db_->num_pages();
  workload.pages_per_txn = 4;
  workload.communality = 0.5;
  workload.update_txn_fraction = 0.7;
  workload.update_probability = 0.7;
  workload.abort_probability = 0.1;
  workload.mode = schedule_.mode;
  workload.records_per_page = db_->records_per_page();
  workload.hot_window = 8;
  workload.seed = schedule_.seed;
  sim::WorkloadGenerator generator(workload);
  Random checkpoint_rng(schedule_.seed ^ 0x9e3779b97f4a7c15ULL);

  std::vector<MicroOp> ops;
  for (uint32_t t = 0; t < schedule_.num_steps; ++t) {
    const sim::TxnScript script = generator.Next();
    ops.push_back({MicroOp::Kind::kBegin, 0, 0});
    for (const sim::TxnOp& op : script.ops) {
      ops.push_back({op.is_update ? MicroOp::Kind::kWrite
                                  : MicroOp::Kind::kRead,
                     op.page, op.slot});
    }
    ops.push_back({script.client_aborts ? MicroOp::Kind::kAbort
                                        : MicroOp::Kind::kCommit,
                   0, 0});
    if (!schedule_.force && checkpoint_rng.Bernoulli(0.15)) {
      ops.push_back({MicroOp::Kind::kCheckpoint, 0, 0});
    }
  }

  const uint32_t end_step = static_cast<uint32_t>(ops.size());
  std::multimap<uint32_t, const FaultEvent*> faults_at;
  for (const FaultEvent& fault : schedule_.faults) {
    faults_at.emplace(std::min(fault.step, end_step), &fault);
  }
  std::multimap<uint32_t, const CrashPoint*> crashes_at;
  for (const CrashPoint& crash : schedule_.crash_points) {
    crashes_at.emplace(std::min(crash.step, end_step), &crash);
  }

  Random steal_rng(schedule_.seed * 0x9E3779B1ULL + 17);
  TxnId cur = kInvalidTxnId;
  bool skipping = false;     // Crash killed the active txn: seek next kBegin.
  bool must_commit = false;  // Undo coverage lost: Abort would be kDataLoss.
  PendingWrites pending;
  std::vector<uint8_t> page_bytes(db_->user_page_size());
  std::vector<uint8_t> record_bytes(record_size_);
  std::vector<uint8_t> read_buffer;

  for (uint32_t idx = 0; idx <= end_step && !Violated(); ++idx) {
    for (auto [it, end] = faults_at.equal_range(idx); it != end; ++it) {
      ApplyFault(*it->second, &cur, &must_commit);
    }
    for (auto [it, end] = crashes_at.equal_range(idx);
         it != end && !Violated(); ++it) {
      DoCrashAndRecover(it->second->recovery_faults);
      cur = kInvalidTxnId;
      pending.clear();
      must_commit = false;
      skipping = true;
    }
    if (Violated() || idx == end_step) {
      continue;
    }
    const MicroOp& op = ops[idx];
    if (op.kind == MicroOp::Kind::kCheckpoint) {
      Status ckpt = db_->Checkpoint();
      if (!ckpt.ok()) {
        RecordViolation("checkpoint failed: " + ckpt.ToString());
      }
      continue;
    }
    if (skipping && op.kind != MicroOp::Kind::kBegin) {
      continue;
    }
    switch (op.kind) {
      case MicroOp::Kind::kBegin: {
        skipping = false;
        Result<TxnId> txn = db_->Begin();
        if (!txn.ok()) {
          RecordViolation("Begin failed: " + txn.status().ToString());
          break;
        }
        cur = *txn;
        pending.clear();
        must_commit = false;
        break;
      }
      case MicroOp::Kind::kWrite: {
        const uint8_t value = NextValue();
        Status write;
        if (schedule_.mode == LoggingMode::kPageLogging) {
          std::fill(page_bytes.begin(), page_bytes.end(), value);
          write = db_->WritePage(cur, op.page, page_bytes);
        } else {
          std::fill(record_bytes.begin(), record_bytes.end(), value);
          write = db_->WriteRecord(cur, op.page, op.slot, record_bytes);
        }
        if (!write.ok()) {
          RecordViolation("single-threaded write failed: " +
                          write.ToString());
          break;
        }
        pending.push_back({{op.page, op.slot}, value});
        // A steal mid-transaction is where the twin-parity scheme differs
        // from the baseline (unlogged propagation, Figure 3); take it
        // often so crashes land between steal and EOT.
        if (steal_rng.Bernoulli(0.4)) {
          auto* frame = db_->txn_manager()->pool()->Lookup(op.page);
          if (frame != nullptr) {
            Status steal = db_->txn_manager()->pool()->PropagateFrame(frame);
            if (!steal.ok() && !steal.IsBusy()) {
              RecordViolation("steal propagation failed: " +
                              steal.ToString());
            }
          }
        }
        break;
      }
      case MicroOp::Kind::kRead: {
        Status read =
            schedule_.mode == LoggingMode::kPageLogging
                ? db_->ReadPage(cur, op.page, &read_buffer)
                : db_->ReadRecord(cur, op.page, op.slot, &read_buffer);
        if (!read.ok()) {
          RecordViolation("single-threaded read failed: " + read.ToString());
          break;
        }
        const uint8_t expected = Expected(pending, op.page, op.slot);
        for (uint8_t byte : read_buffer) {
          if (byte != expected) {
            RecordViolation(
                "read of page " + std::to_string(op.page) + " slot " +
                std::to_string(op.slot) + " returned " +
                std::to_string(byte) + ", expected committed value " +
                std::to_string(expected));
            break;
          }
        }
        break;
      }
      case MicroOp::Kind::kCommit:
      case MicroOp::Kind::kAbort: {
        const bool want_abort =
            op.kind == MicroOp::Kind::kAbort && !must_commit;
        if (want_abort) {
          Status abort = db_->Abort(cur);
          if (abort.ok()) {
            pending.clear();
          } else if (abort.IsDataLoss()) {
            if (!CommitInstead(cur, pending)) {
              break;
            }
          } else {
            RecordViolation("abort failed: " + abort.ToString());
            break;
          }
        } else {
          Status commit = db_->Commit(cur);
          if (!commit.ok()) {
            RecordViolation("commit failed: " + commit.ToString());
            break;
          }
          ApplyPending(pending);
          committed_.fetch_add(1, std::memory_order_relaxed);
        }
        cur = kInvalidTxnId;
        pending.clear();
        must_commit = false;
        break;
      }
      case MicroOp::Kind::kCheckpoint:
        break;  // Handled above.
    }
  }
  // Always finish with a crash + recovery: NOFORCE keeps committed work in
  // the buffer pool, so only the post-recovery disk state is comparable to
  // the shadow model.
  if (!Violated()) {
    DoCrashAndRecover(0);
  }
}

void Runner::WorkerLoop(uint32_t worker, uint32_t segment_end) {
  sim::WorkloadGenerator& generator = *generators_[worker];
  PendingWrites pending;
  std::vector<uint8_t> page_bytes(db_->user_page_size());
  std::vector<uint8_t> record_bytes(record_size_);
  std::vector<uint8_t> read_buffer;
  while (!Violated()) {
    uint32_t slot = next_txn_.load(std::memory_order_relaxed);
    while (slot < segment_end &&
           !next_txn_.compare_exchange_weak(slot, slot + 1,
                                            std::memory_order_relaxed)) {
    }
    if (slot >= segment_end) {
      return;
    }
    const sim::TxnScript script = generator.Next();
    for (int attempt = 0; attempt < 10000 && !Violated(); ++attempt) {
      Result<TxnId> txn = db_->Begin();
      if (!txn.ok()) {
        RecordViolation("Begin failed: " + txn.status().ToString());
        return;
      }
      pending.clear();
      bool busy = false;
      for (const sim::TxnOp& op : script.ops) {
        Status status;
        if (op.is_update) {
          const uint8_t value = NextValue();
          if (schedule_.mode == LoggingMode::kPageLogging) {
            std::fill(page_bytes.begin(), page_bytes.end(), value);
            status = db_->WritePage(*txn, op.page, page_bytes);
          } else {
            std::fill(record_bytes.begin(), record_bytes.end(), value);
            status = db_->WriteRecord(*txn, op.page, op.slot, record_bytes);
          }
          if (status.ok()) {
            pending.push_back({{op.page, op.slot}, value});
          }
        } else {
          status = schedule_.mode == LoggingMode::kPageLogging
                       ? db_->ReadPage(*txn, op.page, &read_buffer)
                       : db_->ReadRecord(*txn, op.page, op.slot,
                                         &read_buffer);
          if (status.ok()) {
            // Partitions are disjoint, so this worker is the only writer
            // of its pages: reads must see its own committed history.
            const uint8_t expected = Expected(pending, op.page, op.slot);
            for (uint8_t byte : read_buffer) {
              if (byte != expected) {
                RecordViolation("worker " + std::to_string(worker) +
                                " read page " + std::to_string(op.page) +
                                " slot " + std::to_string(op.slot) +
                                ": got " + std::to_string(byte) +
                                ", expected " + std::to_string(expected));
                (void)db_->Abort(*txn);
                return;
              }
            }
          }
        }
        if (status.IsBusy()) {
          busy = true;
          break;
        }
        if (!status.ok()) {
          RecordViolation("worker op failed: " + status.ToString());
          return;
        }
      }
      if (busy || script.client_aborts) {
        Status abort = db_->Abort(*txn);
        if (abort.IsDataLoss()) {
          if (!CommitInstead(*txn, pending)) {
            return;
          }
          break;  // Transaction ended (committed); slot consumed.
        }
        if (!abort.ok()) {
          RecordViolation("abort failed: " + abort.ToString());
          return;
        }
        if (busy) {
          std::this_thread::yield();
          continue;  // Retry the same scripted transaction.
        }
        break;  // Clean scripted abort.
      }
      Status commit = db_->Commit(*txn);
      if (commit.IsBusy()) {
        Status abort = db_->Abort(*txn);
        if (abort.IsDataLoss()) {
          if (!CommitInstead(*txn, pending)) {
            return;
          }
          break;
        }
        if (!abort.ok()) {
          RecordViolation("abort after busy commit failed: " +
                          abort.ToString());
          return;
        }
        std::this_thread::yield();
        continue;
      }
      if (!commit.ok()) {
        RecordViolation("commit failed: " + commit.ToString());
        return;
      }
      ApplyPending(pending);
      committed_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
}

void Runner::RunSegment(uint32_t segment_end, DiskId* pending_online_disk,
                        uint32_t online_rate) {
  std::thread rebuild_thread;
  std::unique_ptr<exec::TokenBucket> throttle;
  std::atomic<bool> rebuild_done{false};
  if (*pending_online_disk != kInvalidDiskId) {
    const DiskId disk = *pending_online_disk;
    *pending_online_disk = kInvalidDiskId;
    // Throttled so the sweep genuinely overlaps the segment's traffic and
    // foreground transactions exercise the on-demand repair path.
    throttle = std::make_unique<exec::TokenBucket>(
        std::max<uint32_t>(online_rate, 1000));
    rebuild_thread = std::thread([this, disk, &throttle, &rebuild_done] {
      OnlineRebuildOptions rebuild;
      rebuild.throttle = throttle.get();
      Result<MediaRecoveryReport> report = db_->RebuildDiskOnline(disk,
                                                                  rebuild);
      if (!report.ok()) {
        RecordViolation("online rebuild of disk " + std::to_string(disk) +
                        " failed: " + report.status().ToString());
      }
      rebuild_done.store(true, std::memory_order_release);
    });
    // Close the degraded window before traffic resumes: wait until the
    // replacement medium is installed and the pending bitmap is live (or
    // the rebuild already finished / failed).
    while (!db_->parity()->OnlineRebuildActive() &&
           !rebuild_done.load(std::memory_order_acquire) && !Violated()) {
      std::this_thread::yield();
    }
  }
  std::vector<std::thread> workers;
  workers.reserve(schedule_.threads);
  for (uint32_t w = 0; w < schedule_.threads; ++w) {
    workers.emplace_back(&Runner::WorkerLoop, this, w, segment_end);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (rebuild_thread.joinable()) {
    rebuild_thread.join();
  }
}

void Runner::RunMultiThreaded() {
  const uint32_t span =
      std::max<uint32_t>(1, db_->num_pages() / schedule_.threads);
  for (uint32_t w = 0; w < schedule_.threads; ++w) {
    sim::WorkloadOptions workload;
    workload.num_pages = span;
    workload.base_page = w * span;
    workload.pages_per_txn = 4;
    workload.communality = 0.5;
    workload.update_txn_fraction = 0.7;
    workload.update_probability = 0.7;
    workload.abort_probability = 0.1;
    workload.mode = schedule_.mode;
    workload.records_per_page = db_->records_per_page();
    workload.hot_window = 8;
    workload.seed = schedule_.seed * 1000003ULL + w + 1;
    generators_.push_back(std::make_unique<sim::WorkloadGenerator>(workload));
  }

  // Events fire at transaction boundaries; faults before crashes when they
  // share a step.
  struct Event {
    uint32_t step = 0;
    const FaultEvent* fault = nullptr;
    const CrashPoint* crash = nullptr;
  };
  std::vector<Event> events;
  for (const FaultEvent& fault : schedule_.faults) {
    events.push_back({std::min(fault.step, schedule_.num_steps), &fault,
                      nullptr});
  }
  for (const CrashPoint& crash : schedule_.crash_points) {
    events.push_back({std::min(crash.step, schedule_.num_steps), nullptr,
                      &crash});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.step != b.step) {
                       return a.step < b.step;
                     }
                     return a.crash == nullptr && b.crash != nullptr;
                   });

  uint32_t current = 0;
  size_t next_event = 0;
  DiskId pending_online = kInvalidDiskId;
  uint32_t pending_online_rate = 0;
  while (!Violated() &&
         (current < schedule_.num_steps || next_event < events.size())) {
    const uint32_t target = next_event < events.size()
                                ? events[next_event].step
                                : schedule_.num_steps;
    if (target > current) {
      RunSegment(target, &pending_online, pending_online_rate);
      current = target;
      continue;
    }
    // No traffic between this event and the previous one: finish a pending
    // online rebuild synchronously before the next event lands on it.
    if (pending_online != kInvalidDiskId) {
      Result<MediaRecoveryReport> report =
          db_->RebuildDiskOnline(pending_online);
      if (!report.ok()) {
        RecordViolation("online rebuild of disk " +
                        std::to_string(pending_online) +
                        " failed: " + report.status().ToString());
      }
      pending_online = kInvalidDiskId;
      continue;
    }
    const Event& event = events[next_event++];
    if (event.fault != nullptr) {
      if (event.fault->kind == FaultEvent::Kind::kDiskFailOnlineRebuild) {
        const DiskId disk =
            event.fault->a % db_->array()->layout().num_disks();
        if (!db_->array()->DiskFailed(disk) && ScrubBeforeDiskFailure()) {
          Status failed = db_->FailDisk(disk);
          if (!failed.ok()) {
            RecordViolation("FailDisk: " + failed.ToString());
          } else {
            pending_online = disk;
            pending_online_rate = event.fault->b;
          }
        }
      } else {
        ApplyFault(*event.fault, nullptr, nullptr);
      }
    } else {
      DoCrashAndRecover(event.crash->recovery_faults);
    }
  }
  if (pending_online != kInvalidDiskId && !Violated()) {
    Result<MediaRecoveryReport> report =
        db_->RebuildDiskOnline(pending_online);
    if (!report.ok()) {
      RecordViolation("online rebuild of disk " +
                      std::to_string(pending_online) +
                      " failed: " + report.status().ToString());
    }
  }
  if (!Violated()) {
    DoCrashAndRecover(0);
  }
}

Result<RunOutcome> Runner::Run() {
  Result<std::unique_ptr<Database>> db =
      Database::Open(MakeDbOptions(schedule_, options_));
  if (!db.ok()) {
    return db.status();
  }
  db_ = std::move(db).value();
  shadow_ = std::make_unique<ShadowModel>(schedule_.mode,
                                          db_->records_per_page());
  record_size_ = db_->options().txn.record_size;
  faulted_groups_.assign(db_->array()->num_groups(), false);
  if (schedule_.threads <= 1) {
    RunSingleThreaded();
  } else {
    RunMultiThreaded();
  }
  RunOutcome outcome;
  outcome.passed = !violated_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(violation_mu_);
    outcome.violation = violation_;
  }
  outcome.committed_txns = committed_.load(std::memory_order_relaxed);
  outcome.recoveries = recoveries_;
  return outcome;
}

}  // namespace

Result<RunOutcome> RunSchedule(const Schedule& schedule,
                               const FuzzOptions& options) {
  Runner runner(schedule, options);
  return runner.Run();
}

}  // namespace rda::fuzz
