#include "core/database.h"

#include "storage/data_page_meta.h"

#include <fstream>
#include <utility>

namespace rda {

Database::Database(const DatabaseOptions& options) : options_(options) {}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database(options));
  if (options.recovery.recovery_threads > 1) {
    db->recovery_pool_ =
        std::make_unique<exec::WorkerPool>(options.recovery.recovery_threads);
  }
  auto array = DiskArray::Create(options.array);
  if (!array.ok()) {
    return array.status();
  }
  db->array_ = std::move(array).value();
  db->array_->SetIoPolicy(options.io);
  db->parity_ = std::make_unique<TwinParityManager>(db->array_.get());
  RDA_RETURN_IF_ERROR(db->parity_->FormatArray());
  db->array_->ResetCounters();
  if (options.fault.enabled) {
    // Armed after formatting so the clean initial image is fault-free.
    db->array_->ArmFaultInjection(options.fault);
  }
  db->log_ = std::make_unique<LogManager>(options.array.page_size, options.log);
  db->locks_ = std::make_unique<LockManager>();
  db->txn_manager_ = std::make_unique<TransactionManager>(
      options.txn, db->parity_.get(), db->log_.get(), db->locks_.get(),
      options.buffer);
  db->checkpointer_ = std::make_unique<Checkpointer>(db->txn_manager_.get(),
                                                     db->log_.get());
  db->archive_ = std::make_unique<ArchiveManager>(
      db->txn_manager_.get(), db->parity_.get(), db->log_.get(),
      db->recovery_pool_.get());
  // Attach observability last, after formatting: format I/O is not workload
  // I/O, and the obs counters should match the freshly reset array counters.
  if (options.obs.enable_metrics || options.obs.enable_trace ||
      options.obs.enable_spans) {
    db->obs_ = std::make_unique<obs::ObsHub>(options.obs);
    if (db->recovery_pool_ != nullptr) {
      db->recovery_pool_->AttachObs(db->obs_.get());
    }
    db->array_->AttachObs(db->obs_.get());
    db->parity_->AttachObs(db->obs_.get());
    db->log_->AttachObs(db->obs_.get());
    db->txn_manager_->AttachObs(db->obs_.get());  // Also attaches the pool.
    db->checkpointer_->AttachObs(db->obs_.get());
    db->archive_->AttachObs(db->obs_.get());
  }
  return db;
}

Status Database::MaybeAutoCheckpoint() {
  if (options_.checkpoint_interval_updates == 0) {
    return Status::Ok();
  }
  if (updates_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      options_.checkpoint_interval_updates) {
    updates_since_checkpoint_.store(0, std::memory_order_relaxed);
    return checkpointer_->TakeCheckpoint();
  }
  return Status::Ok();
}

Status Database::WritePage(TxnId txn, PageId page,
                           const std::vector<uint8_t>& bytes) {
  RDA_RETURN_IF_ERROR(txn_manager_->WritePage(txn, page, bytes));
  return MaybeAutoCheckpoint();
}

Status Database::WriteRecord(TxnId txn, PageId page, RecordSlot slot,
                             const std::vector<uint8_t>& bytes) {
  RDA_RETURN_IF_ERROR(txn_manager_->WriteRecord(txn, page, slot, bytes));
  return MaybeAutoCheckpoint();
}

Status Database::Abort(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(undo_lost_mu_);
    if (undo_lost_txns_.contains(txn)) {
      return Status::DataLoss(
          "undo coverage for this transaction was destroyed by a media "
          "failure; it can only commit");
    }
  }
  return txn_manager_->Abort(txn);
}

void Database::MergeUndoLost(const std::vector<TxnId>& txns) {
  if (txns.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(undo_lost_mu_);
  for (const TxnId txn : txns) {
    undo_lost_txns_.insert(txn);
  }
}

void Database::Crash() {
  // An interrupted rebuild's persistent flag (DiskArray::DiskRebuilding)
  // survives for Recover() to act on.
  txn_manager_->LoseVolatileState();
  parity_->LoseVolatileState();
  log_->LoseVolatileState();
  {
    std::lock_guard<std::mutex> lock(undo_lost_mu_);
    undo_lost_txns_.clear();
  }
  updates_since_checkpoint_ = 0;
}

Status Database::FinishInterruptedRebuilds() {
  for (const DiskId disk : array_->RebuildingDisks()) {
    // The replacement medium reads stale zeros for every group the
    // interrupted sweep had not reached; only parity can tell which. Fail
    // the disk so every read goes through reconstruction, then redo the
    // rebuild from scratch (idempotent: already-rebuilt groups produce the
    // same bytes again).
    if (!array_->DiskFailed(disk)) {
      RDA_RETURN_IF_ERROR(array_->FailDisk(disk));
    }
    // The media rebuild needs Current_Parity; rebuild the directory with
    // the suspect disk out (its twins are selected around). CrashRecovery
    // rebuilds it again afterwards, then on a fully healthy array.
    RDA_RETURN_IF_ERROR(parity_->RebuildDirectory());
    RDA_RETURN_IF_ERROR(RebuildDisk(disk).status());
    // If the lost disk held a group's NEWEST committed twin, the directory
    // rebuild above could only select the stale older survivor — data is
    // current, parity is not. A scrub spots exactly those groups by the
    // XOR check and recomputes their parity from data.
    ParityScrubber scrubber(parity_.get(), recovery_pool_.get());
    RDA_RETURN_IF_ERROR(scrubber.ScrubAll().status());
  }
  return Status::Ok();
}

Result<CrashRecoveryReport> Database::Recover() {
  RDA_RETURN_IF_ERROR(FinishInterruptedRebuilds());
  CrashRecovery recovery(txn_manager_.get(), parity_.get(), log_.get());
  recovery.AttachObs(obs_.get());
  recovery.SetWorkerPool(recovery_pool_.get());
  return recovery.Recover();
}

Result<CrashRecoveryReport> Database::RecoverWithInjectedFault(
    uint64_t actions) {
  RDA_RETURN_IF_ERROR(FinishInterruptedRebuilds());
  CrashRecovery recovery(txn_manager_.get(), parity_.get(), log_.get());
  recovery.AttachObs(obs_.get());
  recovery.SetWorkerPool(recovery_pool_.get());
  recovery.InjectFaultAfterActions(actions);
  return recovery.Recover();
}

Result<CrashRecoveryReport> Database::RestoreFromArchive() {
  {
    std::lock_guard<std::mutex> lock(undo_lost_mu_);
    undo_lost_txns_.clear();
  }
  return archive_->RestoreFromArchive();
}

Result<CrashRecoveryReport> Database::RestoreFromArchiveWithInjectedFault(
    uint64_t actions) {
  archive_->InjectFaultAfterActions(actions);
  return RestoreFromArchive();
}

Status Database::BulkLoad(const std::vector<std::vector<uint8_t>>& user_pages) {
  if (!txn_manager_->ActiveTxns().empty()) {
    return Status::FailedPrecondition("bulk load requires quiescence");
  }
  if (user_pages.size() > num_pages()) {
    return Status::InvalidArgument("more pages than the array holds");
  }
  for (const std::vector<uint8_t>& user_page : user_pages) {
    if (user_page.size() != user_page_size()) {
      return Status::InvalidArgument("user page size mismatch");
    }
  }
  const Layout& layout = array_->layout();
  const uint32_t n = layout.data_pages_per_group();
  auto payload_of = [&](PageId page) {
    std::vector<uint8_t> payload(array_->page_size(), 0);
    std::copy(user_pages[page].begin(), user_pages[page].end(),
              payload.begin() + kDataRegionOffset);
    StoreDataMeta(DataPageMeta{}, &payload);
    return payload;
  };
  // Walk the groups, not runs of page ids: only data striping keeps a
  // group's members consecutive. A group whose members are all loaded is
  // one full-stripe write; a partly loaded group gets plain writes.
  for (GroupId group = 0; group < layout.num_groups(); ++group) {
    bool full = true;
    for (uint32_t i = 0; i < n; ++i) {
      full = full && layout.PageAt(group, i) < user_pages.size();
    }
    if (full) {
      std::vector<std::vector<uint8_t>> payloads;
      for (uint32_t i = 0; i < n; ++i) {
        payloads.push_back(payload_of(layout.PageAt(group, i)));
      }
      RDA_RETURN_IF_ERROR(parity_->WriteFullGroup(group, payloads));
      continue;
    }
    for (uint32_t i = 0; i < n; ++i) {
      const PageId page = layout.PageAt(group, i);
      if (page >= user_pages.size()) {
        continue;
      }
      PageImage image;
      image.payload = payload_of(page);
      RDA_RETURN_IF_ERROR(parity_->Propagate(page, kInvalidTxnId,
                                             PropagationKind::kPlain, nullptr,
                                             image));
    }
  }
  // Drop any stale cached copy.
  for (PageId page = 0; page < user_pages.size(); ++page) {
    txn_manager_->pool()->Discard(page);
  }
  return Status::Ok();
}

Result<MediaRecoveryReport> Database::RebuildDisk(
    DiskId disk, const OnlineRebuildOptions& options) {
  MediaRecovery recovery(parity_.get(), recovery_pool_.get());
  recovery.AttachObs(obs_.get());
  auto report = recovery.RebuildDisk(disk, options);
  if (report.ok()) {
    MergeUndoLost(report->undo_coverage_lost);
  }
  return report;
}

Result<Database::EscalationRepairReport> Database::RepairEscalations() {
  EscalationRepairReport report;
  // EscalatedDisks() is already ascending; one disk at a time keeps the
  // single-failure invariant (rebuild d0 fully before touching d1). A disk
  // whose rebuild fails stays failed and is reported, but does not rob the
  // remaining disks of their repair attempt.
  for (const DiskId disk : array_->EscalatedDisks()) {
    const Status status = RebuildDisk(disk).status();
    if (status.ok()) {
      ++report.repaired;
    } else {
      report.unrepaired.push_back(disk);
      if (report.first_error.ok()) {
        report.first_error = status;
      }
    }
  }
  return report;
}

Result<bool> Database::VerifyAllParity() {
  // Sharded scan: each worker verifies a contiguous band of groups (under
  // the group latches); one inconsistent group flips the shared verdict.
  // Serial (null pool) and parallel runs see the same groups and return
  // the same verdict.
  std::atomic<bool> all_consistent{true};
  RDA_RETURN_IF_ERROR(exec::RunSharded(
      recovery_pool_.get(), array_->num_groups(),
      [&](uint64_t index) -> Status {
        if (!all_consistent.load(std::memory_order_relaxed)) {
          return Status::Ok();  // Verdict already settled; finish fast.
        }
        RDA_ASSIGN_OR_RETURN(
            const bool consistent,
            parity_->VerifyGroupParity(static_cast<GroupId>(index)));
        if (!consistent) {
          all_consistent.store(false, std::memory_order_relaxed);
        }
        return Status::Ok();
      }));
  return all_consistent.load(std::memory_order_relaxed);
}

Result<std::vector<uint8_t>> Database::RawReadPage(PageId page) {
  PageImage image;
  RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(page, &image));
  return std::move(image.payload);
}

Database::StatsSnapshot Database::Stats() const {
  StatsSnapshot snapshot;
  snapshot.array = array_->counters();
  snapshot.log = log_->counters();
  snapshot.array_total_busy_ms = array_->TotalBusyMs();
  snapshot.array_max_busy_ms = array_->MaxBusyMs();
  snapshot.buffer = txn_manager_->pool()->stats();
  snapshot.parity = parity_->stats();
  snapshot.txn = txn_manager_->stats();
  snapshot.checkpoints = checkpointer_->checkpoints_taken();
  snapshot.dirty_groups = parity_->directory().DirtyCount();
  snapshot.failed_disks = array_->NumFailedDisks();
  return snapshot;
}

std::string Database::FormatStats() const {
  const StatsSnapshot s = Stats();
  std::string out;
  auto line = [&out](const std::string& text) {
    out += text;
    out += '\n';
  };
  line("array:  " + std::to_string(s.array.page_reads) + " reads, " +
       std::to_string(s.array.page_writes) + " writes, busy " +
       std::to_string(static_cast<uint64_t>(s.array_total_busy_ms)) +
       " ms (max disk " +
       std::to_string(static_cast<uint64_t>(s.array_max_busy_ms)) + " ms)");
  line("log:    " + std::to_string(s.log.page_writes) + " page writes, " +
       std::to_string(s.log.page_reads) + " page reads");
  line("buffer: " + std::to_string(s.buffer.hits) + " hits / " +
       std::to_string(s.buffer.misses) + " misses, " +
       std::to_string(s.buffer.steals) + " steals");
  line("parity: " +
       std::to_string(s.parity.unlogged_first + s.parity.unlogged_repeat) +
       " unlogged propagations, " +
       std::to_string(s.parity.logged_dirty_group) + " dirty-group writes, " +
       std::to_string(s.parity.parity_undos) + " parity undos, " +
       std::to_string(s.parity.commits_finalized) + " twins finalized");
  line("txns:   " + std::to_string(s.txn.begun) + " begun, " +
       std::to_string(s.txn.committed) + " committed, " +
       std::to_string(s.txn.aborted) + " aborted; before-images " +
       std::to_string(s.txn.before_images_logged) + " logged / " +
       std::to_string(s.txn.before_images_avoided) + " avoided");
  line("state:  " + std::to_string(s.dirty_groups) + " dirty groups, " +
       std::to_string(s.failed_disks) + " failed disks, " +
       std::to_string(s.checkpoints) + " checkpoints");
  return out;
}

uint64_t Database::TotalPageTransfers() const {
  return array_->counters().total() + log_->counters().total();
}

obs::MetricsSnapshot Database::SnapshotMetrics() const {
  const obs::MetricsRegistry* registry =
      obs_ != nullptr ? obs_->metrics() : nullptr;
  return registry != nullptr ? registry->Snapshot() : obs::MetricsSnapshot();
}

namespace {

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << text;
  out.close();
  if (!out) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

Status Database::DumpTrace(const std::string& path) const {
  const obs::TraceBuffer* trace = obs_ != nullptr ? obs_->trace() : nullptr;
  if (trace == nullptr) {
    return Status::FailedPrecondition("tracing is disabled");
  }
  return WriteTextFile(path, obs::TraceToJson(*trace));
}

Status Database::DumpMetrics(const std::string& path) const {
  if (obs_ == nullptr || obs_->metrics() == nullptr) {
    return Status::FailedPrecondition("metrics are disabled");
  }
  return WriteTextFile(path, MetricsJson());
}

Status Database::DumpChromeTrace(const std::string& path) const {
  const obs::SpanCollector* spans = obs_ != nullptr ? obs_->spans() : nullptr;
  const obs::TraceBuffer* trace = obs_ != nullptr ? obs_->trace() : nullptr;
  if (spans == nullptr && trace == nullptr) {
    return Status::FailedPrecondition("spans and tracing are disabled");
  }
  return WriteTextFile(path, obs::ChromeTraceJson(spans, trace));
}

}  // namespace rda
