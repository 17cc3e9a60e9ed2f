#include "core/database.h"

#include "storage/data_page_meta.h"

#include <fstream>
#include <utility>

namespace rda {

Database::Database(const DatabaseOptions& options) : options_(options) {}

Database::~Database() {
  if (array_ != nullptr) {
    array_->SetEscalationListener(nullptr);
  }
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  DatabaseOptions opts = options;
  // The buffer and log operate on the same page size as the array.
  opts.buffer.page_size = opts.array.page_size;
  opts.log.page_size = opts.array.page_size;
  if (opts.txn.rda_undo && opts.array.parity_copies != 2) {
    return Status::InvalidArgument(
        "RDA undo recovery requires the twin-page scheme (parity_copies=2)");
  }
  if (!opts.txn.force && !opts.txn.log_after_images) {
    return Status::InvalidArgument(
        "notFORCE configurations need after-image logging for REDO");
  }

  std::unique_ptr<Database> db(new Database(opts));
  if (opts.recovery.recovery_threads > 1) {
    db->recovery_pool_ =
        std::make_unique<exec::WorkerPool>(opts.recovery.recovery_threads);
  }
  auto array = DiskArray::Create(opts.array);
  if (!array.ok()) {
    return array.status();
  }
  db->array_ = std::move(array).value();
  db->array_->SetIoPolicy(opts.io);
  // Same-group FORCE propagations back-to-back feed the engine's
  // coalescing; without the engine the historical order stays bit-for-bit.
  opts.txn.elevator_force = opts.io.width > 0;
  db->options_.txn.elevator_force = opts.txn.elevator_force;
  db->parity_ = std::make_unique<TwinParityManager>(db->array_.get());
  RDA_RETURN_IF_ERROR(db->parity_->FormatArray());
  // Formatting is not workload I/O: drain any journaled format writes
  // first, or they would land after the reset and count as workload.
  RDA_RETURN_IF_ERROR(db->array_->FlushIo());
  db->array_->ResetCounters();
  if (opts.fault.enabled) {
    // Armed after formatting so the clean initial image is fault-free.
    db->array_->ArmFaultInjection(opts.fault);
  }
  db->log_ = std::make_unique<LogManager>(opts.log);
  // Provider, not pointer: SetIoPolicy recreates the engine, and the log
  // must always duplex through the array's CURRENT one (or serially, when
  // a later policy turns the engine off).
  db->log_->AttachIoEngine(
      [array = db->array_.get()] { return array->io_engine(); });
  db->locks_ = std::make_unique<LockManager>();
  db->txn_manager_ = std::make_unique<TransactionManager>(
      opts.txn, db->parity_.get(), db->log_.get(), db->locks_.get(),
      opts.buffer);
  db->checkpointer_ = std::make_unique<Checkpointer>(db->txn_manager_.get(),
                                                     db->log_.get());
  db->archive_ = std::make_unique<ArchiveManager>(
      db->txn_manager_.get(), db->parity_.get(), db->log_.get(),
      db->recovery_pool_.get());
  db->maintenance_ = std::make_unique<MaintenanceService>(db->parity_.get(),
                                                          opts.maintenance);
  Database* raw = db.get();
  // Completed background rebuilds report transactions whose unlogged-undo
  // coverage the failed disk destroyed; fold them into the abort blocklist.
  db->maintenance_->SetRebuildDoneCallback(
      [raw](const MediaRecoveryReport& report) {
        raw->MergeUndoLost(report.undo_coverage_lost);
      });
  // Attach observability last, after formatting: format I/O is not workload
  // I/O, and the obs counters should match the freshly reset array counters.
  if (opts.obs.enable_metrics || opts.obs.enable_trace ||
      opts.obs.enable_spans) {
    db->obs_ = std::make_unique<obs::ObsHub>(opts.obs);
    if (db->recovery_pool_ != nullptr) {
      db->recovery_pool_->AttachObs(db->obs_.get());
    }
    db->array_->AttachObs(db->obs_.get());
    db->parity_->AttachObs(db->obs_.get());
    db->log_->AttachObs(db->obs_.get());
    db->txn_manager_->AttachObs(db->obs_.get());  // Also attaches the pool.
    db->checkpointer_->AttachObs(db->obs_.get());
    db->archive_->AttachObs(db->obs_.get());
    db->maintenance_->AttachObs(db->obs_.get());
  }
  if (opts.maintenance.enabled) {
    MaintenanceService* svc = db->maintenance_.get();
    db->array_->SetEscalationListener(
        [svc](DiskId disk) { svc->OnEscalation(disk); });
    db->maintenance_->Start();
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
  // Quiesce maintenance I/O first: a sweep mid-group would otherwise race
  // the volatile-state teardown below. The interrupted rebuild's persistent
  // flag (DiskArray::DiskRebuilding) survives for Recover() to act on.
  maintenance_->CancelAndDrain();
  // The submission queues model an NVRAM write journal: everything
  // journaled before the crash reaches the medium, exactly as if the
  // writes had been synchronous. Drain before volatile teardown. A write
  // that cannot land on a live disk escalates the disk inside the drain
  // (PhysicalWriteForEngine), so a non-Ok status here means the durability
  // machinery itself broke — remember it for Recover() instead of
  // swallowing it.
  const Status flush_status = array_->FlushIo();
  if (!flush_status.ok()) {
    crash_flush_error_ = flush_status;
  }
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
    MediaRecovery recovery(parity_.get(), recovery_pool_.get());
    recovery.AttachObs(obs_.get());
    RDA_ASSIGN_OR_RETURN(MediaRecoveryReport report,
                         recovery.RebuildDisk(disk));
    MergeUndoLost(report.undo_coverage_lost);
    // If the lost disk held a group's NEWEST committed twin, the directory
    // rebuild above could only select the stale older survivor — data is
    // current, parity is not. A scrub spots exactly those groups by the
    // XOR check and recomputes their parity from data.
    ParityScrubber scrubber(parity_.get(), recovery_pool_.get());
    RDA_RETURN_IF_ERROR(scrubber.ScrubAll().status());
  }
  return Status::Ok();
}

Status Database::ConsumeCrashFlushError() {
  // The crash-time journal drain could not land every submitted write (and
  // escalation could not absorb the failure): some page the engine promised
  // durable is not on any medium. Recovery from the array would silently
  // produce a stale state, so refuse; only RestoreFromArchive can
  // re-establish a trustworthy image. Reported once per crash.
  Status error = crash_flush_error_;
  crash_flush_error_ = Status::Ok();
  return error;
}

Result<CrashRecoveryReport> Database::Recover() {
  RDA_RETURN_IF_ERROR(ConsumeCrashFlushError());
  RDA_RETURN_IF_ERROR(FinishInterruptedRebuilds());
  CrashRecovery recovery(txn_manager_.get(), parity_.get(), log_.get());
  recovery.AttachObs(obs_.get());
  recovery.SetWorkerPool(recovery_pool_.get());
  return recovery.Recover();
}

Result<CrashRecoveryReport> Database::RecoverWithInjectedFault(
    uint64_t actions) {
  RDA_RETURN_IF_ERROR(ConsumeCrashFlushError());
  RDA_RETURN_IF_ERROR(FinishInterruptedRebuilds());
  CrashRecovery recovery(txn_manager_.get(), parity_.get(), log_.get());
  recovery.AttachObs(obs_.get());
  recovery.SetWorkerPool(recovery_pool_.get());
  recovery.InjectFaultAfterActions(actions);
  return recovery.Recover();
}

Result<CrashRecoveryReport> Database::RestoreFromArchive() {
  // A background sweep mid-restore would fight the snapshot rewrite; the
  // restore replaces every failed disk and rewrites all pages anyway, so
  // any in-flight rebuild is moot.
  maintenance_->CancelAndDrain();
  {
    std::lock_guard<std::mutex> lock(undo_lost_mu_);
    undo_lost_txns_.clear();
  }
  // The snapshot rewrite replaces every page, so a write the crash-time
  // drain lost is superseded — the restore clears the refusal.
  crash_flush_error_ = Status::Ok();
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
  const Layout& layout = array_->layout();
  const uint32_t n = layout.data_pages_per_group();
  const size_t page_size = array_->page_size();
  PageId page = 0;
  // Full stripes first.
  while (page + n <= user_pages.size()) {
    const GroupId group = layout.GroupOf(page);
    std::vector<std::vector<uint8_t>> payloads(n);
    for (uint32_t i = 0; i < n; ++i) {
      const PageId target = layout.PageAt(group, i);
      if (user_pages[target].size() != user_page_size()) {
        return Status::InvalidArgument("user page size mismatch");
      }
      payloads[i].assign(page_size, 0);
      std::copy(user_pages[target].begin(), user_pages[target].end(),
                payloads[i].begin() + kDataRegionOffset);
      StoreDataMeta(DataPageMeta{}, &payloads[i]);
    }
    RDA_RETURN_IF_ERROR(parity_->WriteFullGroup(group, payloads));
    page += n;
  }
  // Tail: plain small writes.
  for (; page < user_pages.size(); ++page) {
    if (user_pages[page].size() != user_page_size()) {
      return Status::InvalidArgument("user page size mismatch");
    }
    PageImage image(page_size);
    std::copy(user_pages[page].begin(), user_pages[page].end(),
              image.payload.begin() + kDataRegionOffset);
    StoreDataMeta(DataPageMeta{}, &image.payload);
    RDA_RETURN_IF_ERROR(parity_->Propagate(page, kInvalidTxnId,
                                           PropagationKind::kPlain, nullptr,
                                           image));
    // Drop any stale cached copy.
    txn_manager_->pool()->Discard(page);
  }
  for (PageId loaded = 0; loaded + n <= user_pages.size(); ++loaded) {
    txn_manager_->pool()->Discard(loaded);
  }
  return Status::Ok();
}

Result<MediaRecoveryReport> Database::RebuildDisk(DiskId disk) {
  MediaRecovery recovery(parity_.get(), recovery_pool_.get());
  recovery.AttachObs(obs_.get());
  auto report = recovery.RebuildDisk(disk);
  if (report.ok()) {
    MergeUndoLost(report->undo_coverage_lost);
  }
  return report;
}

Result<MediaRecoveryReport> Database::RebuildDiskOnline(
    DiskId disk, const OnlineRebuildOptions& options) {
  MediaRecovery recovery(parity_.get(), recovery_pool_.get());
  recovery.AttachObs(obs_.get());
  auto report = recovery.RebuildDiskOnline(disk, options);
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
  Status status = parity_->ReadDataHealed(page, &image);
  if (status.IsIoError()) {
    return parity_->ReconstructDataPayload(page);
  }
  if (!status.ok()) {
    return status;
  }
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
