#include "recovery/archive.h"

#include <optional>
#include <utility>

#include "obs/scoped.h"
#include "wal/log_record.h"

namespace rda {

void ArchiveManager::AttachObs(obs::ObsHub* hub) {
  hub_ = hub;
  archives_counter_ = obs::GetCounter(hub, "recovery.archives_taken");
}

Status ArchiveManager::TakeArchive(bool truncate_log) {
  if (!txn_manager_->ActiveTxns().empty()) {
    return Status::FailedPrecondition(
        "archive requires a quiescent point (no active transactions)");
  }
  // Make the on-disk state complete: propagate committed-but-buffered
  // pages, then force the log.
  RDA_RETURN_IF_ERROR(txn_manager_->pool()->PropagateAllDirty());
  RDA_RETURN_IF_ERROR(log_->Flush());

  DiskArray* array = parity_->array();
  std::vector<std::vector<uint8_t>> snapshot;
  snapshot.reserve(array->num_data_pages());
  for (PageId page = 0; page < array->num_data_pages(); ++page) {
    PageImage image;
    // Healed read: a faulty sector must not poison the snapshot — the
    // archive is the last line of defence.
    RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(page, &image));
    snapshot.push_back(std::move(image.payload));
  }
  snapshot_ = std::move(snapshot);
  archive_lsn_ = log_->flushed_lsn();

  if (truncate_log) {
    // Everything before the archive point is now recoverable from the
    // archive alone: all earlier transactions are finished and their pages
    // were just propagated. But a valid twin whose stamp is still pending
    // is committed only by its owner's commit record: stamp it first.
    RDA_RETURN_IF_ERROR(parity_->StampPendingTwins());
    RDA_RETURN_IF_ERROR(log_->Truncate(archive_lsn_));
  }
  obs::Inc(archives_counter_);
  return Status::Ok();
}

Result<CrashRecoveryReport> ArchiveManager::RestoreFromArchive() {
  const std::optional<uint64_t> fault_actions =
      std::exchange(fault_actions_, std::nullopt);
  if (!HasArchive()) {
    return Status::FailedPrecondition("no archive has been taken");
  }
  DiskArray* array = parity_->array();
  const auto transfers_now = [this, array] {
    return array->counters().total() + log_->counters().total();
  };
  std::vector<obs::PhaseCost> restore_phases;

  // Fresh media for every failed disk. The restore rewrites every page and
  // recomputes all parity below, so any interrupted-rebuild flag is moot.
  for (DiskId disk = 0; disk < array->num_disks(); ++disk) {
    if (array->DiskFailed(disk)) {
      RDA_RETURN_IF_ERROR(array->ReplaceDisk(disk));
    }
    array->SetRebuilding(disk, false);
  }
  // All volatile state is void after a catastrophe.
  txn_manager_->LoseVolatileState();
  parity_->LoseVolatileState();
  log_->LoseVolatileState();
  // Durable before the first snapshot page lands: from here on every
  // committed image logged before the marker may be off the medium, and any
  // Recover() — the one below, or a restart after a crash that cuts it
  // short — replays them all.
  LogRecord marker;
  marker.type = LogRecordType::kArchiveRestore;
  RDA_RETURN_IF_ERROR(log_->Append(std::move(marker)).status());
  RDA_RETURN_IF_ERROR(log_->Flush());

  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kArchiveRestore,
                           transfers_now, &restore_phases);
    // Distinct pages live on distinct slots, so the snapshot rewrite fans
    // out over the pool with no coordination beyond the per-disk mutexes.
    RDA_RETURN_IF_ERROR(exec::RunSharded(
        pool_, array->num_data_pages(), [&](uint64_t page) -> Status {
          PageImage image(0);
          image.payload = snapshot_[page];
          return array->WriteData(static_cast<PageId>(page), image);
        }));
  }
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kParityReinit,
                           transfers_now, &restore_phases);
    RDA_RETURN_IF_ERROR(parity_->ReinitializeParityFromData(pool_));
  }

  // Roll forward the work committed since the archive; restart recovery's
  // pageLSN checks make replaying from the (truncated) log start safe.
  CrashRecovery recovery(txn_manager_, parity_, log_);
  recovery.AttachObs(hub_);
  recovery.SetWorkerPool(pool_);
  if (fault_actions.has_value()) {
    recovery.InjectFaultAfterActions(*fault_actions);
  }
  RDA_ASSIGN_OR_RETURN(CrashRecoveryReport report, recovery.Recover());
  report.phases.insert(report.phases.begin(), restore_phases.begin(),
                       restore_phases.end());
  return report;
}

}  // namespace rda
