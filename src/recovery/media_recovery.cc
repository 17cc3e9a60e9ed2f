#include "recovery/media_recovery.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/scoped.h"

namespace rda {

Result<MediaRecoveryReport> MediaRecovery::RebuildDisk(DiskId disk) {
  DiskArray* array = parity_->array();
  if (!array->DiskFailed(disk)) {
    return Status::InvalidArgument("disk is not failed");
  }
  if (array->NumFailedDisks() != 1) {
    return Status::FailedPrecondition(
        "single-failure model: more than one disk is down");
  }

  MediaRecoveryReport report;
  report.disk = disk;
  {  // Closed before the return, so the phase lands in report.phases.
    obs::ScopedPhase phase(
        hub_, obs::RecoveryPhase::kMediaRebuild,
        [array] { return array->counters().total(); }, &report.phases);
    // Flag the disk as rebuilding across the replace->reconstruct window: the
    // fresh medium reads stale zeros successfully, so if this quiescent
    // rebuild is interrupted (crash, second failure) the flag tells recovery
    // the medium cannot be trusted yet.
    array->SetRebuilding(disk, true);
    RDA_RETURN_IF_ERROR(array->ReplaceDisk(disk));

    obs::TraceBuffer* trace = obs::TraceOf(hub_);
    const GroupId num_groups = array->num_groups();
    // Striped rebuild: groups fan out over the pool in contiguous bands, each
    // rebuilt independently under its group latch. Per-group outcomes land in
    // disjoint slots and are aggregated afterwards in ascending group order,
    // so the report (and the undo_coverage_lost list) is identical at every
    // thread count; only `progress` (pages rebuilt so far, for the trace
    // feed) is a racy running total.
    std::vector<TwinParityManager::GroupRebuildOutcome> outcomes(num_groups);
    std::atomic<uint64_t> progress{0};
    RDA_RETURN_IF_ERROR(exec::RunSharded(
        pool_, num_groups, [&](uint64_t index) -> Status {
          const GroupId group = static_cast<GroupId>(index);
          auto outcome_or = parity_->RebuildGroupMember(group, disk);
          if (!outcome_or.ok()) {
            // A second disk failing while this one is mid-rebuild exceeds the
            // single-parity redundancy: the remaining groups cannot be
            // reconstructed. Report that as the typed data loss it is, rather
            // than a generic I/O error (the caller decides whether an archive
            // restore can still save the day).
            if (!outcome_or.status().IsDataLoss() &&
                array->NumFailedDisks() > 0) {
              return Status::DataLoss(
                  "second disk failure during rebuild of disk " +
                  std::to_string(disk) + " at group " + std::to_string(group) +
                  ": " + outcome_or.status().message());
            }
            return outcome_or.status();
          }
          outcomes[group] = std::move(outcome_or).value();
          const TwinParityManager::GroupRebuildOutcome& outcome =
              outcomes[group];
          const uint64_t pages = outcome.data_rebuilt + outcome.parity_rebuilt;
          if (trace != nullptr && pages != 0) {
            obs::TraceEvent event;
            event.subsystem = obs::Subsystem::kRecovery;
            event.kind = obs::EventKind::kRebuildProgress;
            event.group = group;
            event.detail =
                progress.fetch_add(pages, std::memory_order_relaxed) + pages;
            event.value = disk;
            obs::Emit(trace, event);
          }
          return Status::Ok();
        }));
    for (GroupId group = 0; group < num_groups; ++group) {
      const TwinParityManager::GroupRebuildOutcome& outcome = outcomes[group];
      report.data_pages_rebuilt += outcome.data_rebuilt;
      report.parity_pages_rebuilt += outcome.parity_rebuilt;
      report.obsolete_twins_reset += outcome.obsolete_reset;
      if (outcome.undo_lost) {
        report.undo_coverage_lost.push_back(outcome.lost_txn);
      }
    }
    std::sort(report.undo_coverage_lost.begin(),
              report.undo_coverage_lost.end());
    report.undo_coverage_lost.erase(
        std::unique(report.undo_coverage_lost.begin(),
                    report.undo_coverage_lost.end()),
        report.undo_coverage_lost.end());
    // A rebuild is only done once the reconstructed pages are ON the medium,
    // not sitting in the async engine's journal.
    RDA_RETURN_IF_ERROR(array->FlushIo());
  }
  array->SetRebuilding(disk, false);
  return report;
}

Result<MediaRecoveryReport> MediaRecovery::RebuildDiskOnline(
    DiskId disk, const OnlineRebuildOptions& options) {
  DiskArray* array = parity_->array();
  MediaRecoveryReport report;
  report.disk = disk;
  if (parity_->OnlineRebuildActive()) {
    if (parity_->online_rebuild_disk() != disk) {
      return Status::FailedPrecondition(
          "an online rebuild of disk " +
          std::to_string(parity_->online_rebuild_disk()) +
          " is already active");
    }
    // Resume after a cancelled sweep: the session (and its bitmap) is still
    // live; the undo_coverage_lost list was reported by the first call.
  } else {
    RDA_ASSIGN_OR_RETURN(TwinParityManager::OnlineRebuildInfo info,
                         parity_->BeginOnlineRebuild(disk));
    report.undo_coverage_lost = std::move(info.undo_coverage_lost);
  }

  bool cancelled = false;
  {  // Closed before any return, so the phase lands in report.phases.
    obs::ScopedPhase phase(
        hub_, obs::RecoveryPhase::kMediaRebuild,
        [array] { return array->counters().total(); }, &report.phases);
    obs::TraceBuffer* trace = obs::TraceOf(hub_);
    const GroupId num_groups = array->num_groups();
    const uint64_t tokens_per_group =
        array->layout().data_pages_per_group() + 1;
    uint64_t progress = 0;
    // Serial sweep on purpose: the rebuild is the background citizen here —
    // foreground transactions own the parallelism. Each group is one latch
    // acquisition, one token-bucket charge, one reconstruct-and-persist.
    for (GroupId group = 0; group < num_groups; ++group) {
      while (options.pause != nullptr &&
             options.pause->load(std::memory_order_acquire)) {
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_acquire)) {
        cancelled = true;
        break;
      }
      if (!parity_->OnlineGroupPending(group)) {
        continue;  // Already served on demand (or not a member group).
      }
      if (options.throttle != nullptr &&
          !options.throttle->Acquire(tokens_per_group, options.cancel)) {
        cancelled = true;  // Cancelled while waiting for rate-limit tokens.
        break;
      }
      bool did_work = false;
      auto outcome_or = parity_->RebuildGroupIfPending(group, &did_work);
      if (!outcome_or.ok()) {
        if (!outcome_or.status().IsDataLoss() && array->NumFailedDisks() > 0) {
          return Status::DataLoss(
              "second disk failure during online rebuild of disk " +
              std::to_string(disk) + " at group " + std::to_string(group) +
              ": " + outcome_or.status().message());
        }
        return outcome_or.status();
      }
      if (!did_work) {
        continue;
      }
      const TwinParityManager::GroupRebuildOutcome& outcome = *outcome_or;
      report.data_pages_rebuilt += outcome.data_rebuilt;
      report.parity_pages_rebuilt += outcome.parity_rebuilt;
      report.obsolete_twins_reset += outcome.obsolete_reset;
      if (outcome.undo_lost) {
        report.undo_coverage_lost.push_back(outcome.lost_txn);
      }
      ++report.groups_background;
      const uint64_t pages = outcome.data_rebuilt + outcome.parity_rebuilt;
      if (trace != nullptr && pages != 0) {
        obs::TraceEvent event;
        event.subsystem = obs::Subsystem::kRecovery;
        event.kind = obs::EventKind::kRebuildProgress;
        event.group = group;
        progress += pages;
        event.detail = static_cast<int64_t>(progress);
        event.value = disk;
        obs::Emit(trace, event);
      }
    }
  }
  std::sort(report.undo_coverage_lost.begin(),
            report.undo_coverage_lost.end());
  report.undo_coverage_lost.erase(
      std::unique(report.undo_coverage_lost.begin(),
                  report.undo_coverage_lost.end()),
      report.undo_coverage_lost.end());
  report.groups_on_demand = parity_->OnlineOnDemandRepairs();
  report.write_promotions = parity_->OnlineWritePromotions();
  if (cancelled || parity_->OnlineRebuildGroupsRemaining() != 0) {
    report.completed = false;  // Session stays active for a later resume.
    return report;
  }
  RDA_RETURN_IF_ERROR(array->FlushIo());  // Rebuilt pages must be on medium.
  RDA_RETURN_IF_ERROR(parity_->EndOnlineRebuild());
  return report;
}

}  // namespace rda
