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

namespace {

// Naps while the sweep is paused; true when it was cancelled.
bool SweepStopped(const OnlineRebuildOptions& options) {
  const auto set = [](const std::atomic<bool>* flag) {
    return flag != nullptr && flag->load(std::memory_order_acquire);
  };
  while (set(options.pause) && !set(options.cancel)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return set(options.cancel);
}

}  // namespace

Result<MediaRecoveryReport> MediaRecovery::RebuildDisk(
    DiskId disk, const OnlineRebuildOptions& options) {
  DiskArray* array = parity_->array();
  // An active session is either this disk's, cancelled earlier (its
  // replacement no longer reads as failed, so resume it), or another
  // disk's, which must finish first.
  const bool resume = parity_->OnlineRebuildActive();
  if (resume) {
    if (parity_->online_rebuild_disk() != disk) {
      return Status::FailedPrecondition(
          "a rebuild of disk " +
          std::to_string(parity_->online_rebuild_disk()) +
          " is already active");
    }
  } else if (!array->DiskFailed(disk)) {
    return Status::InvalidArgument("disk is not failed");
  } else if (array->NumFailedDisks() != 1) {
    return Status::FailedPrecondition(
        "single-failure model: more than one disk is down");
  }

  MediaRecoveryReport report;
  report.disk = disk;
  report.resumed = resume;
  bool cancelled = false;
  {  // Closed before any return, so the phase lands in report.phases.
    obs::ScopedPhase phase(
        hub_, obs::RecoveryPhase::kMediaRebuild,
        [array] { return array->counters().total(); }, &report.phases);
    if (!resume) {
      // Begin flags the disk as rebuilding before it installs the fresh
      // medium: if the sweep is interrupted (crash, second failure) the
      // persistent flag tells recovery the medium cannot be trusted yet.
      // A concurrent call may have begun this disk's session since the
      // check above; Begin then hands it back for this call to sweep.
      RDA_ASSIGN_OR_RETURN(TwinParityManager::OnlineRebuildInfo info,
                           parity_->BeginOnlineRebuild(disk));
      report.undo_coverage_lost = std::move(info.undo_coverage_lost);
      report.resumed = info.resumed;
    }

    obs::TraceBuffer* trace = obs::TraceOf(hub_);
    const GroupId num_groups = array->num_groups();
    const uint64_t tokens_per_group =
        array->layout().data_pages_per_group() + 1;
    // Per-group outcomes land in disjoint slots and are folded in ascending
    // group order afterwards, so the report is identical at every thread
    // count; only `progress` (pages rebuilt so far, for the trace feed) is
    // a racy running total. A throttled sweep is a background citizen: it
    // runs serially (the bucket would serialize the bands anyway).
    struct Slot {
      TwinParityManager::GroupRebuildOutcome outcome;
      bool did_work = false;
    };
    std::vector<Slot> slots(num_groups);
    std::atomic<bool> stopped{false};
    std::atomic<uint64_t> progress{0};
    exec::WorkerPool* pool = options.throttle != nullptr ? nullptr : pool_;
    RDA_RETURN_IF_ERROR(exec::RunSharded(
        pool, num_groups, [&](uint64_t index) -> Status {
          const GroupId group = static_cast<GroupId>(index);
          if (SweepStopped(options)) {
            stopped.store(true, std::memory_order_relaxed);
            return Status::Ok();
          }
          // Only a pending group pays tokens; every group still goes
          // through RebuildGroupIfPending, whose latch waits out a claim
          // in flight elsewhere before the remainder is checked below.
          if (options.throttle != nullptr &&
              parity_->OnlineGroupPending(group) &&
              !options.throttle->Acquire(tokens_per_group, options.cancel)) {
            stopped.store(true, std::memory_order_relaxed);
            return Status::Ok();  // Cancelled while waiting for tokens.
          }
          Slot& slot = slots[group];
          auto outcome_or = parity_->RebuildGroupIfPending(group,
                                                           &slot.did_work);
          if (!outcome_or.ok()) {
            // A second disk failing while this one is mid-rebuild exceeds
            // the single-parity redundancy: the remaining groups cannot be
            // reconstructed. Report that as the typed data loss it is,
            // rather than a generic I/O error (the caller decides whether
            // an archive restore can still save the day).
            if (!outcome_or.status().IsDataLoss() &&
                array->NumFailedDisks() > 0) {
              return Status::DataLoss(
                  "second disk failure during rebuild of disk " +
                  std::to_string(disk) + " at group " +
                  std::to_string(group) + ": " +
                  outcome_or.status().message());
            }
            return outcome_or.status();
          }
          slot.outcome = std::move(outcome_or).value();
          const uint64_t pages =
              slot.outcome.data_rebuilt + slot.outcome.parity_rebuilt;
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
    cancelled = stopped.load(std::memory_order_relaxed);
    for (const Slot& slot : slots) {
      if (!slot.did_work) {
        continue;
      }
      report.data_pages_rebuilt += slot.outcome.data_rebuilt;
      report.parity_pages_rebuilt += slot.outcome.parity_rebuilt;
      report.obsolete_twins_reset += slot.outcome.obsolete_reset;
      if (slot.outcome.undo_lost) {
        report.undo_coverage_lost.push_back(slot.outcome.lost_txn);
      }
      ++report.groups_background;
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
  RDA_RETURN_IF_ERROR(parity_->EndOnlineRebuild());
  return report;
}

}  // namespace rda
