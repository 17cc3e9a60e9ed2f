#ifndef RDA_STORAGE_DISK_ARRAY_H_
#define RDA_STORAGE_DISK_ARRAY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"
#include "storage/io_policy.h"
#include "storage/layout.h"
#include "storage/page.h"

namespace rda {

// Which array organization to use (paper Section 3).
enum class LayoutKind {
  kDataStriping,    // RAID-5 style rotated parity, Figures 1 / 4.
  kParityStriping,  // Gray et al. parity striping, Figures 2 / 5.
};

// The redundant disk array: a set of Disks addressed through a Layout.
// This class does raw page I/O only — parity *semantics* (twin-page states,
// XOR maintenance, recovery) live in the parity/ and recovery/ layers.
class DiskArray {
 public:
  struct Options {
    LayoutKind layout_kind = LayoutKind::kDataStriping;
    // The paper's N: data pages per parity group.
    uint32_t data_pages_per_group = 4;
    // Parity pages per group. Only kParityTwins is accepted: the twin array
    // is the only array. The field stays because the rdabench workloads
    // set it; it goes with their next change.
    uint32_t parity_copies = kParityTwins;
    // Minimum number of logical data pages (the paper's S). Rounded up to
    // whole groups.
    uint32_t min_data_pages = 64;
    size_t page_size = 512;
    // Real wall-clock sleep per disk access (see Disk). 0 = instantaneous
    // (the default, and the only setting unit tests use); benches set it to
    // make cross-disk I/O overlap measurable in wall time.
    uint32_t real_access_delay_us = 0;
  };

  static Result<std::unique_ptr<DiskArray>> Create(const Options& options);

  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  // Raw data-page I/O. Fails with kIoError if the owning disk has failed
  // (degraded-mode reconstruction is the recovery layer's job). Transient
  // I/O errors on a live disk are retried under the IoPolicy before the
  // error is surfaced; kCorruption is never retried.
  Status ReadData(PageId page, PageImage* out) const;
  Status WriteData(PageId page, const PageImage& image);

  // Raw parity-page I/O. `twin` in [0, kParityTwins).
  Status ReadParity(GroupId group, uint32_t twin, PageImage* out) const;
  Status WriteParity(GroupId group, uint32_t twin, const PageImage& image);

  // Media-failure injection and repair plumbing. ReplaceDisk also resets
  // the disk's escalation state and error-budget count.
  Status FailDisk(DiskId disk);
  Status ReplaceDisk(DiskId disk);
  bool DiskFailed(DiskId disk) const;
  // Number of currently failed disks.
  uint32_t NumFailedDisks() const;

  // --- sector-fault plumbing (DESIGN.md section 10) ---

  // Retry/escalation behaviour of the raw I/O above. Every write is
  // synchronous: it has reached the medium, or failed, when it returns.
  void SetIoPolicy(const IoPolicy& policy);
  const IoPolicy& io_policy() const { return policy_; }

  // Snapshot by value: the counters are bumped by concurrent threads.
  IoPolicyStats policy_stats() const;

  // Creates one FaultInjector per disk (seeded from config.seed and the
  // disk id so streams are independent) and attaches them. Replaces any
  // previous set; DisarmFaultInjection detaches and destroys them.
  void ArmFaultInjection(const FaultConfig& config);
  void DisarmFaultInjection();
  // The injector attached to `disk`, or null when disarmed / out of range.
  FaultInjector* injector(DiskId disk);
  // Sum of per-disk injector stats (all zero when disarmed).
  FaultStats fault_stats() const;

  // Charges one persistent sector error against `disk`'s error budget;
  // when the budget (policy.disk_error_budget, 0 = unlimited) is exhausted
  // the disk is escalated: force-failed and flagged until ReplaceDisk.
  // Called by the healing layer after a read needed reconstruction.
  void RecordSectorError(DiskId disk);
  // Disks force-failed by budget exhaustion and not yet replaced.
  std::vector<DiskId> EscalatedDisks() const;

  // --- online-rebuild bookkeeping (DESIGN.md section 14) ---
  //
  // A disk is marked "rebuilding" from the moment its fresh zeroed medium
  // is installed until the rebuild (online or quiescent) finishes. The flag
  // outlives a crash of the volatile layers, letting Recover() detect an
  // interrupted rebuild and finish it: a half-rebuilt medium reads stale
  // zeros *successfully*, so it must never be trusted silently.
  void SetRebuilding(DiskId disk, bool rebuilding);
  bool DiskRebuilding(DiskId disk) const;
  // Disks currently flagged as rebuilding, ascending.
  std::vector<DiskId> RebuildingDisks() const;

  const Layout& layout() const { return *layout_; }
  size_t page_size() const { return page_size_; }
  uint32_t num_data_pages() const { return layout_->num_data_pages(); }
  uint32_t num_groups() const { return layout_->num_groups(); }
  uint32_t num_disks() const { return layout_->num_disks(); }

  // Aggregate transfer counters over all disks, plus the array-level XOR
  // computation count.
  IoCounters counters() const;
  void ResetCounters();

  // Accounts `pages` page-sized XOR computations (parity maintenance /
  // reconstruction CPU work). Called by the parity layer.
  void AccountXor(uint64_t pages);

  // Hooks the array into the observability hub: per-disk and aggregate
  // read/write counters under `storage.*`, disk fail/replace trace events.
  // Null detaches; safe to call at any time.
  void AttachObs(obs::ObsHub* hub);

  // Service-time aggregation (see ServiceTimeModel): sum of per-disk busy
  // time, and the busiest disk (the parallel critical path).
  double TotalBusyMs() const;
  double MaxBusyMs() const;
  void ResetServiceClocks();

  // Test-only access to the raw disk (corruption injection etc.).
  Disk* disk(DiskId id) { return &disks_[id]; }

 private:
  DiskArray(std::unique_ptr<Layout> layout, size_t page_size);

  Status CheckPage(PageId page) const;
  Status CheckGroup(GroupId group, uint32_t twin) const;
  // Retry loops around one disk access. Stats are mutable so the const
  // read path can account; the actual disk state never changes on retry.
  Status ReadWithRetry(DiskId disk, SlotId slot, PageImage* out) const;
  Status WriteWithRetry(DiskId disk, SlotId slot, const PageImage& image);
  // Bookkeeping shared by the retry loops. NoteAttemptOutcome accounts one
  // finished access: the policy stats, the reclassification of its retries
  // and, on success, the array's read or write counters.
  bool ShouldRetry(const Status& status, DiskId disk, uint32_t attempt,
                   uint32_t max_retries) const;
  void NoteAttemptOutcome(const Status& status, DiskId disk,
                          uint32_t attempts_used, bool is_read) const;
  void EmitDiskEvent(obs::EventKind kind, DiskId disk) const;

  std::unique_ptr<Layout> layout_;
  size_t page_size_;
  std::vector<Disk> disks_;
  std::atomic<uint64_t> xor_computations_{0};

  IoPolicy policy_;
  // The counters behind policy_stats(), exported as `storage.<field>`.
  // Mutable so the const read path can account.
  mutable obs::StatCounter io_retries_;
  mutable obs::StatCounter transient_faults_;
  mutable obs::StatCounter sector_errors_;
  obs::StatCounter escalations_;
  // Guards the per-disk error budget, escalation and rebuilding flags (off
  // the clean-path I/O).
  mutable std::mutex policy_mu_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::vector<uint32_t> sector_error_counts_;
  std::vector<bool> escalated_;
  std::vector<bool> rebuilding_;

  // Observability (null = disabled). The counter pointers are resolved once
  // in AttachObs so the I/O hot path pays only a null test.
  obs::TraceBuffer* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;  // Dumped on escalation.
  obs::Counter* reads_counter_ = nullptr;
  obs::Counter* writes_counter_ = nullptr;
  obs::Counter* xor_counter_ = nullptr;
  std::vector<obs::Counter*> disk_read_counters_;
  std::vector<obs::Counter*> disk_write_counters_;
};

}  // namespace rda

#endif  // RDA_STORAGE_DISK_ARRAY_H_
