#include "storage/disk_array.h"

#include <algorithm>

#include <string>
#include <utility>

#include "storage/data_striping_layout.h"
#include "storage/parity_striping_layout.h"

namespace rda {

Result<std::unique_ptr<DiskArray>> DiskArray::Create(const Options& options) {
  if (options.page_size == 0) {
    return Status::InvalidArgument("page_size must be > 0");
  }
  std::unique_ptr<Layout> layout;
  switch (options.layout_kind) {
    case LayoutKind::kDataStriping: {
      auto result = DataStripingLayout::Create(options.data_pages_per_group,
                                               options.parity_copies,
                                               options.min_data_pages);
      if (!result.ok()) {
        return result.status();
      }
      layout = std::move(result).value();
      break;
    }
    case LayoutKind::kParityStriping: {
      auto result = ParityStripingLayout::Create(options.data_pages_per_group,
                                                 options.parity_copies,
                                                 options.min_data_pages);
      if (!result.ok()) {
        return result.status();
      }
      layout = std::move(result).value();
      break;
    }
  }
  std::unique_ptr<DiskArray> array(
      new DiskArray(std::move(layout), options.page_size));
  if (options.real_access_delay_us > 0) {
    for (Disk& disk : array->disks_) {
      disk.set_real_access_delay_us(options.real_access_delay_us);
    }
  }
  return array;
}

DiskArray::DiskArray(std::unique_ptr<Layout> layout, size_t page_size)
    : layout_(std::move(layout)), page_size_(page_size) {
  disks_.reserve(layout_->num_disks());
  for (DiskId d = 0; d < layout_->num_disks(); ++d) {
    disks_.emplace_back(d, layout_->slots_per_disk(), page_size_);
  }
  sector_error_counts_.assign(disks_.size(), 0);
  escalated_.assign(disks_.size(), false);
  rebuilding_.assign(disks_.size(), false);
}

Status DiskArray::CheckPage(PageId page) const {
  if (page >= layout_->num_data_pages()) {
    return Status::InvalidArgument("data page " + std::to_string(page) +
                                   " out of range");
  }
  return Status::Ok();
}

Status DiskArray::CheckGroup(GroupId group, uint32_t twin) const {
  if (group >= layout_->num_groups()) {
    return Status::InvalidArgument("group " + std::to_string(group) +
                                   " out of range");
  }
  if (twin >= layout_->parity_copies()) {
    return Status::InvalidArgument("parity twin " + std::to_string(twin) +
                                   " out of range");
  }
  return Status::Ok();
}

void DiskArray::EmitDiskEvent(obs::EventKind kind, DiskId disk) const {
  if (trace_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.subsystem = obs::Subsystem::kStorage;
  event.kind = kind;
  event.value = static_cast<int64_t>(disk);
  obs::Emit(trace_, event);
}

bool DiskArray::ShouldRetry(const Status& status, DiskId disk,
                            uint32_t attempt, uint32_t max_retries) const {
  if (status.ok() || attempt >= max_retries ||
      !RetryableIoError(status, disks_[disk].failed())) {
    return false;
  }
  io_retries_.Add();
  disks_[disk].AddServiceDelay(RetryBackoffMs(policy_, attempt + 1));
  EmitDiskEvent(obs::EventKind::kIoRetry, disk);
  return true;
}

void DiskArray::NoteAttemptOutcome(const Status& status, DiskId disk,
                                   uint32_t attempts_used) const {
  if (status.ok()) {
    if (attempts_used > 0) {
      // A retry absorbed the fault, so it was transient by definition.
      transient_faults_.Add();
    }
  } else if (!disks_[disk].failed()) {
    // Exhausted retries on a live disk, or corruption: a persistent
    // sector-level error. Degraded healing (and the error budget) is the
    // caller's move — this layer only reports honestly.
    sector_errors_.Add();
    EmitDiskEvent(obs::EventKind::kIoFault, disk);
  }
}

Status DiskArray::ReadWithRetry(DiskId disk, SlotId slot,
                                PageImage* out) const {
  Status status = disks_[disk].Read(slot, out);
  uint32_t attempt = 0;
  while (ShouldRetry(status, disk, attempt, policy_.max_read_retries)) {
    ++attempt;
    status = disks_[disk].Read(slot, out);
  }
  NoteAttemptOutcome(status, disk, attempt);
  if (attempt > 0) {
    // A retried access is one logical transfer: the extra attempts the disk
    // already counted become io_retries, not page_reads (satellite: per-txn
    // attribution must not double-count retried reads).
    disks_[disk].ReclassifyRetries(attempt, /*is_read=*/true);
  }
  return status;
}

Status DiskArray::WriteWithRetry(DiskId disk, SlotId slot,
                                 const PageImage& image) {
  Status status = disks_[disk].Write(slot, image);
  uint32_t attempt = 0;
  while (ShouldRetry(status, disk, attempt, policy_.max_write_retries)) {
    ++attempt;
    status = disks_[disk].Write(slot, image);
  }
  NoteAttemptOutcome(status, disk, attempt);
  if (attempt > 0) {
    disks_[disk].ReclassifyRetries(attempt, /*is_read=*/false);
  }
  return status;
}

Status DiskArray::WriteWithRetry(DiskId disk, SlotId slot, PageImage&& image) {
  // The image is only consumed on success, so retrying after a transient
  // failure still has the intact buffer to hand over.
  Status status = disks_[disk].Write(slot, std::move(image));
  uint32_t attempt = 0;
  while (ShouldRetry(status, disk, attempt, policy_.max_write_retries)) {
    ++attempt;
    status = disks_[disk].Write(slot, std::move(image));
  }
  NoteAttemptOutcome(status, disk, attempt);
  if (attempt > 0) {
    disks_[disk].ReclassifyRetries(attempt, /*is_read=*/false);
  }
  return status;
}

Status DiskArray::PhysicalWriteForEngine(DiskId disk, SlotId slot,
                                         const PageImage& image) {
  if (disks_[disk].failed()) {
    // The disk died between submission and drain. Its whole medium is
    // gone, so the journaled bytes are moot — the history is "the write
    // landed, then the disk failed", same as the synchronous race.
    return Status::Ok();
  }
  const Status status = WriteWithRetry(disk, slot, image);
  if (!status.ok()) {
    if (disks_[disk].failed()) {
      return Status::Ok();  // Failed mid-write: same moot-medium argument.
    }
    // A journaled write that cannot land on a live disk must not be lost
    // silently: the submitter already saw Ok (the journal is modeled
    // durable), so there is no caller left to report `status` to. Treat
    // the slot's medium as lost and fail the whole disk — every page on it
    // is then served through parity reconstruction, and the update's
    // durability rides the redundancy (its parity delta was journaled to a
    // different disk) instead of the unwritable medium. The synchronous
    // path would instead have surfaced the error before commit reported.
    EscalateDisk(disk, "disk " + std::to_string(disk) +
                           " escalated: journaled write could not land (" +
                           status.ToString() + ")");
    return Status::Ok();
  }
  obs::Inc(writes_counter_);
  if (disk < disk_write_counters_.size()) {
    obs::Inc(disk_write_counters_[disk]);
  }
  return Status::Ok();
}

Status DiskArray::WriteSlot(DiskId disk, SlotId slot, const PageImage& image,
                            bool is_parity) {
  if (engine_ != nullptr && !disks_[disk].failed()) {
    engine_->SubmitWriteDetached(disk, slot, PageImage(image), is_parity);
    return Status::Ok();
  }
  RDA_RETURN_IF_ERROR(WriteWithRetry(disk, slot, image));
  obs::Inc(writes_counter_);
  if (disk < disk_write_counters_.size()) {
    obs::Inc(disk_write_counters_[disk]);
  }
  return Status::Ok();
}

Status DiskArray::WriteSlot(DiskId disk, SlotId slot, PageImage&& image,
                            bool is_parity) {
  if (engine_ != nullptr && !disks_[disk].failed()) {
    // Journaled-async: durable on return, physical transfer (and its
    // counters) deferred to the drain. A failed disk falls through to the
    // synchronous path so the caller sees the exact same error status.
    engine_->SubmitWriteDetached(disk, slot, std::move(image), is_parity);
    return Status::Ok();
  }
  RDA_RETURN_IF_ERROR(WriteWithRetry(disk, slot, std::move(image)));
  obs::Inc(writes_counter_);
  if (disk < disk_write_counters_.size()) {
    obs::Inc(disk_write_counters_[disk]);
  }
  return Status::Ok();
}

Status DiskArray::ReadData(PageId page, PageImage* out) const {
  RDA_RETURN_IF_ERROR(CheckPage(page));
  const PhysicalLocation loc = layout_->DataLocation(page);
  if (engine_ != nullptr && !disks_[loc.disk].failed() &&
      engine_->ReadFromQueue(loc.disk, loc.slot, out)) {
    return Status::Ok();  // Journal hit: a memory copy, not a transfer.
  }
  RDA_RETURN_IF_ERROR(ReadWithRetry(loc.disk, loc.slot, out));
  obs::Inc(reads_counter_);
  if (loc.disk < disk_read_counters_.size()) {
    obs::Inc(disk_read_counters_[loc.disk]);
  }
  return Status::Ok();
}

Status DiskArray::WriteData(PageId page, const PageImage& image) {
  RDA_RETURN_IF_ERROR(CheckPage(page));
  const PhysicalLocation loc = layout_->DataLocation(page);
  return WriteSlot(loc.disk, loc.slot, image, /*is_parity=*/false);
}

Status DiskArray::WriteData(PageId page, PageImage&& image) {
  RDA_RETURN_IF_ERROR(CheckPage(page));
  const PhysicalLocation loc = layout_->DataLocation(page);
  return WriteSlot(loc.disk, loc.slot, std::move(image), /*is_parity=*/false);
}

Status DiskArray::ReadParity(GroupId group, uint32_t twin,
                             PageImage* out) const {
  RDA_RETURN_IF_ERROR(CheckGroup(group, twin));
  const PhysicalLocation loc = layout_->ParityLocation(group, twin);
  if (engine_ != nullptr && !disks_[loc.disk].failed() &&
      engine_->ReadFromQueue(loc.disk, loc.slot, out)) {
    return Status::Ok();
  }
  RDA_RETURN_IF_ERROR(ReadWithRetry(loc.disk, loc.slot, out));
  obs::Inc(reads_counter_);
  if (loc.disk < disk_read_counters_.size()) {
    obs::Inc(disk_read_counters_[loc.disk]);
  }
  return Status::Ok();
}

Status DiskArray::WriteParity(GroupId group, uint32_t twin,
                              const PageImage& image) {
  RDA_RETURN_IF_ERROR(CheckGroup(group, twin));
  const PhysicalLocation loc = layout_->ParityLocation(group, twin);
  return WriteSlot(loc.disk, loc.slot, image, /*is_parity=*/true);
}

Status DiskArray::WriteParity(GroupId group, uint32_t twin,
                              PageImage&& image) {
  RDA_RETURN_IF_ERROR(CheckGroup(group, twin));
  const PhysicalLocation loc = layout_->ParityLocation(group, twin);
  return WriteSlot(loc.disk, loc.slot, std::move(image), /*is_parity=*/true);
}

void DiskArray::SetIoPolicy(const IoPolicy& policy) {
  // Stopping the old engine first drains anything journaled under the
  // previous policy, so a width change never strands a write.
  engine_.reset();
  policy_ = policy;
  if (policy.width > 0) {
    io::IoEngineOptions engine_options;
    engine_options.width = policy.width;
    engine_options.queue_watermark = policy.queue_watermark;
    engine_ = std::make_unique<io::IoEngine>(
        static_cast<uint32_t>(disks_.size()), engine_options,
        [this](DiskId disk, SlotId slot, const PageImage& image) {
          return PhysicalWriteForEngine(disk, slot, image);
        });
    engine_->AttachObs(hub_);
  }
}

Status DiskArray::FlushIo() {
  if (engine_ == nullptr) {
    return Status::Ok();
  }
  return engine_->Flush();
}

Status DiskArray::FailDisk(DiskId disk) {
  if (disk >= disks_.size()) {
    return Status::InvalidArgument("no such disk");
  }
  disks_[disk].Fail();
  if (engine_ != nullptr) {
    // Fail() first so new submissions reject, then drop the journal: the
    // queued bytes were headed for a medium that no longer exists.
    engine_->PurgeDisk(disk);
  }
  obs::TraceEvent event;
  event.subsystem = obs::Subsystem::kStorage;
  event.kind = obs::EventKind::kDiskFailed;
  event.value = static_cast<int64_t>(disk);
  obs::Emit(trace_, event);
  return Status::Ok();
}

Status DiskArray::ReplaceDisk(DiskId disk) {
  if (disk >= disks_.size()) {
    return Status::InvalidArgument("no such disk");
  }
  disks_[disk].Replace();
  if (engine_ != nullptr) {
    engine_->PurgeDisk(disk);  // Nothing queued should hit the fresh medium.
  }
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    sector_error_counts_[disk] = 0;  // New medium starts with a full budget.
    escalated_[disk] = false;
  }
  obs::TraceEvent event;
  event.subsystem = obs::Subsystem::kStorage;
  event.kind = obs::EventKind::kDiskReplaced;
  event.value = static_cast<int64_t>(disk);
  obs::Emit(trace_, event);
  return Status::Ok();
}

bool DiskArray::DiskFailed(DiskId disk) const {
  return disk < disks_.size() && disks_[disk].failed();
}

void DiskArray::ArmFaultInjection(const FaultConfig& config) {
  DisarmFaultInjection();
  injectors_.reserve(disks_.size());
  for (DiskId d = 0; d < disks_.size(); ++d) {
    FaultConfig per_disk = config;
    // Golden-ratio stride decorrelates the per-disk streams while keeping
    // the whole array a pure function of config.seed.
    per_disk.seed = config.seed + 0x9e3779b97f4a7c15ULL * (d + 1);
    injectors_.push_back(std::make_unique<FaultInjector>(per_disk));
    disks_[d].AttachFaultInjector(injectors_.back().get());
  }
}

void DiskArray::DisarmFaultInjection() {
  for (Disk& d : disks_) {
    d.AttachFaultInjector(nullptr);
  }
  injectors_.clear();
}

FaultInjector* DiskArray::injector(DiskId disk) {
  return disk < injectors_.size() ? injectors_[disk].get() : nullptr;
}

FaultStats DiskArray::fault_stats() const {
  FaultStats total;
  for (const auto& injector : injectors_) {
    total += injector->stats();
  }
  return total;
}

void DiskArray::RecordSectorError(DiskId disk) {
  if (disk >= disks_.size() || policy_.disk_error_budget == 0 ||
      disks_[disk].failed()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    if (++sector_error_counts_[disk] < policy_.disk_error_budget) {
      return;
    }
  }
  // Budget exhausted: the drive is lying about its health often enough
  // that slot-by-slot healing is a losing game. Take it out, rebuild whole.
  EscalateDisk(disk, "disk " + std::to_string(disk) +
                         " escalated after exhausting its error budget");
}

void DiskArray::EscalateDisk(DiskId disk, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    if (escalated_[disk]) {
      return;  // A concurrent escalation already took the disk out.
    }
    escalated_[disk] = true;
  }
  escalations_.Add();
  EmitDiskEvent(obs::EventKind::kEscalation, disk);
  // Flight recorder: the escalation is the moment the timeline that led
  // here is about to scroll out of the rings — dump it now.
  obs::TriggerFlight(flight_, reason);
  (void)FailDisk(disk);
  std::function<void(DiskId)> listener;
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    listener = escalation_listener_;
  }
  if (listener) {
    listener(disk);
  }
}

void DiskArray::SetEscalationListener(std::function<void(DiskId)> listener) {
  std::lock_guard<std::mutex> lock(policy_mu_);
  escalation_listener_ = std::move(listener);
}

void DiskArray::SetRebuilding(DiskId disk, bool rebuilding) {
  if (disk >= disks_.size()) {
    return;
  }
  std::lock_guard<std::mutex> lock(policy_mu_);
  rebuilding_[disk] = rebuilding;
}

bool DiskArray::DiskRebuilding(DiskId disk) const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  return disk < rebuilding_.size() && rebuilding_[disk];
}

std::vector<DiskId> DiskArray::RebuildingDisks() const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  std::vector<DiskId> out;
  for (DiskId d = 0; d < rebuilding_.size(); ++d) {
    if (rebuilding_[d]) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<DiskId> DiskArray::EscalatedDisks() const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  std::vector<DiskId> out;
  for (DiskId d = 0; d < escalated_.size(); ++d) {
    if (escalated_[d]) {
      out.push_back(d);
    }
  }
  return out;
}

uint32_t DiskArray::NumFailedDisks() const {
  uint32_t failed = 0;
  for (const Disk& d : disks_) {
    if (d.failed()) {
      ++failed;
    }
  }
  return failed;
}

IoPolicyStats DiskArray::policy_stats() const {
  IoPolicyStats stats;
  stats.io_retries = io_retries_.value();
  stats.transient_faults = transient_faults_.value();
  stats.sector_errors = sector_errors_.value();
  stats.escalations = escalations_.value();
  return stats;
}

IoCounters DiskArray::counters() const {
  IoCounters total;
  for (const Disk& d : disks_) {
    total += d.counters();
  }
  total.xor_computations = xor_computations_.load(std::memory_order_relaxed);
  return total;
}

void DiskArray::ResetCounters() {
  for (Disk& d : disks_) {
    d.ResetCounters();
  }
  xor_computations_.store(0, std::memory_order_relaxed);
}

void DiskArray::AccountXor(uint64_t pages) {
  xor_computations_.fetch_add(pages, std::memory_order_relaxed);
  obs::Inc(xor_counter_, pages);
}

void DiskArray::AttachObs(obs::ObsHub* hub) {
  hub_ = hub;
  if (engine_ != nullptr) {
    engine_->AttachObs(hub);
  }
  trace_ = obs::TraceOf(hub);
  flight_ = obs::FlightOf(hub);
  reads_counter_ = obs::GetCounter(hub, "storage.reads");
  writes_counter_ = obs::GetCounter(hub, "storage.writes");
  xor_counter_ = obs::GetCounter(hub, "storage.xor_computations");
  io_retries_.Bind(obs::GetCounter(hub, "storage.io_retries"));
  transient_faults_.Bind(obs::GetCounter(hub, "storage.transient_faults"));
  sector_errors_.Bind(obs::GetCounter(hub, "storage.sector_errors"));
  escalations_.Bind(obs::GetCounter(hub, "storage.escalations"));
  disk_read_counters_.assign(disks_.size(), nullptr);
  disk_write_counters_.assign(disks_.size(), nullptr);
  if (hub != nullptr) {
    for (size_t d = 0; d < disks_.size(); ++d) {
      const std::string prefix = "storage.disk" + std::to_string(d);
      disk_read_counters_[d] = obs::GetCounter(hub, prefix + ".reads");
      disk_write_counters_[d] = obs::GetCounter(hub, prefix + ".writes");
    }
  }
}

double DiskArray::TotalBusyMs() const {
  double total = 0;
  for (const Disk& d : disks_) {
    total += d.busy_ms();
  }
  return total;
}

double DiskArray::MaxBusyMs() const {
  double max = 0;
  for (const Disk& d : disks_) {
    max = std::max(max, d.busy_ms());
  }
  return max;
}

void DiskArray::ResetServiceClocks() {
  for (Disk& d : disks_) {
    d.ResetServiceClock();
  }
}

void DiskArray::SetServiceModel(const ServiceTimeModel& model) {
  for (Disk& d : disks_) {
    d.set_service_model(model);
  }
}

}  // namespace rda
