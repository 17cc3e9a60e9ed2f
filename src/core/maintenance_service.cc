#include "core/maintenance_service.h"

#include <algorithm>
#include <string>
#include <utility>

namespace rda {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kRebuilding:
      return "rebuilding";
  }
  return "unknown";
}

MaintenanceService::MaintenanceService(TwinParityManager* parity,
                                       const MaintenanceOptions& options)
    : parity_(parity),
      options_(options),
      rebuild_bucket_(options.rebuild_pages_per_sec),
      scrub_bucket_(options.scrub_pages_per_sec) {}

MaintenanceService::~MaintenanceService() { Stop(); }

void MaintenanceService::AttachObs(obs::ObsHub* hub) {
  hub_ = hub;
  trace_ = obs::TraceOf(hub);
  spans_ = obs::SpansOf(hub);
  flight_ = obs::FlightOf(hub);
  health_gauge_ = obs::GetGauge(hub, "maintenance.health");
  rebuilds_counter_ = obs::GetCounter(hub, "maintenance.rebuilds_completed");
  scrubs_counter_ = obs::GetCounter(hub, "maintenance.scrubs_completed");
  enqueued_counter_ = obs::GetCounter(hub, "maintenance.jobs_enqueued");
  cancelled_counter_ = obs::GetCounter(hub, "maintenance.jobs_cancelled");
  UpdateHealth();
}

void MaintenanceService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return;
  }
  running_ = true;
  stop_requested_ = false;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void MaintenanceService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
    queue_.clear();
    cancel_current_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool MaintenanceService::RequestRebuild(DiskId disk) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || stop_requested_) {
      return false;
    }
    for (const Job& job : queue_) {
      if (job.kind == Job::Kind::kRebuild && job.disk == disk) {
        return false;  // Already queued.
      }
    }
    queue_.push_back(Job{Job::Kind::kRebuild, disk});
  }
  obs::Inc(enqueued_counter_);
  cv_.notify_all();
  return true;
}

bool MaintenanceService::RequestScrub() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || stop_requested_) {
      return false;
    }
    for (const Job& job : queue_) {
      if (job.kind == Job::Kind::kScrub) {
        return false;
      }
    }
    queue_.push_back(Job{Job::Kind::kScrub, kInvalidDiskId});
  }
  obs::Inc(enqueued_counter_);
  cv_.notify_all();
  return true;
}

void MaintenanceService::OnEscalation(DiskId disk) {
  UpdateHealth();  // The disk just force-failed: healthy -> degraded.
  if (options_.auto_rebuild_on_escalation) {
    RequestRebuild(disk);
  }
}

void MaintenanceService::Pause() {
  paused_.store(true, std::memory_order_release);
}

void MaintenanceService::Resume() {
  paused_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void MaintenanceService::CancelCurrent() {
  cancel_current_.store(true, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void MaintenanceService::CancelAndDrain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!running_) {
    return;
  }
  queue_.clear();
  cancel_current_.store(true, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
  cv_.notify_all();
  cv_.wait(lock, [this] { return !busy_ && queue_.empty(); });
}

MaintenanceProgress MaintenanceService::Progress() {
  UpdateHealth();
  MaintenanceProgress progress;
  {
    std::lock_guard<std::mutex> lock(mu_);
    progress.running = running_;
    progress.busy = busy_;
    progress.jobs_queued = queue_.size();
  }
  progress.paused = paused_.load(std::memory_order_acquire);
  progress.rebuild_active = parity_->OnlineRebuildActive();
  if (progress.rebuild_active) {
    progress.rebuild_disk = parity_->online_rebuild_disk();
    progress.rebuild_groups_total = parity_->OnlineRebuildGroupsTotal();
    progress.rebuild_groups_remaining =
        parity_->OnlineRebuildGroupsRemaining();
  }
  progress.on_demand_repairs = parity_->OnlineOnDemandRepairs();
  progress.write_promotions = parity_->OnlineWritePromotions();
  progress.rebuilds_completed =
      rebuilds_completed_.load(std::memory_order_relaxed);
  progress.rebuilds_failed = rebuilds_failed_.load(std::memory_order_relaxed);
  progress.scrubs_completed =
      scrubs_completed_.load(std::memory_order_relaxed);
  progress.jobs_cancelled = jobs_cancelled_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    progress.health = health_;
  }
  return progress;
}

HealthState MaintenanceService::health() {
  UpdateHealth();
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_;
}

void MaintenanceService::SetRebuildDoneCallback(
    std::function<void(const MediaRecoveryReport&)> callback) {
  std::lock_guard<std::mutex> lock(callback_mu_);
  rebuild_done_ = std::move(callback);
}

void MaintenanceService::UpdateHealth() {
  DiskArray* array = parity_->array();
  HealthState next = HealthState::kHealthy;
  bool job_running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_running = busy_;
  }
  if (array->NumFailedDisks() > 0) {
    next = HealthState::kDegraded;
  } else if (parity_->OnlineRebuildActive() || job_running ||
             !array->RebuildingDisks().empty()) {
    next = HealthState::kRebuilding;
  }
  HealthState prev;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    prev = health_;
    if (prev == next) {
      return;
    }
    health_ = next;
  }
  if (health_gauge_ != nullptr) {
    health_gauge_->Set(static_cast<int64_t>(next));
  }
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kRecovery;
    event.kind = obs::EventKind::kHealthChange;
    event.from_state = static_cast<uint8_t>(prev);
    event.to_state = static_cast<uint8_t>(next);
    trace_->Record(event);
  }
  if (next == HealthState::kDegraded) {
    obs::TriggerFlight(flight_, "array degraded: a disk failed");
  }
}

void MaintenanceService::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_requested_ || !queue_.empty(); });
      if (stop_requested_) {
        return;
      }
      job = queue_.front();
      queue_.pop_front();
      busy_ = true;
      cancel_current_.store(false, std::memory_order_release);
    }
    UpdateHealth();
    RunJob(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
    UpdateHealth();
    cv_.notify_all();  // Wake CancelAndDrain waiters.
  }
}

void MaintenanceService::RunJob(const Job& job) {
  obs::ScopedSpan span(spans_, obs::SpanKind::kMaintenanceJob,
                       /*histogram=*/nullptr,
                       static_cast<int64_t>(job.disk));
  if (job.kind == Job::Kind::kRebuild) {
    // No pool: a background rebuild stays a serial background citizen.
    MediaRecovery media(parity_);
    media.AttachObs(hub_);
    OnlineRebuildOptions options;
    options.throttle =
        options_.rebuild_pages_per_sec != 0 ? &rebuild_bucket_ : nullptr;
    options.cancel = &cancel_current_;
    options.pause = &paused_;
    Result<MediaRecoveryReport> report = media.RebuildDisk(job.disk, options);
    if (!report.ok()) {
      rebuilds_failed_.fetch_add(1, std::memory_order_relaxed);
      obs::TriggerFlight(flight_, "background rebuild of disk " +
                                      std::to_string(job.disk) +
                                      " failed: " +
                                      report.status().ToString());
      return;
    }
    if (!report->completed) {
      jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
      obs::Inc(cancelled_counter_);
      // The session stays active; a later RequestRebuild resumes it.
      return;
    }
    rebuilds_completed_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(rebuilds_counter_);
    std::function<void(const MediaRecoveryReport&)> done;
    {
      std::lock_guard<std::mutex> lock(callback_mu_);
      done = rebuild_done_;
    }
    if (done) {
      done(*report);
    }
    return;
  }
  ParityScrubber scrubber(parity_);
  if (options_.scrub_pages_per_sec != 0) {
    scrubber.SetThrottle(&scrub_bucket_);
  }
  Result<ScrubReport> report = scrubber.ScrubAll();
  if (report.ok()) {
    scrubs_completed_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(scrubs_counter_);
  }
}

}  // namespace rda
