#include "io/io_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace rda::io {

IoEngine::IoEngine(uint32_t num_disks, const IoEngineOptions& options,
                   PhysicalWrite writer)
    : options_{std::max(options.queue_watermark, 1u)},
      writer_(std::move(writer)),
      queues_(num_disks),
      dispatch_hists_(num_disks, nullptr) {
  drain_mus_.reserve(num_disks);
  for (uint32_t d = 0; d < num_disks; ++d) {
    drain_mus_.push_back(std::make_unique<std::mutex>());
  }
}

IoEngine::~IoEngine() {
  // The journal is modeled non-volatile: every submitted write reaches the
  // medium before the engine goes away.
  for (DiskId d = 0; d < queues_.size(); ++d) {
    DrainDisk(d);
  }
}

void IoEngine::SubmitWrite(DiskId disk, SlotId slot, PageImage image,
                           bool is_parity) {
  DiskQueue& queue = queues_[disk];
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    auto it = queue.pending.find(slot);
    if (it != queue.pending.end()) {
      // Last-writer-wins merge: the queued entry's image is replaced in
      // place. One physical transfer now covers both logical writes.
      *it->second.image = std::move(image);
      it->second.is_parity = is_parity;
      submitted_writes_.Add();
      coalesced_writes_.Add();
      if (is_parity) {
        // A merged parity-slot write is one read-modify-write absorbed
        // into the batch the queue accumulated for this (group, twin).
        batched_parity_rmw_.Add();
      }
      return;
    }
    Pending entry;
    entry.image = std::make_shared<PageImage>(std::move(image));
    entry.is_parity = is_parity;
    entry.submitted = std::chrono::steady_clock::now();
    queue.pending.emplace(slot, std::move(entry));
    // Edge-triggered: the queue grows one entry at a time and a drain
    // empties it, so == names exactly one submitter per watermark crossing
    // to drain it.
    drain = queue.pending.size() == options_.queue_watermark;
  }
  submitted_writes_.Add();
  depth_.fetch_add(1, std::memory_order_relaxed);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Add(1);
  }
  if (drain) {
    DrainDisk(disk);
  }
}

bool IoEngine::ReadFromQueue(DiskId disk, SlotId slot, PageImage* out) const {
  const DiskQueue& queue = queues_[disk];
  std::lock_guard<std::mutex> lock(queue.mu);
  const auto pending = queue.pending.find(slot);
  if (pending != queue.pending.end()) {
    *out = *pending->second.image;
  } else {
    const auto inflight = queue.inflight.find(slot);
    if (inflight == queue.inflight.end()) {
      return false;
    }
    *out = *inflight->second;
  }
  cache_hits_.Add();
  return true;
}

void IoEngine::DrainDisk(DiskId disk) {
  DiskQueue& queue = queues_[disk];
  std::lock_guard<std::mutex> drain_lock(*drain_mus_[disk]);
  for (;;) {
    std::map<SlotId, Pending> batch;
    {
      std::lock_guard<std::mutex> lock(queue.mu);
      if (queue.pending.empty()) {
        return;
      }
      batch = std::move(queue.pending);
      queue.pending.clear();
      // Publish to the in-flight view BEFORE the writes start, so readers
      // keep hitting the journal until each image is fully on the medium.
      for (const auto& [slot, entry] : batch) {
        queue.inflight[slot] = entry.image;
      }
    }
    // Elevator dispatch: the map hands back the batch slot-ascending, so
    // the head sweeps one way across the platter per drain pass.
    for (auto& [slot, entry] : batch) {
      const Status status = writer_(disk, slot, *entry.image);
      physical_writes_.Add();
      {
        std::lock_guard<std::mutex> lock(queue.mu);
        queue.inflight.erase(slot);
        if (!status.ok() && queue.error.ok()) {
          queue.error = status;
        }
      }
      depth_.fetch_add(-1, std::memory_order_relaxed);
      if (depth_gauge_ != nullptr) {
        depth_gauge_->Add(-1);
      }
      if (dispatch_hists_[disk] != nullptr) {
        const auto now = std::chrono::steady_clock::now();
        dispatch_hists_[disk]->Observe(
            std::chrono::duration<double, std::micro>(now - entry.submitted)
                .count());
      }
    }
  }
}

Status IoEngine::Flush() {
  Status first = Status::Ok();
  for (DiskId d = 0; d < queues_.size(); ++d) {
    DrainDisk(d);
    std::lock_guard<std::mutex> lock(queues_[d].mu);
    if (first.ok() && !queues_[d].error.ok()) {
      first = queues_[d].error;
    }
    // Report-once: the error belongs to writes already retired. Leaving it
    // sticky would fail every later flush — including the scrub/rebuild
    // passes that exist to repair exactly this damage.
    queues_[d].error = Status::Ok();
  }
  return first;
}

void IoEngine::PurgeDisk(DiskId disk) {
  if (disk >= queues_.size()) {
    return;
  }
  DiskQueue& queue = queues_[disk];
  std::map<SlotId, Pending> dropped;
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    dropped = std::move(queue.pending);
    queue.pending.clear();
    queue.error = Status::Ok();
  }
  // The medium these bytes were headed for is gone: the history is "the
  // writes landed, then the disk failed", which is what the synchronous
  // path would have produced.
  const int64_t count = static_cast<int64_t>(dropped.size());
  depth_.fetch_add(-count, std::memory_order_relaxed);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Add(-count);
  }
  purged_writes_.Add(dropped.size());
}

IoEngine::StatsSnapshot IoEngine::stats() const {
  StatsSnapshot snapshot;
  snapshot.submitted_writes = submitted_writes_.value();
  snapshot.physical_writes = physical_writes_.value();
  snapshot.coalesced_writes = coalesced_writes_.value();
  snapshot.batched_parity_rmw = batched_parity_rmw_.value();
  snapshot.cache_hits = cache_hits_.value();
  snapshot.purged_writes = purged_writes_.value();
  return snapshot;
}

uint64_t IoEngine::QueueDepth() const {
  const int64_t depth = depth_.load(std::memory_order_relaxed);
  return depth > 0 ? static_cast<uint64_t>(depth) : 0;
}

void IoEngine::AttachObs(obs::ObsHub* hub) {
  submitted_writes_.Bind(obs::GetCounter(hub, "io.submitted_writes"));
  physical_writes_.Bind(obs::GetCounter(hub, "io.physical_writes"));
  coalesced_writes_.Bind(obs::GetCounter(hub, "io.coalesced_writes"));
  batched_parity_rmw_.Bind(obs::GetCounter(hub, "io.batched_parity_rmw"));
  cache_hits_.Bind(obs::GetCounter(hub, "io.cache_hits"));
  purged_writes_.Bind(obs::GetCounter(hub, "io.purged_writes"));
  depth_gauge_ = obs::GetGauge(hub, "io.queue_depth");
  const std::vector<double> us_bounds = {10,   50,   100,   250,   500,
                                         1000, 2500, 5000,  10000, 25000};
  for (size_t d = 0; d < dispatch_hists_.size(); ++d) {
    dispatch_hists_[d] = obs::GetHistogram(
        hub, "io.disk" + std::to_string(d) + ".dispatch_us", us_bounds);
  }
}

}  // namespace rda::io
