#include "buffer/buffer_pool.h"

#include <algorithm>
#include <string>
#include <utility>

namespace rda {

bool Frame::HasModifier(TxnId txn) const {
  return std::find(modifiers.begin(), modifiers.end(), txn) != modifiers.end();
}

void Frame::AddModifier(TxnId txn) {
  if (!HasModifier(txn)) {
    modifiers.push_back(txn);
  }
}

void Frame::RemoveModifier(TxnId txn) {
  modifiers.erase(std::remove(modifiers.begin(), modifiers.end(), txn),
                  modifiers.end());
}

BufferPool::BufferPool(const Options& options, FetchFn fetch,
                       PropagateFn propagate)
    : options_(options),
      fetch_(std::move(fetch)),
      propagate_(std::move(propagate)),
      num_shards_(std::max<uint32_t>(options.shards, 1)),
      shards_(std::make_unique<Shard[]>(num_shards_)) {
  // Split the capacity across shards, never below one frame per shard (a
  // zero-capacity shard could never fetch anything).
  const uint32_t per_shard = std::max<uint32_t>(
      1, (options_.capacity + static_cast<uint32_t>(num_shards_) - 1) /
             static_cast<uint32_t>(num_shards_));
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].capacity = per_shard;
  }
}

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    obs::Inc(latch_waits_counter_);
    lock.lock();
  }
  return lock;
}

Result<Frame*> BufferPool::FetchLocked(Shard& shard, PageId page,
                                       bool* cache_hit) {
  auto it = shard.frames.find(page);
  if (it != shard.frames.end()) {
    if (cache_hit != nullptr) {
      *cache_hit = true;
    }
    hits_.Add();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return &it->second;
  }
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  misses_.Add();
  obs::ScopedSpan miss_span(spans_, obs::SpanKind::kBufferFetchMiss,
                            /*histogram=*/nullptr,
                            static_cast<int64_t>(page));
  while (shard.frames.size() >= shard.capacity) {
    RDA_RETURN_IF_ERROR(EvictOneLocked(shard));
  }
  PageImage image;
  RDA_RETURN_IF_ERROR(fetch_(page, &image));
  Frame frame;
  frame.page = page;
  frame.payload = image.payload;
  frame.last_propagated = std::move(image.payload);
  frame.header = image.header;
  auto [inserted, ok] = shard.frames.emplace(page, std::move(frame));
  (void)ok;
  shard.lru.push_front(page);
  inserted->second.lru_pos = shard.lru.begin();
  return &inserted->second;
}

Result<Frame*> BufferPool::Fetch(PageId page, bool* cache_hit) {
  Shard& shard = ShardOf(page);
  auto lock = LockShard(shard);
  return FetchLocked(shard, page, cache_hit);
}

Frame* BufferPool::Lookup(PageId page) {
  Shard& shard = ShardOf(page);
  auto lock = LockShard(shard);
  auto it = shard.frames.find(page);
  return it == shard.frames.end() ? nullptr : &it->second;
}

Status BufferPool::WithFrame(PageId page,
                             const std::function<Status(Frame*)>& fn) {
  Shard& shard = ShardOf(page);
  auto lock = LockShard(shard);
  auto it = shard.frames.find(page);
  return fn(it == shard.frames.end() ? nullptr : &it->second);
}

Status BufferPool::WithFetchedFrame(PageId page, bool* cache_hit,
                                    const std::function<Status(Frame*)>& fn) {
  Shard& shard = ShardOf(page);
  auto lock = LockShard(shard);
  RDA_ASSIGN_OR_RETURN(Frame * frame, FetchLocked(shard, page, cache_hit));
  return fn(frame);
}

Status BufferPool::EvictOneLocked(Shard& shard) {
  obs::ScopedSpan evict_span(spans_, obs::SpanKind::kBufferEvict);
  // Walk the recency list from the cold end: the first evictable frame is
  // exactly the minimum-recency victim a full scan would have picked. A
  // frame whose propagation reports kBusy (its modifier is mid-EOT on
  // another thread) is skipped the same way a pinned frame is.
  for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
    Frame& frame = shard.frames.find(*it)->second;
    if (frame.pins > 0) {
      continue;
    }
    Frame* victim = &frame;
    if (victim->dirty) {
      const bool steal = !victim->modifiers.empty();
      // Capture attribution before propagation, which may retire modifiers.
      const TxnId steal_txn =
          steal ? victim->modifiers.front() : kInvalidTxnId;
      const size_t steal_count = victim->modifiers.size();
      const Status propagated = PropagateFrame(victim);
      if (propagated.IsBusy()) {
        continue;  // Mid-EOT elsewhere; the next victim may be free.
      }
      RDA_RETURN_IF_ERROR(propagated);
      if (steal) {
        steals_.Add();
        obs::TraceEvent event;
        event.subsystem = obs::Subsystem::kBuffer;
        event.kind = obs::EventKind::kSteal;
        event.page = victim->page;
        // A stolen frame can hold several uncommitted modifiers under
        // record locking; attribute the event to the first one.
        event.txn = steal_txn;
        event.detail = static_cast<int64_t>(steal_count);
        obs::Emit(trace_, event);
      }
    }
    evictions_.Add();
    shard.lru.erase(victim->lru_pos);
    shard.frames.erase(victim->page);
    return Status::Ok();
  }
  return Status::Busy("no evictable buffer frame");
}

Status BufferPool::PropagateFrame(Frame* frame) {
  if (!frame->dirty) {
    return Status::Ok();
  }
  RDA_RETURN_IF_ERROR(propagate_(frame));
  frame->last_propagated = frame->payload;
  frame->pending_mods.clear();
  frame->has_pending_before = false;
  frame->pending_before.clear();
  frame->dirty = false;
  return Status::Ok();
}

Status BufferPool::PropagatePage(PageId page) {
  return WithFrame(page, [this](Frame* frame) {
    return frame == nullptr ? Status::Ok() : PropagateFrame(frame);
  });
}

Status BufferPool::PropagateAllDirty() {
  // Deterministic order keeps tests and the simulator reproducible.
  std::vector<PageId> dirty = DirtyPages();
  std::sort(dirty.begin(), dirty.end());
  for (const PageId page : dirty) {
    RDA_RETURN_IF_ERROR(PropagatePage(page));
  }
  return Status::Ok();
}

void BufferPool::AttachObs(obs::ObsHub* hub) {
  trace_ = obs::TraceOf(hub);
  hits_.Bind(obs::GetCounter(hub, "buffer.hits"));
  misses_.Bind(obs::GetCounter(hub, "buffer.misses"));
  evictions_.Bind(obs::GetCounter(hub, "buffer.evictions"));
  steals_.Bind(obs::GetCounter(hub, "buffer.steals"));
  latch_waits_counter_ = obs::GetCounter(hub, "buffer.latch_waits");
  spans_ = obs::SpansOf(hub);
}

void BufferPool::Discard(PageId page) {
  Shard& shard = ShardOf(page);
  auto lock = LockShard(shard);
  auto it = shard.frames.find(page);
  if (it == shard.frames.end()) {
    return;
  }
  shard.lru.erase(it->second.lru_pos);
  shard.frames.erase(it);
}

void BufferPool::LoseAll() {
  for (size_t s = 0; s < num_shards_; ++s) {
    auto lock = LockShard(shards_[s]);
    shards_[s].frames.clear();
    shards_[s].lru.clear();
  }
}

std::vector<PageId> BufferPool::DirtyPages() const {
  std::vector<PageId> out;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = const_cast<Shard&>(shards_[s]);
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [page, frame] : shard.frames) {
      if (frame.dirty) {
        out.push_back(page);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PageId> BufferPool::ResidentPages() const {
  std::vector<PageId> out;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = const_cast<Shard&>(shards_[s]);
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [page, frame] : shard.frames) {
      out.push_back(page);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint32_t BufferPool::size() const {
  uint32_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = const_cast<Shard&>(shards_[s]);
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<uint32_t>(shard.frames.size());
  }
  return total;
}

BufferStats BufferPool::stats() const {
  BufferStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.steals = steals_.value();
  return s;
}

void BufferPool::ResetStats() {
  hits_.Reset();
  misses_.Reset();
  evictions_.Reset();
  steals_.Reset();
}

}  // namespace rda
