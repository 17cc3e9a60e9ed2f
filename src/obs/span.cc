#include "obs/span.h"

#include <algorithm>

namespace rda::obs {
namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  // Magic-static: the first caller (from any thread) fixes the epoch.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

uint64_t NsSinceEpoch(std::chrono::steady_clock::time_point tp) {
  const auto delta = tp - TraceEpoch();
  if (delta.count() < 0) {
    return 0;  // A caller raced the epoch-fixing first call.
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count());
}

}  // namespace

uint64_t TraceNowNs() { return NsSinceEpoch(std::chrono::steady_clock::now()); }

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxnLifetime:
      return "txn.lifetime";
    case SpanKind::kTxnCommit:
      return "txn.commit";
    case SpanKind::kCommitForcePages:
      return "commit.force_pages";
    case SpanKind::kCommitWalFlush:
      return "commit.wal_flush";
    case SpanKind::kCommitParityFinalize:
      return "commit.parity_finalize";
    case SpanKind::kTxnAbort:
      return "txn.abort";
    case SpanKind::kWalFlush:
      return "wal.flush";
    case SpanKind::kWalGroupLead:
      return "wal.group_lead";
    case SpanKind::kWalGroupFollow:
      return "wal.group_follow";
    case SpanKind::kBufferFetchMiss:
      return "buffer.fetch_miss";
    case SpanKind::kBufferEvict:
      return "buffer.evict";
    case SpanKind::kParityPropagate:
      return "parity.propagate";
    case SpanKind::kParityUndo:
      return "parity.undo";
    case SpanKind::kParityRebuild:
      return "parity.rebuild";
    case SpanKind::kRecoveryPhase:
      return "recovery.phase";
    case SpanKind::kExecParallelFor:
      return "exec.parallel_for";
  }
  return "unknown";
}

ThreadSpanRing::ThreadSpanRing(uint32_t thread_index, size_t capacity)
    : thread_index_(thread_index),
      owner_(std::this_thread::get_id()),
      capacity_(std::max<size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void ThreadSpanRing::Push(const SpanRecord& record) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[head % capacity_];
  // Fence-free seqlock write (GCC's TSan cannot model thread fences): the
  // odd marker is an acq_rel RMW whose acquire half pins the field stores
  // below it, the field stores are release so a reader's acquire load of
  // any mid-write value happens-after the odd marker — forcing the
  // reader's sequence re-check to observe the odd sequence and discard.
  const uint32_t seq = slot.seq.fetch_add(1, std::memory_order_acq_rel);
  slot.start_ns.store(record.start_ns, std::memory_order_release);
  slot.duration_ns.store(record.duration_ns, std::memory_order_release);
  slot.detail.store(record.detail, std::memory_order_release);
  slot.kind_depth.store(static_cast<uint32_t>(record.kind) |
                            (static_cast<uint32_t>(record.depth) << 8),
                        std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
  head_.store(head + 1, std::memory_order_release);
}

std::vector<SpanRecord> ThreadSpanRing::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t first = head > capacity_ ? head - capacity_ : 0;
  std::vector<SpanRecord> out;
  out.reserve(static_cast<size_t>(head - first));
  for (uint64_t i = first; i < head; ++i) {
    const Slot& slot = slots_[i % capacity_];
    const uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before % 2 != 0) {
      continue;  // Writer mid-store; the slot's old value is already gone.
    }
    SpanRecord record;
    // Acquire field loads: each orders the sequence re-check below after
    // itself (the fence-free counterpart of a read fence), and pairs with
    // the writer's release field stores so reading any mid-write value
    // happens-after the writer's odd marker.
    record.start_ns = slot.start_ns.load(std::memory_order_acquire);
    record.duration_ns = slot.duration_ns.load(std::memory_order_acquire);
    record.detail = slot.detail.load(std::memory_order_acquire);
    const uint32_t kind_depth =
        slot.kind_depth.load(std::memory_order_acquire);
    record.kind = static_cast<SpanKind>(kind_depth & 0xff);
    record.depth = static_cast<uint16_t>(kind_depth >> 8);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) {
      continue;  // Overwritten while reading; drop the torn record.
    }
    out.push_back(record);
  }
  return out;
}

namespace {

// Collector ids are process-unique and never reused, so a stale
// thread-local cache entry can never match a newer collector.
std::atomic<uint64_t> g_next_collector_id{1};

struct RingCache {
  uint64_t collector_id = 0;
  ThreadSpanRing* ring = nullptr;
};

thread_local RingCache tls_ring_cache;

}  // namespace

SpanCollector::SpanCollector(size_t ring_capacity)
    : id_(g_next_collector_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(std::max<size_t>(ring_capacity, 1)) {}

ThreadSpanRing* SpanCollector::Ring() {
  if (tls_ring_cache.collector_id == id_) {
    return tls_ring_cache.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  ThreadSpanRing* ring = nullptr;
  for (const auto& existing : rings_) {
    if (existing->owner() == self) {
      ring = existing.get();
      break;
    }
  }
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<ThreadSpanRing>(
        static_cast<uint32_t>(rings_.size()), capacity_));
    ring = rings_.back().get();
  }
  tls_ring_cache = {id_, ring};
  return ring;
}

void SpanCollector::RecordInterval(
    SpanKind kind, std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end, int64_t detail) {
  if (end < start) {
    end = start;
  }
  ThreadSpanRing* ring = Ring();
  SpanRecord record;
  record.start_ns = NsSinceEpoch(start);
  record.duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  record.detail = detail;
  record.kind = kind;
  record.depth = static_cast<uint16_t>(ring->Enter());
  ring->Exit();
  ring->Push(record);
}

std::vector<SpanCollector::ThreadSpans> SpanCollector::SnapshotAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSpans> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    ThreadSpans spans;
    spans.thread_index = ring->thread_index();
    spans.recorded = ring->recorded();
    spans.dropped = ring->dropped();
    spans.spans = ring->Snapshot();
    out.push_back(std::move(spans));
  }
  return out;
}

uint64_t SpanCollector::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->recorded();
  }
  return total;
}

uint64_t SpanCollector::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->dropped();
  }
  return total;
}

ScopedSpan::~ScopedSpan() {
  if (spans_ == nullptr && histogram_ == nullptr) {
    return;
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t duration_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  if (ring_ != nullptr) {
    ring_->Stamp(end);  // Later siblings' constructors reuse this read.
    ring_->Exit();
    SpanRecord record;
    record.start_ns = NsSinceEpoch(start_);
    record.duration_ns = duration_ns;
    record.detail = detail_;
    record.kind = kind_;
    record.depth = depth_;
    ring_->Push(record);
  }
  Observe(histogram_, static_cast<double>(duration_ns) / 1000.0);
}

}  // namespace rda::obs
