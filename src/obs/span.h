#ifndef RDA_OBS_SPAN_H_
#define RDA_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace rda::obs {

// What a latency span measures. Kinds are flat (no per-site strings) so a
// span record stays a handful of scalars and the hot path never allocates.
enum class SpanKind : uint8_t {
  kTxnLifetime = 0,        // Begin() -> commit/abort, detail = txn id.
  kTxnCommit = 1,          // The whole Commit() call, detail = txn id.
  kCommitForcePages = 2,   // FORCE policy: propagate loop inside commit.
  kCommitWalFlush = 3,     // Commit record append + group-commit force.
  kCommitParityFinalize = 4,  // FinalizeCommit over the touched groups.
  kTxnAbort = 5,           // The whole Abort() call, detail = txn id.
  kWalFlush = 6,           // Plain Flush() (steal/checkpoint/propagation).
  kWalGroupLead = 7,       // Group-commit leader: linger + flush + delay.
  kWalGroupFollow = 8,     // Group-commit follower: wait for the leader.
  kBufferFetchMiss = 9,    // Miss path: evictions + device fetch.
  kBufferEvict = 10,       // One eviction (victim scan + propagation).
  kParityPropagate = 11,   // Twin-parity propagate of one page.
  kParityUndo = 12,        // Unlogged or logged undo of one page.
  kParityRebuild = 13,     // Reconstruction of one group member.
  kRecoveryPhase = 14,     // One RecoveryPhase, detail = phase value.
  kExecParallelFor = 15,   // One WorkerPool::ParallelFor, detail = count.
  // 16 is retired and stays unused.
};

// Dotted display name ("txn.commit", "wal.group_lead", ...), shared by the
// Chrome-trace exporter and the flight recorder.
const char* SpanKindName(SpanKind kind);

// Nanoseconds since the process trace epoch (the first call fixes the
// epoch). All span and trace timestamps share it, so exported timelines
// from different components align.
uint64_t TraceNowNs();

// One completed span. `start_ns` is TraceNowNs()-relative; `depth` is the
// nesting level at emission (0 = outermost), which lets exporters rebuild
// the stack without parent pointers.
struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  int64_t detail = 0;
  SpanKind kind = SpanKind::kTxnCommit;
  uint16_t depth = 0;
};

// Fixed-capacity single-producer ring of SpanRecords. The owning thread
// pushes; any thread may snapshot concurrently. Each slot is a fence-free
// seqlock: the writer bumps the slot sequence to odd (acq_rel RMW), stores
// the fields (individual atomics, release), then publishes an even sequence
// with release order; readers use acquire field loads in place of a read
// fence. A reader that observes an odd or changed sequence discards the
// slot instead of blocking the writer — recording never takes a lock.
class ThreadSpanRing {
 public:
  ThreadSpanRing(uint32_t thread_index, size_t capacity);

  ThreadSpanRing(const ThreadSpanRing&) = delete;
  ThreadSpanRing& operator=(const ThreadSpanRing&) = delete;

  // Owner thread only.
  void Push(const SpanRecord& record);
  uint16_t Enter() { return static_cast<uint16_t>(depth_++); }
  void Exit() {
    if (depth_ > 0) {
      --depth_;
    }
  }

  // Owner thread only: cache of the freshest steady_clock read any span on
  // this thread took (a ctor's fresh read or a dtor's end read). A NESTED
  // histogram-less span's constructor reuses it instead of reading the
  // clock again — halving the enabled-span overhead — at an accuracy cost
  // bounded by the host code run between the cached read and the nested
  // span's entry, which for back-to-back spans is a handful of
  // instructions. Outermost (depth 0) spans always read fresh, so the
  // cache never drifts across a span tree boundary; spans that feed a
  // latency histogram also always read fresh (see ScopedSpan).
  void Stamp(std::chrono::steady_clock::time_point now) {
    last_stamp_ = now;
    has_stamp_ = true;
  }
  bool HasStamp() const { return has_stamp_; }
  std::chrono::steady_clock::time_point stamp() const { return last_stamp_; }

  // Any thread. Returns retained records oldest-first; slots caught
  // mid-write are skipped.
  std::vector<SpanRecord> Snapshot() const;

  uint32_t thread_index() const { return thread_index_; }
  std::thread::id owner() const { return owner_; }
  uint64_t recorded() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    return head > capacity_ ? head - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::atomic<uint32_t> seq{0};  // Odd while the writer is mid-store.
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<int64_t> detail{0};
    std::atomic<uint32_t> kind_depth{0};  // kind | depth << 8.
  };

  const uint32_t thread_index_;
  const std::thread::id owner_;
  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  // Spans ever pushed.
  int depth_ = 0;                  // Owner-thread nesting level.
  // Owner-thread clock cache (see Stamp); plain members on purpose.
  std::chrono::steady_clock::time_point last_stamp_;
  bool has_stamp_ = false;
};

// Owns one ThreadSpanRing per emitting thread. Ring() resolves the calling
// thread's ring through a thread-local cache keyed by a process-unique
// collector id (never reused, so a cache entry can never alias a later
// collector); only the first span a thread ever emits into a collector
// touches the collector mutex.
class SpanCollector {
 public:
  struct ThreadSpans {
    uint32_t thread_index = 0;
    uint64_t recorded = 0;
    uint64_t dropped = 0;
    std::vector<SpanRecord> spans;
  };

  explicit SpanCollector(size_t ring_capacity);

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  // The calling thread's ring (created on first use).
  ThreadSpanRing* Ring();

  // Records an already-measured interval (used for spans whose begin and
  // end live in different calls, e.g. txn lifetime), at the calling
  // thread's current nesting depth.
  void RecordInterval(SpanKind kind,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end,
                      int64_t detail = 0);

  // Per-thread snapshots, ordered by thread index. Safe while writers run.
  std::vector<ThreadSpans> SnapshotAll() const;

  uint64_t TotalRecorded() const;
  uint64_t TotalDropped() const;
  size_t ring_capacity() const { return capacity_; }
  uint64_t id() const { return id_; }

 private:
  const uint64_t id_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpanRing>> rings_;
};

// RAII latency span. With a null collector AND a null histogram the
// constructor and destructor do no work at all — not even a clock read —
// which is the disabled-obs fast path perf_report asserts on. With a
// histogram, the duration is also Observed in microseconds.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanCollector* spans, SpanKind kind,
                      Histogram* histogram = nullptr, int64_t detail = 0)
      : spans_(spans), histogram_(histogram), detail_(detail), kind_(kind) {
    if (spans_ == nullptr && histogram_ == nullptr) {
      return;
    }
    if (spans_ != nullptr) {
      ring_ = spans_->Ring();
      depth_ = ring_->Enter();
      if (depth_ > 0 && histogram_ == nullptr && ring_->HasStamp()) {
        // Nested inside an already-stamped parent: reuse the thread's
        // freshest clock read instead of taking another one. Only ring
        // records tolerate the (bounded) early-start bias — a histogram
        // feeds latency percentiles that perf_report asserts on, so a
        // histogram-carrying span always reads the clock fresh.
        start_ = ring_->stamp();
      } else {
        start_ = std::chrono::steady_clock::now();
        ring_->Stamp(start_);
      }
    } else {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan();

  // Fills in a value only known at scope exit (batch size, page count...).
  void set_detail(int64_t detail) { detail_ = detail; }

 private:
  SpanCollector* spans_;
  Histogram* histogram_;
  ThreadSpanRing* ring_ = nullptr;
  int64_t detail_;
  SpanKind kind_;
  uint16_t depth_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rda::obs

#endif  // RDA_OBS_SPAN_H_
