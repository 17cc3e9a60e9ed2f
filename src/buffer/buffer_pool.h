#ifndef RDA_BUFFER_BUFFER_POOL_H_
#define RDA_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "storage/page.h"

namespace rda {

// In-buffer undo information for one record-granular update. Volatile
// bookkeeping only — the durable undo story is the twin parity / UNDO log;
// this exists so a runtime abort can revert a transaction's records inside
// a buffer frame that other transactions also modified (record locking
// allows sharing pages, paper footnote 12).
struct RecordMod {
  TxnId txn = kInvalidTxnId;
  RecordSlot slot = 0;
  std::vector<uint8_t> before;
  Lsn stamp = 0;  // Monotone stamp for reverse-order undo.
};

// A record slot modified since the frame was last propagated; the steal path
// derives before-image log records from these (before bytes come from
// `last_propagated`).
struct PendingMod {
  TxnId txn = kInvalidTxnId;
  RecordSlot slot = 0;
  // Slot content just before the first modification since the last
  // propagation — the logical before-image a steal must log. May contain
  // committed-but-unpropagated bytes of earlier transactions, which is
  // exactly why it can differ from last_propagated.
  std::vector<uint8_t> before;
};

// One buffer frame. `payload` is the current (possibly modified) content;
// `last_propagated` snapshots the content as of the last propagation to the
// array — it is what a RAID small write needs as "old data" (the model's
// a=3 case: old data available without an extra disk read).
struct Frame {
  PageId page = kInvalidPageId;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> last_propagated;
  PageHeader header;
  bool dirty = false;
  uint32_t pins = 0;
  // Active transactions with unpropagated uncommitted changes in this frame.
  std::vector<TxnId> modifiers;
  // Record-granular in-buffer undo info (record-logging mode).
  std::vector<RecordMod> record_mods;
  // Slots modified since the last propagation (cleared on propagate).
  std::vector<PendingMod> pending_mods;
  // Whole-page logical before-image: payload as it was when the current
  // modifier first touched the frame after the last propagation (page-
  // logging mode). Reset on propagation and at the modifier's EOT.
  bool has_pending_before = false;
  std::vector<uint8_t> pending_before;
  // Position in the owning shard's recency list (front = most recent).
  // Maintained exclusively by BufferPool; singular for frames outside a
  // pool.
  std::list<PageId>::iterator lru_pos;

  bool HasModifier(TxnId txn) const;
  void AddModifier(TxnId txn);
  void RemoveModifier(TxnId txn);
};

// Buffer-pool statistics (the model's communality C manifests as hit rate).
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t steals = 0;  // Evictions that propagated uncommitted data.
};

// Fixed-capacity page buffer with LRU replacement and a STEAL/no-STEAL
// policy knob. The pool is policy-free about *how* pages reach the disk:
// eviction calls back into the transaction manager (PropagateFn), which
// owns the Figure 3 logging decision and the parity maintenance.
//
// Concurrency model (DESIGN.md section 11): the pool is split into
// `Options::shards` latch shards, each owning a page-keyed frame map, its
// own LRU recency list and a slice of the capacity. All frame access and
// replacement for a page happens under its shard's latch; pages hash to
// shards by page id, so operations on different shards run fully in
// parallel. Eviction invokes the PropagateFn callback while HOLDING the
// shard latch — the latch order is shard -> (txn, parity group, WAL), and
// nothing downstream ever calls back into the pool. A propagate that
// returns kBusy (e.g. the modifier is mid-commit on another thread) makes
// the eviction walk skip that victim rather than block.
//
// The raw Frame* returned by Fetch/Lookup stays valid until that page is
// evicted or discarded; single-threaded callers may use it directly.
// Concurrent callers must do all frame access inside WithFrame /
// WithFetchedFrame, which run the callback under the shard latch.
//
// The default shards=1 keeps one global LRU list, preserving the exact
// replacement order (and hit/miss counts) of the original single-threaded
// pool.
class BufferPool {
 public:
  struct Options {
    uint32_t capacity = 64;  // The paper's B.
    // Latch shards. 1 (default) = one global LRU, byte-identical behaviour
    // to the pre-concurrency pool; concurrent workloads want 8+.
    uint32_t shards = 1;
  };

  // Reads a page image from the database (cache miss path).
  using FetchFn = std::function<Status(PageId, PageImage*)>;
  // Propagates a dirty frame to the database. On success the caller must
  // have written frame->payload to disk; the pool then updates
  // last_propagated and clears dirty.
  using PropagateFn = std::function<Status(Frame*)>;

  BufferPool(const Options& options, FetchFn fetch, PropagateFn propagate);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns the frame holding `page`, fetching (and possibly evicting a
  // victim) as needed. `cache_hit`, if non-null, reports whether the page
  // was already resident. The returned pointer is valid until the page is
  // evicted or discarded; see the class comment for the concurrent rules.
  Result<Frame*> Fetch(PageId page, bool* cache_hit);

  // Returns the resident frame for `page`, or nullptr.
  Frame* Lookup(PageId page);

  // Runs `fn` under the shard latch with the resident frame for `page`, or
  // with nullptr when the page is not resident. The latch pins the frame
  // for the duration of the callback; `fn` must not call back into the
  // pool (the shard latch is not recursive).
  Status WithFrame(PageId page, const std::function<Status(Frame*)>& fn);

  // Fetch + WithFrame in one latched step: fetches `page` (evicting as
  // needed) and runs `fn` on the frame while the shard latch is held.
  Status WithFetchedFrame(PageId page, bool* cache_hit,
                          const std::function<Status(Frame*)>& fn);

  // Propagates `frame` to the database now (used by FORCE commits and
  // checkpoints); clears dirty and refreshes last_propagated. The caller
  // must hold the frame's shard latch (via WithFrame) or be single-threaded.
  Status PropagateFrame(Frame* frame);

  // Latched flavour: propagates `page`'s frame (if resident and dirty)
  // under its shard latch.
  Status PropagatePage(PageId page);

  // Propagates every dirty frame (action-consistent checkpoint body).
  Status PropagateAllDirty();

  // Drops `page` from the pool without writing it (page-mode abort of a
  // never-propagated modification).
  void Discard(PageId page);

  // Simulates a crash: every frame is lost.
  void LoseAll();

  std::vector<PageId> DirtyPages() const;
  std::vector<PageId> ResidentPages() const;
  uint32_t size() const;
  uint32_t capacity() const { return options_.capacity; }
  uint32_t shards() const { return static_cast<uint32_t>(num_shards_); }
  // Snapshot by value: counters are bumped concurrently.
  BufferStats stats() const;
  void ResetStats();

  // Hooks the pool into the observability hub (`buffer.*` counters, a
  // kSteal trace event per uncommitted-data eviction, and a latch-wait
  // counter). Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<PageId, Frame> frames;
    // Recency list over this shard's resident pages: front = most recently
    // used, back = eviction candidate. Each frame holds its own position
    // (lru_pos), so a touch is an O(1) splice and eviction needs no scan.
    std::list<PageId> lru;
    uint32_t capacity = 0;  // This shard's slice of options_.capacity.
  };

  Shard& ShardOf(PageId page) { return shards_[page % num_shards_]; }
  const Shard& ShardOf(PageId page) const {
    return shards_[page % num_shards_];
  }
  std::unique_lock<std::mutex> LockShard(Shard& shard);

  // Fetches `page` into `shard` (whose latch the caller holds), evicting as
  // needed, and returns the frame.
  Result<Frame*> FetchLocked(Shard& shard, PageId page, bool* cache_hit);

  // Picks and evicts the least-recently-used evictable frame of `shard`
  // (latch held by caller); propagates it first if dirty (a steal when
  // uncommitted modifiers exist). Fails with kBusy if every frame is
  // pinned, unstealable, or mid-EOT busy.
  Status EvictOneLocked(Shard& shard);

  Options options_;
  FetchFn fetch_;
  PropagateFn propagate_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;

  // The counters behind stats(), exported as `buffer.<field>`. Bumped
  // under different shard latches; each is one atomic.
  obs::StatCounter hits_;
  obs::StatCounter misses_;
  obs::StatCounter evictions_;
  obs::StatCounter steals_;

  // Observability (null = disabled).
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* latch_waits_counter_ = nullptr;
  // Latency spans on the miss/evict paths only — a cache hit never reads
  // the clock.
  obs::SpanCollector* spans_ = nullptr;
};

}  // namespace rda

#endif  // RDA_BUFFER_BUFFER_POOL_H_
