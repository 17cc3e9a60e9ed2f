#ifndef RDA_WAL_LOG_MANAGER_H_
#define RDA_WAL_LOG_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/obs.h"
#include "storage/io_stats.h"
#include "wal/log_record.h"

namespace rda {

// Append-only, duplexed log on dedicated log disks (the paper keeps log
// files "stored separately" from the array and duplexes them against media
// errors — Section 5.2.1 charges every log page to multiple copies).
//
// Volatile/stable split: Append() buffers; Flush() (called at commit and
// before any propagation that depends on the record, per WAL) moves the
// buffer to the stable copies. A crash (LoseVolatileState) drops unflushed
// records only.
//
// Transfer accounting mirrors the paper's metric: every Flush counts the
// log pages it touches (including the re-write of a partially filled tail
// page) once per copy.
//
// Thread safety + group commit: all mutation is serialized under one mutex.
// CommitFlush(lsn) implements leader/follower group commit — the first
// committer to find no flush in progress becomes the leader, optionally
// lingers for `group_commit_window_us` to let more committers append,
// publishes the whole buffered batch to the stable streams, then sleeps out
// the simulated device latency (`flush_delay_us`) with the mutex RELEASED.
// Commit durability is tracked by a separate watermark that advances only
// when the leader's latency elapses, so every commit in the batch waits out
// the (single, shared) device delay; committers arriving during that window
// append into the next batch. One delay therefore covers many commits — the
// classic group-commit amortization. Plain Flush() publishes immediately
// and never queues behind a sleeping leader: the modeled latency charges
// commit durability only, keeping WAL-rule forces (steal, propagation,
// checkpoint) cheap and deterministic.
class LogManager {
 public:
  // Stable copies of the log: the paper's duplexed log.
  static constexpr uint32_t kCopies = 2;

  struct Options {
    // Simulated device latency of one stable flush, slept with the log
    // mutex released so concurrent appenders proceed. 0 = instantaneous
    // (the single-threaded / deterministic-test default).
    uint32_t flush_delay_us = 0;
    // How long a group-commit leader lingers (mutex released) before
    // flushing, to gather followers into its batch. 0 = flush immediately;
    // with a nonzero flush_delay_us the delay itself already batches.
    uint32_t group_commit_window_us = 0;
  };

  // `page_size` is the log page the flush accounting counts in; the owning
  // Database passes its array's page size.
  LogManager(size_t page_size, const Options& options);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Buffers `record`, assigns and returns its LSN.
  Result<Lsn> Append(LogRecord record);

  // Forces all buffered records to every stable copy, immediately — it
  // neither pays flush_delay_us nor waits for a leader sleeping one out
  // (that latency models the commit-path force only; steal/checkpoint/
  // propagation forces stay cheap and deterministic).
  Status Flush();

  // Group-commit force: blocks until the record at `lsn` is commit-durable.
  // Either the batch in flight already covers it (follower: wait for the
  // leader's wake-up), or this thread leads the next batch and pays the
  // (shared) flush_delay_us for every commit batched behind it.
  Status CommitFlush(Lsn lsn);

  // First LSN not yet assigned.
  Lsn next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }
  // All records with lsn < flushed_lsn() survive a crash.
  Lsn flushed_lsn() const {
    return flushed_bytes_.load(std::memory_order_acquire);
  }

  // Decodes all *stable* records with lsn >= from, in LSN order. The
  // LSN->offset boundary index positions the scan directly at the first
  // matching record — no re-deserialization of the skipped prefix. Each
  // record's frame is CRC-checked against copy 0 and falls back to the next
  // copy on corruption (the duplexing pay-off).
  Status Scan(Lsn from, std::vector<LogRecord>* out) const;

  // Decodes the one stable record at `lsn`, charging the pages its frame
  // covers (restart reads the checkpoint its master record names).
  Status ReadRecord(Lsn lsn, LogRecord* out) const;

  // The master record: stable state beside the log streams, naming the LSN
  // of the last complete checkpoint. WriteMaster keeps the newer of the
  // stored and the given LSN (concurrent checkpoints may finish in either
  // order) and is charged one log page write per copy. ReadMaster returns
  // kInvalidLsn if there is no live checkpoint and is charged one page
  // read once a master page exists (a log that never took a checkpoint has
  // none). It survives LoseVolatileState and is voided by a Truncate that
  // passes it.
  Status WriteMaster(Lsn checkpoint_lsn);
  Lsn ReadMaster() const;

  // Drops the unflushed buffer (system crash).
  void LoseVolatileState();

  // Discards all stable records with lsn < up_to (archive truncation).
  // `up_to` must be a record boundary at or below flushed_lsn(); LSNs stay
  // absolute — Scan afterwards yields records starting at `up_to`. A
  // master record below `up_to` becomes void. If a group-commit batch is in
  // flight (published but not yet commit-durable), Truncate waits for its
  // watermark first: records of a batch whose CommitFlush callers are still
  // blocked are never erased.
  Status Truncate(Lsn up_to);

  // High-water mark of commit durability: every commit record below it has
  // had its batch's flush_delay_us fully paid and its CommitFlush callers
  // released. Lags flushed_lsn() while a group-commit leader sleeps.
  Lsn commit_durable_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return commit_durable_bytes_;
  }

  // First LSN still present in the stable log (0 until truncated).
  Lsn base_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return base_lsn_;
  }

  // Test hook: flips a byte in stable copy `copy` at byte offset `offset`.
  void CorruptStableByteForTest(uint32_t copy, size_t offset);

  // Snapshot by value: concurrent flushes mutate the counters under mu_.
  IoCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }
  void ResetCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = IoCounters();
  }
  uint64_t stable_bytes() const {
    return flushed_bytes_.load(std::memory_order_acquire);
  }

  // Hooks the log into the observability hub (`wal.*` counters, plus the
  // group-commit batch-size histogram). Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  // Moves the current buffer to the stable copies, entirely under mu_ (the
  // caller holds it). Publication is immediate; any simulated latency is
  // the caller's business (CommitFlush sleeps AFTER publishing).
  Status FlushLocked();

  // Decodes the stable frame at `pos`, ending at `next` (the caller holds
  // mu_), from the first copy whose length and CRC check out.
  Status DecodeFrameLocked(Lsn pos, Lsn next, LogRecord* out) const;

  const size_t page_size_;
  Options options_;
  // Serializes all log state. Leaf-ward lock: nothing above the WAL is
  // acquired while held (see DESIGN.md section 11 for the latch order).
  mutable std::mutex mu_;
  // Signalled when a flush completes (followers re-check durability).
  mutable std::condition_variable cv_;
  // True while a commit leader is in CommitFlush (lingering or sleeping out
  // flush_delay_us with mu_ released). Keeps other COMMITTERS out; plain
  // Flush() ignores it.
  bool flush_active_ = false;
  // Commit records sitting in the volatile buffer — the size of the batch
  // the next flush will make durable.
  uint64_t buffered_commits_ = 0;
  // High-water mark of commit durability: records below it have had their
  // batch's flush_delay_us fully paid. Lags flushed_bytes_ while a leader
  // sleeps. Guarded by mu_.
  uint64_t commit_durable_bytes_ = 0;
  std::array<std::vector<uint8_t>, kCopies> stable_;  // One stream per copy.
  std::vector<uint8_t> buffer_;               // Volatile tail.
  // Atomic so next_lsn()/flushed_lsn() stay lock-free (they are read on
  // every page write to stamp page_lsn).
  std::atomic<Lsn> next_lsn_{0};
  std::atomic<uint64_t> flushed_bytes_{0};
  // Absolute LSN of the first byte still stored in stable_ (see Truncate).
  Lsn base_lsn_ = 0;
  // The master record (stable): the last complete checkpoint's LSN, and
  // whether a master page was ever written.
  Lsn master_lsn_ = kInvalidLsn;
  bool master_written_ = false;
  // LSN -> byte-offset index: the absolute LSN of every STABLE record
  // frame, sorted (appends are monotone). Scan binary-searches it to seek;
  // Truncate uses it to validate boundaries without walking frames. The
  // index is volatile but exactly reconstructible from the records it
  // describes, which all passed through Append/Flush in-process.
  std::vector<Lsn> stable_index_;
  // LSNs of records sitting in the volatile buffer; moved to stable_index_
  // by Flush, dropped by LoseVolatileState.
  std::vector<Lsn> pending_index_;
  // Scan() is logically const but accounts its reads.
  mutable IoCounters counters_;

  // Observability (null = disabled).
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* forces_counter_ = nullptr;
  obs::Counter* pages_flushed_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  // Group-commit latency, split by role: a leader's time covers linger +
  // flush + device delay, a follower's covers its wait for the leader's
  // wake-up. Both also land in the combined wait histogram.
  obs::Histogram* wait_hist_ = nullptr;
  obs::Histogram* leader_flush_hist_ = nullptr;
  obs::Histogram* follower_wait_hist_ = nullptr;
  obs::Histogram* flush_hist_ = nullptr;  // Plain Flush() wall time.
  obs::SpanCollector* spans_ = nullptr;
};

}  // namespace rda

#endif  // RDA_WAL_LOG_MANAGER_H_
