#include "wal/log_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/crc32.h"

namespace rda {
namespace {

// Frame layout: u32 payload length, u32 CRC-32C of payload, payload bytes.
constexpr size_t kFrameHeaderSize = 8;

}  // namespace

LogManager::LogManager(size_t page_size, const Options& options)
    : page_size_(page_size), options_(options) {}

Result<Lsn> LogManager::Append(LogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  const Lsn lsn = next_lsn_.load(std::memory_order_relaxed);
  record.lsn = lsn;
  if (record.type == LogRecordType::kCommit) {
    ++buffered_commits_;
  }
  // Encode straight into the append buffer (no per-record payload vector),
  // then backfill the frame header once the length is known.
  const size_t offset = buffer_.size();
  buffer_.resize(offset + kFrameHeaderSize);
  EncodeLogRecordTo(record, &buffer_);
  const uint32_t length =
      static_cast<uint32_t>(buffer_.size() - offset - kFrameHeaderSize);
  const uint32_t crc =
      Crc32c(buffer_.data() + offset + kFrameHeaderSize, length);
  std::memcpy(buffer_.data() + offset, &length, sizeof(length));
  std::memcpy(buffer_.data() + offset + 4, &crc, sizeof(crc));
  pending_index_.push_back(lsn);
  next_lsn_.store(lsn + kFrameHeaderSize + length, std::memory_order_release);
  obs::Inc(records_counter_);
  obs::Inc(bytes_counter_, kFrameHeaderSize + length);
  return lsn;
}

Status LogManager::FlushLocked() {
  if (buffer_.empty()) {
    return Status::Ok();
  }
  std::vector<uint8_t> chunk = std::move(buffer_);
  buffer_.clear();
  std::vector<Lsn> chunk_index = std::move(pending_index_);
  pending_index_.clear();
  buffered_commits_ = 0;

  // Pages touched by this flush, tail page re-write included.
  const uint64_t flushed = flushed_bytes_.load(std::memory_order_relaxed);
  const uint64_t first_page = flushed / page_size_;
  const uint64_t new_total = flushed + chunk.size();
  const uint64_t last_page = (new_total - 1) / page_size_;
  const uint64_t pages = last_page - first_page + 1;
  counters_.page_writes += pages * kCopies;
  obs::Inc(forces_counter_);
  obs::Inc(pages_flushed_counter_, pages * kCopies);

  for (auto& copy : stable_) {
    copy.insert(copy.end(), chunk.begin(), chunk.end());
  }
  stable_index_.insert(stable_index_.end(), chunk_index.begin(),
                       chunk_index.end());
  flushed_bytes_.store(new_total, std::memory_order_release);
  return Status::Ok();
}

Status LogManager::Flush() {
  obs::ScopedSpan span(spans_, obs::SpanKind::kWalFlush, flush_hist_);
  std::unique_lock<std::mutex> lock(mu_);
  return FlushLocked();
}

Status LogManager::CommitFlush(Lsn lsn) {
  // Group-commit wait latency is the whole point of the leader/follower
  // split, so measure from call entry: a follower's time is dominated by
  // the cv wait, a leader's by linger + flush + device delay.
  const bool timed = spans_ != nullptr || wait_hist_ != nullptr;
  std::chrono::steady_clock::time_point entry;
  if (timed) {
    entry = std::chrono::steady_clock::now();
  }
  std::unique_lock<std::mutex> lock(mu_);
  bool waited = false;
  for (;;) {
    if (lsn < commit_durable_bytes_) {
      // A completed batch already covered this commit.
      if (timed && waited) {
        const auto now = std::chrono::steady_clock::now();
        const double wait_us =
            std::chrono::duration<double, std::micro>(now - entry).count();
        obs::Observe(wait_hist_, wait_us);
        obs::Observe(follower_wait_hist_, wait_us);
        if (spans_ != nullptr) {
          spans_->RecordInterval(obs::SpanKind::kWalGroupFollow, entry, now);
        }
      }
      return Status::Ok();
    }
    if (!flush_active_) {
      break;  // No batch in flight: this thread leads the next one.
    }
    waited = true;
    cv_.wait(lock);  // Follower: the leader's wake-up re-checks coverage.
  }
  flush_active_ = true;
  if (options_.group_commit_window_us > 0) {
    // Linger to gather followers into the batch before paying the flush.
    lock.unlock();
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.group_commit_window_us));
    lock.lock();
  }
  const uint64_t batch = std::max<uint64_t>(buffered_commits_, 1);
  // Publish first, then pay the device latency with mu_ released. The whole
  // point of group commit: concurrent transactions append (and queue up as
  // the next batch) while this batch's latency elapses — and plain WAL-rule
  // flushes publish freely in the meantime, ordered after this batch.
  const Status status = FlushLocked();
  const uint64_t published = flushed_bytes_.load(std::memory_order_relaxed);
  if (status.ok() && options_.flush_delay_us > 0) {
    lock.unlock();
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.flush_delay_us));
    lock.lock();
  }
  commit_durable_bytes_ = std::max(commit_durable_bytes_, published);
  flush_active_ = false;
  obs::Inc(batches_counter_);
  obs::Observe(batch_size_hist_, static_cast<double>(batch));
  if (timed) {
    const auto now = std::chrono::steady_clock::now();
    const double lead_us =
        std::chrono::duration<double, std::micro>(now - entry).count();
    obs::Observe(wait_hist_, lead_us);
    obs::Observe(leader_flush_hist_, lead_us);
    if (spans_ != nullptr) {
      spans_->RecordInterval(obs::SpanKind::kWalGroupLead, entry, now,
                             static_cast<int64_t>(batch));
    }
  }
  cv_.notify_all();
  return status;
}

Status LogManager::DecodeFrameLocked(Lsn pos, Lsn next,
                                     LogRecord* out) const {
  const size_t offset = pos - base_lsn_;
  const uint32_t frame_length =
      static_cast<uint32_t>(next - pos - kFrameHeaderSize);
  for (uint32_t copy = 0; copy < kCopies; ++copy) {
    const std::vector<uint8_t>& data = stable_[copy];
    uint32_t stored_length = 0;
    std::memcpy(&stored_length, data.data() + offset, sizeof(stored_length));
    if (stored_length != frame_length) {
      continue;  // Frame header damaged on this copy; the index knows the
                 // true framing.
    }
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, data.data() + offset + 4, sizeof(stored_crc));
    const uint8_t* payload = data.data() + offset + kFrameHeaderSize;
    if (Crc32c(payload, frame_length) != stored_crc) {
      continue;  // Corrupted on this copy; try the next one.
    }
    Result<LogRecord> result = DecodeLogRecord(payload, frame_length);
    if (!result.ok()) {
      continue;
    }
    *out = std::move(result).value();
    // LSNs are positional, not serialized: stamp from the frame offset.
    out->lsn = pos;
    return Status::Ok();
  }
  return Status::Corruption("log record at " + std::to_string(pos) +
                            " unreadable on all copies");
}

Status LogManager::Scan(Lsn from, std::vector<LogRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  const uint64_t flushed = flushed_bytes_.load(std::memory_order_relaxed);
  // Seek: the boundary index hands us the first record with lsn >= from
  // directly — the skipped prefix is neither read nor re-deserialized.
  const auto begin = std::lower_bound(stable_index_.begin(),
                                      stable_index_.end(), from);
  const Lsn start_pos = begin == stable_index_.end() ? flushed : *begin;
  out->reserve(stable_index_.end() - begin);
  for (auto it = begin; it != stable_index_.end(); ++it) {
    const Lsn next = (it + 1) == stable_index_.end() ? flushed : *(it + 1);
    RDA_RETURN_IF_ERROR(DecodeFrameLocked(*it, next, &out->emplace_back()));
  }
  // Account the sequential read of the scanned portion, once (a recovery
  // scan reads one copy unless it hits corruption; close enough for the
  // simulator's accounting). Seeking past a prefix means not paying for it.
  counters_.page_reads +=
      (flushed - start_pos + page_size_ - 1) / page_size_;
  return Status::Ok();
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::lower_bound(stable_index_.begin(), stable_index_.end(), lsn);
  if (it == stable_index_.end() || *it != lsn) {
    return Status::NotFound("no stable log record at " + std::to_string(lsn));
  }
  const Lsn next = (it + 1) == stable_index_.end()
                       ? flushed_bytes_.load(std::memory_order_relaxed)
                       : *(it + 1);
  // Charged like Scan: the frame's length in pages, rounded up.
  counters_.page_reads += (next - lsn + page_size_ - 1) / page_size_;
  return DecodeFrameLocked(lsn, next, out);
}

Status LogManager::WriteMaster(Lsn checkpoint_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (checkpoint_lsn < base_lsn_ ||
      checkpoint_lsn >= flushed_bytes_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("master record must name a stable record");
  }
  if (master_lsn_ == kInvalidLsn || master_lsn_ < checkpoint_lsn) {
    master_lsn_ = checkpoint_lsn;
  }
  master_written_ = true;
  counters_.page_writes += kCopies;
  obs::Inc(pages_flushed_counter_, kCopies);
  return Status::Ok();
}

Lsn LogManager::ReadMaster() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (master_written_) {
    ++counters_.page_reads;
  }
  return master_lsn_;
}

Status LogManager::Truncate(Lsn up_to) {
  std::unique_lock<std::mutex> lock(mu_);
  // A group-commit leader may have PUBLISHED its batch (flushed_bytes_
  // advanced) while still sleeping out the device latency: those records
  // are stable but their commits are not yet acknowledged. Truncating into
  // that window would erase records whose CommitFlush is still pending, so
  // wait for the watermark — the leader's wake-up advances
  // commit_durable_bytes_ to the published tail and clears flush_active_.
  cv_.wait(lock, [this] { return !flush_active_; });
  const uint64_t flushed = flushed_bytes_.load(std::memory_order_relaxed);
  if (up_to < base_lsn_ || up_to > flushed) {
    return Status::InvalidArgument("truncation point outside stable log");
  }
  // `up_to` must be a record boundary: the start of a stable record (index
  // lookup) or the end of the stable log.
  const auto it = std::lower_bound(stable_index_.begin(), stable_index_.end(),
                                   up_to);
  const bool is_boundary =
      up_to == flushed || (it != stable_index_.end() && *it == up_to);
  if (!is_boundary) {
    return Status::InvalidArgument("truncation point not a record boundary");
  }
  const size_t drop = up_to - base_lsn_;
  for (auto& copy : stable_) {
    copy.erase(copy.begin(), copy.begin() + drop);
  }
  stable_index_.erase(stable_index_.begin(), it);
  base_lsn_ = up_to;
  if (master_lsn_ != kInvalidLsn && master_lsn_ < up_to) {
    master_lsn_ = kInvalidLsn;  // Its checkpoint record is gone.
  }
  return Status::Ok();
}

void LogManager::AttachObs(obs::ObsHub* hub) {
  records_counter_ = obs::GetCounter(hub, "wal.records");
  bytes_counter_ = obs::GetCounter(hub, "wal.bytes_appended");
  forces_counter_ = obs::GetCounter(hub, "wal.forces");
  pages_flushed_counter_ = obs::GetCounter(hub, "wal.pages_flushed");
  batches_counter_ = obs::GetCounter(hub, "wal.group_commit_batches");
  batch_size_hist_ = obs::GetHistogram(hub, "wal.group_commit_batch_size",
                                       {1, 2, 4, 8, 16, 32});
  const std::vector<double> us_bounds = {10,   50,   100,   250,   500,
                                         1000, 2500, 5000,  10000, 25000};
  wait_hist_ = obs::GetHistogram(hub, "wal.group_commit_wait_us", us_bounds);
  leader_flush_hist_ =
      obs::GetHistogram(hub, "wal.group_commit_leader_flush_us", us_bounds);
  follower_wait_hist_ =
      obs::GetHistogram(hub, "wal.group_commit_follower_wait_us", us_bounds);
  flush_hist_ = obs::GetHistogram(
      hub, "wal.flush_us", {1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000});
  spans_ = obs::SpansOf(hub);
}

void LogManager::LoseVolatileState() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  pending_index_.clear();
  buffered_commits_ = 0;
  // Everything published survived the crash; the latency watermark is a
  // runtime accounting artifact, so it catches up to the stable tail.
  commit_durable_bytes_ = flushed_bytes_.load(std::memory_order_relaxed);
  next_lsn_.store(flushed_bytes_.load(std::memory_order_relaxed),
                  std::memory_order_release);
}

void LogManager::CorruptStableByteForTest(uint32_t copy, size_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (copy < stable_.size() && offset < stable_[copy].size()) {
    stable_[copy][offset] ^= 0xff;
  }
}

}  // namespace rda
