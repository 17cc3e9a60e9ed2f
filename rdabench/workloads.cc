// rdabench workloads. Every workload is a sequence of epochs, each with
//   1. a commit phase: `epoch_txns` closed-loop transactions from
//      `clients` threads against the public rda::Database facade;
//   2. a restart probe: one in-flight loser, Crash(), a timed Recover(),
//      the correctness gate, FailDisk(d) + a timed RebuildDisk(d), parity
//      verification, and an archive that truncates the log so every epoch
//      starts from a log of the same length.
// The workloads differ only in their WorkloadSpec (see FindWorkload).
#include "workloads.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_util.h"
#include "core/database.h"
#include "obs/export.h"
#include "storage/data_page_meta.h"
#include "txn/record_page.h"

namespace rdabench {

bool FindWorkload(const std::string& name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "force_uniform") {
    s.force = true;
    s.pages = tiny ? 1024 : 16384;
    s.buffer_frames = tiny ? 32 : 256;
    s.ops_per_txn = 4;
    s.epoch_txns = tiny ? 512 : 8192;
    s.loser_writes = 2 * s.buffer_frames;
    s.exact_epochs = 2;
  } else if (name == "noforce_skewed") {
    s.record_logging = true;
    s.force = false;
    s.pages = tiny ? 128 : 1024;
    s.buffer_frames = s.pages;
    s.clients = 2;
    s.ops_per_txn = 8;
    s.write_fraction = 0.2;
    s.zipf_theta = 0.99;
    s.abort_fraction = 0.05;
    s.checkpoint_every = tiny ? 256 : 4096;
    s.epoch_txns = tiny ? 1024 : 32768;
    s.loser_writes = 8;
  } else if (name == "crash_restart") {
    s.force = false;
    s.pages = tiny ? 512 : 8192;
    s.page_size = 2048;
    s.buffer_frames = tiny ? 32 : 256;
    s.ops_per_txn = 2;
    s.epoch_txns = tiny ? 256 : 4096;
    s.loser_writes = 2 * s.buffer_frames;
    s.exact_epochs = 8;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

namespace {

using rda::Database;
using rda::Status;

// Bulk-loaded items carry stamp item+1; transaction writes count up from
// here, so no write ever reproduces an initial value.
constexpr uint64_t kFirstWriteStamp = uint64_t{1} << 40;
constexpr uint32_t kMaxAttempts = 100000;
// Set-ups timed during an untraced run, besides the first; setup_s is the
// median. They are spread over the run so that a short stall on the host
// cannot slow most of them.
constexpr int kExtraSetups = 16;
// The epoch at whose end of commits rss_mb is taken: every run has at
// least 3 epochs. Taken at a fixed point, not at the end of the run,
// because the memory the allocator cannot hand back grows with run length
// by different amounts in runs of the same code.
constexpr uint64_t kRssEpoch = 2;

// Every engine counter a phase delta needs, read between phases.
struct Counters {
  Database::StatsSnapshot stats;
  std::vector<double> disk_busy_ms;
  rda::obs::MetricsSnapshot metrics;
};

Counters Take(Database* db) {
  Counters c;
  c.stats = db->Stats();
  for (rda::DiskId d = 0; d < db->array()->num_disks(); ++d) {
    c.disk_busy_ms.push_back(db->array()->disk(d)->busy_ms());
  }
  c.metrics = db->SnapshotMetrics();
  return c;
}

constexpr const char* kRegistryCounters[] = {
    "buffer.latch_waits", "parity.latch_waits",     "wal.bytes_appended",
    "wal.forces",         "exec.chunks",            "exec.parallel_fors",
    "io.submitted_writes", "io.physical_writes",    "io.coalesced_writes",
    "io.batched_parity_rmw", "io.cache_hits"};
constexpr const char* kRegistryHistograms[] = {"wal.flush_us",
                                               "parity.propagate_us"};

// Adds the counter deltas between two snapshots to `sums`, keyed by name.
void AddDeltas(const Counters& a, const Counters& b,
               std::map<std::string, double>* sums) {
  auto add = [sums](const std::string& key, double delta) {
    (*sums)[key] += delta;
  };
  const auto& x = a.stats;
  const auto& y = b.stats;
  add("commits", double(y.txn.committed - x.txn.committed));
  add("array.reads", double(y.array.page_reads - x.array.page_reads));
  add("array.writes", double(y.array.page_writes - x.array.page_writes));
  add("array.xor",
      double(y.array.xor_computations - x.array.xor_computations));
  add("log.transfers", double(y.log.total() - x.log.total()));
  add("array.busy_ms", y.array_total_busy_ms - x.array_total_busy_ms);
  add("buffer.hits", double(y.buffer.hits - x.buffer.hits));
  add("buffer.misses", double(y.buffer.misses - x.buffer.misses));
  add("buffer.evictions", double(y.buffer.evictions - x.buffer.evictions));
  add("buffer.steals", double(y.buffer.steals - x.buffer.steals));
  add("parity.unlogged_first",
      double(y.parity.unlogged_first - x.parity.unlogged_first));
  add("parity.unlogged_repeat",
      double(y.parity.unlogged_repeat - x.parity.unlogged_repeat));
  add("parity.logged_dirty_group",
      double(y.parity.logged_dirty_group - x.parity.logged_dirty_group));
  add("parity.plain", double(y.parity.plain - x.parity.plain));
  add("txn.bi_logged",
      double(y.txn.before_images_logged - x.txn.before_images_logged));
  add("txn.bi_avoided",
      double(y.txn.before_images_avoided - x.txn.before_images_avoided));
  for (const char* name : kRegistryCounters) {
    add(name, double(b.metrics.CounterValue(name) -
                     a.metrics.CounterValue(name)));
  }
  for (const char* name : kRegistryHistograms) {
    const auto* ha = a.metrics.FindHistogram(name);
    const auto* hb = b.metrics.FindHistogram(name);
    if (ha != nullptr && hb != nullptr) {
      add(std::string(name) + ".sum", hb->sum - ha->sum);
      add(std::string(name) + ".count", double(hb->count - ha->count));
    }
  }
}

double Per(double value, double base) { return base > 0 ? value / base : 0; }

double MaxDiskDelta(const Counters& a, const Counters& b) {
  double busiest = 0;
  for (size_t d = 0; d < a.disk_busy_ms.size(); ++d) {
    busiest = std::max(busiest, b.disk_busy_ms[d] - a.disk_busy_ms[d]);
  }
  return busiest;
}

struct ClientTally {
  uint64_t scripts = 0;   // Transactions attempted (retries not counted).
  uint64_t attempts = 0;  // Begin calls, retries included.
  uint64_t commits = 0;
  uint64_t busy = 0;      // kBusy retries.
};

// What one measured span of epochs accumulates.
struct Window {
  explicit Window(uint32_t clients, bool traced_calls)
      : traced(traced_calls),
        timers(clients + 1),
        tallies(clients),
        latency(clients) {}

  bool traced;  // Time every transaction call, not just Begin..Commit.
  // timers[c] for client c; the last entry is the main thread's.
  std::vector<CallTimers> timers;
  std::vector<ClientTally> tallies;
  // Begin..Commit of each committed transaction, retries included (us);
  // per client, emptied at the end of every commit phase.
  std::vector<std::vector<float>> latency;
  uint64_t latency_samples = 0;
  // Per commit phase: throughput and latency quantiles. The end-to-end
  // figures take the best decile of them (see AddMetrics).
  std::vector<double> epoch_tps, epoch_p50_us, epoch_p99_us;
  double thread_wall_s = 0;  // Wall time x threads running.
  std::map<std::string, double> commit;  // Commit-phase deltas.
  std::vector<double> commit_disk_busy_ms;
  std::map<std::string, double> probe;   // Restart-probe deltas.
  std::vector<double> restart_s, restart_transfers, restart_device_ms;
  std::vector<double> rebuild_s, rebuild_device_ms;
  std::map<std::string, double> recovery;  // Report sums over probes.
  uint64_t probes = 0;

  ClientTally Total() const {
    ClientTally t;
    for (const ClientTally& c : tallies) {
      t.scripts += c.scripts;
      t.attempts += c.attempts;
      t.commits += c.commits;
      t.busy += c.busy;
    }
    return t;
  }
};

struct Op {
  bool write = false;
  uint32_t item = 0;
  uint64_t stamp = 0;  // Value written (writes only).
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunConfig& config)
      : spec_(spec),
        config_(config),
        slots_(spec.record_logging
                   ? rda::RecordPageView::SlotsPerPage(spec.page_size,
                                                       spec.record_size)
                   : 1),
        items_(uint64_t{spec.pages} * slots_),
        zipf_(spec.zipf_theta > 0
                  ? std::make_unique<ZipfSampler>(items_, spec.zipf_theta)
                  : nullptr) {}

  RunResult Run();

 private:
  rda::DatabaseOptions Options() const;
  std::vector<std::vector<uint8_t>> InitialPages() const;
  std::unique_ptr<Database> TimedSetUp();
  void SetUp();
  uint64_t InputsDigest() const;
  uint32_t PickItem(Rng* rng) const;
  bool MakeScript(Rng* rng, std::vector<Op>* ops) const;
  void RunEpoch(uint64_t epoch, Window* w, Window* exact);
  void RunClient(uint32_t client, uint64_t epoch, std::atomic<int64_t>* quota,
                 Window* w);
  void RunTxn(std::vector<Op>* ops, bool abort_by_choice, CallTimers* timers,
              ClientTally* tally, std::vector<float>* latency,
              bool traced);
  void RunProbe(uint64_t epoch, Window* w, Window* exact);
  void RunWindow(Window* w, double seconds, uint64_t* epoch, Window* exact,
                 int extra_setups);
  void VerifyData(CallTimers* timers, const char* where);
  void Check(bool ok, const std::string& what);
  void Fail(const std::string& what);
  rda::PageId PageOf(uint32_t item) const { return item / slots_; }
  rda::RecordSlot SlotOf(uint32_t item) const { return item % slots_; }
  size_t ValueSize() const {
    return spec_.record_logging ? spec_.record_size : db_->user_page_size();
  }
  void AddMetrics(RunResult* result, const Window& w,
                  const Window& exact) const;
  void AddLayerMetrics(RunResult* result, const Window& t,
                       double untraced_tps) const;

  const WorkloadSpec spec_;
  const RunConfig config_;
  const uint32_t slots_;  // Items per page.
  const uint64_t items_;
  const std::unique_ptr<ZipfSampler> zipf_;
  std::unique_ptr<Database> db_;
  std::vector<std::vector<uint8_t>> initial_pages_;  // BulkLoad input.
  std::vector<double> setup_s_;
  double rss_mb_ = 0;  // Trimmed resident set at the end of kRssEpoch's commits.
  std::vector<uint32_t> hot_order_;  // Zipf rank -> item (fixed shuffle).
  // Committed stamp per item: the benchmark's own record of committed data.
  std::unique_ptr<std::atomic<uint64_t>[]> shadow_;
  std::atomic<uint64_t> next_stamp_{kFirstWriteStamp};
  std::atomic<uint64_t> commits_{0};  // For the checkpoint cadence.
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex errors_mu_;
  std::vector<std::string> errors_;
};

rda::DatabaseOptions Runner::Options() const {
  rda::DatabaseOptions o;
  o.array.data_pages_per_group = 8;
  o.array.parity_copies = 2;
  o.array.min_data_pages = spec_.pages;
  o.array.page_size = spec_.page_size;
  o.buffer.capacity = spec_.buffer_frames;
  o.txn.logging_mode = spec_.record_logging ? rda::LoggingMode::kRecordLogging
                                            : rda::LoggingMode::kPageLogging;
  o.txn.force = spec_.force;
  o.txn.rda_undo = true;
  o.txn.record_size = spec_.record_size;
  return o;
}

std::vector<std::vector<uint8_t>> Runner::InitialPages() const {
  const size_t user = spec_.page_size - rda::kDataRegionOffset;
  std::vector<std::vector<uint8_t>> pages(spec_.pages,
                                          std::vector<uint8_t>(user, 0));
  for (uint64_t item = 0; item < items_; ++item) {
    uint8_t* page = pages[PageOf(item)].data();
    if (spec_.record_logging) {
      FillValue(item + 1, page + SlotOf(item) * spec_.record_size,
                spec_.record_size);
    } else {
      FillValue(item + 1, page, user);
    }
  }
  return pages;
}

void Runner::Fail(const std::string& what) {
  failed_.fetch_add(1);
  stop_ = true;
  std::lock_guard<std::mutex> lock(errors_mu_);
  if (errors_.size() < 8) {
    errors_.push_back(what);
  }
}

void Runner::Check(bool ok, const std::string& what) {
  checks_.fetch_add(1);
  if (!ok) {
    Fail("check failed: " + what);
  }
}

uint32_t Runner::PickItem(Rng* rng) const {
  return zipf_ != nullptr ? hot_order_[zipf_->Sample(rng)]
                          : static_cast<uint32_t>(rng->Uniform(items_));
}

// Draws one transaction's script; returns whether it aborts by choice.
// Page-logging scripts write distinct pages.
bool Runner::MakeScript(Rng* rng, std::vector<Op>* ops) const {
  ops->assign(spec_.ops_per_txn, Op{});
  for (size_t i = 0; i < ops->size(); ++i) {
    Op& op = (*ops)[i];
    op.write = rng->Unit() < spec_.write_fraction;
    bool duplicate = true;
    while (duplicate) {
      op.item = PickItem(rng);
      duplicate = false;
      for (size_t j = 0; j < i && !spec_.record_logging; ++j) {
        duplicate |= (*ops)[j].item == op.item;
      }
    }
  }
  return rng->Unit() < spec_.abort_fraction;
}

uint64_t Runner::InputsDigest() const {
  // The first scripts of client 0 in epoch 0 plus the hot-item order: a
  // different seed must change them.
  Rng rng(Mix(config_.seed, 0));
  uint64_t digest = 0;
  std::vector<Op> ops;
  for (int t = 0; t < 256; ++t) {
    const bool abort = MakeScript(&rng, &ops);
    for (const Op& op : ops) {
      digest = Mix(digest, (uint64_t{op.item} << 1) | op.write);
    }
    digest = Mix(digest, abort);
  }
  for (size_t i = 0; i < std::min<size_t>(hot_order_.size(), 64); ++i) {
    digest = Mix(digest, hot_order_[i]);
  }
  return digest;
}

void Runner::SetUp() {
  if (zipf_ != nullptr) {
    hot_order_.resize(items_);
    for (uint32_t i = 0; i < items_; ++i) {
      hot_order_[i] = i;
    }
    // A fixed layout of hot items; the seed drives only the request
    // stream, so runs at different seeds contend on the same pages.
    Rng rng(0x5eed);
    for (size_t i = items_ - 1; i > 0; --i) {
      std::swap(hot_order_[i], hot_order_[rng.Uniform(i + 1)]);
    }
  }
  shadow_ = std::make_unique<std::atomic<uint64_t>[]>(items_);
  for (uint64_t item = 0; item < items_; ++item) {
    shadow_[item] = item + 1;
  }
}

void Runner::RunTxn(std::vector<Op>* ops, bool abort_by_choice,
                    CallTimers* timers, ClientTally* tally,
                    std::vector<float>* latency, bool traced) {
  auto call = [&](int kind, auto&& fn) {
    return traced ? timers->Time(kind, fn) : fn();
  };
  std::vector<uint8_t> value(ValueSize());
  std::vector<uint8_t> read;
  std::vector<uint64_t> previous(ops->size());
  for (Op& op : *ops) {
    if (op.write) {
      op.stamp = next_stamp_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ++tally->scripts;
  const uint64_t start = NowNs();
  for (uint32_t attempt = 0; attempt < kMaxAttempts && !stop_; ++attempt) {
    ++tally->attempts;
    auto begun = call(kBegin, [&] { return db_->Begin(); });
    if (!begun.ok()) {
      Fail("Begin: " + begun.status().ToString());
      return;
    }
    const rda::TxnId txn = *begun;
    Status s = Status::Ok();
    for (size_t i = 0; i < ops->size() && s.ok(); ++i) {
      const Op& op = (*ops)[i];
      const rda::PageId page = PageOf(op.item);
      if (op.write) {
        FillValue(op.stamp, value.data(), value.size());
        s = call(kWrite, [&] {
          return spec_.record_logging
                     ? db_->WriteRecord(txn, page, SlotOf(op.item), value)
                     : db_->WritePage(txn, page, value);
        });
        continue;
      }
      s = call(kRead, [&] {
        return spec_.record_logging
                   ? db_->ReadRecord(txn, page, SlotOf(op.item), &read)
                   : db_->ReadPage(txn, page, &read);
      });
      if (s.ok()) {
        // Under the read lock the item holds the last committed stamp,
        // or this transaction's own earlier write.
        uint64_t expected = shadow_[op.item].load();
        for (size_t j = 0; j < i; ++j) {
          if ((*ops)[j].write && (*ops)[j].item == op.item) {
            expected = (*ops)[j].stamp;
          }
        }
        if (read.size() != value.size() ||
            !ValueMatches(expected, read.data(), read.size())) {
          Fail("read of item " + std::to_string(op.item) +
               " does not match the last committed write");
        }
      }
    }
    if (s.ok() && abort_by_choice) {
      const Status a = call(kAbort, [&] { return db_->Abort(txn); });
      if (!a.ok()) {
        Fail("Abort: " + a.ToString());
      }
      return;
    }
    if (s.ok()) {
      // Publish before Commit: the write locks are still held, so no other
      // client can read or overwrite these items until Commit returns.
      for (size_t i = 0; i < ops->size(); ++i) {
        if ((*ops)[i].write) {
          previous[i] = shadow_[(*ops)[i].item].exchange((*ops)[i].stamp);
        }
      }
      s = call(kCommit, [&] { return db_->Commit(txn); });
      if (s.ok()) {
        ++tally->commits;
        latency->push_back(static_cast<float>(NowNs() - start) / 1000.0f);
        if (spec_.checkpoint_every != 0 &&
            (commits_.fetch_add(1) + 1) % spec_.checkpoint_every == 0) {
          // A checkpoint that meets the other client mid-commit reports
          // kBusy; it is retried, and its time includes the retries.
          const Status c = timers->Time(kCheckpoint, [&] {
            Status status = db_->Checkpoint();
            for (uint32_t i = 0; status.IsBusy() && i < kMaxAttempts; ++i) {
              std::this_thread::yield();
              status = db_->Checkpoint();
            }
            return status;
          });
          if (!c.ok()) {
            Fail("Checkpoint: " + c.ToString());
          }
        }
        return;
      }
      for (size_t i = ops->size(); i-- > 0;) {
        if ((*ops)[i].write) {
          shadow_[(*ops)[i].item] = previous[i];
        }
      }
    }
    const Status a = call(kAbort, [&] { return db_->Abort(txn); });
    if (!s.IsBusy() || !a.ok()) {
      Fail("transaction: " + s.ToString() + " / abort: " + a.ToString());
      return;
    }
    ++tally->busy;
    std::this_thread::yield();
  }
  if (!stop_) {
    Fail("transaction livelocked");
  }
}

void Runner::RunClient(uint32_t client, uint64_t epoch,
                       std::atomic<int64_t>* quota, Window* w) {
  Rng rng(Mix(config_.seed, epoch * 64 + client));
  std::vector<Op> ops;
  while (!stop_ && quota->fetch_sub(1) > 0) {
    const bool abort = MakeScript(&rng, &ops);
    RunTxn(&ops, abort, &w->timers[client], &w->tallies[client],
           &w->latency[client], w->traced);
  }
}

void Runner::VerifyData(CallTimers* timers, const char* where) {
  bool ok = true;
  uint64_t bad_item = 0;
  timers->Time(kReadBack, [&] {
    std::vector<uint8_t> record;
    for (rda::PageId page = 0; page < spec_.pages && ok; ++page) {
      auto payload = db_->RawReadPage(page);
      if (!payload.ok()) {
        ok = false;
        bad_item = uint64_t{page} * slots_;
        break;
      }
      rda::RecordPageView view(&*payload, spec_.record_size);
      for (uint32_t slot = 0; slot < slots_ && ok; ++slot) {
        const uint64_t item = uint64_t{page} * slots_ + slot;
        const uint8_t* bytes = payload->data() + rda::kDataRegionOffset;
        if (spec_.record_logging) {
          ok = view.Read(slot, &record).ok();
          bytes = record.data();
        }
        ok = ok && ValueMatches(shadow_[item].load(), bytes, ValueSize());
        bad_item = item;
      }
    }
    return 0;
  });
  Check(ok, std::string("committed data ") + where + " (item " +
                std::to_string(bad_item) + ")");
}

void Runner::RunProbe(uint64_t epoch, Window* w, Window* exact) {
  CallTimers& timers = w->timers.back();
  Rng rng(Mix(config_.seed, epoch * 64 + 63));

  // The loser: its writes are never published to the shadow, so the gate
  // below demands their pre-images back.
  auto begun = db_->Begin();
  if (!begun.ok()) {
    Fail("loser Begin: " + begun.status().ToString());
    return;
  }
  std::vector<uint8_t> value(ValueSize());
  std::vector<uint8_t> written(items_, 0);
  for (uint32_t i = 0; i < spec_.loser_writes && i < items_; ++i) {
    uint32_t item = PickItem(&rng);
    while (!spec_.record_logging && written[item]) {
      item = PickItem(&rng);
    }
    written[item] = 1;
    FillValue(next_stamp_.fetch_add(1), value.data(), value.size());
    const Status s =
        spec_.record_logging
            ? db_->WriteRecord(*begun, PageOf(item), SlotOf(item), value)
            : db_->WritePage(*begun, PageOf(item), value);
    if (!s.ok()) {
      Fail("loser write: " + s.ToString());
      return;
    }
  }
  timers.Time(kCrash, [&] {
    db_->Crash();
    return 0;
  });

  Counters before = Take(db_.get());
  uint64_t start = NowNs();
  auto report = timers.Time(kRecover, [&] { return db_->Recover(); });
  const double restart_s = double(NowNs() - start) / 1e9;
  Counters after = Take(db_.get());
  if (!report.ok()) {
    Fail("Recover: " + report.status().ToString());
    return;
  }
  const double restart_transfers =
      double(after.stats.array.total() + after.stats.log.total() -
             before.stats.array.total() - before.stats.log.total());
  const double restart_device_ms = MaxDiskDelta(before, after);
  VerifyData(&timers, "after restart");

  const rda::DiskId disk =
      static_cast<rda::DiskId>(rng.Uniform(db_->array()->num_disks()));
  before = Take(db_.get());
  double rebuild_s = 0;
  auto rebuilt = timers.Time(kFailRebuild, [&] {
    const Status f = db_->FailDisk(disk);
    if (!f.ok()) {
      return rda::Result<rda::MediaRecoveryReport>(f);
    }
    const uint64_t t0 = NowNs();
    auto r = db_->RebuildDisk(disk);
    rebuild_s = double(NowNs() - t0) / 1e9;
    return r;
  });
  after = Take(db_.get());
  if (!rebuilt.ok()) {
    Fail("FailDisk/RebuildDisk: " + rebuilt.status().ToString());
    return;
  }
  const double rebuild_device_ms = MaxDiskDelta(before, after);
  // Taken here rather than from MediaRecoveryReport::phases, which the
  // quiescent RebuildDisk returns empty.
  const double rebuild_transfers =
      double(after.stats.array.total() - before.stats.array.total());
  auto parity = timers.Time(kVerifyParity, [&] { return db_->VerifyAllParity(); });
  Check(parity.ok() && *parity, "VerifyAllParity after rebuild");
  VerifyData(&timers, "after rebuild");

  for (Window* win : {w, exact}) {
    if (win == nullptr) {
      continue;
    }
    ++win->probes;
    win->restart_s.push_back(restart_s);
    win->restart_transfers.push_back(restart_transfers);
    win->restart_device_ms.push_back(restart_device_ms);
    win->rebuild_s.push_back(rebuild_s);
    win->rebuild_device_ms.push_back(rebuild_device_ms);
    auto& r = win->recovery;
    for (const auto& phase : report->phases) {
      const std::string name = rda::obs::RecoveryPhaseName(phase.phase);
      r[name + ".ms"] += phase.wall_ms;
      r[name + ".transfers"] += double(phase.page_transfers);
    }
    r["redo_applied"] += double(report->redo_applied);
    r["redo_skipped"] += double(report->redo_skipped);
    r["parity_undos"] += double(report->parity_undos);
    r["logged_undos"] += double(report->logged_undos);
    r["rebuild.pages"] +=
        double(rebuilt->data_pages_rebuilt + rebuilt->parity_pages_rebuilt);
    r["rebuild.transfers"] += rebuild_transfers;
    r["rebuild.ms"] += rebuild_s * 1e3;
  }

  // Truncate the log so the next epoch's restart scans one epoch of log.
  const Status archived =
      timers.Time(kArchive, [&] { return db_->TakeArchive(true); });
  if (!archived.ok()) {
    Fail("TakeArchive: " + archived.ToString());
  }
}

void Runner::RunEpoch(uint64_t epoch, Window* w, Window* exact) {
  // The checkpoint cadence restarts with every epoch, so each restart probe
  // finds about the same number of commits since the last checkpoint and
  // every Recover() of a run does about the same work.
  commits_ = 0;
  const Counters before = Take(db_.get());
  const uint64_t start = NowNs();
  std::atomic<int64_t> quota{static_cast<int64_t>(spec_.epoch_txns)};
  if (spec_.clients == 1) {
    RunClient(0, epoch, &quota, w);
  } else {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      clients.emplace_back([this, c, epoch, &quota, w] {
        RunClient(c, epoch, &quota, w);
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }
  const double commit_s = double(NowNs() - start) / 1e9;
  std::vector<double> latency;
  for (std::vector<float>& client : w->latency) {
    latency.insert(latency.end(), client.begin(), client.end());
    client.clear();
  }
  w->latency_samples += latency.size();
  w->epoch_tps.push_back(Per(double(latency.size()), commit_s));
  w->epoch_p50_us.push_back(Quantile(latency, 0.50));
  w->epoch_p99_us.push_back(Quantile(latency, 0.99));
  if (epoch == kRssEpoch) {
    rss_mb_ = TrimmedRssMb();
  }
  const Counters after = Take(db_.get());
  for (Window* win : {w, exact}) {
    if (win == nullptr) {
      continue;
    }
    win->thread_wall_s += commit_s * spec_.clients;
    AddDeltas(before, after, &win->commit);
    win->commit_disk_busy_ms.resize(before.disk_busy_ms.size(), 0.0);
    for (size_t d = 0; d < before.disk_busy_ms.size(); ++d) {
      win->commit_disk_busy_ms[d] +=
          after.disk_busy_ms[d] - before.disk_busy_ms[d];
    }
  }
  if (stop_) {
    return;
  }
  const Counters probe_before = Take(db_.get());
  const uint64_t probe_start = NowNs();
  RunProbe(epoch, w, exact);
  const double probe_s = double(NowNs() - probe_start) / 1e9;
  const Counters probe_after = Take(db_.get());
  w->thread_wall_s += probe_s;
  AddDeltas(probe_before, probe_after, &w->probe);
}

// Set-up is Open + BulkLoad; returns null after a failure.
std::unique_ptr<Database> Runner::TimedSetUp() {
  const uint64_t start = NowNs();
  auto db = Database::Open(Options());
  if (!db.ok()) {
    Fail("Open: " + db.status().ToString());
    return nullptr;
  }
  const Status loaded = (*db)->BulkLoad(initial_pages_);
  setup_s_.push_back(double(NowNs() - start) / 1e9);
  if (!loaded.ok()) {
    Fail("BulkLoad: " + loaded.ToString());
    return nullptr;
  }
  return std::move(*db);
}

// Runs epochs for `seconds` (at least max(exact_epochs, 3) of them). The
// first exact_epochs epochs of the run also feed `exact`, when given.
// Between epochs it times `extra_setups` throwaway set-ups, evenly spaced.
void Runner::RunWindow(Window* w, double seconds, uint64_t* epoch,
                       Window* exact, int extra_setups) {
  const uint64_t start = NowNs();
  const uint64_t min_epochs = std::max<uint64_t>(spec_.exact_epochs, 3);
  auto elapsed = [start] { return double(NowNs() - start) / 1e9; };
  int setups = 0;
  for (uint64_t done = 0; !stop_ && (done < min_epochs || elapsed() < seconds);
       ++done, ++*epoch) {
    RunEpoch(*epoch, w,
             exact != nullptr && *epoch < spec_.exact_epochs ? exact : nullptr);
    if (setups < extra_setups &&
        elapsed() >= seconds * (setups + 1) / (extra_setups + 1)) {
      TimedSetUp();
      ++setups;
    }
  }
  while (!stop_ && setups++ < extra_setups) {
    TimedSetUp();
  }
}

CallStats Merged(const Window& w, int call, std::vector<double>* sample) {
  CallStats merged;
  for (const CallTimers& timers : w.timers) {
    merged.count += timers.calls[call].count;
    merged.total_ns += timers.calls[call].total_ns;
    timers.calls[call].sample.AppendTo(sample);
  }
  return merged;
}

// Wall-clock figures take the best decile of a run's epochs or probes.
// Other load on the host only ever slows an epoch or a probe, and those of
// one run do about the same work, so the best decile tracks the code's own
// speed; medians moved by up to a quarter between sets of runs of the same
// code on a shared host.
constexpr double kBestDecile = 0.10;

double CommitTps(const Window& w) {
  return Quantile(w.epoch_tps, 1 - kBestDecile);
}

void Runner::AddMetrics(RunResult* result, const Window& w,
                        const Window& exact) const {
  // Transfer and device counts come from the exact window when the
  // workload has one: those epochs repeat exactly at a fixed seed.
  const Window& counted = spec_.exact_epochs > 0 ? exact : w;
  auto c = [&counted](const std::string& key) {
    const auto it = counted.commit.find(key);
    return it == counted.commit.end() ? 0.0 : it->second;
  };
  const double commits = c("commits");
  result->latency_samples = w.latency_samples;
  double busiest = 0;
  for (const double busy : counted.commit_disk_busy_ms) {
    busiest = std::max(busiest, busy);
  }
  auto& m = result->end_to_end;
  m.push_back({"setup_s", Median(setup_s_), "s"});
  m.push_back({"commit_tps", CommitTps(w), "1/s"});
  m.push_back({"txn_p50_us", Quantile(w.epoch_p50_us, kBestDecile), "us"});
  m.push_back({"txn_p99_us", Quantile(w.epoch_p99_us, kBestDecile), "us"});
  m.push_back({"transfers_per_txn",
               Per(c("array.reads") + c("array.writes") + c("log.transfers"),
                   commits),
               "count"});
  m.push_back({"device_ms_per_txn", Per(c("array.busy_ms"), commits), "sim_ms"});
  m.push_back({"device_tps", Per(commits, busiest / 1000.0), "1/sim_s"});
  m.push_back({"restart_s", Quantile(w.restart_s, kBestDecile), "s"});
  m.push_back({"restart_transfers", Mean(counted.restart_transfers), "count"});
  m.push_back({"restart_device_ms", Mean(counted.restart_device_ms), "sim_ms"});
  m.push_back({"rebuild_s", Quantile(w.rebuild_s, kBestDecile), "s"});
  m.push_back({"rebuild_device_ms", Mean(counted.rebuild_device_ms), "sim_ms"});
  m.push_back({"rss_mb", rss_mb_, "MB"});
}

void Runner::AddLayerMetrics(RunResult* result, const Window& t,
                             double untraced_tps) const {
  auto c = [&t](const std::string& key) {
    const auto it = t.commit.find(key);
    return it == t.commit.end() ? 0.0 : it->second;
  };
  auto p = [&t](const std::string& key) {
    const auto it = t.probe.find(key);
    return it == t.probe.end() ? 0.0 : it->second;
  };
  auto rec = [&t](const std::string& key) {
    const auto it = t.recovery.find(key);
    return Per(it == t.recovery.end() ? 0.0 : it->second, double(t.probes));
  };
  const double commits = c("commits");
  const ClientTally tally = t.Total();
  auto& m = result->per_layer;

  double covered_ns = 0;
  for (int call = 0; call < kNumCalls; ++call) {
    std::vector<double> sample;
    const CallStats stats = Merged(t, call, &sample);
    covered_ns += double(stats.total_ns);
    if (call <= kAbort) {
      const std::string name = std::string("txn.") + CallName(call);
      m.push_back({name + "_us", Median(sample), "us"});
      m.push_back({name + "_share", Per(stats.total_ns / 1e9, t.thread_wall_s),
                   "ratio"});
    } else if (call == kCheckpoint) {
      m.push_back({"ckpt.count", double(stats.count), "count"});
      m.push_back({"ckpt.us", Per(stats.total_ns / 1e3, stats.count), "us"});
      m.push_back({"ckpt.share", Per(stats.total_ns / 1e9, t.thread_wall_s),
                   "ratio"});
    } else if (call == kRecover) {
      m.push_back({"recovery.recover_ms", Per(stats.total_ns / 1e6, stats.count),
                   "ms"});
    } else if (call == kFailRebuild) {
      m.push_back({"rebuild.fail_rebuild_ms",
                   Per(stats.total_ns / 1e6, stats.count), "ms"});
    } else if (call == kVerifyParity) {
      m.push_back({"verify.parity_ms", Per(stats.total_ns / 1e6, stats.count),
                   "ms"});
    }
  }
  m.push_back({"txn.latency_samples", double(t.latency_samples), "count"});
  m.push_back({"txn.before_images_logged_per_txn", Per(c("txn.bi_logged"), commits),
               "count"});
  m.push_back({"txn.before_images_avoided_per_txn",
               Per(c("txn.bi_avoided"), commits), "count"});

  m.push_back({"lock.busy_per_commit", Per(double(tally.busy), commits), "count"});
  m.push_back({"lock.useful_attempt_ratio",
               Per(double(tally.commits), double(tally.attempts)), "ratio"});

  m.push_back({"buffer.hit_ratio",
               Per(c("buffer.hits"), c("buffer.hits") + c("buffer.misses")),
               "ratio"});
  m.push_back({"buffer.evictions_per_txn", Per(c("buffer.evictions"), commits),
               "count"});
  m.push_back({"buffer.steals_per_txn", Per(c("buffer.steals"), commits), "count"});
  m.push_back({"buffer.latch_waits", c("buffer.latch_waits"), "count"});

  m.push_back({"wal.bytes_per_txn", Per(c("wal.bytes_appended"), commits), "B"});
  m.push_back({"wal.forces_per_txn", Per(c("wal.forces"), commits), "count"});
  m.push_back({"wal.flush_us_sum", c("wal.flush_us.sum"), "us"});
  m.push_back({"wal.flush_us_mean",
               Per(c("wal.flush_us.sum"), c("wal.flush_us.count")), "us"});
  m.push_back({"log.transfers_per_txn", Per(c("log.transfers"), commits), "count"});

  for (const char* kind :
       {"unlogged_first", "unlogged_repeat", "logged_dirty_group", "plain"}) {
    m.push_back({std::string("parity.") + kind + "_per_txn",
                 Per(c(std::string("parity.") + kind), commits), "count"});
  }
  m.push_back({"parity.propagate_us_mean",
               Per(c("parity.propagate_us.sum"), c("parity.propagate_us.count")),
               "us"});
  m.push_back({"parity.propagate_us_per_txn",
               Per(c("parity.propagate_us.sum"), commits), "us"});
  m.push_back({"parity.latch_waits", c("parity.latch_waits"), "count"});
  m.push_back({"parity.parity_undos", rec("parity_undos"), "count"});
  m.push_back({"parity.logged_undos", rec("logged_undos"), "count"});

  double busy_sum = 0;
  double busy_max = 0;
  for (const double busy : t.commit_disk_busy_ms) {
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  m.push_back({"storage.reads_per_txn", Per(c("array.reads"), commits), "count"});
  m.push_back({"storage.writes_per_txn", Per(c("array.writes"), commits), "count"});
  m.push_back({"storage.xor_per_txn", Per(c("array.xor"), commits), "count"});
  m.push_back({"storage.disk_imbalance",
               Per(busy_max * double(t.commit_disk_busy_ms.size()), busy_sum),
               "ratio"});

  for (const char* phase :
       {"directory_rebuild", "analysis", "roll_forward", "chain_audit",
        "logged_undo", "parity_undo", "redo", "loser_resolution"}) {
    const std::string name = std::string("recovery.") + phase;
    m.push_back({name + ".ms", rec(std::string(phase) + ".ms"), "ms"});
    m.push_back({name + ".transfers", rec(std::string(phase) + ".transfers"),
                 "count"});
  }
  const double applied = rec("redo_applied");
  m.push_back({"recovery.redo_useful_ratio",
               Per(applied, applied + rec("redo_skipped")), "ratio"});
  m.push_back({"rebuild.pages", rec("rebuild.pages"), "count"});
  m.push_back({"rebuild.transfers", rec("rebuild.transfers"), "count"});
  m.push_back({"rebuild.ms", rec("rebuild.ms"), "ms"});

  for (const char* name :
       {"exec.chunks", "exec.parallel_fors", "io.submitted_writes",
        "io.physical_writes", "io.coalesced_writes", "io.batched_parity_rmw",
        "io.cache_hits"}) {
    m.push_back({name, c(name) + p(name), "count"});
  }
  m.push_back({"trace.tps_ratio", Per(CommitTps(t), untraced_tps), "ratio"});
  m.push_back({"trace.coverage", Per(covered_ns / 1e9, t.thread_wall_s), "ratio"});

  // Group the table by layer, in stack order.
  static const std::vector<std::string> kLayers = {
      "txn", "lock", "buffer", "wal", "log", "parity", "storage", "ckpt",
      "recovery", "rebuild", "verify", "exec", "io", "trace"};
  auto layer = [](const Metric& metric) {
    const std::string prefix = metric.name.substr(0, metric.name.find('.'));
    return std::find(kLayers.begin(), kLayers.end(), prefix) - kLayers.begin();
  };
  std::stable_sort(m.begin(), m.end(), [&](const Metric& a, const Metric& b) {
    return layer(a) < layer(b);
  });
}

RunResult Runner::Run() {
  RunResult result;
  SetUp();
  result.inputs_digest = InputsDigest();

  initial_pages_ = InitialPages();
  db_ = TimedSetUp();

  uint64_t epoch = 0;
  Window measured(spec_.clients, false);
  Window exact(spec_.clients, false);
  Window traced(spec_.clients, true);
  if (db_ != nullptr) {
    if (!config_.trace) {
      RunWindow(&measured, config_.seconds, &epoch, &exact, kExtraSetups);
    } else {
      // Untraced half first (its commit_tps is the overhead baseline).
      RunWindow(&measured, config_.seconds / 2, &epoch, nullptr, 0);
      RunWindow(&traced, config_.seconds / 2, &epoch, nullptr, 0);
    }
  }
  result.epochs = epoch;
  AddMetrics(&result, measured, exact);
  if (config_.trace) {
    AddLayerMetrics(&result, traced, CommitTps(measured));
  }

  uint64_t probes = measured.probes + traced.probes;
  result.attempted = measured.Total().scripts + traced.Total().scripts +
                     2 * probes + checks_.load();
  result.failed = failed_.load();
  result.correct = result.failed == 0 && db_ != nullptr;
  result.errors = errors_;
  return result;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunConfig& config) {
  Runner runner(spec, config);
  return runner.Run();
}

}  // namespace rdabench
