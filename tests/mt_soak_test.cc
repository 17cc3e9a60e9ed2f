// Multi-threaded soak of the concurrent engine: N writer threads with
// randomized aborts, end-state equivalence against a serial replay of the
// same scripts, crash+recover on the concurrent end state, scripted
// transient faults under RunConcurrent (with the retry-reclassification
// invariant of the I/O counters), a crash landing inside the group-commit
// latency window, and evidence that group commit actually batches.
//
// This file is the primary TSan target: the CI thread-sanitizer job runs
// it alongside the unit tests (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"

namespace rda {
namespace {

struct MtCase {
  bool force;
  bool rda;
};

std::string CaseName(const ::testing::TestParamInfo<MtCase>& info) {
  return std::string(info.param.force ? "Force" : "NoForce") +
         (info.param.rda ? "Rda" : "NoRda");
}

constexpr uint32_t kThreads = 4;
constexpr uint32_t kPages = 64;
constexpr uint32_t kTxnsPerThread = 30;

DatabaseOptions MakeOptions(bool force, bool rda) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = kPages;
  options.array.page_size = 128;
  options.buffer.capacity = 24;  // Smaller than kPages: evictions happen.
  options.buffer.shards = 4;
  options.txn.force = force;
  options.txn.rda_undo = rda;
  if (!force) {
    options.checkpoint_interval_updates = 64;
  }
  return options;
}

// One scripted operation / transaction / per-thread program. Scripts are
// drawn up front so the concurrent run and the serial replay execute the
// exact same work, and so Busy-triggered retries replay identical writes.
struct ScriptedTxn {
  std::vector<std::pair<PageId, uint8_t>> writes;
  bool abort = false;
};

std::vector<std::vector<ScriptedTxn>> DrawScripts(uint64_t seed) {
  std::vector<std::vector<ScriptedTxn>> scripts(kThreads);
  for (uint32_t worker = 0; worker < kThreads; ++worker) {
    Random rng(seed + worker * 1000003);
    // Disjoint page partition per thread: the final value of every page is
    // then determined by its owner's program order alone, making the
    // concurrent end state deterministic and serially replayable.
    const PageId base = worker * (kPages / kThreads);
    scripts[worker].resize(kTxnsPerThread);
    for (ScriptedTxn& txn : scripts[worker]) {
      const int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int op = 0; op < ops; ++op) {
        const PageId page =
            base + static_cast<PageId>(rng.Uniform(kPages / kThreads));
        const uint8_t fill = static_cast<uint8_t>(rng.UniformRange(1, 250));
        txn.writes.emplace_back(page, fill);
      }
      txn.abort = rng.Bernoulli(0.25);
    }
  }
  return scripts;
}

// Executes one worker's program. Busy outcomes (lock conflicts, eviction
// hitting a mid-EOT frame) abort and replay the scripted transaction.
void RunScript(Database* db, const std::vector<ScriptedTxn>& script,
               std::atomic<bool>* failed) {
  std::vector<uint8_t> bytes(db->user_page_size());
  for (const ScriptedTxn& scripted : script) {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      auto txn = db->Begin();
      if (!txn.ok()) {
        failed->store(true);
        return;
      }
      bool busy = false;
      for (const auto& [page, fill] : scripted.writes) {
        std::fill(bytes.begin(), bytes.end(), fill);
        const Status status = db->WritePage(*txn, page, bytes);
        if (status.IsBusy()) {
          busy = true;
          break;
        }
        if (!status.ok()) {
          failed->store(true);
          return;
        }
      }
      if (busy || scripted.abort) {
        if (!db->Abort(*txn).ok()) {
          failed->store(true);
          return;
        }
        if (busy) {
          std::this_thread::yield();
          continue;  // Replay the scripted transaction.
        }
        break;  // Scripted abort: move on.
      }
      const Status status = db->Commit(*txn);
      if (status.IsBusy()) {
        if (!db->Abort(*txn).ok()) {
          failed->store(true);
          return;
        }
        std::this_thread::yield();
        continue;
      }
      if (!status.ok()) {
        failed->store(true);
        return;
      }
      break;
    }
  }
}

class MtSoakTest : public ::testing::TestWithParam<MtCase> {};

// The tentpole end-to-end property: N concurrent writers with randomized
// aborts leave the database in EXACTLY the state a serial execution of the
// same scripts leaves it in — and that state survives a crash.
TEST_P(MtSoakTest, ConcurrentWritersMatchSerialEndState) {
  const auto scripts = DrawScripts(GetParam().force * 2 + GetParam().rda + 7);

  auto concurrent_db =
      Database::Open(MakeOptions(GetParam().force, GetParam().rda));
  ASSERT_TRUE(concurrent_db.ok());
  std::atomic<bool> failed{false};
  {
    std::vector<std::thread> workers;
    for (uint32_t w = 0; w < kThreads; ++w) {
      workers.emplace_back(RunScript, concurrent_db->get(), scripts[w],
                           &failed);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  ASSERT_FALSE(failed.load());

  auto serial_db =
      Database::Open(MakeOptions(GetParam().force, GetParam().rda));
  ASSERT_TRUE(serial_db.ok());
  for (uint32_t w = 0; w < kThreads; ++w) {
    RunScript(serial_db->get(), scripts[w], &failed);
  }
  ASSERT_FALSE(failed.load());

  // Phase 1: logical equivalence, read through the engine (in NOFORCE
  // configurations committed content may still live in the buffer pool).
  {
    auto concurrent_reader = (*concurrent_db)->Begin();
    auto serial_reader = (*serial_db)->Begin();
    ASSERT_TRUE(concurrent_reader.ok() && serial_reader.ok());
    std::vector<uint8_t> concurrent_bytes;
    std::vector<uint8_t> serial_bytes;
    for (PageId page = 0; page < kPages; ++page) {
      ASSERT_TRUE((*concurrent_db)
                      ->ReadPage(*concurrent_reader, page, &concurrent_bytes)
                      .ok());
      ASSERT_TRUE(
          (*serial_db)->ReadPage(*serial_reader, page, &serial_bytes).ok());
      ASSERT_EQ(concurrent_bytes, serial_bytes)
          << "after concurrent run, page " << page;
    }
    ASSERT_TRUE((*concurrent_db)->Commit(*concurrent_reader).ok());
    ASSERT_TRUE((*serial_db)->Commit(*serial_reader).ok());
    auto parity_ok = (*concurrent_db)->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    ASSERT_TRUE(*parity_ok) << "after concurrent run";
  }

  // Phase 2: the committed end state must survive a crash — of both
  // engines, so the durable states are directly comparable.
  (*concurrent_db)->Crash();
  ASSERT_TRUE((*concurrent_db)->Recover().ok());
  (*serial_db)->Crash();
  ASSERT_TRUE((*serial_db)->Recover().ok());
  for (PageId page = 0; page < kPages; ++page) {
    auto concurrent_payload = (*concurrent_db)->RawReadPage(page);
    auto serial_payload = (*serial_db)->RawReadPage(page);
    ASSERT_TRUE(concurrent_payload.ok() && serial_payload.ok());
    // Compare the user data region only: the metadata prefix (stamping txn
    // id, page LSN) legitimately depends on scheduling — Busy-triggered
    // retries consume txn ids and LSNs the serial replay never draws.
    const std::vector<uint8_t> concurrent_data(
        concurrent_payload->begin() + kDataRegionOffset,
        concurrent_payload->end());
    const std::vector<uint8_t> serial_data(
        serial_payload->begin() + kDataRegionOffset, serial_payload->end());
    ASSERT_EQ(concurrent_data, serial_data)
        << "after crash+recover, page " << page;
  }
  auto parity_ok = (*concurrent_db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  ASSERT_TRUE(*parity_ok) << "after crash+recover";
}

INSTANTIATE_TEST_SUITE_P(Sweep, MtSoakTest,
                         ::testing::Values(MtCase{true, true},
                                           MtCase{true, false},
                                           MtCase{false, true},
                                           MtCase{false, false}),
                         CaseName);

// Scripted transient faults under the built-in concurrent workload: every
// transaction must still commit (retries absorb the faults), parity must
// verify, and — the retry-reclassification regression — the LOGICAL
// transfer counters must be identical to a fault-free run of the same
// deterministic workload, with the extra attempts showing up only in
// io_retries. Before the fix, each retried read double-counted as another
// logical page read.
TEST(MtSoakFaultTest, TransientFaultsRetrySafelyAndCountOnlyAsRetries) {
  ConcurrentWorkload workload;
  workload.threads = 1;  // Single worker: the access trace is deterministic.
  workload.txns_per_thread = 60;
  workload.ops_per_txn = 3;
  workload.pages = kPages;
  workload.seed = 42;

  auto run = [&](bool with_faults, IoCounters* counters) {
    DatabaseOptions options = MakeOptions(/*force=*/true, /*rda=*/true);
    if (with_faults) {
      options.fault.enabled = true;
      options.fault.seed = 99;
      options.fault.transient_read_p = 0.02;
      options.fault.transient_write_p = 0.02;
      options.io.max_read_retries = 4;
      options.io.max_write_retries = 4;
    }
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto result = (*db)->txn_manager()->RunConcurrent(workload);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->committed, workload.txns_per_thread);
    auto parity_ok = (*db)->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    EXPECT_TRUE(*parity_ok);
    *counters = (*db)->array()->counters();
  };

  IoCounters clean;
  IoCounters faulted;
  run(false, &clean);
  run(true, &faulted);

  EXPECT_EQ(clean.io_retries, 0u);
  EXPECT_GT(faulted.io_retries, 0u);  // The schedule did inject faults.
  // Retried accesses are ONE logical transfer plus N retries, so the
  // logical counters match the fault-free trace exactly.
  EXPECT_EQ(faulted.page_reads, clean.page_reads);
  EXPECT_EQ(faulted.page_writes, clean.page_writes);
}

// A crash landing inside the group-commit latency window: the leader has
// PUBLISHED the batch to the stable streams and is sleeping out the device
// delay when the crash hits. The commit record must survive — publication,
// not the latency accounting, is what recovery reads.
TEST(MtSoakGroupCommitTest, CrashInsideLatencyWindowKeepsPublishedCommit) {
  LogManager::Options options;
  options.group_commit_window_us = 5000;
  options.flush_delay_us = 200000;
  LogManager log(512, options);

  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = 7;
  auto lsn = log.Append(commit);
  ASSERT_TRUE(lsn.ok());

  std::thread committer([&log, &lsn] {
    ASSERT_TRUE(log.CommitFlush(*lsn).ok());
  });
  // Land well inside [window, window + delay): the batch is published, the
  // leader is still sleeping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  log.LoseVolatileState();  // The crash.
  committer.join();

  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, LogRecordType::kCommit);
  EXPECT_EQ(records[0].txn, 7u);
}

// Truncation racing a group commit: the leader has published its batch and
// is sleeping out the device delay when Truncate targets an LSN inside that
// batch. Truncate must wait for the commit-durable watermark — before the
// fix it erased records whose CommitFlush callers were still blocked.
TEST(MtSoakGroupCommitTest, TruncateWaitsOutInFlightCommitBatch) {
  LogManager::Options options;
  options.flush_delay_us = 120000;
  LogManager log(512, options);

  // An old record, already stable: the pre-batch truncation boundary.
  LogRecord old_commit;
  old_commit.type = LogRecordType::kCommit;
  old_commit.txn = 1;
  ASSERT_TRUE(log.Append(old_commit).ok());
  ASSERT_TRUE(log.Flush().ok());

  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = 2;
  auto lsn = log.Append(commit);
  ASSERT_TRUE(lsn.ok());

  std::thread committer([&log, &lsn] {
    ASSERT_TRUE(log.CommitFlush(*lsn).ok());
  });
  // Land inside the publish-before-sleep window: the batch is stable, the
  // leader is sleeping, commit durability has not advanced yet.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (log.flushed_lsn() <= *lsn &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Lsn batch_end = log.flushed_lsn();
  ASSERT_GT(batch_end, *lsn);  // The leader did publish txn 2's record.

  // Truncate the whole stable log, including the in-flight batch. The call
  // must block until the leader's latency elapses: when it returns, the
  // watermark covers everything it erased — deterministically, not by luck.
  ASSERT_TRUE(log.Truncate(batch_end).ok());
  EXPECT_GE(log.commit_durable_lsn(), batch_end)
      << "Truncate returned while the batch it erased was not yet "
         "commit-durable";
  committer.join();

  EXPECT_EQ(log.base_lsn(), batch_end);
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_TRUE(records.empty());  // Everything up to the boundary is gone.
}

// Concurrent truncators and committers must never lose an unacknowledged
// commit record: every Truncate boundary observed by a committer after its
// CommitFlush returned lies at or below the durability watermark.
TEST(MtSoakGroupCommitTest, ConcurrentTruncateAndCommitKeepWatermarkOrder) {
  LogManager::Options options;
  options.flush_delay_us = 2000;
  LogManager log(512, options);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread truncator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Truncate to the current flushed tail — a legal boundary. With a
      // batch in flight this waits; it must never erase ahead of the
      // watermark.
      const Lsn target = log.flushed_lsn();
      const Status status = log.Truncate(target);
      if (!status.ok() && !status.IsInvalidArgument()) {
        failed.store(true);
        return;
      }
      if (status.ok() && log.commit_durable_lsn() < target) {
        failed.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 40; ++i) {
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = static_cast<TxnId>(i + 1);
    auto lsn = log.Append(commit);
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(log.CommitFlush(*lsn).ok());
  }
  stop.store(true, std::memory_order_release);
  truncator.join();
  ASSERT_FALSE(failed.load());
}

// Group commit must actually batch: with a real flush latency and four
// closed-loop committers, fewer flushes than commits.
TEST(MtSoakGroupCommitTest, ConcurrentCommittersShareFlushes) {
  DatabaseOptions options = MakeOptions(/*force=*/true, /*rda=*/true);
  options.log.flush_delay_us = 1000;
  options.log.group_commit_window_us = 400;
  options.obs.enable_metrics = true;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());

  ConcurrentWorkload workload;
  workload.threads = 4;
  workload.txns_per_thread = 15;
  workload.ops_per_txn = 2;
  workload.pages = kPages;
  workload.seed = 3;
  auto result = (*db)->txn_manager()->RunConcurrent(workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->committed, 60u);

  const obs::MetricsSnapshot metrics = (*db)->SnapshotMetrics();
  const uint64_t batches = metrics.CounterValue("wal.group_commit_batches");
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches, result->committed);  // At least one multi-commit batch.

  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

// Automatic checkpoints from concurrent writers: with an interval of one
// update, every write of four threads takes a checkpoint, so checkpoints
// overlap. Each one must be counted once (view and registry agree with the
// kCheckpoint records in the log), and the last checkpoint LSN must be the
// newest record's, whichever checkpoint finished last.
TEST(MtSoakCheckpointTest, ConcurrentAutoCheckpointsCountEveryCheckpoint) {
  DatabaseOptions options = MakeOptions(/*force=*/false, /*rda=*/true);
  options.checkpoint_interval_updates = 1;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  const auto scripts = DrawScripts(/*seed=*/23);
  std::atomic<bool> failed{false};
  {
    std::vector<std::thread> workers;
    for (uint32_t w = 0; w < kThreads; ++w) {
      workers.emplace_back(RunScript, db->get(), scripts[w], &failed);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  ASSERT_FALSE(failed.load());

  std::vector<LogRecord> records;
  ASSERT_TRUE((*db)->log()->Scan(0, &records).ok());
  uint64_t logged = 0;
  Lsn newest = kInvalidLsn;
  for (const LogRecord& record : records) {
    if (record.type == LogRecordType::kCheckpoint) {
      ++logged;
      newest = record.lsn;
    }
  }
  EXPECT_GT(logged, kThreads);
  EXPECT_EQ((*db)->Stats().checkpoints, logged);
  EXPECT_EQ((*db)->SnapshotMetrics().CounterValue("recovery.checkpoints"),
            logged);
  EXPECT_EQ((*db)->checkpointer()->last_checkpoint_lsn(), newest);
}

// Striped media rebuild under TSan: a concurrent workload produces the
// database, then every disk is failed and rebuilt with a 4-wide worker
// pool. The rebuild workers share the parity manager, scratch pool, dirty
// set and obs hub — exactly the state the banded partition claims needs no
// coordination — so a data race here is a sharding-rule violation. A pooled
// crash recovery over the same state rides along for the REDO/undo shards.
TEST(MtSoakRebuildTest, ConcurrentRebuildAndRecoveryAreRaceFree) {
  DatabaseOptions options = MakeOptions(/*force=*/false, /*rda=*/true);
  options.recovery.recovery_threads = 4;
  options.obs.enable_metrics = true;
  options.obs.enable_trace = true;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());

  ConcurrentWorkload workload;
  workload.threads = 4;
  workload.txns_per_thread = 20;
  workload.ops_per_txn = 3;
  workload.pages = kPages;
  workload.seed = 11;
  auto result = (*db)->txn_manager()->RunConcurrent(workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  for (DiskId disk = 0; disk < (*db)->array()->num_disks(); ++disk) {
    ASSERT_TRUE((*db)->FailDisk(disk).ok());
    auto report = (*db)->RebuildDisk(disk);
    ASSERT_TRUE(report.ok()) << "disk " << disk << ": "
                             << report.status().ToString();
  }
  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);

  (*db)->Crash();
  ASSERT_TRUE((*db)->Recover().ok());
  auto scrub = (*db)->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->repaired.empty());
}

// Concurrent span emission: four threads pour ScopedSpans into one shared
// collector while a reader thread snapshots the rings the whole time. The
// seqlock protocol must keep this data-race free (this file runs under the
// TSan CI job) and no record may be torn — a snapshot either sees a span
// whole or not at all.
TEST(MtSoakSpanTest, ConcurrentEmittersAndSnapshotsDontTear) {
  constexpr int kSpansPerThread = 2000;
  obs::SpanCollector collector(128);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_taken{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& thread : collector.SnapshotAll()) {
        for (const obs::SpanRecord& span : thread.spans) {
          // A torn slot would show a kind no writer ever stores.
          ASSERT_EQ(span.kind, obs::SpanKind::kParityPropagate);
          ASSERT_EQ(span.detail, static_cast<int64_t>(thread.thread_index));
        }
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  {
    std::vector<std::thread> emitters;
    for (int w = 0; w < 4; ++w) {
      emitters.emplace_back([&collector] {
        // Every thread writes its ring index as the detail, so the reader
        // can verify attribution. Ring() resolves the index on first use.
        const uint32_t index = collector.Ring()->thread_index();
        for (int i = 0; i < kSpansPerThread; ++i) {
          obs::ScopedSpan span(&collector, obs::SpanKind::kParityPropagate,
                               nullptr, static_cast<int64_t>(index));
        }
      });
    }
    for (std::thread& emitter : emitters) {
      emitter.join();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(collector.TotalRecorded(), 4u * kSpansPerThread);
  // Rings hold 128 entries each; the rest are counted, not silent.
  EXPECT_EQ(collector.TotalDropped(), 4u * (kSpansPerThread - 128));
  const auto threads = collector.SnapshotAll();
  ASSERT_EQ(threads.size(), 4u);
  for (const auto& thread : threads) {
    EXPECT_EQ(thread.recorded, static_cast<uint64_t>(kSpansPerThread));
    EXPECT_EQ(thread.spans.size(), 128u);  // Quiesced: no skipped slots.
  }
}

}  // namespace
}  // namespace rda
