// Multi-threaded commit report for the concurrent engine: runs the paper's
// four algorithm classes x {RDA, no-RDA} under a closed-loop multi-worker
// workload (TransactionManager::RunConcurrent) at 1/2/4/8 threads and
// reports commit throughput, abort/retry counts and the group-commit
// batching the WAL achieved. The scaling comes from group commit
// amortising the simulated flush latency (flush_delay_us) across
// concurrent committers — it is visible even on a single core, because the
// leader sleeps out the device delay with the WAL mutex released while the
// other workers run their transactions and append the next batch.
//
// The same runs feed the latency report. After each cell's timed region
// the bench stages a crash + recovery and records the cell's
// bucket-interpolated p50/p95/p99 from the engine's latency histograms —
// commit, WAL flush, group-commit wait (leader vs follower), parity
// propagate, and each recovery phase. The 4-thread RDA page_force cell
// also exports its span timeline as a Chrome Trace Event file, loadable in
// Perfetto / chrome://tracing.
//
// Writes BENCH_mt.json (README thread-scaling table, CI perf-smoke
// baseline), BENCH_latency.json and BENCH_trace.json.
//
// Usage: mt_report [mt.json] [latency.json] [trace.json]
//        (defaults: BENCH_mt.json, BENCH_latency.json, BENCH_trace.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace {

using Clock = std::chrono::steady_clock;
using rda::bench::AlgorithmClass;

// Simulated log-device flush latency. This is the quantity group commit
// amortises; zero would measure raw CPU scheduling noise instead of the
// batching effect the bench exists to show.
constexpr uint32_t kFlushDelayUs = 1000;
// Leader linger before publishing: lets workers released by the previous
// batch append their commits into this one instead of ping-ponging between
// full and singleton batches (see DESIGN.md section 11).
constexpr uint32_t kGroupCommitWindowUs = 400;
// Total commits per run, split evenly across workers so every thread count
// does the same total work. Divisible by every entry of kThreadCounts.
constexpr uint32_t kTotalTxns = 240;
constexpr uint32_t kOpsPerTxn = 4;
constexpr uint32_t kPages = 384;  // Uniform page draws; modest contention.
const std::vector<uint32_t> kThreadCounts = {1, 2, 4, 8};

// The per-operation histograms every latency run reports. Group-commit
// wait is split by role: the leader pays the device flush, followers only
// wait.
constexpr const char* kOperationHists[] = {
    "txn.commit_us",
    "wal.flush_us",
    "wal.group_commit_wait_us",
    "wal.group_commit_leader_flush_us",
    "wal.group_commit_follower_wait_us",
    "parity.propagate_us",
};

struct MtResult {
  std::string config;
  bool rda = false;
  uint32_t threads = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t busy_retries = 0;
  uint64_t group_commit_batches = 0;
  double mean_batch = 0;
  double secs = 0;
  double txns_per_sec = 0;
};

// Where each cell's latency entry and the representative trace go.
struct LatencySink {
  rda::obs::JsonWriter* runs = nullptr;  // Positioned inside "runs": [...].
  std::string trace_path;
};

// Staged restart after the timed region, then the cell's latency entry.
int RecordLatency(rda::Database* db, const AlgorithmClass& cls, bool rda_on,
                  uint32_t threads, uint64_t committed, LatencySink* sink) {
  rda::CrashRecoveryReport recovery;
  const rda::Status staged = rda::bench::StageCrashAndRecover(db, &recovery);
  if (!staged.ok()) {
    std::fprintf(stderr, "%s rda=%d t=%u: staged recovery failed: %s\n",
                 cls.name, rda_on ? 1 : 0, threads, staged.message().c_str());
    return 1;
  }
  const rda::obs::MetricsSnapshot snapshot = db->SnapshotMetrics();
  rda::obs::JsonWriter& json = *sink->runs;
  json.BeginObject().Key("config").String(cls.name);
  json.Key("rda_undo").Bool(rda_on).Key("threads").Uint(threads);
  json.Key("committed").Uint(committed).Key("operations").BeginObject();
  for (const char* name : kOperationHists) {
    json.Key(name);
    rda::bench::WritePercentiles(&json, snapshot.FindHistogram(name));
  }
  json.EndObject().Key("recovery_phases").BeginObject();
  for (const auto& histogram : snapshot.histograms) {
    const std::string_view name = histogram.name;
    constexpr std::string_view kPrefix = "recovery.phase.";
    constexpr std::string_view kSuffix = ".wall_us";
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
      continue;
    }
    json.Key(name.substr(kPrefix.size(),
                         name.size() - kPrefix.size() - kSuffix.size()));
    rda::bench::WritePercentiles(&json, &histogram);
  }
  json.EndObject().EndObject();

  // One representative Chrome trace: the 4-thread RDA page_force run.
  if (rda_on && threads == 4 && cls.name == std::string_view("page_force")) {
    const rda::Status dumped = db->DumpChromeTrace(sink->trace_path);
    if (!dumped.ok()) {
      std::fprintf(stderr, "chrome trace dump failed: %s\n",
                   dumped.message().c_str());
      return 1;
    }
    std::printf("wrote %s (Chrome Trace Event format)\n",
                sink->trace_path.c_str());
  }
  return 0;
}

int RunOne(const AlgorithmClass& cls, bool rda_on, uint32_t threads,
           MtResult* out, LatencySink* latency) {
  rda::DatabaseOptions options = rda::bench::ClassOptions(cls, rda_on);
  options.buffer.capacity = 512;
  options.buffer.shards = 8;
  options.log.flush_delay_us = kFlushDelayUs;
  options.log.group_commit_window_us = kGroupCommitWindowUs;
  auto db_or = rda::Database::Open(options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().message().c_str());
    return 1;
  }
  rda::Database* db = db_or->get();

  rda::ConcurrentWorkload workload;
  workload.threads = threads;
  workload.txns_per_thread = kTotalTxns / threads;
  workload.ops_per_txn = kOpsPerTxn;
  workload.pages = kPages;
  workload.write_fraction = 1.0;
  workload.seed = 17 + threads;

  const auto start = Clock::now();
  auto result = db->txn_manager()->RunConcurrent(workload);
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!result.ok()) {
    std::fprintf(stderr, "concurrent run failed: %s\n",
                 result.status().message().c_str());
    return 1;
  }

  out->config = cls.name;
  out->rda = rda_on;
  out->threads = threads;
  out->committed = result->committed;
  out->aborted = result->aborted;
  out->busy_retries = result->busy_retries;
  out->secs = secs;
  out->txns_per_sec = secs > 0 ? result->committed / secs : 0;
  out->group_commit_batches =
      db->SnapshotMetrics().CounterValue("wal.group_commit_batches");
  out->mean_batch = out->group_commit_batches > 0
                        ? static_cast<double>(out->committed) /
                              static_cast<double>(out->group_commit_batches)
                        : 0;
  return RecordLatency(db, cls, rda_on, threads, result->committed, latency);
}

// Runs the class x RDA x threads matrix.
int RunMatrix(std::vector<MtResult>* results, LatencySink* latency) {
  for (const AlgorithmClass& cls : rda::bench::kClasses) {
    for (const bool rda_on : {false, true}) {
      for (const uint32_t threads : kThreadCounts) {
        MtResult r;
        if (RunOne(cls, rda_on, threads, &r, latency) != 0) {
          return 1;
        }
        results->push_back(r);
      }
    }
  }
  return 0;
}

void WriteRunConfig(rda::obs::JsonWriter* json) {
  json->Key("flush_delay_us").Uint(kFlushDelayUs);
  json->Key("group_commit_window_us").Uint(kGroupCommitWindowUs);
  json->Key("total_txns").Uint(kTotalTxns);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mt_path = argc > 1 ? argv[1] : "BENCH_mt.json";
  const std::string latency_path = argc > 2 ? argv[2] : "BENCH_latency.json";

  rda::obs::JsonWriter latency_json = rda::bench::BeginReport();
  WriteRunConfig(&latency_json);
  latency_json.Key("runs").BeginArray();
  LatencySink latency{&latency_json, argc > 3 ? argv[3] : "BENCH_trace.json"};

  std::vector<MtResult> results;
  if (RunMatrix(&results, &latency) != 0) {
    return 1;
  }
  latency_json.EndArray();

  // Per-(config, rda) speedup of 4 threads over 1 thread — the number the
  // acceptance bar cares about for the RDA classes.
  struct Speedup {
    std::string key;
    double speedup_4t = 0;
  };
  std::vector<Speedup> speedups;
  for (const MtResult& base : results) {
    if (base.threads != 1) {
      continue;
    }
    for (const MtResult& four : results) {
      if (four.threads == 4 && four.config == base.config &&
          four.rda == base.rda) {
        Speedup s;
        s.key = base.config + (base.rda ? "_rda" : "_plain");
        s.speedup_4t =
            base.txns_per_sec > 0 ? four.txns_per_sec / base.txns_per_sec : 0;
        speedups.push_back(s);
      }
    }
  }

  std::printf(
      "flush_delay_us=%u window_us=%u total_txns=%u ops/txn=%u pages=%u\n\n",
      kFlushDelayUs, kGroupCommitWindowUs, kTotalTxns, kOpsPerTxn, kPages);
  std::printf("%-16s %5s %3s %12s %8s %8s %10s\n", "config", "rda", "thr",
              "commits/sec", "aborted", "batches", "mean batch");
  for (const MtResult& r : results) {
    std::printf("%-16s %5s %3u %12.0f %8llu %8llu %10.2f\n", r.config.c_str(),
                r.rda ? "on" : "off", r.threads, r.txns_per_sec,
                static_cast<unsigned long long>(r.aborted),
                static_cast<unsigned long long>(r.group_commit_batches),
                r.mean_batch);
  }
  std::printf("\n%-24s %10s\n", "class", "4t/1t");
  bool rda_bar_met = true;
  for (const Speedup& s : speedups) {
    std::printf("%-24s %9.2fx\n", s.key.c_str(), s.speedup_4t);
    if (s.key.find("_rda") != std::string::npos && s.speedup_4t <= 2.5) {
      rda_bar_met = false;
    }
  }
  if (!rda_bar_met) {
    std::fprintf(stderr,
                 "WARN: an RDA class fell below the 2.5x 4-thread bar\n");
  }

  rda::obs::JsonWriter json = rda::bench::BeginReport();
  WriteRunConfig(&json);
  json.Key("ops_per_txn").Uint(kOpsPerTxn).Key("pages").Uint(kPages);
  json.Key("results").BeginArray();
  for (const MtResult& r : results) {
    json.BeginObject().Key("config").String(r.config).Key("rda").Bool(r.rda);
    json.Key("threads").Uint(r.threads).Key("committed").Uint(r.committed);
    json.Key("aborted").Uint(r.aborted);
    json.Key("busy_retries").Uint(r.busy_retries);
    json.Key("group_commit_batches").Uint(r.group_commit_batches);
    json.Key("mean_batch").Fixed(r.mean_batch, 2).Key("secs").Fixed(r.secs, 4);
    json.Key("txns_per_sec").Fixed(r.txns_per_sec, 1).EndObject();
  }
  json.EndArray().Key("speedup_4t_vs_1t").BeginObject();
  for (const Speedup& s : speedups) {
    json.Key(s.key).Fixed(s.speedup_4t, 2);
  }
  json.EndObject();
  std::printf("\n");
  return rda::bench::WriteReport(mt_path, &json) &&
                 rda::bench::WriteReport(latency_path, &latency_json)
             ? 0
             : 1;
}
