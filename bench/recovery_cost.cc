// The title claim, measured: "rapid recovery from transaction aborts and
// system crashes" — page transfers spent by restart recovery as a function
// of the number of in-flight (loser) transactions at the crash, RDA vs the
// traditional log-only baseline. RDA losers are undone from the twin parity
// (<= 6 transfers per page, no before-images were ever written); baseline
// losers re-read and re-apply logged before-images.
// The scaling section measures the same recovery paths against the worker
// pool (DESIGN.md section 13): crash-recovery wall time and media-rebuild
// throughput at 1/2/4 recovery threads, RDA and log-only configurations,
// emitted as BENCH_recovery.json for CI's perf-smoke job.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

// Both sections run page logging under NOFORCE/ACC.
const rda::bench::AlgorithmClass& kPageNoforce = rda::bench::kClasses[1];

rda::DatabaseOptions MakeOptions(bool rda_on) {
  rda::DatabaseOptions options = rda::bench::ClassOptions(kPageNoforce, rda_on);
  options.array.page_size = 256;
  options.buffer.capacity = 128;
  return options;
}

// Runs `losers` transactions that each steal `pages_each` pages (spread
// over distinct groups), crashes, and returns {recovery transfers, forward
// -path log transfers}.
int Run(bool rda_on, int losers, int pages_each, uint64_t* recovery_cost,
        uint64_t* forward_log_cost) {
  auto db_or = rda::Database::Open(MakeOptions(rda_on));
  if (!db_or.ok()) {
    return 1;
  }
  rda::Database* db = db_or->get();
  const uint32_t group_stride = 8;
  const uint64_t log_before = db->log()->counters().total();
  for (int t = 0; t < losers; ++t) {
    auto txn = db->Begin();
    if (!txn.ok()) {
      return 1;
    }
    std::vector<uint8_t> bytes(db->user_page_size(),
                               static_cast<uint8_t>(t + 1));
    for (int i = 0; i < pages_each; ++i) {
      const rda::PageId page =
          (t + i * group_stride * losers) % db->num_pages();
      if (!db->WritePage(*txn, page, bytes).ok()) {
        return 1;
      }
      rda::Frame* frame = db->txn_manager()->pool()->Lookup(page);
      if (frame == nullptr ||
          !db->txn_manager()->pool()->PropagateFrame(frame).ok()) {
        return 1;
      }
    }
  }
  *forward_log_cost = db->log()->counters().total() - log_before;

  db->Crash();
  const uint64_t before =
      db->array()->counters().total() + db->log()->counters().total();
  auto report = db->Recover();
  if (!report.ok()) {
    return 1;
  }
  *recovery_cost =
      db->array()->counters().total() + db->log()->counters().total() -
      before;
  return 0;
}

// --- recovery scaling vs worker-pool width ---

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

rda::DatabaseOptions ScaleOptions(bool rda_on, uint32_t threads) {
  rda::DatabaseOptions options = rda::bench::ClassOptions(kPageNoforce, rda_on);
  options.array.min_data_pages = 8192;
  options.array.page_size = 2048;
  // Real per-access disk latency: wall-clock speedup then comes from
  // overlapping I/O across member disks, the way parallel recovery wins on
  // hardware — and it is measurable even on a single-core host.
  options.array.real_access_delay_us = 25;
  options.buffer.capacity = 256;
  options.recovery.recovery_threads = threads;
  return options;
}

int PopulateScale(rda::Database* db) {
  std::vector<std::vector<uint8_t>> pages(db->num_pages());
  for (rda::PageId page = 0; page < db->num_pages(); ++page) {
    pages[page].assign(db->user_page_size(), static_cast<uint8_t>(page * 7));
  }
  return db->BulkLoad(pages).ok() ? 0 : 1;
}

struct ScalePoint {
  bool rda = false;
  uint32_t threads = 1;
  double wall_ms = 0;
  uint64_t work = 0;        // redo_applied / pages rebuilt.
  double pages_per_sec = 0;  // Rebuild only.
};

// REDO-heavy crash: thousands of committed-but-unpropagated after-images
// plus a band of stolen losers for the parity-undo shards.
int CrashScale(bool rda_on, uint32_t threads, ScalePoint* point) {
  auto db_or = rda::Database::Open(ScaleOptions(rda_on, threads));
  if (!db_or.ok()) {
    return 1;
  }
  rda::Database* db = db_or->get();
  if (PopulateScale(db) != 0) {
    return 1;
  }
  std::vector<uint8_t> bytes(db->user_page_size(), 0x5C);
  for (int t = 0; t < 2048; ++t) {
    auto txn = db->Begin();
    if (!txn.ok()) {
      return 1;
    }
    for (int i = 0; i < 2; ++i) {
      const rda::PageId page =
          static_cast<rda::PageId>((t * 2 + i) % db->num_pages());
      if (!db->WritePage(*txn, page, bytes).ok()) {
        return 1;
      }
    }
    if (!db->Commit(*txn).ok()) {
      return 1;
    }
  }
  for (int t = 0; t < 64; ++t) {
    auto txn = db->Begin();
    if (!txn.ok()) {
      return 1;
    }
    for (int i = 0; i < 2; ++i) {
      const rda::PageId page = static_cast<rda::PageId>(
          (8192 + t * 16 + i * 8) % db->num_pages());
      if (!db->WritePage(*txn, page, bytes).ok()) {
        return 1;
      }
      rda::Frame* frame = db->txn_manager()->pool()->Lookup(page);
      if (frame == nullptr ||
          !db->txn_manager()->pool()->PropagateFrame(frame).ok()) {
        return 1;
      }
    }
  }
  db->Crash();
  const auto start = std::chrono::steady_clock::now();
  auto report = db->Recover();
  if (!report.ok()) {
    return 1;
  }
  point->rda = rda_on;
  point->threads = threads;
  point->wall_ms = WallMs(start);
  point->work = report->redo_applied;
  return 0;
}

int RebuildScale(bool rda_on, uint32_t threads, ScalePoint* point) {
  auto db_or = rda::Database::Open(ScaleOptions(rda_on, threads));
  if (!db_or.ok()) {
    return 1;
  }
  rda::Database* db = db_or->get();
  if (PopulateScale(db) != 0) {
    return 1;
  }
  if (!db->FailDisk(0).ok()) {
    return 1;
  }
  const auto start = std::chrono::steady_clock::now();
  auto report = db->RebuildDisk(0);
  if (!report.ok()) {
    return 1;
  }
  point->rda = rda_on;
  point->threads = threads;
  point->wall_ms = WallMs(start);
  point->work = report->data_pages_rebuilt + report->parity_pages_rebuilt +
                report->obsolete_twins_reset;
  point->pages_per_sec =
      point->wall_ms > 0 ? point->work / (point->wall_ms / 1000.0) : 0;
  return 0;
}

void WritePoints(const std::vector<ScalePoint>& points, bool rebuild,
                 rda::obs::JsonWriter* json) {
  json->BeginArray();
  for (const ScalePoint& p : points) {
    json->BeginObject().Key("rda").Bool(p.rda).Key("threads").Uint(p.threads);
    json->Key("wall_ms").Fixed(p.wall_ms, 3);
    json->Key(rebuild ? "pages_rebuilt" : "redo_applied").Uint(p.work);
    if (rebuild) {
      json->Key("pages_per_sec").Fixed(p.pages_per_sec, 1);
    }
    json->EndObject();
  }
  json->EndArray();
}

int RunScaling(const std::string& json_path) {
  std::printf("\n=== Recovery scaling vs worker-pool width ===\n");
  std::printf("(8192 pages x 2 KiB, 8 per group, 25 us/access disk latency;"
              "\n crash: 4096 committed after-images + 64 stolen losers; "
              "rebuild: one failed data disk)\n\n");
  std::printf("%6s %8s %15s %15s %18s\n", "config", "threads",
              "crash wall ms", "rebuild wall ms", "rebuild pages/s");
  std::vector<ScalePoint> crash_points;
  std::vector<ScalePoint> rebuild_points;
  for (const bool rda_on : {true, false}) {
    for (const uint32_t threads : {1u, 2u, 4u}) {
      ScalePoint crash;
      ScalePoint rebuild;
      if (CrashScale(rda_on, threads, &crash) != 0 ||
          RebuildScale(rda_on, threads, &rebuild) != 0) {
        std::fprintf(stderr, "scaling run failed\n");
        return 1;
      }
      crash_points.push_back(crash);
      rebuild_points.push_back(rebuild);
      std::printf("%6s %8u %15.1f %15.1f %18.0f\n", rda_on ? "RDA" : "noRDA",
                  threads, crash.wall_ms, rebuild.wall_ms,
                  rebuild.pages_per_sec);
    }
  }

  rda::obs::JsonWriter json = rda::bench::BeginReport();
  json.Key("bench").String("recovery_scaling").Key("page_size").Uint(2048);
  json.Key("data_pages").Uint(8192).Key("disk_access_delay_us").Uint(25);
  json.Key("crash_recovery");
  WritePoints(crash_points, /*rebuild=*/false, &json);
  json.Key("rebuild");
  WritePoints(rebuild_points, /*rebuild=*/true, &json);
  std::printf("\n");
  return rda::bench::WriteReport(json_path, &json) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Recovery cost vs in-flight transactions at crash ===\n");
  std::printf("(4 stolen pages per transaction, distinct parity groups)\n\n");
  std::printf("%8s %22s %22s\n", "losers", "log-only baseline", "RDA (twin parity)");
  std::printf("%8s %11s %10s %11s %10s\n", "", "recovery", "fwd log",
              "recovery", "fwd log");
  for (const int losers : {1, 2, 4, 8, 16}) {
    uint64_t base_rec = 0;
    uint64_t base_fwd = 0;
    uint64_t rda_rec = 0;
    uint64_t rda_fwd = 0;
    if (Run(false, losers, 4, &base_rec, &base_fwd) != 0 ||
        Run(true, losers, 4, &rda_rec, &rda_fwd) != 0) {
      std::fprintf(stderr, "run failed\n");
      return 1;
    }
    std::printf("%8d %11llu %10llu %11llu %10llu\n", losers,
                static_cast<unsigned long long>(base_rec),
                static_cast<unsigned long long>(base_fwd),
                static_cast<unsigned long long>(rda_rec),
                static_cast<unsigned long long>(rda_fwd));
  }
  std::printf("\n(recovery = transfers spent by Recover(); fwd log = log "
              "transfers the steals cost\n before the crash — the RDA "
              "column avoids the before-image writes there, which is\n "
              "where the paper's throughput gain lives; its recovery-time "
              "undo includes the S/N\n directory-rebuild term)\n");
  return RunScaling(argc > 1 ? argv[1] : "BENCH_recovery.json");
}
