// Reliability and availability report.
//
// Part 1 (analytic): the storage organizations the paper weighs against
// each other (Section 1): mirroring pays 100% storage for high
// availability; the redundant array pays 100/N% (200/N% with the twin
// scheme) — and the twin group's MTTDL equals the classic RAID-5 group's,
// because the only extra component it adds (the second parity twin) is one
// whose loss is always survivable. Uses the paper's footnote MTTF of
// 30,000 hours.
//
// Part 2 (live): what that availability is worth in practice. A real
// Database instance (with per-access disk delays) loses a disk and
// rebuilds it with the one RebuildDisk path in two settings:
//   - quiesced  : no writer runs, as in a classic offline rebuild — the
//                 rebuild wall time IS the unavailability window (zero
//                 commits).
//   - online    : writer threads keep committing, at rate limits
//                 {unlimited, 50%, 10%} of the total token demand —
//                 trading rebuild time against foreground p99.
// Commit-latency percentiles come from the engine's "txn.commit_us"
// histogram; a parity scrub pass closes the report. Writes
// BENCH_online_rebuild.json for the README availability table and the CI
// online-rebuild-soak artifact.
//
// Usage: reliability_report [output.json]
//        (default: BENCH_online_rebuild.json in cwd)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "exec/token_bucket.h"
#include "harness.h"
#include "model/reliability.h"

namespace {

// --- live-bench shape -------------------------------------------------

// 64 groups of 8 data pages; 25us per raw disk access makes rebuild I/O
// and commit I/O overlap measurable in wall time without stretching the
// bench past a few seconds (except the deliberate 10%-rate run).
constexpr uint32_t kDataPagesPerGroup = 8;
constexpr uint32_t kMinDataPages = 512;
constexpr uint32_t kAccessDelayUs = 25;
constexpr uint32_t kWriterThreads = 3;
// Writers stay inside the first kWriterPages pages (the first 16 groups),
// so the background sweep keeps a substantial pending set even when
// foreground traffic repairs its own groups on demand.
constexpr uint32_t kWriterPages = 128;
constexpr rda::DiskId kVictimDisk = 2;
constexpr uint32_t kHealthyWindowMs = 300;

rda::DatabaseOptions MakeOptions() {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = kDataPagesPerGroup;
  options.array.min_data_pages = kMinDataPages;
  options.array.page_size = 512;
  options.array.real_access_delay_us = kAccessDelayUs;
  options.buffer.capacity = 256;
  options.buffer.shards = 8;
  options.txn.logging_mode = rda::LoggingMode::kPageLogging;
  options.txn.force = true;
  options.txn.rda_undo = true;
  return options;  // Observability (metrics) on by default.
}

rda::Status Populate(rda::Database* db) {
  std::vector<std::vector<uint8_t>> pages(db->num_pages());
  for (uint32_t p = 0; p < pages.size(); ++p) {
    pages[p].assign(db->user_page_size(), static_cast<uint8_t>(p * 7 + 1));
  }
  return db->BulkLoad(pages);
}

struct WriterStats {
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> failed{false};
};

// One writer owns a disjoint page span: no lock conflicts, so every txn
// should commit. Any non-busy error marks the run failed.
void WriterLoop(rda::Database* db, uint32_t lo, uint32_t span, uint32_t seed,
                const std::atomic<bool>* stop, WriterStats* stats) {
  rda::Random rng(seed);
  std::vector<uint8_t> payload(db->user_page_size());
  while (!stop->load(std::memory_order_acquire)) {
    const rda::PageId page =
        static_cast<rda::PageId>(lo + rng.Uniform(span));
    for (auto& byte : payload) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    auto txn = db->Begin();
    if (!txn.ok()) {
      stats->failed.store(true, std::memory_order_release);
      return;
    }
    const rda::Status written = db->WritePage(*txn, page, payload);
    if (!written.ok()) {
      (void)db->Abort(*txn);
      if (written.IsBusy()) {
        continue;
      }
      stats->failed.store(true, std::memory_order_release);
      return;
    }
    if (!db->Commit(*txn).ok()) {
      stats->failed.store(true, std::memory_order_release);
      return;
    }
    stats->commits.fetch_add(1, std::memory_order_relaxed);
  }
}

struct WriterFleet {
  std::vector<std::thread> threads;
  std::vector<WriterStats> stats;
  std::atomic<bool> stop{false};

  explicit WriterFleet(rda::Database* db) : stats(kWriterThreads) {
    const uint32_t span = kWriterPages / kWriterThreads;
    for (uint32_t w = 0; w < kWriterThreads; ++w) {
      threads.emplace_back(WriterLoop, db, w * span, span, 17 + w, &stop,
                           &stats[w]);
    }
  }

  uint64_t TotalCommits() const {
    uint64_t total = 0;
    for (const WriterStats& s : stats) {
      total += s.commits.load(std::memory_order_relaxed);
    }
    return total;
  }

  bool AnyFailed() const {
    for (const WriterStats& s : stats) {
      if (s.failed.load(std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void StopAndJoin() {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
      t.join();
    }
  }
};

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

void WriteCommitPercentiles(rda::obs::JsonWriter* json, rda::Database* db) {
  const rda::obs::MetricsSnapshot snapshot = db->SnapshotMetrics();
  rda::bench::WritePercentiles(json, snapshot.FindHistogram("txn.commit_us"));
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_online_rebuild.json";

  // ---------------- Part 1: analytic MTTDL ----------------
  using namespace rda::model;
  ReliabilityParams params;  // MTTF 30,000 h (paper footnote), 24 h repair.
  const double hours_per_year = 24 * 365.25;

  std::printf("=== Storage reliability (disk MTTF %.0f h = %.1f y, repair "
              "%.0f h) ===\n\n",
              params.disk_mttf_hours,
              params.disk_mttf_hours / hours_per_year, params.repair_hours);
  std::printf("single disk MTTF:            %10.2f years\n",
              params.disk_mttf_hours / hours_per_year);
  std::printf("mirrored pair MTTDL:         %10.0f years (overhead %.0f%%)\n",
              MirroredPairMttdlHours(params) / hours_per_year,
              MirroringOverheadPercent());

  rda::obs::JsonWriter json = rda::bench::BeginReport();
  json.Key("analytic").BeginObject();
  json.Key("disk_mttf_hours").Fixed(params.disk_mttf_hours, 2);
  json.Key("repair_hours").Fixed(params.repair_hours, 2);
  json.Key("mirrored_pair_mttdl_years")
      .Fixed(MirroredPairMttdlHours(params) / hours_per_year, 2);
  json.Key("groups").BeginArray();

  std::printf("\n%6s %18s %18s %14s %14s\n", "N", "RAID-5 group MTTDL",
              "twin group MTTDL", "RAID-5 ovh %", "twin ovh %");
  for (const uint32_t n : {4u, 8u, 10u, 16u, 32u}) {
    std::printf("%6u %16.0f y %16.0f y %14.1f %14.1f\n", n,
                Raid5GroupMttdlHours(params, n) / hours_per_year,
                TwinGroupMttdlHours(params, n) / hours_per_year,
                Raid5OverheadPercent(n), TwinOverheadPercent(n));
    json.BeginObject().Key("n").Uint(n);
    json.Key("raid5_mttdl_years")
        .Fixed(Raid5GroupMttdlHours(params, n) / hours_per_year, 2);
    json.Key("twin_mttdl_years")
        .Fixed(TwinGroupMttdlHours(params, n) / hours_per_year, 2);
    json.Key("twin_overhead_pct").Fixed(TwinOverheadPercent(n), 2);
    json.EndObject();
  }
  const double array_years =
      RotatedArrayMttdlHours(params, 12) / hours_per_year;
  json.EndArray().Key("rotated_array_mttdl_years").Fixed(array_years, 2);
  json.EndObject();

  std::printf("\nwhole rotated array (N = 10 -> 12 disks holding all 500 "
              "groups):\n");
  std::printf("  twin-parity array MTTDL:   %10.1f years\n", array_years);
  std::printf("\n(the twin scheme's second parity page costs storage but no "
              "reliability:\n its loss is always survivable, so the fatal-"
              "pair count matches RAID-5)\n");

  // ---------------- Part 2: live availability ----------------
  // Total token demand of one full sweep: every group charges its data
  // pages + 1 parity write. The bucket holds one second of tokens, so a
  // rate of demand/2 stretches the sweep ~1s past the burst and demand/10
  // stretches it ~9s — the knob the README availability table shows.
  auto open = [&]() -> rda::Result<std::unique_ptr<rda::Database>> {
    auto db_or = rda::Database::Open(MakeOptions());
    if (!db_or.ok()) {
      return db_or.status();
    }
    RDA_RETURN_IF_ERROR(Populate(db_or->get()));
    return db_or;
  };

  auto first_db_or = open();
  if (!first_db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 first_db_or.status().message().c_str());
    return 1;
  }
  const uint32_t num_groups = (*first_db_or)->array()->num_groups();
  const uint64_t tokens_total =
      static_cast<uint64_t>(num_groups) * (kDataPagesPerGroup + 1);

  json.Key("live").BeginObject().Key("config").BeginObject();
  json.Key("data_pages").Uint((*first_db_or)->num_pages());
  json.Key("groups").Uint(num_groups);
  json.Key("data_pages_per_group").Uint(kDataPagesPerGroup);
  json.Key("access_delay_us").Uint(kAccessDelayUs);
  json.Key("writer_threads").Uint(kWriterThreads);
  json.Key("writer_pages").Uint(kWriterPages);
  json.Key("rebuild_tokens_total").Uint(tokens_total).EndObject();

  std::printf("\n=== Live availability (%u groups, %u us/access, %u writer "
              "threads) ===\n\n",
              num_groups, kAccessDelayUs, kWriterThreads);

  // (a) healthy baseline: writers only, fixed window.
  {
    rda::Database* db = first_db_or->get();
    WriterFleet fleet(db);
    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(kHealthyWindowMs));
    fleet.StopAndJoin();
    const double wall_ms = ElapsedMs(start);
    if (fleet.AnyFailed()) {
      std::fprintf(stderr, "healthy baseline: a writer failed\n");
      return 1;
    }
    const uint64_t commits = fleet.TotalCommits();
    const double per_sec = commits / (wall_ms / 1000.0);
    std::printf("healthy baseline:    %6llu commits in %7.1f ms "
                "(%7.0f /s)\n",
                static_cast<unsigned long long>(commits), wall_ms, per_sec);
    json.Key("healthy").BeginObject().Key("wall_ms").Fixed(wall_ms, 2);
    json.Key("commits").Uint(commits).Key("commits_per_sec").Fixed(per_sec, 2);
    json.Key("commit_us");
    WriteCommitPercentiles(&json, db);
    json.EndObject();
  }

  // (b) quiesced rebuild: the same path with no transactions running, as
  // an offline rebuild would force — the wall time is the unavailability
  // window.
  {
    auto db_or = open();
    if (!db_or.ok()) {
      std::fprintf(stderr, "quiesced open failed: %s\n",
                   db_or.status().message().c_str());
      return 1;
    }
    rda::Database* db = db_or->get();
    if (!db->FailDisk(kVictimDisk).ok()) {
      std::fprintf(stderr, "quiesced FailDisk failed\n");
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    auto report = db->RebuildDisk(kVictimDisk);
    const double wall_ms = ElapsedMs(start);
    if (!report.ok()) {
      std::fprintf(stderr, "quiesced rebuild failed: %s\n",
                   report.status().message().c_str());
      return 1;
    }
    std::printf("quiesced rebuild:    unavailable for %7.1f ms "
                "(0 commits)\n",
                wall_ms);
    json.Key("quiesced_rebuild").BeginObject();
    json.Key("rebuild_wall_ms").Fixed(wall_ms, 2);
    json.Key("commits_during_rebuild").Uint(0).Key("unavailable").Bool(true);
    json.EndObject();
  }

  // (c) online rebuild at three rate limits, writers committing throughout.
  struct RateCase {
    const char* label;
    uint64_t tokens_per_sec;  // 0 = unlimited.
  };
  const RateCase kRates[] = {
      {"unlimited", 0},
      {"50pct", tokens_total / 2},
      {"10pct", tokens_total / 10},
  };
  json.Key("online_rebuild").BeginArray();
  std::unique_ptr<rda::Database> last_db;
  for (const RateCase& rate : kRates) {
    auto db_or = open();
    if (!db_or.ok()) {
      std::fprintf(stderr, "online open failed: %s\n",
                   db_or.status().message().c_str());
      return 1;
    }
    rda::Database* db = db_or->get();
    if (!db->FailDisk(kVictimDisk).ok()) {
      std::fprintf(stderr, "online FailDisk failed\n");
      return 1;
    }
    WriterFleet fleet(db);
    // Small warm-up so "commits during rebuild" measures a steady stream,
    // not thread start-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t commits_before = fleet.TotalCommits();

    rda::exec::TokenBucket bucket(rate.tokens_per_sec);
    rda::OnlineRebuildOptions options;
    options.throttle = rate.tokens_per_sec != 0 ? &bucket : nullptr;
    const auto start = std::chrono::steady_clock::now();
    auto report = db->RebuildDisk(kVictimDisk, options);
    const double wall_ms = ElapsedMs(start);
    fleet.StopAndJoin();
    if (!report.ok()) {
      std::fprintf(stderr, "online rebuild (%s) failed: %s\n", rate.label,
                   report.status().message().c_str());
      return 1;
    }
    if (fleet.AnyFailed()) {
      std::fprintf(stderr, "online rebuild (%s): a writer failed\n",
                   rate.label);
      return 1;
    }
    auto consistent = db->VerifyAllParity();
    if (!consistent.ok() || !*consistent) {
      std::fprintf(stderr, "online rebuild (%s): parity inconsistent\n",
                   rate.label);
      return 1;
    }
    const uint64_t commits_during = fleet.TotalCommits() - commits_before;
    const double per_sec = commits_during / (wall_ms / 1000.0);
    std::printf("online rebuild %-10s %7.1f ms, %6llu commits during "
                "(%7.0f /s), %u swept / %llu on-demand / %llu promoted\n",
                rate.label, wall_ms,
                static_cast<unsigned long long>(commits_during), per_sec,
                report->groups_background,
                static_cast<unsigned long long>(report->groups_on_demand),
                static_cast<unsigned long long>(report->write_promotions));
    json.BeginObject().Key("rate").String(rate.label);
    json.Key("rate_tokens_per_sec").Uint(rate.tokens_per_sec);
    json.Key("rebuild_wall_ms").Fixed(wall_ms, 2);
    json.Key("commits_during_rebuild").Uint(commits_during);
    json.Key("commits_per_sec").Fixed(per_sec, 2).Key("commit_us");
    WriteCommitPercentiles(&json, db);
    json.Key("groups_background").Uint(report->groups_background);
    json.Key("groups_on_demand").Uint(report->groups_on_demand);
    json.Key("write_promotions").Uint(report->write_promotions);
    json.Key("parity_consistent").Bool(true).EndObject();
    last_db = std::move(*db_or);
  }
  json.EndArray();

  // (d) a scrub pass on the last database closes the loop: the array just
  // went healthy again; the scrub verifies every group and reports what
  // the verify-repair path healed.
  {
    auto scrub = last_db->Scrub();
    if (!scrub.ok()) {
      std::fprintf(stderr, "scrub failed: %s\n",
                   scrub.status().message().c_str());
      return 1;
    }
    std::printf("post-rebuild scrub:  %u groups checked, %zu repaired, "
                "%llu sectors healed\n",
                scrub->groups_checked, scrub->repaired.size(),
                static_cast<unsigned long long>(scrub->sectors_repaired));
    json.Key("scrub").BeginObject();
    json.Key("groups_checked").Uint(scrub->groups_checked);
    json.Key("groups_skipped_dirty").Uint(scrub->groups_skipped_dirty);
    json.Key("groups_repaired").Uint(scrub->repaired.size());
    json.Key("sectors_repaired").Uint(scrub->sectors_repaired).EndObject();
  }
  json.EndObject();

  std::printf("\n");
  return rda::bench::WriteReport(out_path, &json) ? 0 : 1;
}
