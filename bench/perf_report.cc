// Performance report for the hot-path overhaul: times the library's hot
// primitives (CRC-32C dispatch vs the old bytewise loop, page XOR, buffer
// fetch, log append+flush) and the end-to-end commit path for the paper's
// four algorithm classes x {RDA, no-RDA}, then writes machine-readable
// JSON (BENCH_perf.json) for the README results table and CI artifact.
//
// Usage: perf_report [output.json]   (default: BENCH_perf.json in cwd)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/xor_util.h"
#include "harness.h"
#include "obs/span.h"

namespace {

using Clock = std::chrono::steady_clock;
using rda::bench::AlgorithmClass;

// The pre-overhaul CRC-32C: one table, one byte per step. Kept here as the
// speedup reference for the dispatched implementation.
uint32_t Crc32cBytewise(const void* data, size_t size) {
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

// Runs `body` (which processes `bytes_per_iter` bytes) until ~`budget_ms`
// of wall time is spent; returns throughput in GB/s.
double MeasureGBps(size_t bytes_per_iter, int budget_ms,
                   const std::function<void()>& body) {
  // Warm up (table/dispatch init, cache).
  for (int i = 0; i < 16; ++i) {
    body();
  }
  uint64_t iters = 0;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      body();
    }
    iters += 64;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(iters) * bytes_per_iter / secs / 1e9;
}

volatile uint32_t g_sink;  // Defeats dead-code elimination.

struct EndToEndResult {
  std::string config;
  bool rda = false;
  double txns_per_sec = 0;
  double transfers_per_txn = 0;
  uint64_t total_transfers = 0;
  double secs = 0;
};

// Commits `txns` transactions of 4 updates each and reports throughput
// plus the paper's metric, page transfers per transaction. `arm_faults`
// attaches per-disk fault injectors with ALL probabilities at zero — the
// configuration the fault_overhead section asserts is free.
int RunEndToEnd(const AlgorithmClass& cls, bool rda_on, int txns,
                EndToEndResult* out, bool arm_faults = false) {
  rda::DatabaseOptions options = rda::bench::ClassOptions(cls, rda_on);
  options.buffer.capacity = 64;
  if (!cls.force) {
    options.checkpoint_interval_updates = 256;
  }
  if (arm_faults) {
    options.fault.enabled = true;  // Probabilities stay zero.
  }
  auto db_or = rda::Database::Open(options);
  if (!db_or.ok()) {
    return 1;
  }
  rda::Database* db = db_or->get();
  rda::Random rng(11);
  std::vector<uint8_t> page_bytes(db->user_page_size());
  std::vector<uint8_t> record_bytes(48);
  const auto start = Clock::now();
  const uint64_t transfers_before = db->TotalPageTransfers();
  for (int t = 0; t < txns; ++t) {
    auto txn = db->Begin();
    if (!txn.ok()) {
      return 1;
    }
    for (int i = 0; i < 4; ++i) {
      const rda::PageId page =
          static_cast<rda::PageId>(rng.Uniform(db->num_pages()));
      rda::Status status;
      if (cls.logging == rda::LoggingMode::kPageLogging) {
        rng.FillBytes(&page_bytes);
        status = db->WritePage(*txn, page, page_bytes);
      } else {
        rng.FillBytes(&record_bytes);
        status = db->WriteRecord(*txn, page, 0, record_bytes);
      }
      if (!status.ok()) {
        return 1;
      }
    }
    if (!db->Commit(*txn).ok()) {
      return 1;
    }
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  out->config = cls.name;
  out->rda = rda_on;
  out->txns_per_sec = txns / secs;
  out->total_transfers = db->TotalPageTransfers() - transfers_before;
  out->secs = secs;
  out->transfers_per_txn = static_cast<double>(out->total_transfers) / txns;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_perf.json";

  // --- micro primitives ---
  rda::Random rng(7);
  std::vector<uint8_t> buf(4096);
  rng.FillBytes(&buf);

  const double crc_bytewise = MeasureGBps(buf.size(), 200, [&] {
    g_sink = Crc32cBytewise(buf.data(), buf.size());
  });
  const double crc_dispatched = MeasureGBps(buf.size(), 200, [&] {
    g_sink = rda::Crc32c(buf.data(), buf.size());
  });
  const double crc_software = MeasureGBps(buf.size(), 200, [&] {
    g_sink = rda::Crc32cSoftware(buf.data(), buf.size());
  });

  std::vector<uint8_t> xa(4096, 0x5a);
  std::vector<uint8_t> xb(4096, 0xa5);
  const double xor_page = MeasureGBps(xa.size(), 200, [&] {
    rda::XorInto(xa.data(), xb.data(), xa.size());
  });

  // Buffer fetch: all pages resident, so every Fetch is a hit — this is
  // the hot path the O(1) LRU list serves.
  constexpr size_t kFetchPageSize = 512;
  rda::BufferPool::Options pool_options;
  pool_options.capacity = 64;
  rda::BufferPool pool(
      pool_options,
      [](rda::PageId, rda::PageImage* out) {
        *out = rda::PageImage(kFetchPageSize);
        return rda::Status::Ok();
      },
      [](rda::Frame*) { return rda::Status::Ok(); });
  for (rda::PageId p = 0; p < 64; ++p) {
    if (!pool.Fetch(p, nullptr).ok()) {
      std::fprintf(stderr, "buffer warmup failed\n");
      return 1;
    }
  }
  uint64_t fetch_iters = 0;
  rda::PageId next_page = 0;
  const auto fetch_start = Clock::now();
  const auto fetch_deadline = fetch_start + std::chrono::milliseconds(200);
  while (Clock::now() < fetch_deadline) {
    for (int i = 0; i < 256; ++i) {
      auto frame = pool.Fetch(next_page, nullptr);
      if (!frame.ok()) {
        std::fprintf(stderr, "buffer fetch failed\n");
        return 1;
      }
      next_page = (next_page + 7) % 64;  // Stride keeps the LRU churning.
    }
    fetch_iters += 256;
  }
  const double fetch_mops =
      fetch_iters /
      std::chrono::duration<double>(Clock::now() - fetch_start).count() / 1e6;

  // Log append+flush of a 512-byte before-image record.
  rda::LogManager log(512, {});
  rda::LogRecord record;
  record.type = rda::LogRecordType::kBeforeImage;
  record.txn = 1;
  record.page = 7;
  record.before.assign(512, 0x11);
  uint64_t log_iters = 0;
  const auto log_start = Clock::now();
  const auto log_deadline = log_start + std::chrono::milliseconds(200);
  while (Clock::now() < log_deadline) {
    for (int i = 0; i < 64; ++i) {
      if (!log.Append(record).ok() || !log.Flush().ok()) {
        std::fprintf(stderr, "log append failed\n");
        return 1;
      }
    }
    log_iters += 64;
    if (log.stable_bytes() > (64u << 20)) {
      if (!log.Truncate(log.flushed_lsn()).ok()) {  // Keep memory bounded.
        std::fprintf(stderr, "log truncate failed\n");
        return 1;
      }
    }
  }
  const double log_kops =
      log_iters /
      std::chrono::duration<double>(Clock::now() - log_start).count() / 1e3;

  // --- end-to-end commit throughput ---
  std::vector<EndToEndResult> results;
  for (const AlgorithmClass& cls : rda::bench::kClasses) {
    for (const bool rda_on : {false, true}) {
      EndToEndResult result;
      if (RunEndToEnd(cls, rda_on, 2000, &result) != 0) {
        std::fprintf(stderr, "end-to-end run failed\n");
        return 1;
      }
      results.push_back(result);
    }
  }

  // --- span hooks: ~zero-cost when disabled ---
  // A ScopedSpan with a null collector and null histogram must not even
  // read the clock; its per-op cost over an empty baseline loop is asserted
  // below a CI-safe ceiling. The enabled cost (two clock reads + one
  // lock-free ring push) is reported alongside for scale.
  auto measure_ns_per_op = [](const std::function<void()>& body) {
    for (int i = 0; i < 1024; ++i) {
      body();  // Warm up.
    }
    uint64_t iters = 0;
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::milliseconds(100);
    while (Clock::now() < deadline) {
      for (int i = 0; i < 4096; ++i) {
        body();
      }
      iters += 4096;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    return secs * 1e9 / static_cast<double>(iters);
  };
  const double span_baseline_ns =
      measure_ns_per_op([] { g_sink = g_sink + 1; });
  const double span_disabled_raw_ns = measure_ns_per_op([] {
    rda::obs::ScopedSpan span(nullptr, rda::obs::SpanKind::kTxnCommit);
    g_sink = g_sink + 1;
  });
  rda::obs::SpanCollector span_collector(1024);
  const double span_enabled_raw_ns = measure_ns_per_op([&] {
    rda::obs::ScopedSpan span(&span_collector, rda::obs::SpanKind::kTxnCommit);
    g_sink = g_sink + 1;
  });
  // Nested spans ride the per-thread clock cache: a child starting inside
  // an already-stamped parent reuses the parent's timestamp instead of
  // reading the clock again, so the steady_clock::now() that dominated the
  // enabled cost (~81 ns/op before the cache) is paid once per op, not
  // twice. Measured inside a persistent outer span, exactly like the
  // commit-path spans nest in production. Both measurements use
  // histogram-less spans: a histogram-carrying span deliberately skips the
  // cache (its duration feeds latency percentiles, which must not inherit
  // the cached read's early-start bias), so it is not the cached path.
  double span_nested_enabled_ns = 0;
  {
    rda::obs::ScopedSpan outer(&span_collector,
                               rda::obs::SpanKind::kTxnCommit);
    const double nested_raw_ns = measure_ns_per_op([&] {
      rda::obs::ScopedSpan span(&span_collector,
                                rda::obs::SpanKind::kWalFlush);
      g_sink = g_sink + 1;
    });
    span_nested_enabled_ns = std::max(0.0, nested_raw_ns - span_baseline_ns);
  }
  const double span_disabled_ns =
      std::max(0.0, span_disabled_raw_ns - span_baseline_ns);
  const double span_enabled_ns =
      std::max(0.0, span_enabled_raw_ns - span_baseline_ns);
  constexpr double kSpanDisabledCeilingNs = 25.0;
  if (span_disabled_ns > kSpanDisabledCeilingNs) {
    std::fprintf(stderr,
                 "FAIL: disabled-obs ScopedSpan costs %.2f ns/op "
                 "(ceiling %.0f ns) — the null fast path regressed\n",
                 span_disabled_ns, kSpanDisabledCeilingNs);
    return 1;
  }
  // The cache's whole point: a nested enabled span pays ONE clock read
  // where a depth-0 span pays two, so it must come in well under the
  // depth-0 cost measured in the same run. The ceiling is a ratio, not an
  // absolute, because CI wall-clock noise moves both numbers together
  // (observed ~0.65 with the cache, ~1.0 without it).
  constexpr double kSpanNestedCeilingRatio = 0.85;
  const double span_nested_ratio =
      span_enabled_ns > 0 ? span_nested_enabled_ns / span_enabled_ns : 0.0;
  if (span_nested_ratio > kSpanNestedCeilingRatio) {
    std::fprintf(stderr,
                 "FAIL: nested enabled ScopedSpan costs %.2f ns/op vs %.2f "
                 "depth-0 (ratio %.2f, ceiling %.2f) — the clock-stamp "
                 "cache regressed\n",
                 span_nested_enabled_ns, span_enabled_ns, span_nested_ratio,
                 kSpanNestedCeilingRatio);
    return 1;
  }

  // --- fault hooks: zero-cost when disabled ---
  // The same deterministic workload with (a) no injectors and (b) armed
  // injectors at zero probability. The I/O must be EXACTLY identical — any
  // drift means the fault plumbing leaked into clean-path behaviour — and
  // the wall-clock ratio is reported (armed-zero pays one pointer test plus
  // two Bernoulli draws per access).
  EndToEndResult fault_off;
  EndToEndResult fault_zero;
  const AlgorithmClass& page_force = rda::bench::kClasses[0];
  if (RunEndToEnd(page_force, true, 2000, &fault_off,
                  /*arm_faults=*/false) != 0 ||
      RunEndToEnd(page_force, true, 2000, &fault_zero,
                  /*arm_faults=*/true) != 0) {
    std::fprintf(stderr, "fault overhead run failed\n");
    return 1;
  }
  if (fault_off.total_transfers != fault_zero.total_transfers) {
    std::fprintf(stderr,
                 "FAIL: fault hooks changed the I/O pattern: %llu transfers "
                 "disabled vs %llu armed-at-zero\n",
                 static_cast<unsigned long long>(fault_off.total_transfers),
                 static_cast<unsigned long long>(fault_zero.total_transfers));
    return 1;
  }
  const double fault_wallclock_ratio = fault_zero.secs / fault_off.secs;

  // --- report ---
  const double crc_speedup = crc_dispatched / crc_bytewise;
  std::printf("crc32c impl: %s\n", rda::Crc32cImplName());
  std::printf("crc32c 4096B: bytewise %.2f GB/s, slice-by-8 %.2f GB/s, "
              "dispatched %.2f GB/s (%.1fx vs bytewise)\n",
              crc_bytewise, crc_software, crc_dispatched, crc_speedup);
  std::printf("xor page 4096B: %.2f GB/s\n", xor_page);
  std::printf("buffer fetch (hit): %.2f Mops/s\n", fetch_mops);
  std::printf("log append+flush 512B: %.2f Kops/s\n", log_kops);
  std::printf("fault hooks: %llu transfers (identical disabled vs armed-at-"
              "zero), wall-clock ratio %.3f\n",
              static_cast<unsigned long long>(fault_off.total_transfers),
              fault_wallclock_ratio);
  std::printf("span hooks: disabled %.2f ns/op (ceiling %.0f), "
              "enabled %.1f ns/op, nested enabled %.1f ns/op "
              "(ratio %.2f, ceiling %.2f)\n",
              span_disabled_ns, kSpanDisabledCeilingNs, span_enabled_ns,
              span_nested_enabled_ns, span_nested_ratio,
              kSpanNestedCeilingRatio);
  std::printf("\n%-16s %6s %14s %16s\n", "config", "rda", "txns/sec",
              "transfers/txn");
  for (const EndToEndResult& r : results) {
    std::printf("%-16s %6s %14.0f %16.2f\n", r.config.c_str(),
                r.rda ? "on" : "off", r.txns_per_sec, r.transfers_per_txn);
  }

  rda::obs::JsonWriter json = rda::bench::BeginReport();
  json.Key("crc32c_impl").String(rda::Crc32cImplName());
  json.Key("micro").BeginObject();
  json.Key("crc32c_bytewise_4096_GBps").Fixed(crc_bytewise, 3);
  json.Key("crc32c_software_4096_GBps").Fixed(crc_software, 3);
  json.Key("crc32c_dispatched_4096_GBps").Fixed(crc_dispatched, 3);
  json.Key("crc32c_speedup_vs_bytewise").Fixed(crc_speedup, 2);
  json.Key("xor_page_4096_GBps").Fixed(xor_page, 3);
  json.Key("buffer_fetch_hit_Mops").Fixed(fetch_mops, 3);
  json.Key("log_append_flush_512_Kops").Fixed(log_kops, 3).EndObject();
  json.Key("end_to_end").BeginArray();
  for (const EndToEndResult& r : results) {
    json.BeginObject().Key("config").String(r.config).Key("rda").Bool(r.rda);
    json.Key("txns_per_sec").Fixed(r.txns_per_sec, 0);
    json.Key("page_transfers_per_txn").Fixed(r.transfers_per_txn, 2);
    json.EndObject();
  }
  json.EndArray().Key("fault_overhead").BeginObject();
  json.Key("transfers_disabled").Uint(fault_off.total_transfers);
  json.Key("transfers_armed_zero").Uint(fault_zero.total_transfers);
  json.Key("wallclock_ratio_armed_zero").Fixed(fault_wallclock_ratio, 3);
  json.EndObject().Key("span_overhead").BeginObject();
  json.Key("disabled_ns_per_op").Fixed(span_disabled_ns, 3);
  json.Key("enabled_ns_per_op").Fixed(span_enabled_ns, 3);
  json.Key("nested_enabled_ns_per_op").Fixed(span_nested_enabled_ns, 3);
  json.Key("nested_vs_enabled_ratio").Fixed(span_nested_ratio, 3);
  json.Key("disabled_ceiling_ns").Fixed(kSpanDisabledCeilingNs, 1);
  json.Key("nested_ceiling_ratio").Fixed(kSpanNestedCeilingRatio, 2);
  json.EndObject();
  std::printf("\n");
  return rda::bench::WriteReport(out_path, &json) ? 0 : 1;
}
