// Micro-benchmarks of the library's hot primitives (google-benchmark):
// parity XOR, CRC, log append/flush, buffer fetch, and the full
// twin-parity propagate path.
#include <benchmark/benchmark.h>

#include "buffer/buffer_pool.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/xor_util.h"
#include "core/database.h"

namespace {

void BM_XorPage(benchmark::State& state) {
  const size_t size = state.range(0);
  std::vector<uint8_t> a(size, 0x5a);
  std::vector<uint8_t> b(size, 0xa5);
  for (auto _ : state) {
    rda::XorInto(a.data(), b.data(), size);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_XorPage)->Arg(512)->Arg(4096)->Arg(65536);

void BM_Crc32c(benchmark::State& state) {
  const size_t size = state.range(0);
  std::vector<uint8_t> data(size, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rda::Crc32c(data.data(), size));
  }
  state.SetBytesProcessed(state.iterations() * size);
  state.SetLabel(rda::Crc32cImplName());
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(4096);

// The pre-overhaul implementation — one table, one byte per step — kept as
// the speedup reference for BM_Crc32c.
uint32_t Crc32cBytewise(const uint8_t* data, size_t size) {
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
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

void BM_Crc32cBytewise(benchmark::State& state) {
  const size_t size = state.range(0);
  std::vector<uint8_t> data(size, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cBytewise(data.data(), size));
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_Crc32cBytewise)->Arg(512)->Arg(4096);

void BM_Crc32cSoftware(benchmark::State& state) {
  const size_t size = state.range(0);
  std::vector<uint8_t> data(size, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rda::Crc32cSoftware(data.data(), size));
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_Crc32cSoftware)->Arg(512)->Arg(4096);

void BM_Crc32cHardware(benchmark::State& state) {
  if (!rda::Crc32cHardwareAvailable()) {
    state.SkipWithError("no CRC32C instructions on this CPU");
    return;
  }
  const size_t size = state.range(0);
  std::vector<uint8_t> data(size, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rda::Crc32cHardware(data.data(), size));
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_Crc32cHardware)->Arg(512)->Arg(4096);

// All-hit Fetch loop over a resident working set: the path the O(1) LRU
// recency list serves (hash lookup + list splice, no scan).
void BM_BufferFetchHit(benchmark::State& state) {
  constexpr size_t kPageSize = 512;
  rda::BufferPool::Options options;
  options.capacity = static_cast<uint32_t>(state.range(0));
  rda::BufferPool pool(
      options,
      [](rda::PageId, rda::PageImage* out) {
        *out = rda::PageImage(kPageSize);
        return rda::Status::Ok();
      },
      [](rda::Frame*) { return rda::Status::Ok(); });
  for (rda::PageId p = 0; p < options.capacity; ++p) {
    if (!pool.Fetch(p, nullptr).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  rda::PageId page = 0;
  for (auto _ : state) {
    auto frame = pool.Fetch(page, nullptr);
    if (!frame.ok()) {
      state.SkipWithError("fetch failed");
      return;
    }
    benchmark::DoNotOptimize(*frame);
    page = (page + 7) % options.capacity;  // Stride keeps the LRU churning.
  }
}
BENCHMARK(BM_BufferFetchHit)->Arg(64)->Arg(1024);

rda::DatabaseOptions SmallDb() {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = 8;
  options.array.min_data_pages = 256;
  options.array.page_size = 512;
  options.buffer.capacity = 32;
  options.txn.force = true;
  options.txn.rda_undo = true;
  return options;
}

// The loop both commit benches time: four random page writes per FORCE
// commit.
void RunCommitForce(benchmark::State& state,
                    const rda::DatabaseOptions& options) {
  auto db = rda::Database::Open(options);
  rda::Random rng(1);
  std::vector<uint8_t> bytes((*db)->user_page_size());
  for (auto _ : state) {
    rng.FillBytes(&bytes);
    auto txn = (*db)->Begin();
    for (int i = 0; i < 4; ++i) {
      const rda::PageId page =
          static_cast<rda::PageId>(rng.Uniform((*db)->num_pages()));
      if (!(*db)->WritePage(*txn, page, bytes).ok()) {
        state.SkipWithError("write failed");
        return;
      }
    }
    if (!(*db)->Commit(*txn).ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
  state.counters["page_transfers/txn"] = benchmark::Counter(
      static_cast<double>((*db)->TotalPageTransfers()) / state.iterations());
}

void BM_TxnCommitForce(benchmark::State& state) {
  RunCommitForce(state, SmallDb());
}
BENCHMARK(BM_TxnCommitForce);

// Same workload with metrics and tracing off: the hub is null and every
// instrumentation site collapses to a pointer test. Comparing the two
// checks the observability layer's cost on the commit path.
void BM_TxnCommitForceObsDisabled(benchmark::State& state) {
  rda::DatabaseOptions options = SmallDb();
  options.obs.enable_metrics = false;
  options.obs.enable_trace = false;
  RunCommitForce(state, options);
}
BENCHMARK(BM_TxnCommitForceObsDisabled);

void BM_LogAppendFlush(benchmark::State& state) {
  rda::LogManager log(512, {});
  rda::LogRecord record;
  record.type = rda::LogRecordType::kBeforeImage;
  record.txn = 1;
  record.page = 7;
  record.before.assign(state.range(0), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(record));
    if (!log.Flush().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
  }
}
BENCHMARK(BM_LogAppendFlush)->Arg(64)->Arg(512);

}  // namespace
