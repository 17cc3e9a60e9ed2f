// The per-disk write journal (DESIGN.md section 16): journal semantics of
// the raw IoEngine (elevator order, last-writer-wins coalescing,
// purge-on-failure, drain on the watermark-crossing submission), the
// DiskArray integration (journal-hit reads, deferred transfer counters,
// width-0 pass-through), and a journaled Database end to end: durability
// across Crash()+Recover() and run-to-run repeatability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "io/io_engine.h"
#include "storage/disk_array.h"

namespace rda {
namespace {

constexpr size_t kPageSize = 128;

PageImage MakeImage(uint8_t fill) {
  PageImage image(kPageSize);
  std::fill(image.payload.begin(), image.payload.end(), fill);
  return image;
}

io::IoEngineOptions ManualDrainOptions() {
  io::IoEngineOptions options;
  // Watermark far above anything a test submits: no submission drains, so
  // every physical write happens inside an explicit Flush().
  options.queue_watermark = 1u << 20;
  return options;
}

TEST(IoEngineTest, FlushDrainsInElevatorOrderPerDisk) {
  std::vector<std::pair<DiskId, SlotId>> order;
  io::IoEngine engine(2, ManualDrainOptions(),
                      [&order](DiskId disk, SlotId slot, const PageImage&) {
                        order.emplace_back(disk, slot);
                        return Status::Ok();
                      });
  engine.SubmitWrite(0, 7, MakeImage(1), false);
  engine.SubmitWrite(1, 4, MakeImage(2), false);
  engine.SubmitWrite(0, 2, MakeImage(3), false);
  engine.SubmitWrite(0, 5, MakeImage(4), false);
  engine.SubmitWrite(1, 1, MakeImage(5), false);
  EXPECT_EQ(engine.QueueDepth(), 5u);
  ASSERT_TRUE(engine.Flush().ok());
  // Slot-ascending per disk, disks in id order (Flush walks 0, then 1).
  const std::vector<std::pair<DiskId, SlotId>> expected = {
      {0, 2}, {0, 5}, {0, 7}, {1, 1}, {1, 4}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(engine.QueueDepth(), 0u);
  EXPECT_EQ(engine.stats().physical_writes, 5u);
}

TEST(IoEngineTest, RewritesOfQueuedSlotCoalesceLastWriterWins) {
  std::vector<uint8_t> landed;
  io::IoEngine engine(1, ManualDrainOptions(),
                      [&landed](DiskId, SlotId, const PageImage& image) {
                        landed.push_back(image.payload[0]);
                        return Status::Ok();
                      });
  engine.SubmitWrite(0, 3, MakeImage(10), false);
  engine.SubmitWrite(0, 3, MakeImage(20), false);
  engine.SubmitWrite(0, 3, MakeImage(30), false);
  ASSERT_TRUE(engine.Flush().ok());
  // One physical transfer carrying the last submission's bytes.
  ASSERT_EQ(landed.size(), 1u);
  EXPECT_EQ(landed[0], 30);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted_writes, 3u);
  EXPECT_EQ(stats.coalesced_writes, 2u);
  EXPECT_EQ(stats.physical_writes, 1u);
}

TEST(IoEngineTest, CoalescedParitySlotWritesCountAsBatchedRmw) {
  io::IoEngine engine(1, ManualDrainOptions(),
                      [](DiskId, SlotId, const PageImage&) {
                        return Status::Ok();
                      });
  engine.SubmitWrite(0, 9, MakeImage(1), /*is_parity=*/true);
  engine.SubmitWrite(0, 9, MakeImage(2), /*is_parity=*/true);
  engine.SubmitWrite(0, 9, MakeImage(3), /*is_parity=*/true);
  engine.SubmitWrite(0, 4, MakeImage(4), /*is_parity=*/false);
  engine.SubmitWrite(0, 4, MakeImage(5), /*is_parity=*/false);
  ASSERT_TRUE(engine.Flush().ok());
  const auto stats = engine.stats();
  // Each merged parity-slot submission is one read-modify-write the batch
  // absorbed; the data-slot merge is a plain coalesce.
  EXPECT_EQ(stats.batched_parity_rmw, 2u);
  EXPECT_EQ(stats.coalesced_writes, 3u);
  EXPECT_EQ(stats.physical_writes, 2u);
}

TEST(IoEngineTest, ReadFromQueueServesPendingImageWithoutTransfer) {
  uint64_t physical = 0;
  io::IoEngine engine(1, ManualDrainOptions(),
                      [&physical](DiskId, SlotId, const PageImage&) {
                        ++physical;
                        return Status::Ok();
                      });
  engine.SubmitWrite(0, 6, MakeImage(42), false);
  PageImage out;
  ASSERT_TRUE(engine.ReadFromQueue(0, 6, &out));
  EXPECT_EQ(out.payload[0], 42);
  EXPECT_FALSE(engine.ReadFromQueue(0, 7, &out));  // Nothing queued there.
  EXPECT_EQ(physical, 0u);  // The hit was a memory copy, not a transfer.
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_FALSE(engine.ReadFromQueue(0, 6, &out));  // Drained: on medium now.
}

TEST(IoEngineTest, PurgeDropsQueuedWritesAndCompletesTheirFutures) {
  uint64_t physical = 0;
  io::IoEngine engine(2, ManualDrainOptions(),
                      [&physical](DiskId, SlotId, const PageImage&) {
                        ++physical;
                        return Status::Ok();
                      });
  engine.SubmitWrite(0, 1, MakeImage(1), false);
  engine.SubmitWrite(1, 1, MakeImage(2), false);
  engine.PurgeDisk(0);
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(physical, 1u);  // Only the surviving disk's write transferred.
  EXPECT_EQ(engine.stats().purged_writes, 1u);
}

TEST(IoEngineTest, WatermarkCrossingDrainsBeforeSubmitReturns) {
  constexpr uint32_t kWatermark = 4;
  std::vector<SlotId> landed;
  io::IoEngineOptions options;
  options.queue_watermark = kWatermark;
  io::IoEngine engine(1, options,
                      [&landed](DiskId, SlotId slot, const PageImage&) {
                        landed.push_back(slot);
                        return Status::Ok();
                      });
  for (SlotId slot = kWatermark; slot > 1; --slot) {
    engine.SubmitWrite(0, slot, MakeImage(1), false);
  }
  EXPECT_EQ(engine.QueueDepth(), kWatermark - 1);
  EXPECT_EQ(engine.stats().physical_writes, 0u);
  // The watermark-th submission drains the disk on this thread, in elevator
  // order, before it returns — no Flush().
  engine.SubmitWrite(0, 1, MakeImage(1), false);
  EXPECT_EQ(engine.QueueDepth(), 0u);
  EXPECT_EQ(engine.stats().physical_writes, kWatermark);
  const std::vector<SlotId> expected = {1, 2, 3, 4};
  EXPECT_EQ(landed, expected);
}

TEST(IoEngineTest, DestructorDrainsTheJournal) {
  uint64_t physical = 0;
  {
    io::IoEngine engine(1, ManualDrainOptions(),
                        [&physical](DiskId, SlotId, const PageImage&) {
                          ++physical;
                          return Status::Ok();
                        });
    engine.SubmitWrite(0, 1, MakeImage(1), false);
    engine.SubmitWrite(0, 2, MakeImage(2), false);
  }
  EXPECT_EQ(physical, 2u);  // The journal is non-volatile; nothing strands.
}

// --- DiskArray integration ---

DiskArray::Options ArrayOptions() {
  DiskArray::Options options;
  options.data_pages_per_group = 4;
  options.parity_copies = 2;
  options.min_data_pages = 32;
  options.page_size = kPageSize;
  return options;
}

IoPolicy AsyncPolicy() {
  IoPolicy policy;
  policy.width = 1;
  policy.queue_watermark = 1u << 20;  // Manual drains only (determinism).
  return policy;
}

TEST(DiskArrayAsyncTest, WidthZeroLeavesTheSynchronousPathEngineless) {
  auto array = DiskArray::Create(ArrayOptions());
  ASSERT_TRUE(array.ok());
  (*array)->SetIoPolicy(IoPolicy{});  // Default width 0.
  EXPECT_EQ((*array)->io_engine(), nullptr);
  ASSERT_TRUE((*array)->WriteData(0, MakeImage(9)).ok());
  EXPECT_EQ((*array)->counters().page_writes, 1u);  // Counted immediately.
}

TEST(DiskArrayAsyncTest, JournaledWriteDefersCountersUntilFlush) {
  auto array = DiskArray::Create(ArrayOptions());
  ASSERT_TRUE(array.ok());
  (*array)->SetIoPolicy(AsyncPolicy());
  ASSERT_NE((*array)->io_engine(), nullptr);

  ASSERT_TRUE((*array)->WriteData(3, MakeImage(7)).ok());
  // Durable (journaled) but not yet a device transfer:
  EXPECT_EQ((*array)->counters().page_writes, 0u);
  // ...and readable through the journal without a device read.
  PageImage out;
  ASSERT_TRUE((*array)->ReadData(3, &out).ok());
  EXPECT_EQ(out.payload[0], 7);
  EXPECT_EQ((*array)->counters().page_reads, 0u);

  ASSERT_TRUE((*array)->FlushIo().ok());
  EXPECT_EQ((*array)->counters().page_writes, 1u);
  // Post-drain reads come from the medium and count normally.
  ASSERT_TRUE((*array)->ReadData(3, &out).ok());
  EXPECT_EQ(out.payload[0], 7);
  EXPECT_EQ((*array)->counters().page_reads, 1u);
}

TEST(DiskArrayAsyncTest, RepeatedWritesToOnePageCoalesceIntoOneTransfer) {
  auto array = DiskArray::Create(ArrayOptions());
  ASSERT_TRUE(array.ok());
  (*array)->SetIoPolicy(AsyncPolicy());
  for (uint8_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE((*array)->WriteData(0, MakeImage(i)).ok());
  }
  ASSERT_TRUE((*array)->FlushIo().ok());
  EXPECT_EQ((*array)->counters().page_writes, 1u);
  PageImage out;
  ASSERT_TRUE((*array)->ReadData(0, &out).ok());
  EXPECT_EQ(out.payload[0], 5);  // Last writer won.
  EXPECT_EQ((*array)->io_engine()->stats().coalesced_writes, 4u);
}

TEST(DiskArrayAsyncTest, FailDiskPurgesItsQueueAndFlushStaysClean) {
  auto array = DiskArray::Create(ArrayOptions());
  ASSERT_TRUE(array.ok());
  (*array)->SetIoPolicy(AsyncPolicy());
  const PhysicalLocation loc = (*array)->layout().DataLocation(0);
  ASSERT_TRUE((*array)->WriteData(0, MakeImage(1)).ok());
  ASSERT_TRUE((*array)->FailDisk(loc.disk).ok());
  // The journaled write died with the medium; nothing sticky remains.
  ASSERT_TRUE((*array)->FlushIo().ok());
  EXPECT_EQ((*array)->io_engine()->stats().purged_writes, 1u);
  // Writes against the failed disk now surface the synchronous error.
  EXPECT_FALSE((*array)->WriteData(0, MakeImage(2)).ok());
}

TEST(DiskArrayAsyncTest, PersistentDrainFailureEscalatesInsteadOfLosingIt) {
  auto array = DiskArray::Create(ArrayOptions());
  ASSERT_TRUE(array.ok());
  (*array)->SetIoPolicy(AsyncPolicy());  // disk_error_budget = 0 (default).
  FaultConfig faults;
  faults.enabled = true;  // All probabilities zero: scripted faults only.
  (*array)->ArmFaultInjection(faults);
  const PhysicalLocation loc = (*array)->layout().DataLocation(0);
  // More scripted write failures than the retry policy has attempts: the
  // slot is persistently unwritable while the disk stays "live".
  (*array)->injector(loc.disk)->ScheduleTransientWrite(loc.slot, 16);

  // The submitter sees Ok — the journal is modeled durable.
  ASSERT_TRUE((*array)->WriteData(0, MakeImage(5)).ok());
  // The drain cannot land the write. It must NOT vanish silently: the disk
  // is escalated so redundancy machinery (reconstruction, rebuild) carries
  // the durability, and the flush itself reports clean.
  ASSERT_TRUE((*array)->FlushIo().ok());
  EXPECT_TRUE((*array)->DiskFailed(loc.disk));
  EXPECT_EQ((*array)->EscalatedDisks(), std::vector<DiskId>{loc.disk});
  EXPECT_EQ((*array)->policy_stats().escalations, 1u);
  // No sticky residue: later flushes (scrub/rebuild preludes) stay clean.
  EXPECT_TRUE((*array)->FlushIo().ok());
}

TEST(DiskArrayAsyncTest, SetIoPolicyWidthZeroStopsAndDrainsTheEngine) {
  auto array = DiskArray::Create(ArrayOptions());
  ASSERT_TRUE(array.ok());
  (*array)->SetIoPolicy(AsyncPolicy());
  ASSERT_TRUE((*array)->WriteData(1, MakeImage(3)).ok());
  IoPolicy sync;  // width 0
  (*array)->SetIoPolicy(sync);
  EXPECT_EQ((*array)->io_engine(), nullptr);
  // The stop drained the journal: the write reached the medium.
  EXPECT_EQ((*array)->counters().page_writes, 1u);
  PageImage out;
  ASSERT_TRUE((*array)->ReadData(1, &out).ok());
  EXPECT_EQ(out.payload[0], 3);
}

// --- Database end-to-end ---

DatabaseOptions AsyncDbOptions(bool force, bool rda) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 32;
  options.array.page_size = kPageSize;
  options.buffer.capacity = 12;
  options.txn.force = force;
  options.txn.rda_undo = rda;
  if (!force) {
    options.checkpoint_interval_updates = 16;
  }
  options.io.width = 2;
  options.io.queue_watermark = 4;  // Small: exercise watermark drains too.
  return options;
}

TEST(DatabaseAsyncIoTest, CommittedWritesSurviveCrashWithAsyncEngine) {
  auto db = Database::Open(AsyncDbOptions(/*force=*/true, /*rda=*/true));
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size());
  for (PageId page = 0; page < 8; ++page) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    std::fill(bytes.begin(), bytes.end(), static_cast<uint8_t>(page + 100));
    ASSERT_TRUE((*db)->WritePage(*txn, page, bytes).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  (*db)->Crash();
  ASSERT_TRUE((*db)->Recover().ok());
  for (PageId page = 0; page < 8; ++page) {
    auto payload = (*db)->RawReadPage(page);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ((*payload)[kDataRegionOffset], static_cast<uint8_t>(page + 100))
        << "page " << page;
  }
  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

// Everything the journal decides — which writes coalesce, when a disk
// drains, the order the head visits slots — depends only on the submission
// sequence, so a single-client run repeats exactly from its seed.
struct JournalRunFingerprint {
  std::vector<uint64_t> disk_counters;  // Per disk: reads, writes, retries.
  std::vector<double> disk_busy_ms;     // Per-disk service clocks.
  std::vector<std::pair<std::string, uint64_t>> io_counters;  // io.*
  uint64_t queue_depth = 0;
};

JournalRunFingerprint RunSeededJournalWorkload(uint64_t seed) {
  JournalRunFingerprint print;
  auto db = Database::Open(AsyncDbOptions(/*force=*/false, /*rda=*/true));
  EXPECT_TRUE(db.ok());
  if (!db.ok()) {
    return print;
  }
  Random rng(seed);
  std::vector<uint8_t> bytes((*db)->user_page_size());
  for (int t = 0; t < 120; ++t) {
    auto txn = (*db)->Begin();
    EXPECT_TRUE(txn.ok());
    const uint64_t writes = rng.UniformRange(1, 4);
    for (uint64_t w = 0; w < writes; ++w) {
      const PageId page = rng.Uniform((*db)->num_pages());
      std::fill(bytes.begin(), bytes.end(),
                static_cast<uint8_t>(rng.Uniform(256)));
      EXPECT_TRUE((*db)->WritePage(*txn, page, bytes).ok());
    }
    if (rng.Bernoulli(0.125)) {
      EXPECT_TRUE((*db)->Abort(*txn).ok());
    } else {
      EXPECT_TRUE((*db)->Commit(*txn).ok());
    }
  }
  DiskArray* array = (*db)->array();
  for (DiskId d = 0; d < array->num_disks(); ++d) {
    const IoCounters counters = array->disk(d)->counters();
    print.disk_counters.push_back(counters.page_reads);
    print.disk_counters.push_back(counters.page_writes);
    print.disk_counters.push_back(counters.io_retries);
    print.disk_busy_ms.push_back(array->disk(d)->busy_ms());
  }
  for (const auto& [name, value] : (*db)->SnapshotMetrics().counters) {
    if (name.rfind("io.", 0) == 0) {
      print.io_counters.emplace_back(name, value);
    }
  }
  print.queue_depth = array->io_engine()->QueueDepth();
  return print;
}

TEST(DatabaseAsyncIoTest, SingleClientJournalRunRepeatsExactly) {
  const JournalRunFingerprint first = RunSeededJournalWorkload(17);
  const JournalRunFingerprint second = RunSeededJournalWorkload(17);
  ASSERT_FALSE(first.io_counters.empty());
  EXPECT_EQ(first.disk_counters, second.disk_counters);
  EXPECT_EQ(first.disk_busy_ms, second.disk_busy_ms);
  EXPECT_EQ(first.io_counters, second.io_counters);
  EXPECT_EQ(first.queue_depth, second.queue_depth);
}

// The reviewer-found regression: a FORCE commit whose journaled data-page
// write later fails persistently on a still-live disk. The commit already
// reported durable, so the write must not be dropped — the drain escalates
// the disk and the committed bytes stay reachable through reconstruction,
// then a rebuild makes the array whole again.
TEST(DatabaseAsyncIoTest, CommitSurvivesPersistentDrainFailureViaRedundancy) {
  DatabaseOptions options = AsyncDbOptions(/*force=*/true, /*rda=*/true);
  options.io.queue_watermark = 1u << 20;  // Drain only at Crash()'s flush.
  options.fault.enabled = true;  // Zero probabilities: scripted faults only.
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  const PhysicalLocation loc = (*db)->array()->layout().DataLocation(0);
  (*db)->array()->injector(loc.disk)->ScheduleTransientWrite(loc.slot, 16);

  std::vector<uint8_t> bytes((*db)->user_page_size());
  for (PageId page = 0; page < 8; ++page) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    std::fill(bytes.begin(), bytes.end(), static_cast<uint8_t>(page + 40));
    ASSERT_TRUE((*db)->WritePage(*txn, page, bytes).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  (*db)->Crash();  // Drains the journal: page 0's write cannot land.
  auto recovered = (*db)->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*db)->array()->EscalatedDisks(), std::vector<DiskId>{loc.disk});
  // Every committed page is still readable — page 0 through reconstruction.
  for (PageId page = 0; page < 8; ++page) {
    auto payload = (*db)->RawReadPage(page);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ((*payload)[kDataRegionOffset], static_cast<uint8_t>(page + 40))
        << "page " << page;
  }
  // The rebuild closes the loop: healthy array, consistent parity.
  auto repair = (*db)->RepairEscalations();
  ASSERT_TRUE(repair.ok());
  EXPECT_EQ(repair->repaired, 1u);
  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

TEST(DatabaseAsyncIoTest, MediaRebuildRestoresAFailedDiskUnderAsyncIo) {
  auto db = Database::Open(AsyncDbOptions(/*force=*/true, /*rda=*/true));
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size());
  for (PageId page = 0; page < 8; ++page) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    std::fill(bytes.begin(), bytes.end(), static_cast<uint8_t>(page + 1));
    ASSERT_TRUE((*db)->WritePage(*txn, page, bytes).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  ASSERT_TRUE((*db)->array()->FailDisk(2).ok());
  ASSERT_TRUE((*db)->RebuildDisk(2).ok());
  for (PageId page = 0; page < 8; ++page) {
    auto payload = (*db)->RawReadPage(page);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ((*payload)[kDataRegionOffset], static_cast<uint8_t>(page + 1));
  }
  auto parity_ok = (*db)->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

}  // namespace
}  // namespace rda
