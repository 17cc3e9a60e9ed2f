#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "storage/data_page_meta.h"
#include "storage/data_striping_layout.h"
#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "storage/io_policy.h"
#include "storage/parity_striping_layout.h"

namespace rda {
namespace {

TEST(DiskTest, ReadBackWhatWasWritten) {
  Disk disk(0, 8, 64);
  PageImage image(64);
  image.payload[5] = 0xab;
  image.header.timestamp = 42;
  ASSERT_TRUE(disk.Write(3, image).ok());
  PageImage read;
  ASSERT_TRUE(disk.Read(3, &read).ok());
  EXPECT_EQ(read, image);
}

TEST(DiskTest, CountsTransfers) {
  Disk disk(0, 8, 64);
  PageImage image(64);
  ASSERT_TRUE(disk.Write(0, image).ok());
  ASSERT_TRUE(disk.Write(1, image).ok());
  PageImage read;
  ASSERT_TRUE(disk.Read(0, &read).ok());
  EXPECT_EQ(disk.counters().page_writes, 2u);
  EXPECT_EQ(disk.counters().page_reads, 1u);
  EXPECT_EQ(disk.counters().total(), 3u);
}

TEST(DiskTest, OutOfRangeRejected) {
  Disk disk(0, 8, 64);
  PageImage image(64);
  EXPECT_TRUE(disk.Write(8, image).IsInvalidArgument());
  PageImage read;
  EXPECT_TRUE(disk.Read(9, &read).IsInvalidArgument());
}

TEST(DiskTest, WrongPayloadSizeRejected) {
  Disk disk(0, 8, 64);
  PageImage image(32);
  EXPECT_TRUE(disk.Write(0, image).IsInvalidArgument());
}

TEST(DiskTest, FailureLosesContentAndBlocksIo) {
  Disk disk(0, 4, 64);
  PageImage image(64);
  image.payload[0] = 0x11;
  ASSERT_TRUE(disk.Write(0, image).ok());
  disk.Fail();
  PageImage read;
  EXPECT_TRUE(disk.Read(0, &read).IsIoError());
  EXPECT_TRUE(disk.Write(0, image).IsIoError());
  disk.Replace();
  ASSERT_TRUE(disk.Read(0, &read).ok());
  EXPECT_EQ(read.payload[0], 0);  // Fresh medium, old content gone.
}

TEST(DiskTest, SilentCorruptionDetected) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  PageImage image(64);
  image.payload[10] = 0x77;
  ASSERT_TRUE(disk.Write(2, image).ok());
  injector.ScheduleBitFlip(2, /*offset=*/10, /*mask=*/0xff);
  PageImage read;
  EXPECT_TRUE(disk.Read(2, &read).IsCorruption());
  // The flip damaged the medium, not just one read: it stays corrupt...
  EXPECT_TRUE(disk.Read(2, &read).IsCorruption());
  // ...until the slot is rewritten.
  ASSERT_TRUE(disk.Write(2, image).ok());
  ASSERT_TRUE(disk.Read(2, &read).ok());
  EXPECT_EQ(read.payload[10], 0x77);
}

TEST(DataPageMetaTest, RoundTrip) {
  std::vector<uint8_t> payload(64, 0xee);
  DataPageMeta meta;
  meta.txn_id = 77;
  meta.page_lsn = 123456789;
  meta.chain_prev = 42;
  StoreDataMeta(meta, &payload);
  EXPECT_EQ(LoadDataMeta(payload), meta);
  // User region untouched.
  EXPECT_EQ(payload[kDataRegionOffset], 0xee);
}

// ---------------------------------------------------------------------------
// Layout properties, swept over group sizes and both kinds.
// ---------------------------------------------------------------------------

struct LayoutCase {
  LayoutKind kind;
  uint32_t n;
  // Parity pages each group must have: the twins.
  uint32_t parity_pages;
  uint32_t min_pages;
};

class LayoutPropertyTest : public ::testing::TestWithParam<LayoutCase> {
 protected:
  std::unique_ptr<Layout> MakeLayout() {
    const LayoutCase& c = GetParam();
    if (c.kind == LayoutKind::kDataStriping) {
      auto result = DataStripingLayout::Create(c.n, c.min_pages);
      EXPECT_TRUE(result.ok());
      return std::move(result).value();
    }
    auto result = ParityStripingLayout::Create(c.n, c.min_pages);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST_P(LayoutPropertyTest, CapacityCoversRequest) {
  auto layout = MakeLayout();
  EXPECT_GE(layout->num_data_pages(), GetParam().min_pages);
  EXPECT_EQ(layout->num_disks(), GetParam().n + GetParam().parity_pages);
}

TEST_P(LayoutPropertyTest, DataMappingIsInjective) {
  auto layout = MakeLayout();
  std::set<std::pair<DiskId, SlotId>> seen;
  for (PageId page = 0; page < layout->num_data_pages(); ++page) {
    const PhysicalLocation loc = layout->DataLocation(page);
    EXPECT_LT(loc.disk, layout->num_disks());
    EXPECT_LT(loc.slot, layout->slots_per_disk());
    EXPECT_TRUE(seen.insert({loc.disk, loc.slot}).second)
        << "collision at page " << page;
  }
}

TEST_P(LayoutPropertyTest, GroupMembersOnDistinctDisks) {
  auto layout = MakeLayout();
  for (GroupId group = 0; group < layout->num_groups(); ++group) {
    std::set<DiskId> disks;
    for (uint32_t i = 0; i < layout->data_pages_per_group(); ++i) {
      disks.insert(layout->DataLocation(layout->PageAt(group, i)).disk);
    }
    for (uint32_t t = 0; t < GetParam().parity_pages; ++t) {
      disks.insert(layout->ParityLocation(group, t).disk);
    }
    EXPECT_EQ(disks.size(),
              layout->data_pages_per_group() + GetParam().parity_pages)
        << "group " << group << " reuses a disk";
  }
}

TEST_P(LayoutPropertyTest, GroupIndexRoundTrips) {
  auto layout = MakeLayout();
  for (PageId page = 0; page < layout->num_data_pages(); ++page) {
    const GroupId group = layout->GroupOf(page);
    const uint32_t index = layout->IndexInGroup(page);
    EXPECT_LT(group, layout->num_groups());
    EXPECT_LT(index, layout->data_pages_per_group());
    EXPECT_EQ(layout->PageAt(group, index), page);
  }
}

TEST_P(LayoutPropertyTest, ParityAndDataSlotsDisjoint) {
  auto layout = MakeLayout();
  std::set<std::pair<DiskId, SlotId>> data_slots;
  for (PageId page = 0; page < layout->num_data_pages(); ++page) {
    const PhysicalLocation loc = layout->DataLocation(page);
    data_slots.insert({loc.disk, loc.slot});
  }
  std::set<std::pair<DiskId, SlotId>> parity_slots;
  for (GroupId group = 0; group < layout->num_groups(); ++group) {
    for (uint32_t t = 0; t < GetParam().parity_pages; ++t) {
      const PhysicalLocation loc = layout->ParityLocation(group, t);
      EXPECT_TRUE(parity_slots.insert({loc.disk, loc.slot}).second)
          << "parity collision in group " << group;
      EXPECT_FALSE(data_slots.contains({loc.disk, loc.slot}))
          << "parity overlays data in group " << group;
    }
  }
}

TEST_P(LayoutPropertyTest, ParityRotatesAcrossDisks) {
  auto layout = MakeLayout();
  if (layout->num_groups() < layout->num_disks()) {
    GTEST_SKIP() << "too few groups to observe rotation";
  }
  std::map<DiskId, int> load;
  for (GroupId group = 0; group < layout->num_groups(); ++group) {
    ++load[layout->ParityLocation(group, 0).disk];
  }
  // No disk may hold more than twice its fair share of primary parity.
  const double fair =
      static_cast<double>(layout->num_groups()) / layout->num_disks();
  for (const auto& [disk, count] : load) {
    EXPECT_LE(count, 2 * fair + 1) << "parity hotspot on disk " << disk;
  }
  EXPECT_GT(load.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, LayoutPropertyTest,
    ::testing::Values(
        LayoutCase{LayoutKind::kDataStriping, 4, 2, 64},
        LayoutCase{LayoutKind::kDataStriping, 10, 2, 500},
        LayoutCase{LayoutKind::kDataStriping, 1, 2, 16},
        LayoutCase{LayoutKind::kDataStriping, 7, 2, 100},
        LayoutCase{LayoutKind::kParityStriping, 4, 2, 64},
        LayoutCase{LayoutKind::kParityStriping, 10, 2, 500},
        LayoutCase{LayoutKind::kParityStriping, 1, 2, 16},
        LayoutCase{LayoutKind::kParityStriping, 7, 2, 100}));

// Parity striping keeps consecutive pages on one disk (its design goal);
// data striping spreads them (Section 3).
TEST(LayoutContrastTest, SequentialityDiffers) {
  auto ps = ParityStripingLayout::Create(4, 96);
  auto ds = DataStripingLayout::Create(4, 96);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(ds.ok());
  int ps_same_disk = 0;
  int ds_same_disk = 0;
  for (PageId page = 0; page + 1 < 64; ++page) {
    ps_same_disk += ((*ps)->DataLocation(page).disk ==
                     (*ps)->DataLocation(page + 1).disk);
    ds_same_disk += ((*ds)->DataLocation(page).disk ==
                     (*ds)->DataLocation(page + 1).disk);
  }
  EXPECT_GT(ps_same_disk, 40);  // Mostly sequential within a disk.
  EXPECT_EQ(ds_same_disk, 0);   // Fully interleaved.
}

TEST(LayoutTest, InvalidArgumentsRejected) {
  EXPECT_FALSE(DataStripingLayout::Create(0, 10).ok());
  EXPECT_FALSE(DataStripingLayout::Create(4, 0).ok());
  EXPECT_FALSE(ParityStripingLayout::Create(0, 10).ok());
  EXPECT_FALSE(ParityStripingLayout::Create(4, 0).ok());
}

TEST(DiskArrayTest, EndToEndReadWrite) {
  DiskArray::Options options;
  options.data_pages_per_group = 4;
  options.min_data_pages = 32;
  options.page_size = 128;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  PageImage image(128);
  image.payload[0] = 0x5a;
  ASSERT_TRUE((*array)->WriteData(7, image).ok());
  PageImage read;
  ASSERT_TRUE((*array)->ReadData(7, &read).ok());
  EXPECT_EQ(read.payload[0], 0x5a);
}

TEST(DiskArrayTest, ParityPagesIndependentOfData) {
  DiskArray::Options options;
  options.data_pages_per_group = 4;
  options.min_data_pages = 32;
  options.page_size = 128;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  PageImage parity(128);
  parity.payload[1] = 0x77;
  parity.header.parity_state = ParityState::kCommitted;
  ASSERT_TRUE((*array)->WriteParity(3, 0, parity).ok());
  PageImage read;
  ASSERT_TRUE((*array)->ReadParity(3, 0, &read).ok());
  EXPECT_EQ(read.payload[1], 0x77);
  EXPECT_EQ(read.header.parity_state, ParityState::kCommitted);
}

TEST(DiskArrayTest, RangeChecks) {
  DiskArray::Options options;
  options.min_data_pages = 16;
  options.page_size = 64;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  PageImage image(64);
  EXPECT_TRUE(
      (*array)->WriteData((*array)->num_data_pages(), image)
          .IsInvalidArgument());
  EXPECT_TRUE((*array)->WriteParity(0, 2, image).IsInvalidArgument());
  EXPECT_TRUE(
      (*array)->WriteParity((*array)->num_groups(), 0, image)
          .IsInvalidArgument());
}

TEST(DiskArrayTest, FailAndReplaceDisk) {
  DiskArray::Options options;
  options.min_data_pages = 16;
  options.page_size = 64;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  ASSERT_TRUE((*array)->FailDisk(1).ok());
  EXPECT_TRUE((*array)->DiskFailed(1));
  EXPECT_EQ((*array)->NumFailedDisks(), 1u);
  ASSERT_TRUE((*array)->ReplaceDisk(1).ok());
  EXPECT_FALSE((*array)->DiskFailed(1));
  EXPECT_TRUE((*array)->FailDisk(99).IsInvalidArgument());
}

TEST(DiskArrayTest, AggregateCounters) {
  DiskArray::Options options;
  options.min_data_pages = 16;
  options.page_size = 64;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  PageImage image(64);
  for (PageId page = 0; page < 8; ++page) {
    ASSERT_TRUE((*array)->WriteData(page, image).ok());
  }
  EXPECT_EQ((*array)->counters().page_writes, 8u);
  (*array)->ResetCounters();
  EXPECT_EQ((*array)->counters().total(), 0u);
}


TEST(DiskTest, ReplaceWithoutFailureIsHarmless) {
  Disk disk(0, 4, 64);
  PageImage image(64);
  image.payload[0] = 0x42;
  ASSERT_TRUE(disk.Write(0, image).ok());
  disk.Replace();  // No failure in effect: content stays.
  PageImage read;
  ASSERT_TRUE(disk.Read(0, &read).ok());
  EXPECT_EQ(read.payload[0], 0x42);
}

TEST(DiskTest, HeaderCorruptionDetected) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  PageImage image(64);
  image.header.timestamp = 7;
  ASSERT_TRUE(disk.Write(1, image).ok());
  // offset == page_size addresses the out-of-band header timestamp.
  injector.ScheduleBitFlip(1, /*offset=*/64, /*mask=*/0x01);
  PageImage read;
  EXPECT_TRUE(disk.Read(1, &read).IsCorruption());
}

TEST(FaultInjectorTest, TransientReadFailsOnceThenRecovers) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  PageImage image(64);
  image.payload[0] = 0x1d;
  ASSERT_TRUE(disk.Write(0, image).ok());
  injector.ScheduleTransientRead(0, /*count=*/2);
  PageImage read;
  EXPECT_TRUE(disk.Read(0, &read).IsIoError());
  EXPECT_TRUE(disk.Read(0, &read).IsIoError());
  ASSERT_TRUE(disk.Read(0, &read).ok());  // Device recovered by itself.
  EXPECT_EQ(read.payload[0], 0x1d);
  EXPECT_EQ(injector.stats().transient_reads, 2u);
}

TEST(FaultInjectorTest, TransientWriteStoresNothing) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  PageImage first(64);
  first.payload[0] = 0x01;
  ASSERT_TRUE(disk.Write(3, first).ok());
  PageImage second(64);
  second.payload[0] = 0x02;
  injector.ScheduleTransientWrite(3);
  EXPECT_TRUE(disk.Write(3, second).IsIoError());
  PageImage read;
  ASSERT_TRUE(disk.Read(3, &read).ok());
  EXPECT_EQ(read.payload[0], 0x01);  // The failed write left no trace.
  ASSERT_TRUE(disk.Write(3, second).ok());  // Retry succeeds.
  ASSERT_TRUE(disk.Read(3, &read).ok());
  EXPECT_EQ(read.payload[0], 0x02);
}

TEST(FaultInjectorTest, LatentSectorStickyUntilRewrite) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  PageImage image(64);
  image.payload[5] = 0x3c;
  ASSERT_TRUE(disk.Write(1, image).ok());
  injector.InjectLatentSector(1);
  PageImage read;
  EXPECT_TRUE(disk.Read(1, &read).IsIoError());
  EXPECT_TRUE(disk.Read(1, &read).IsIoError());  // Sticky, not transient.
  EXPECT_TRUE(injector.HasLatent(1));
  ASSERT_TRUE(disk.Read(0, &read).ok());  // Other slots unaffected.
  ASSERT_TRUE(disk.Write(1, image).ok());  // Rewriting remaps the sector.
  EXPECT_FALSE(injector.HasLatent(1));
  ASSERT_TRUE(disk.Read(1, &read).ok());
  EXPECT_EQ(read.payload[5], 0x3c);
}

TEST(FaultInjectorTest, TornWriteReportsSuccessThenCorruption) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  PageImage old_image(64);
  std::fill(old_image.payload.begin(), old_image.payload.end(), 0xaa);
  ASSERT_TRUE(disk.Write(2, old_image).ok());
  PageImage new_image(64);
  std::fill(new_image.payload.begin(), new_image.payload.end(), 0xbb);
  injector.ScheduleTornWrite(2);
  ASSERT_TRUE(disk.Write(2, new_image).ok());  // The tear is silent.
  PageImage read;
  EXPECT_TRUE(disk.Read(2, &read).IsCorruption());
  EXPECT_EQ(injector.stats().torn_writes, 1u);
  // A clean rewrite repairs the slot.
  ASSERT_TRUE(disk.Write(2, new_image).ok());
  ASSERT_TRUE(disk.Read(2, &read).ok());
  EXPECT_EQ(read.payload, new_image.payload);
}

TEST(FaultInjectorTest, ReplaceClearsLatentState) {
  Disk disk(0, 4, 64);
  FaultInjector injector((FaultConfig()));
  disk.AttachFaultInjector(&injector);
  injector.InjectLatentSector(0);
  injector.InjectLatentSector(2);
  EXPECT_EQ(injector.latent_count(), 2u);
  disk.Fail();
  disk.Replace();
  EXPECT_EQ(injector.latent_count(), 0u);  // New platters, no latent errors.
  PageImage read;
  ASSERT_TRUE(disk.Read(0, &read).ok());
  // Stats survive Replace: they describe the injector, not the medium.
  EXPECT_EQ(injector.stats().latent_sectors, 2u);
}

TEST(FaultInjectorTest, SeededRandomFaultsAreReproducibleAndCapped) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 42;
  config.transient_read_p = 0.5;
  config.max_random_faults = 3;
  FaultInjector a(config);
  FaultInjector b(config);
  uint32_t faults_a = 0;
  for (SlotId s = 0; s < 100; ++s) {
    const FaultDecision da = a.OnRead(s, 64);
    const FaultDecision db = b.OnRead(s, 64);
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind));
    if (da.kind != FaultKind::kNone) {
      ++faults_a;
    }
  }
  EXPECT_EQ(faults_a, 3u);  // max_random_faults bounds the damage.
}

TEST(IoPolicyTest, RetryClassification) {
  EXPECT_TRUE(RetryableIoError(Status::IoError("x"), /*disk_failed=*/false));
  // A failed disk is degraded mode, not a transient.
  EXPECT_FALSE(RetryableIoError(Status::IoError("x"), /*disk_failed=*/true));
  // Checksums do not heal by re-reading.
  EXPECT_FALSE(RetryableIoError(Status::Corruption("x"), false));
  EXPECT_FALSE(RetryableIoError(Status::Ok(), false));
  EXPECT_DOUBLE_EQ(RetryBackoffMs(1), kRetryBackoffMs);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(3), 3 * kRetryBackoffMs);
}

TEST(DiskArrayFaultTest, RetryAbsorbsTransientsAndCounts) {
  DiskArray::Options options;
  options.min_data_pages = 8;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  FaultConfig config;
  config.enabled = true;
  (*array)->ArmFaultInjection(config);
  PageImage image((*array)->page_size());
  image.payload[0] = 0x7e;
  ASSERT_TRUE((*array)->WriteData(0, image).ok());
  const DiskId disk = (*array)->layout().DataLocation(0).disk;
  (*array)->injector(disk)->ScheduleTransientRead(
      (*array)->layout().DataLocation(0).slot, 2);
  PageImage read;
  ASSERT_TRUE((*array)->ReadData(0, &read).ok());  // 2 retries absorb it.
  EXPECT_EQ(read.payload[0], 0x7e);
  EXPECT_EQ((*array)->policy_stats().io_retries, 2u);
  EXPECT_EQ((*array)->policy_stats().transient_faults, 1u);
  EXPECT_EQ((*array)->policy_stats().sector_errors, 0u);
}

TEST(DiskArrayFaultTest, ExhaustedRetriesSurfaceSectorError) {
  DiskArray::Options options;
  options.min_data_pages = 8;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  FaultConfig config;
  config.enabled = true;
  (*array)->ArmFaultInjection(config);
  const DiskId disk = (*array)->layout().DataLocation(0).disk;
  (*array)->injector(disk)->InjectLatentSector(
      (*array)->layout().DataLocation(0).slot);
  PageImage read;
  EXPECT_TRUE((*array)->ReadData(0, &read).IsIoError());
  EXPECT_EQ((*array)->policy_stats().sector_errors, 1u);
  EXPECT_EQ((*array)->policy_stats().transient_faults, 0u);
}

// Writes are synchronous: a write that exhausts its retries on a live disk
// returns the error to its caller, which decides what to do. Without an
// error budget the disk stays in service and nothing escalates.
TEST(DiskArrayFaultTest, ExhaustedWriteRetriesSurfaceToTheCaller) {
  DiskArray::Options options;
  options.min_data_pages = 8;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  FaultConfig config;
  config.enabled = true;
  (*array)->ArmFaultInjection(config);
  const PhysicalLocation loc = (*array)->layout().DataLocation(0);
  // More scripted failures than the retry policy has attempts.
  (*array)->injector(loc.disk)->ScheduleTransientWrite(loc.slot, 16);
  PageImage image((*array)->page_size());
  EXPECT_TRUE((*array)->WriteData(0, image).IsIoError());
  EXPECT_EQ((*array)->policy_stats().io_retries,
            IoPolicy{}.max_write_retries);
  EXPECT_EQ((*array)->policy_stats().sector_errors, 1u);
  EXPECT_FALSE((*array)->DiskFailed(loc.disk));
  EXPECT_TRUE((*array)->EscalatedDisks().empty());
}

TEST(DiskArrayFaultTest, ErrorBudgetEscalatesToDiskFailure) {
  DiskArray::Options options;
  options.min_data_pages = 8;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  IoPolicy policy;
  policy.disk_error_budget = 2;
  (*array)->SetIoPolicy(policy);
  (*array)->RecordSectorError(0);
  EXPECT_FALSE((*array)->DiskFailed(0));
  EXPECT_TRUE((*array)->EscalatedDisks().empty());
  (*array)->RecordSectorError(0);
  EXPECT_TRUE((*array)->DiskFailed(0));
  ASSERT_EQ((*array)->EscalatedDisks().size(), 1u);
  EXPECT_EQ((*array)->EscalatedDisks()[0], 0u);
  EXPECT_EQ((*array)->policy_stats().escalations, 1u);
  // Replacing the disk clears the escalation flag and refills the budget.
  ASSERT_TRUE((*array)->ReplaceDisk(0).ok());
  EXPECT_TRUE((*array)->EscalatedDisks().empty());
  EXPECT_FALSE((*array)->DiskFailed(0));
}

TEST(IoCountersTest, Arithmetic) {
  IoCounters a{3, 4};
  IoCounters b{1, 2};
  a += b;
  EXPECT_EQ(a.page_reads, 4u);
  EXPECT_EQ(a.page_writes, 6u);
  EXPECT_EQ(a.total(), 10u);
  const IoCounters d = a - b;
  EXPECT_EQ(d.page_reads, 3u);
  EXPECT_EQ(d.page_writes, 4u);
}

TEST(DataPageMetaTest, DefaultsAreInvalid) {
  std::vector<uint8_t> payload(64, 0);
  const DataPageMeta meta = LoadDataMeta(payload);
  // A zeroed page decodes as txn 0 (invalid), lsn 0, chain 0 — and chain 0
  // is a VALID page id, so writers must always stamp chain_prev explicitly.
  EXPECT_EQ(meta.txn_id, kInvalidTxnId);
  EXPECT_EQ(meta.page_lsn, 0u);
}

TEST(DataPageMetaTest, StoreDoesNotTouchReservedPadding) {
  std::vector<uint8_t> payload(64, 0xCC);
  StoreDataMeta(DataPageMeta{}, &payload);
  EXPECT_EQ(payload[20], 0xCC);  // Reserved bytes [20, 24) untouched.
  EXPECT_EQ(payload[23], 0xCC);
}

TEST(DataStripingTest, StripeGeometryExact) {
  auto layout = DataStripingLayout::Create(4, 40);
  ASSERT_TRUE(layout.ok());
  // 40 pages / 4 per group = 10 stripes; 6 disks.
  EXPECT_EQ((*layout)->num_groups(), 10u);
  EXPECT_EQ((*layout)->num_disks(), 6u);
  EXPECT_EQ((*layout)->slots_per_disk(), 10u);
  // Every member of stripe g sits at slot g.
  for (GroupId g = 0; g < 10; ++g) {
    for (uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ((*layout)->DataLocation((*layout)->PageAt(g, i)).slot, g);
    }
    EXPECT_EQ((*layout)->ParityLocation(g, 0).slot, g);
    EXPECT_EQ((*layout)->ParityLocation(g, 1).slot, g);
  }
}

TEST(DataStripingTest, TwinParityRotatesTogether) {
  auto layout = DataStripingLayout::Create(4, 60);
  ASSERT_TRUE(layout.ok());
  // Across any window of num_disks consecutive stripes, each disk hosts
  // primary parity exactly once (left-symmetric rotation).
  const uint32_t d = (*layout)->num_disks();
  std::set<DiskId> seen;
  for (GroupId g = 0; g < d; ++g) {
    seen.insert((*layout)->ParityLocation(g, 0).disk);
  }
  EXPECT_EQ(seen.size(), d);
}

TEST(ParityStripingTest, AreaGeometryExact) {
  auto layout = ParityStripingLayout::Create(4, 96);
  ASSERT_TRUE(layout.ok());
  const uint32_t d = (*layout)->num_disks();  // 6.
  EXPECT_EQ(d, 6u);
  // Each disk contributes exactly (d - 2) data areas worth of pages.
  EXPECT_EQ((*layout)->num_data_pages() % d, 0u);
}

TEST(DiskArrayTest, DegradedReadFailsAtArrayLevel) {
  DiskArray::Options options;
  options.min_data_pages = 16;
  options.page_size = 64;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  // Find a page on disk 0 and fail that disk: the raw array read errors
  // (reconstruction is the parity layer's job).
  PageId victim = kInvalidPageId;
  for (PageId p = 0; p < (*array)->num_data_pages(); ++p) {
    if ((*array)->layout().DataLocation(p).disk == 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPageId);
  ASSERT_TRUE((*array)->FailDisk(0).ok());
  PageImage read;
  EXPECT_TRUE((*array)->ReadData(victim, &read).IsIoError());
}


TEST(ServiceTimeTest, SequentialAccessIsCheap) {
  Disk disk(0, 1000, 64);
  PageImage image(64);
  // Sequential scan from slot 1 upward (the head parks at 0).
  for (SlotId slot = 1; slot < 101; ++slot) {
    ASSERT_TRUE(disk.Write(slot, image).ok());
  }
  const double sequential = disk.busy_ms();
  disk.ResetServiceClock();
  // Random-ish jumps of the same count.
  for (SlotId i = 0; i < 100; ++i) {
    ASSERT_TRUE(disk.Write((i * 397) % 1000, image).ok());
  }
  const double random = disk.busy_ms();
  EXPECT_LT(sequential * 5, random);
}

TEST(ServiceTimeTest, ArrayAggregatesBusyTime) {
  DiskArray::Options options;
  options.min_data_pages = 32;
  options.page_size = 64;
  auto array = DiskArray::Create(options);
  ASSERT_TRUE(array.ok());
  PageImage image(64);
  for (PageId page = 0; page < 16; ++page) {
    ASSERT_TRUE((*array)->WriteData(page, image).ok());
  }
  EXPECT_GT((*array)->TotalBusyMs(), 0.0);
  EXPECT_GT((*array)->MaxBusyMs(), 0.0);
  EXPECT_LE((*array)->MaxBusyMs(), (*array)->TotalBusyMs());
  (*array)->ResetServiceClocks();
  EXPECT_EQ((*array)->TotalBusyMs(), 0.0);
}

// The Gray et al. argument (paper Section 3.2): several independent
// sequential streams thrash the heads under data striping (every stream
// touches every disk) but stay disjoint under parity striping. Transfer
// counts are identical; service time is not.
TEST(ServiceTimeTest, ParityStripingWinsForConcurrentSequentialStreams) {
  auto run = [](LayoutKind kind) {
    DiskArray::Options options;
    options.layout_kind = kind;
    options.data_pages_per_group = 4;
    options.min_data_pages = 240;
    options.page_size = 64;
    auto array = DiskArray::Create(options);
    EXPECT_TRUE(array.ok());
    PageImage image;
    const uint32_t pages = (*array)->num_data_pages();
    // Four interleaved sequential streams in different regions.
    const PageId starts[4] = {0, pages / 4, pages / 2, 3 * pages / 4};
    for (uint32_t step = 0; step < pages / 4; ++step) {
      for (const PageId start : starts) {
        EXPECT_TRUE((*array)->ReadData(start + step, &image).ok());
      }
    }
    return (*array)->MaxBusyMs();
  };
  const double striping = run(LayoutKind::kDataStriping);
  const double parity_striping = run(LayoutKind::kParityStriping);
  EXPECT_LT(parity_striping, striping * 0.7)
      << "parity striping should preserve per-stream sequentiality";
}

}  // namespace
}  // namespace rda
