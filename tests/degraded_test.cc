// Degraded-mode operation: the availability motivation of redundant arrays
// (paper Section 1) — the database keeps serving reads AND writes while a
// disk is down, and a later rebuild materializes everything. Also covers
// the full-stripe bulk load and crash-during-recovery fault injection.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"

namespace rda {
namespace {

DatabaseOptions BaseOptions() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 48;
  options.array.page_size = 128;
  options.buffer.capacity = 12;
  options.txn.force = true;
  options.txn.rda_undo = true;
  return options;
}

class DegradedTest : public ::testing::Test {
 protected:
  void Open(const DatabaseOptions& options = BaseOptions()) {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  Status WriteTxn(PageId page, uint8_t fill) {
    auto txn = db_->Begin();
    RDA_RETURN_IF_ERROR(txn.status());
    RDA_RETURN_IF_ERROR(db_->WritePage(
        *txn, page, std::vector<uint8_t>(db_->user_page_size(), fill)));
    return db_->Commit(*txn);
  }

  uint8_t DiskByte(PageId page) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    return (*payload)[kDataRegionOffset];
  }

  // Disk hosting `page`'s data.
  DiskId DataDiskOf(PageId page) {
    return db_->array()->layout().DataLocation(page).disk;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DegradedTest, CommittedWriteWithDataDiskDown) {
  Open();
  ASSERT_TRUE(WriteTxn(1, 0x11).ok());
  const DiskId victim = DataDiskOf(1);
  ASSERT_TRUE(db_->FailDisk(victim).ok());

  // The write succeeds in degraded mode (parity carries it) ...
  ASSERT_TRUE(WriteTxn(1, 0x22).ok());
  // ... degraded reads see the new content ...
  EXPECT_EQ(DiskByte(1), 0x22);
  // ... and the rebuild materializes it.
  ASSERT_TRUE(db_->RebuildDisk(victim).ok());
  EXPECT_EQ(DiskByte(1), 0x22);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(DegradedTest, UnloggedStealRefusedWhileDegraded) {
  Open();
  const DiskId victim = DataDiskOf(1);
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  // Classify falls back to plain, so the steal logs a before-image instead
  // of relying on undo coverage it cannot guarantee.
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1,
                             std::vector<uint8_t>(db_->user_page_size(),
                                                  0x33))
                  .ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(db_->txn_manager()->stats().before_images_avoided, 0u);
  EXPECT_GE(db_->txn_manager()->stats().before_images_logged, 1u);
  EXPECT_EQ(DiskByte(1), 0x33);
  ASSERT_TRUE(db_->RebuildDisk(victim).ok());
  EXPECT_EQ(DiskByte(1), 0x33);
}

TEST_F(DegradedTest, AbortWithDataDiskDownUndoesInParitySpace) {
  Open();
  ASSERT_TRUE(WriteTxn(2, 0x11).ok());
  // Dirty the group while healthy, then lose the covered page's disk.
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 2,
                             std::vector<uint8_t>(db_->user_page_size(),
                                                  0x99))
                  .ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(2);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  ASSERT_TRUE(db_->parity()->directory().Get(0).dirty);

  ASSERT_TRUE(db_->FailDisk(DataDiskOf(2)).ok());
  ASSERT_TRUE(db_->Abort(*txn).ok());
  // Degraded read must show the pre-transaction content.
  EXPECT_EQ(DiskByte(2), 0x11);
  ASSERT_TRUE(db_->RebuildDisk(DataDiskOf(2)).ok());
  EXPECT_EQ(DiskByte(2), 0x11);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(DegradedTest, WritesWithParityDiskDownSurviveRebuild) {
  Open();
  // Fail the disk holding group 0's valid twin; committed writes continue
  // (parity on that twin goes stale) and the rebuild recomputes it.
  const GroupState& state = db_->parity()->directory().Get(0);
  const DiskId victim =
      db_->array()->layout().ParityLocation(0, state.valid_twin).disk;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  ASSERT_TRUE(WriteTxn(0, 0x44).ok());
  ASSERT_TRUE(WriteTxn(1, 0x45).ok());
  EXPECT_EQ(DiskByte(0), 0x44);
  ASSERT_TRUE(db_->RebuildDisk(victim).ok());
  EXPECT_EQ(DiskByte(0), 0x44);
  EXPECT_EQ(DiskByte(1), 0x45);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(DegradedTest, MixedWorkloadAcrossFailureAndRebuild) {
  Open();
  Random rng(31);
  std::vector<uint8_t> expected(db_->num_pages(), 0);
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const PageId page =
          static_cast<PageId>(rng.Uniform(db_->num_pages()));
      const uint8_t fill = static_cast<uint8_t>(rng.UniformRange(1, 250));
      ASSERT_TRUE(WriteTxn(page, fill).ok());
      expected[page] = fill;
    }
  };
  churn(30);
  ASSERT_TRUE(db_->FailDisk(2).ok());
  churn(30);  // Degraded operation.
  ASSERT_TRUE(db_->RebuildDisk(2).ok());
  churn(30);
  for (PageId page = 0; page < db_->num_pages(); ++page) {
    ASSERT_EQ(DiskByte(page), expected[page]) << "page " << page;
  }
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

// ---------------------------------------------------------------------------
// Full-stripe bulk load.
// ---------------------------------------------------------------------------

// Loads the first `count` pages with random bytes, reads every loaded page
// back raw and checks the whole array's parity.
void ExpectBulkLoadRoundTrips(Database* db, size_t count) {
  std::vector<std::vector<uint8_t>> pages(count);
  Random rng(7);
  for (auto& page : pages) {
    page.assign(db->user_page_size(), 0);
    rng.FillBytes(&page);
  }
  ASSERT_TRUE(db->BulkLoad(pages).ok());
  for (PageId page = 0; page < count; ++page) {
    auto payload = db->RawReadPage(page);
    ASSERT_TRUE(payload.ok());
    EXPECT_TRUE(std::equal(pages[page].begin(), pages[page].end(),
                           payload->begin() + kDataRegionOffset))
        << "page " << page;
  }
  auto ok = db->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

DatabaseOptions ParityStripingOptions() {
  DatabaseOptions options = BaseOptions();
  options.array.layout_kind = LayoutKind::kParityStriping;
  return options;
}

TEST_F(DegradedTest, BulkLoadRoundTripsAndKeepsParity) {
  Open();
  ExpectBulkLoadRoundTrips(db_.get(), db_->num_pages());
}

// Parity striping scatters a group's members over the page space, so a
// load that treats n consecutive pages as one group writes them into the
// wrong groups' stripes.
TEST_F(DegradedTest, BulkLoadRoundTripsUnderParityStriping) {
  Open(ParityStripingOptions());
  ExpectBulkLoadRoundTrips(db_.get(), db_->num_pages());
}

// Fewer pages than the array holds: partly loaded groups get plain writes
// and no group member past the vector is read.
TEST_F(DegradedTest, BulkLoadShortVectorOnBothLayouts) {
  for (const DatabaseOptions& options :
       {BaseOptions(), ParityStripingOptions()}) {
    Open(options);
    ExpectBulkLoadRoundTrips(db_.get(), db_->num_pages() / 2 + 1);
  }
}

TEST_F(DegradedTest, BulkLoadCheaperThanTransactionalLoad) {
  Open();
  std::vector<std::vector<uint8_t>> pages(
      db_->num_pages(), std::vector<uint8_t>(db_->user_page_size(), 0x17));
  db_->array()->ResetCounters();
  ASSERT_TRUE(db_->BulkLoad(pages).ok());
  const uint64_t bulk = db_->array()->counters().total();

  Open();  // Fresh database for the transactional variant.
  db_->array()->ResetCounters();
  for (PageId page = 0; page < db_->num_pages(); ++page) {
    ASSERT_TRUE(WriteTxn(page, 0x17).ok());
  }
  const uint64_t transactional = db_->array()->counters().total();
  EXPECT_LT(bulk * 2, transactional)
      << "full-stripe load should be at least 2x cheaper";
}

TEST_F(DegradedTest, BulkLoadValidatesInput) {
  Open();
  EXPECT_TRUE(db_->BulkLoad(std::vector<std::vector<uint8_t>>(
                               db_->num_pages() + 1,
                               std::vector<uint8_t>(db_->user_page_size())))
                  .IsInvalidArgument());
  EXPECT_TRUE(
      db_->BulkLoad({std::vector<uint8_t>(3)}).IsInvalidArgument());
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 0,
                             std::vector<uint8_t>(db_->user_page_size(), 1))
                  .ok());
  EXPECT_TRUE(db_->BulkLoad({std::vector<uint8_t>(db_->user_page_size())})
                  .IsFailedPrecondition());
}

TEST_F(DegradedTest, FullGroupWriteRefusedForDirtyGroup) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 0,
                             std::vector<uint8_t>(db_->user_page_size(),
                                                  0x55))
                  .ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(0);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  std::vector<std::vector<uint8_t>> payloads(
      4, std::vector<uint8_t>(db_->array()->page_size(), 0));
  EXPECT_TRUE(
      db_->parity()->WriteFullGroup(0, payloads).IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Sector faults: self-healing reads, escalation, data-loss honesty
// (DESIGN.md section 10).
// ---------------------------------------------------------------------------

TEST_F(DegradedTest, HealedReadRepairsLatentSector) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  ASSERT_TRUE(WriteTxn(5, 0x5a).ok());

  const PhysicalLocation loc = db_->array()->layout().DataLocation(5);
  FaultInjector* injector = db_->array()->injector(loc.disk);
  ASSERT_NE(injector, nullptr);
  injector->InjectLatentSector(loc.slot);
  PageImage raw;
  EXPECT_TRUE(db_->array()->ReadData(5, &raw).IsIoError());

  // The healed read reconstructs from the group and repairs in place.
  EXPECT_EQ(DiskByte(5), 0x5a);
  EXPECT_EQ(db_->parity()->stats().latent_repairs, 1u);
  EXPECT_FALSE(injector->HasLatent(loc.slot));
  // The slot is genuinely healed: the raw path works again.
  ASSERT_TRUE(db_->array()->ReadData(5, &raw).ok());
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(DegradedTest, HealedReadRepairsChecksumCorruption) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  ASSERT_TRUE(WriteTxn(7, 0x7c).ok());

  const PhysicalLocation loc = db_->array()->layout().DataLocation(7);
  db_->array()->injector(loc.disk)->ScheduleBitFlip(loc.slot, /*offset=*/20,
                                                    /*mask=*/0x40);
  // The flip is silent; the checksum turns it into kCorruption, and the
  // healed read rebuilds the page from parity.
  EXPECT_EQ(DiskByte(7), 0x7c);
  EXPECT_EQ(db_->parity()->stats().corruption_repairs, 1u);
  EXPECT_EQ(db_->parity()->stats().latent_repairs, 0u);
  PageImage raw;
  ASSERT_TRUE(db_->array()->ReadData(7, &raw).ok());
}

TEST_F(DegradedTest, FaultedParityTwinHealedInsidePropagation) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  // Poison the clean group's valid twin, then write through it: the
  // propagation's parity read heals the twin (recomputed from data)
  // transparently and the transaction never notices.
  const GroupState& state = db_->parity()->directory().Get(0);
  const PhysicalLocation loc =
      db_->array()->layout().ParityLocation(0, state.valid_twin);
  db_->array()->injector(loc.disk)->InjectLatentSector(loc.slot);

  ASSERT_TRUE(WriteTxn(0, 0x66).ok());
  EXPECT_EQ(DiskByte(0), 0x66);
  EXPECT_EQ(db_->parity()->stats().latent_repairs, 1u);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

// A torn write of the working twin, then a commit (which writes no parity)
// and a crash: restart cannot read the winner's twin, and the older
// committed survivor is stale. Current_Parity recomputes the parity of a
// group with an unreadable twin from its data, so a later loss of the data
// disk still rebuilds the committed page.
TEST_F(DegradedTest, TornWorkingTwinOfCommittedGroupRepairedAtRestart) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  const GroupId group = db_->array()->layout().GroupOf(0);
  const uint32_t working =
      1 - db_->parity()->directory().Get(group).valid_twin;
  const PhysicalLocation loc =
      db_->array()->layout().ParityLocation(group, working);
  db_->array()->injector(loc.disk)->ScheduleTornWrite(loc.slot);
  ASSERT_TRUE(WriteTxn(0, 0x5a).ok());
  ASSERT_EQ(db_->array()->injector(loc.disk)->stats().torn_writes, 1u);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto ok = db_->parity()->VerifyGroupParity(group);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);

  const DiskId disk = DataDiskOf(0);
  ASSERT_TRUE(db_->FailDisk(disk).ok());
  ASSERT_TRUE(db_->RebuildDisk(disk).ok());
  EXPECT_EQ(DiskByte(0), 0x5a);
}

// The same tear, but the first restart crashes once it is past
// Current_Parity, which has already reset the unreadable twin. The second
// restart finds both twins readable, so the repair cannot wait for the end
// of the first one. Page 4 (another group) gives the roll-forward a step
// to crash in.
TEST_F(DegradedTest, TornWorkingTwinRepairSurvivesACrashedRestart) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  const Layout& layout = db_->array()->layout();
  const GroupId group = layout.GroupOf(0);
  ASSERT_NE(layout.GroupOf(4), group);
  const uint32_t working =
      1 - db_->parity()->directory().Get(group).valid_twin;
  const PhysicalLocation loc = layout.ParityLocation(group, working);
  db_->array()->injector(loc.disk)->ScheduleTornWrite(loc.slot);
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  for (const PageId page : {PageId{0}, PageId{4}}) {
    ASSERT_TRUE(db_->WritePage(*txn, page,
                               std::vector<uint8_t>(db_->user_page_size(),
                                                    0x5a))
                    .ok());
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_EQ(db_->array()->injector(loc.disk)->stats().torn_writes, 1u);

  db_->Crash();
  auto interrupted = db_->RecoverWithInjectedFault(0);
  ASSERT_FALSE(interrupted.ok());
  ASSERT_TRUE(interrupted.status().IsAborted());
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto ok = db_->parity()->VerifyGroupParity(group);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(DegradedTest, DirtyGroupValidTwinFaultIsDataLoss) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  ASSERT_TRUE(WriteTxn(2, 0x11).ok());
  // Dirty group 0 via an unlogged steal, then lose the valid twin: that
  // sector holds the only copy of the before-image parity.
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 2,
                             std::vector<uint8_t>(db_->user_page_size(),
                                                  0x99))
                  .ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(2);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  const GroupState state = db_->parity()->directory().Get(0);
  ASSERT_TRUE(state.dirty);

  const PhysicalLocation loc =
      db_->array()->layout().ParityLocation(0, state.valid_twin);
  db_->array()->injector(loc.disk)->InjectLatentSector(loc.slot);
  PageImage image;
  const Status status =
      db_->parity()->ReadParityHealed(0, state.valid_twin, &image);
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  // No repair was fabricated.
  EXPECT_EQ(db_->parity()->stats().latent_repairs, 0u);
  EXPECT_EQ(db_->parity()->stats().corruption_repairs, 0u);
}

TEST_F(DegradedTest, ErrorBudgetEscalationHealedByRepairEscalations) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  options.io.disk_error_budget = 2;
  Open(options);
  // Two pages on the same disk, each with a latent sector: the second
  // repair-on-read exhausts the budget and escalates the disk.
  ASSERT_TRUE(WriteTxn(0, 0xd0).ok());
  const DiskId suspect = DataDiskOf(0);
  PageId second_page = 0;
  for (PageId page = 1; page < db_->num_pages(); ++page) {
    if (DataDiskOf(page) == suspect) {
      second_page = page;
      break;
    }
  }
  ASSERT_NE(second_page, 0u);
  ASSERT_TRUE(WriteTxn(second_page, 0xd1).ok());

  FaultInjector* injector = db_->array()->injector(suspect);
  injector->InjectLatentSector(db_->array()->layout().DataLocation(0).slot);
  injector->InjectLatentSector(
      db_->array()->layout().DataLocation(second_page).slot);

  EXPECT_EQ(DiskByte(0), 0xd0);  // First strike: healed, budget 1 left.
  EXPECT_FALSE(db_->array()->DiskFailed(suspect));
  // Second strike: the read still serves (degraded reconstruction), but the
  // disk is declared dying and force-failed.
  EXPECT_EQ(DiskByte(second_page), 0xd1);
  EXPECT_TRUE(db_->array()->DiskFailed(suspect));
  ASSERT_EQ(db_->array()->EscalatedDisks().size(), 1u);
  EXPECT_EQ(db_->array()->EscalatedDisks()[0], suspect);
  EXPECT_EQ(db_->array()->policy_stats().escalations, 1u);

  auto repaired = db_->RepairEscalations();
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired->repaired, 1u);
  EXPECT_TRUE(repaired->unrepaired.empty());
  EXPECT_TRUE(repaired->first_error.ok());
  EXPECT_FALSE(db_->array()->DiskFailed(suspect));
  EXPECT_TRUE(db_->array()->EscalatedDisks().empty());
  EXPECT_EQ(DiskByte(0), 0xd0);
  EXPECT_EQ(DiskByte(second_page), 0xd1);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // The repair reports its phase cost and progress like any other rebuild.
  EXPECT_EQ(db_->SnapshotMetrics().CounterValue(
                "recovery.phase.media_rebuild.runs"),
            1u);
  const std::string trace = obs::TraceToJson(*db_->obs()->trace());
  EXPECT_NE(trace.find("rebuild_progress"), std::string::npos);
}

TEST_F(DegradedTest, SecondDiskFailureMidRebuildIsDataLoss) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  options.io.disk_error_budget = 1;
  Open(options);
  for (PageId page = 0; page < 8; ++page) {
    ASSERT_TRUE(WriteTxn(page, static_cast<uint8_t>(0x50 + page)).ok());
  }
  // Fail the disk under group 0's valid twin; its rebuild recomputes parity
  // from healed data reads. A latent sector on page 0's disk then escalates
  // (budget 1) DURING the rebuild — a genuine second disk failure while the
  // first is still being reconstructed, which single parity cannot survive.
  const GroupState& state = db_->parity()->directory().Get(0);
  const DiskId victim =
      db_->array()->layout().ParityLocation(0, state.valid_twin).disk;
  const PhysicalLocation data_loc = db_->array()->layout().DataLocation(0);
  ASSERT_NE(victim, data_loc.disk);
  db_->array()->injector(data_loc.disk)->InjectLatentSector(data_loc.slot);

  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto report = db_->RebuildDisk(victim);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsDataLoss()) << report.status().ToString();
  EXPECT_TRUE(db_->array()->DiskFailed(data_loc.disk));
}

// A page on a failed disk whose group also holds a latent sibling sector is
// a second fault: nothing is left to reconstruct from. The read reports the
// error that names the failed disk, after exactly one reconstruction
// attempt; no caller repeats the N-page reconstruction.
TEST_F(DegradedTest, DoubleFaultDegradedReadFailsOnceNamingTheFailedDisk) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  for (PageId page = 0; page < 4; ++page) {
    ASSERT_TRUE(WriteTxn(page, 0x31).ok());
  }
  const Layout& layout = db_->array()->layout();
  const DiskId victim = DataDiskOf(0);
  const PhysicalLocation sibling = layout.DataLocation(1);
  db_->array()->injector(sibling.disk)->InjectLatentSector(sibling.slot);
  ASSERT_TRUE(db_->FailDisk(victim).ok());

  uint64_t reads = db_->array()->counters().page_reads;
  ASSERT_FALSE(db_->parity()->ReconstructDataPayload(0).ok());
  const uint64_t one_reconstruction =
      db_->array()->counters().page_reads - reads;
  ASSERT_GT(one_reconstruction, 0u);

  reads = db_->array()->counters().page_reads;
  auto payload = db_->RawReadPage(0);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(payload.status().IsIoError()) << payload.status().ToString();
  EXPECT_NE(payload.status().message().find(
                "disk " + std::to_string(victim) + " failed"),
            std::string::npos)
      << payload.status().ToString();
  EXPECT_EQ(db_->array()->counters().page_reads - reads, one_reconstruction);
}

// Rebuilding a lost consistent twin needs every data page of its group, and
// a latent data sector cannot be healed then: the parity a heal would XOR
// from is the twin being rebuilt, still zeroed on the fresh medium. The
// rebuild reports the group as lost instead of writing that garbage over a
// committed page. (The error budget is 0, so the disk never escalates.)
TEST_F(DegradedTest, LatentDataSectorUnderTwinRebuildIsDataLoss) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  Open(options);
  const uint8_t fills[] = {0xA5, 0x22, 0x44, 0x88};
  for (PageId page = 0; page < 4; ++page) {
    ASSERT_TRUE(WriteTxn(page, fills[page]).ok());
  }
  const Layout& layout = db_->array()->layout();
  const GroupState& state = db_->parity()->directory().Get(0);
  const DiskId victim = layout.ParityLocation(0, state.valid_twin).disk;
  const PhysicalLocation data_loc = layout.DataLocation(0);
  ASSERT_NE(victim, data_loc.disk);
  db_->array()->injector(data_loc.disk)->InjectLatentSector(data_loc.slot);

  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto report = db_->RebuildDisk(victim);
  ASSERT_FALSE(report.ok()) << "page 0 reads "
                            << static_cast<int>(DiskByte(0));
  EXPECT_TRUE(report.status().IsDataLoss()) << report.status().ToString();
  EXPECT_FALSE(db_->array()->DiskFailed(data_loc.disk));
  // The group stays pending, and nothing was written over the committed
  // page: its slot still holds the latent sector, not a "repair".
  EXPECT_TRUE(db_->parity()->OnlineGroupPending(0));
  PageImage image;
  EXPECT_TRUE(db_->array()->ReadData(0, &image).IsIoError());
}

// ---------------------------------------------------------------------------
// Crash during recovery.
// ---------------------------------------------------------------------------

TEST_F(DegradedTest, CrashDuringRecoveryConvergesAtEveryFaultPoint) {
  for (uint64_t fault_at = 0; fault_at < 12; ++fault_at) {
    Open();  // Fresh database per fault point.
    // Workload: a winner needing redo, a loser needing parity undo, a
    // loser needing log undo, and a winner needing twin finalization.
    DatabaseOptions options = BaseOptions();
    options.txn.force = false;
    Open(options);
    auto winner = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*winner, 0,
                               std::vector<uint8_t>(db_->user_page_size(),
                                                    0xA1))
                    .ok());
    ASSERT_TRUE(db_->Commit(*winner).ok());
    auto loser1 = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*loser1, 4,
                               std::vector<uint8_t>(db_->user_page_size(),
                                                    0xB1))
                    .ok());
    Frame* frame = db_->txn_manager()->pool()->Lookup(4);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
    auto loser2 = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*loser2, 8,
                               std::vector<uint8_t>(db_->user_page_size(),
                                                    0xC1))
                    .ok());
    ASSERT_TRUE(db_->WritePage(*loser2, 9,
                               std::vector<uint8_t>(db_->user_page_size(),
                                                    0xC2))
                    .ok());
    for (const PageId page : {8u, 9u}) {
      Frame* f = db_->txn_manager()->pool()->Lookup(page);
      ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(f).ok());
    }

    db_->Crash();
    auto faulty = db_->RecoverWithInjectedFault(fault_at);
    if (!faulty.ok()) {
      EXPECT_TRUE(faulty.status().IsAborted());
      // The "re-crash": volatile state gone again, then a clean recovery.
      db_->Crash();
      ASSERT_TRUE(db_->Recover().ok()) << "fault point " << fault_at;
    }
    EXPECT_EQ(DiskByte(0), 0xA1) << "fault point " << fault_at;
    EXPECT_EQ(DiskByte(4), 0x00) << "fault point " << fault_at;
    EXPECT_EQ(DiskByte(8), 0x00) << "fault point " << fault_at;
    EXPECT_EQ(DiskByte(9), 0x00) << "fault point " << fault_at;
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(*ok) << "fault point " << fault_at;
  }
}

}  // namespace
}  // namespace rda
