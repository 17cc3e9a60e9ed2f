#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"

namespace rda {
namespace {

DatabaseOptions BaseOptions() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 48;
  options.array.page_size = 128;
  options.buffer.capacity = 12;
  options.txn.force = true;
  options.txn.rda_undo = true;
  return options;
}

class MediaRecoveryTest : public ::testing::Test {
 protected:
  void Open(const DatabaseOptions& options = BaseOptions()) {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void Populate() {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      std::vector<uint8_t> bytes(db_->user_page_size(),
                                 static_cast<uint8_t>(page + 1));
      ASSERT_TRUE(db_->WritePage(*txn, page, bytes).ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
  }

  uint8_t ReadCommitted(PageId page) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    return (*payload)[kDataRegionOffset];
  }

  void VerifyAllPages() {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      EXPECT_EQ(ReadCommitted(page), static_cast<uint8_t>(page + 1))
          << "page " << page;
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(MediaRecoveryTest, EveryDiskIsRebuildable) {
  Open();
  Populate();
  for (DiskId disk = 0; disk < db_->array()->num_disks(); ++disk) {
    ASSERT_TRUE(db_->FailDisk(disk).ok());
    auto report = db_->RebuildDisk(disk);
    ASSERT_TRUE(report.ok()) << "disk " << disk << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->undo_coverage_lost.empty());
    VerifyAllPages();
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok) << "after rebuilding disk " << disk;
  }
}

TEST_F(MediaRecoveryTest, RebuildReportsItsPhaseCost) {
  Open();
  Populate();
  ASSERT_TRUE(db_->FailDisk(2).ok());
  const uint64_t before = db_->array()->counters().total();
  auto report = db_->RebuildDisk(2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const uint64_t spent = db_->array()->counters().total() - before;
  ASSERT_EQ(report->phases.size(), 1u);
  EXPECT_EQ(report->phases[0].phase, obs::RecoveryPhase::kMediaRebuild);
  EXPECT_GT(spent, 0u);
  EXPECT_EQ(report->phases[0].page_transfers, spent);
}

TEST_F(MediaRecoveryTest, DegradedReadsWorkWhileDiskDown) {
  Open();
  Populate();
  ASSERT_TRUE(db_->FailDisk(3).ok());
  VerifyAllPages();  // RawReadPage reconstructs through parity.
  // Transactions can still read through the buffer pool.
  auto txn = db_->Begin();
  std::vector<uint8_t> read;
  for (PageId page = 0; page < 8; ++page) {
    ASSERT_TRUE(db_->ReadPage(*txn, page, &read).ok()) << "page " << page;
    EXPECT_EQ(read[0], static_cast<uint8_t>(page + 1));
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_TRUE(db_->RebuildDisk(3).ok());
}

TEST_F(MediaRecoveryTest, RebuildRequiresFailedDisk) {
  Open();
  EXPECT_TRUE(db_->RebuildDisk(0).status().IsInvalidArgument());
}

TEST_F(MediaRecoveryTest, DoubleFailureRefused) {
  Open();
  ASSERT_TRUE(db_->FailDisk(0).ok());
  ASSERT_TRUE(db_->FailDisk(1).ok());
  EXPECT_TRUE(db_->RebuildDisk(0).status().IsFailedPrecondition());
}

TEST_F(MediaRecoveryTest, DirtyGroupSurvivesLosingWorkingTwin) {
  Open();
  Populate();
  // Make group 0 dirty via an unlogged steal of page 1.
  auto txn = db_->Begin();
  std::vector<uint8_t> bytes(db_->user_page_size(), 0xEE);
  ASSERT_TRUE(db_->WritePage(*txn, 1, bytes).ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(1);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  ASSERT_TRUE(db_->parity()->directory().Get(0).dirty);

  // Fail the disk holding the WORKING twin: it is recomputable from data.
  const GroupState& state = db_->parity()->directory().Get(0);
  const DiskId victim =
      db_->array()->layout().ParityLocation(0, state.working_twin).disk;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->undo_coverage_lost.empty());

  // The transaction can still abort via parity.
  ASSERT_TRUE(db_->Abort(*txn).ok());
  EXPECT_EQ(ReadCommitted(1), 2);  // Back to the populated value.
}

TEST_F(MediaRecoveryTest, DirtyGroupLosingOldTwinLosesUndoCoverage) {
  Open();
  Populate();
  auto txn = db_->Begin();
  std::vector<uint8_t> bytes(db_->user_page_size(), 0xEE);
  ASSERT_TRUE(db_->WritePage(*txn, 1, bytes).ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(1);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());

  // Fail the disk holding the VALID (old) twin: the before-state of the
  // unlogged update is unrecoverable — the documented worst case.
  const GroupState& state = db_->parity()->directory().Get(0);
  const DiskId victim =
      db_->array()->layout().ParityLocation(0, state.valid_twin).disk;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->undo_coverage_lost.size(), 1u);
  EXPECT_EQ(report->undo_coverage_lost[0], *txn);

  // Abort is refused with kDataLoss; commit remains possible.
  EXPECT_TRUE(db_->Abort(*txn).IsDataLoss());
  EXPECT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(ReadCommitted(1), 0xEE);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(MediaRecoveryTest, RandomizedFailRebuildCycles) {
  Open();
  Populate();
  Random rng(77);
  for (int round = 0; round < 6; ++round) {
    // Some committed churn.
    for (int i = 0; i < 5; ++i) {
      auto txn = db_->Begin();
      const PageId page =
          static_cast<PageId>(rng.Uniform(db_->num_pages()));
      std::vector<uint8_t> bytes(db_->user_page_size(),
                                 static_cast<uint8_t>(page + 1));
      ASSERT_TRUE(db_->WritePage(*txn, page, bytes).ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    const DiskId victim =
        static_cast<DiskId>(rng.Uniform(db_->array()->num_disks()));
    ASSERT_TRUE(db_->FailDisk(victim).ok());
    auto report = db_->RebuildDisk(victim);
    ASSERT_TRUE(report.ok());
    VerifyAllPages();
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(*ok) << "round " << round;
  }
}

TEST_F(MediaRecoveryTest, ParityStripingLayoutAlsoRebuilds) {
  DatabaseOptions options = BaseOptions();
  options.array.layout_kind = LayoutKind::kParityStriping;
  Open(options);
  Populate();
  for (DiskId disk = 0; disk < db_->array()->num_disks(); ++disk) {
    ASSERT_TRUE(db_->FailDisk(disk).ok());
    ASSERT_TRUE(db_->RebuildDisk(disk).ok());
    VerifyAllPages();
  }
}

TEST_F(MediaRecoveryTest, CrashThenMediaFailureThenRecoverAll) {
  Open();
  Populate();
  auto loser = db_->Begin();
  std::vector<uint8_t> bytes(db_->user_page_size(), 0xDD);
  ASSERT_TRUE(db_->WritePage(*loser, 2, bytes).ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(2);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());

  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(ReadCommitted(2), 3);  // Loser undone.

  ASSERT_TRUE(db_->FailDisk(1).ok());
  ASSERT_TRUE(db_->RebuildDisk(1).ok());
  VerifyAllPages();
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

}  // namespace
}  // namespace rda
