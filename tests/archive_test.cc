#include <gtest/gtest.h>

#include <string>

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
  options.txn.force = false;
  options.txn.rda_undo = true;
  return options;
}

class ArchiveTest : public ::testing::Test {
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
    EXPECT_TRUE(payload.ok());
    return (*payload)[kDataRegionOffset];
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ArchiveTest, RequiresQuiescence) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(
      db_->WritePage(*txn, 0,
                     std::vector<uint8_t>(db_->user_page_size(), 1))
          .ok());
  EXPECT_TRUE(db_->TakeArchive().IsFailedPrecondition());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_TRUE(db_->TakeArchive().ok());
  EXPECT_TRUE(db_->HasArchive());
}

TEST_F(ArchiveTest, RestoreWithoutArchiveRefused) {
  Open();
  EXPECT_TRUE(db_->RestoreFromArchive().status().IsFailedPrecondition());
}

TEST_F(ArchiveTest, TruncationDropsLogPrefix) {
  Open();
  ASSERT_TRUE(WriteTxn(0, 0x11).ok());
  ASSERT_TRUE(WriteTxn(1, 0x22).ok());
  const Lsn before = db_->log()->flushed_lsn();
  ASSERT_GT(before, 0u);
  ASSERT_TRUE(db_->TakeArchive(/*truncate_log=*/true).ok());
  EXPECT_EQ(db_->log()->base_lsn(), db_->log()->flushed_lsn());
  std::vector<LogRecord> records;
  ASSERT_TRUE(db_->log()->Scan(0, &records).ok());
  EXPECT_TRUE(records.empty());
}

TEST_F(ArchiveTest, CrashRecoveryStillWorksAfterTruncation) {
  Open();
  ASSERT_TRUE(WriteTxn(0, 0x11).ok());
  ASSERT_TRUE(db_->TakeArchive(/*truncate_log=*/true).ok());
  // Post-archive work: a winner and a stolen loser.
  ASSERT_TRUE(WriteTxn(1, 0x22).ok());
  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WritePage(*loser, 2,
                     std::vector<uint8_t>(db_->user_page_size(), 0x33))
          .ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(2);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(DiskByte(0), 0x11);
  EXPECT_EQ(DiskByte(1), 0x22);
  EXPECT_EQ(DiskByte(2), 0x00);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(ArchiveTest, CatastrophicTwoDiskFailureRestoresFromArchive) {
  Open();
  for (PageId page = 0; page < 16; ++page) {
    ASSERT_TRUE(WriteTxn(page, static_cast<uint8_t>(page + 1)).ok());
  }
  ASSERT_TRUE(db_->TakeArchive().ok());
  // Committed work after the archive survives via the log.
  ASSERT_TRUE(WriteTxn(3, 0xAB).ok());

  // Two disks die: beyond the array's redundancy.
  ASSERT_TRUE(db_->FailDisk(0).ok());
  ASSERT_TRUE(db_->FailDisk(1).ok());
  EXPECT_TRUE(db_->RebuildDisk(0).status().IsFailedPrecondition());

  auto report = db_->RestoreFromArchive();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (PageId page = 0; page < 16; ++page) {
    const uint8_t want = page == 3 ? 0xAB : static_cast<uint8_t>(page + 1);
    EXPECT_EQ(DiskByte(page), want) << "page " << page;
  }
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(ArchiveTest, InFlightWorkSinceArchiveIsLostOnRestore) {
  Open();
  ASSERT_TRUE(WriteTxn(0, 0x11).ok());
  ASSERT_TRUE(db_->TakeArchive().ok());
  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WritePage(*loser, 0,
                     std::vector<uint8_t>(db_->user_page_size(), 0x99))
          .ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(0);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  ASSERT_TRUE(db_->FailDisk(0).ok());
  ASSERT_TRUE(db_->FailDisk(1).ok());
  auto report = db_->RestoreFromArchive();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DiskByte(0), 0x11);  // Loser's steal rolled away with the media.
}

TEST_F(ArchiveTest, DatabaseUsableAfterRestore) {
  Open();
  ASSERT_TRUE(WriteTxn(0, 0x11).ok());
  ASSERT_TRUE(db_->TakeArchive().ok());
  ASSERT_TRUE(db_->FailDisk(2).ok());
  ASSERT_TRUE(db_->FailDisk(3).ok());
  ASSERT_TRUE(db_->RestoreFromArchive().ok());
  ASSERT_TRUE(WriteTxn(5, 0x66).ok());
  EXPECT_EQ(DiskByte(5), 0x00);  // notFORCE: buffered.
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(DiskByte(5), 0x66);
}

// FORCE restart REDO reads only pages a non-winner wrote, but a restore
// rewrites every page from the snapshot: its kArchiveRestore marker makes
// the same Recover() replay every image logged before it.
class ForceArchiveTest : public ArchiveTest {
 protected:
  // Archives pages 0-7, commits past the archive, then loses two disks.
  void ArchiveCommitAndLoseTwoDisks() {
    DatabaseOptions options = BaseOptions();
    options.txn.force = true;
    Open(options);
    for (PageId page = 0; page < 8; ++page) {
      ASSERT_TRUE(WriteTxn(page, static_cast<uint8_t>(page + 1)).ok());
    }
    ASSERT_TRUE(db_->TakeArchive().ok());
    ASSERT_TRUE(WriteTxn(3, 0xAB).ok());
    ASSERT_TRUE(WriteTxn(10, 0xBC).ok());
    ASSERT_TRUE(WriteTxn(3, 0xCD).ok());
    EXPECT_EQ(DiskByte(3), 0xCD);  // FORCE: on the array at commit.
    ASSERT_TRUE(db_->FailDisk(0).ok());
    ASSERT_TRUE(db_->FailDisk(1).ok());
  }

  void ExpectPostArchiveCommits() {
    for (PageId page = 0; page < 12; ++page) {
      const uint8_t want = page == 3    ? 0xCD
                           : page == 10 ? 0xBC
                           : page < 8   ? static_cast<uint8_t>(page + 1)
                                        : 0x00;
      EXPECT_EQ(DiskByte(page), want) << "page " << page;
    }
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
};

TEST_F(ForceArchiveTest, RestoreReplaysCommitsSinceArchive) {
  ArchiveCommitAndLoseTwoDisks();
  auto report = db_->RestoreFromArchive();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Pages 3 (two images, folded into one write) and 10.
  EXPECT_EQ(report->redo_applied, 3u);
  ExpectPostArchiveCommits();

  // The marker stays in the log: a later restart replays the same pages,
  // finds every image on the array and changes nothing.
  db_->Crash();
  auto again = db_->Recover();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->redo_applied, 0u);
  EXPECT_EQ(again->redo_skipped, 3u);
  ExpectPostArchiveCommits();
}

TEST_F(ForceArchiveTest, RestartAfterInterruptedRestoreReplaysCommits) {
  // Two pages of REDO work: a crash after none or one of them.
  for (uint64_t budget = 0; budget < 2; ++budget) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ArchiveCommitAndLoseTwoDisks();
    auto interrupted = db_->RestoreFromArchiveWithInjectedFault(budget);
    ASSERT_FALSE(interrupted.ok());
    EXPECT_TRUE(interrupted.status().IsAborted());
    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectPostArchiveCommits();
  }
}

// ---------------------------------------------------------------------------
// Scrubber.
// ---------------------------------------------------------------------------

TEST_F(ArchiveTest, ScrubOnHealthyArrayRepairsNothing) {
  Open();
  for (PageId page = 0; page < 8; ++page) {
    ASSERT_TRUE(WriteTxn(page, static_cast<uint8_t>(page + 1)).ok());
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  auto report = db_->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_checked, db_->array()->num_groups());
  EXPECT_TRUE(report->repaired.empty());
}

TEST_F(ArchiveTest, ScrubRepairsCorruptedParity) {
  Open();
  ASSERT_TRUE(WriteTxn(0, 0x11).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  // Corrupt the valid twin of group 0 behind the engine's back.
  const GroupState& state = db_->parity()->directory().Get(0);
  const PhysicalLocation loc =
      db_->array()->layout().ParityLocation(0, state.valid_twin);
  PageImage bogus(db_->array()->page_size());
  bogus.header.parity_state = ParityState::kCommitted;
  bogus.header.timestamp = 1;
  bogus.payload[40] = 0xEE;
  ASSERT_TRUE(db_->array()->disk(loc.disk)->Write(loc.slot, bogus).ok());

  auto report = db_->Scrub();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->repaired.size(), 1u);
  EXPECT_EQ(report->repaired[0], 0u);
  auto ok = db_->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(ArchiveTest, ScrubSkipsDirtyGroups) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(
      db_->WritePage(*txn, 0,
                     std::vector<uint8_t>(db_->user_page_size(), 0x55))
          .ok());
  Frame* frame = db_->txn_manager()->pool()->Lookup(0);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  auto report = db_->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_skipped_dirty, 1u);
  // The transaction can still abort via parity afterwards.
  ASSERT_TRUE(db_->Abort(*txn).ok());
  EXPECT_EQ(DiskByte(0), 0x00);
}

TEST_F(ArchiveTest, ScrubHealsDataSectorsOfDirtyGroups) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  // A latent error on the stolen page (rebuilt from the working twin) or on
  // a committed page of its dirty group.
  for (const uint32_t faulty_index : {0u, 1u}) {
    SCOPED_TRACE("page index " + std::to_string(faulty_index));
    Open(options);
    const Layout& layout = db_->array()->layout();
    const PageId sibling = layout.PageAt(layout.GroupOf(0), 1);
    ASSERT_TRUE(WriteTxn(sibling, 0x22).ok());
    ASSERT_TRUE(db_->Checkpoint().ok());  // Puts the sibling on the array.
    auto txn = db_->Begin();
    ASSERT_TRUE(
        db_->WritePage(*txn, 0,
                       std::vector<uint8_t>(db_->user_page_size(), 0x55))
            .ok());
    Frame* frame = db_->txn_manager()->pool()->Lookup(0);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
    const PhysicalLocation loc =
        layout.DataLocation(faulty_index == 0 ? 0 : sibling);
    db_->array()->injector(loc.disk)->InjectLatentSector(loc.slot);

    auto report = db_->Scrub();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->groups_skipped_dirty, 1u);
    EXPECT_EQ(report->sectors_repaired, 1u);
    EXPECT_FALSE(db_->array()->injector(loc.disk)->HasLatent(loc.slot));
    EXPECT_EQ(DiskByte(0), 0x55);
    // The parity undo still works from the untouched twins.
    ASSERT_TRUE(db_->Abort(*txn).ok());
    EXPECT_EQ(DiskByte(0), 0x00);
    EXPECT_EQ(DiskByte(sibling), 0x22);
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
}

// Log truncation unit coverage at the LogManager level.
TEST(LogTruncateTest, RejectsNonBoundary) {
  LogManager log{LogManager::Options{}};
  LogRecord bot;
  bot.type = LogRecordType::kBot;
  bot.txn = 1;
  ASSERT_TRUE(log.Append(bot).ok());
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_TRUE(log.Truncate(3).IsInvalidArgument());
  EXPECT_TRUE(log.Truncate(log.flushed_lsn() + 10).IsInvalidArgument());
  EXPECT_TRUE(log.Truncate(log.flushed_lsn()).ok());
  EXPECT_EQ(log.base_lsn(), log.flushed_lsn());
}

TEST(LogTruncateTest, LsnsStayAbsoluteAcrossTruncation) {
  LogManager log{LogManager::Options{}};
  LogRecord bot;
  bot.type = LogRecordType::kBot;
  for (TxnId t = 1; t <= 4; ++t) {
    bot.txn = t;
    ASSERT_TRUE(log.Append(bot).ok());
  }
  ASSERT_TRUE(log.Flush().ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 4u);
  const Lsn third = records[2].lsn;
  ASSERT_TRUE(log.Truncate(third).ok());
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, third);
  EXPECT_EQ(records[0].txn, 3u);
  // Appends continue at the absolute offset.
  bot.txn = 5;
  auto lsn = log.Append(bot);
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, third);
}

}  // namespace
}  // namespace rda
