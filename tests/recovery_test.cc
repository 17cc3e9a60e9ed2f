#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"

namespace rda {
namespace {

DatabaseOptions BaseOptions() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 64;
  options.array.page_size = 128;
  options.buffer.capacity = 16;
  options.txn.force = false;  // notFORCE exercises REDO.
  options.txn.rda_undo = true;
  return options;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void Open(const DatabaseOptions& options = BaseOptions()) {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::vector<uint8_t> UserBytes(uint8_t fill) {
    return std::vector<uint8_t>(db_->user_page_size(), fill);
  }

  uint8_t DiskByte(PageId page) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok());
    return (*payload)[kDataRegionOffset];
  }

  void Steal(PageId page) {
    Frame* frame = db_->txn_manager()->pool()->Lookup(page);
    ASSERT_NE(frame, nullptr);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  }

  void ExpectParityConsistent() {
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CrashRecoveryTest, CommittedWorkIsRedone) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xAA)).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(DiskByte(1), 0x00);  // notFORCE: still only in the buffer.

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->winners.size(), 1u);
  EXPECT_GE(report->redo_applied, 1u);
  EXPECT_EQ(DiskByte(1), 0xAA);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, BufferedLoserSimplyVanishes) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xBB)).ok());
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  // The transaction never propagated anything: its BOT record was still in
  // the volatile log buffer, so it leaves no trace at all — nothing to
  // undo.
  EXPECT_TRUE(report->losers.empty());
  EXPECT_EQ(report->parity_undos, 0u);
  EXPECT_EQ(DiskByte(1), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, StolenLoserUndoneFromParityAlone) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xCC)).ok());
  Steal(1);
  EXPECT_EQ(DiskByte(1), 0xCC);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->losers.size(), 1u);
  EXPECT_EQ(report->parity_undos, 1u);
  EXPECT_EQ(report->logged_undos, 0u);
  EXPECT_EQ(DiskByte(1), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, LoggedLoserUndoneFromLog) {
  Open();
  auto txn = db_->Begin();
  // Two pages in the same group: the second steal is a logged one.
  ASSERT_TRUE(db_->WritePage(*txn, 0, UserBytes(0xD1)).ok());
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0xD2)).ok());
  Steal(0);
  Steal(1);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parity_undos, 1u);
  EXPECT_EQ(report->logged_undos, 1u);
  EXPECT_EQ(DiskByte(0), 0x00);
  EXPECT_EQ(DiskByte(1), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, CrashBetweenCommitAndFinalizeRollsForward) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 2, UserBytes(0xE1)).ok());
  Steal(2);
  // Write the commit record manually, crash BEFORE FinalizeCommit: the
  // group is still dirty but the transaction is a winner.
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = *txn;
  ASSERT_TRUE(db_->log()->Append(std::move(commit)).ok());
  ASSERT_TRUE(db_->log()->Flush().ok());
  EXPECT_TRUE(db_->parity()->directory().Get(0).dirty);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_finalized, 1u);
  EXPECT_TRUE(report->losers.empty());
  EXPECT_EQ(DiskByte(2), 0xE1);  // Kept: the transaction committed.
  EXPECT_FALSE(db_->parity()->directory().Get(0).dirty);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, WinnersAndLosersMixed) {
  Open();
  auto winner = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*winner, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(db_->Commit(*winner).ok());
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 4, UserBytes(0x20)).ok());
  Steal(4);
  auto loser2 = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser2, 8, UserBytes(0x30)).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->winners.size(), 1u);
  // Only the loser that stole a page is visible after the crash; the
  // buffered-only one evaporated with the volatile log tail.
  EXPECT_EQ(report->losers.size(), 1u);
  EXPECT_EQ(DiskByte(0), 0x10);
  EXPECT_EQ(DiskByte(4), 0x00);
  EXPECT_EQ(DiskByte(8), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, CommittedThenOverwrittenByLoser) {
  // The subtle interleaving from DESIGN.md: a winner's committed-but-
  // unpropagated change is wiped from disk by the loser's parity undo and
  // must be REDOne on top.
  Open();
  auto winner = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*winner, 3, UserBytes(0x77)).ok());
  ASSERT_TRUE(db_->Commit(*winner).ok());  // notFORCE: not on disk.
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 3, UserBytes(0x88)).ok());
  Steal(3);  // Propagates the loser's version (which includes nothing of
             // the winner's bytes — full page write).
  EXPECT_EQ(DiskByte(3), 0x88);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DiskByte(3), 0x77);  // Winner's version, via undo THEN redo.
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, RecoveryIsIdempotent) {
  Open();
  auto winner = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*winner, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(db_->Commit(*winner).ok());
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 4, UserBytes(0x20)).ok());
  Steal(4);
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());

  // Crash again immediately after recovery, recover again.
  db_->Crash();
  auto second = db_->Recover();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->losers.empty());  // AbortComplete was logged.
  EXPECT_EQ(second->parity_undos, 0u);
  EXPECT_EQ(DiskByte(0), 0x10);
  EXPECT_EQ(DiskByte(4), 0x00);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, ChainWalkAuditsUnloggedPages) {
  Open();
  auto loser = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*loser, 0, UserBytes(0x41)).ok());
  ASSERT_TRUE(db_->WritePage(*loser, 4, UserBytes(0x42)).ok());
  ASSERT_TRUE(db_->WritePage(*loser, 8, UserBytes(0x43)).ok());
  Steal(0);
  Steal(4);
  Steal(8);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->chain_pages_walked, 3u);
  EXPECT_EQ(report->parity_undos, 3u);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, NewTransactionsResumeAfterRecovery) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());

  auto fresh = db_->Begin();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, *txn);  // Ids never reused.
  ASSERT_TRUE(db_->WritePage(*fresh, 1, UserBytes(0x99)).ok());
  ASSERT_TRUE(db_->Commit(*fresh).ok());
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(DiskByte(1), 0x99);
  EXPECT_EQ(DiskByte(0), 0x10);
}

TEST_F(CrashRecoveryTest, ForceModeCrashNeedsNoRedo) {
  DatabaseOptions options = BaseOptions();
  options.txn.force = true;
  Open(options);
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0x66)).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(DiskByte(1), 0x66);  // FORCE put it on disk already.
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_applied, 0u);
  EXPECT_GE(report->redo_skipped, 1u);  // FORCE: on the array, never read.
  EXPECT_EQ(DiskByte(1), 0x66);
}

TEST_F(CrashRecoveryTest, CheckpointBoundsRedoAndSurvivesCrash) {
  DatabaseOptions options = BaseOptions();
  options.checkpoint_interval_updates = 4;
  Open(options);
  for (int i = 0; i < 6; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(
        db_->WritePage(*txn, static_cast<PageId>(i * 4),
                       UserBytes(static_cast<uint8_t>(0x50 + i)))
            .ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  EXPECT_GE(db_->checkpointer()->checkpoints_taken(), 1u);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(DiskByte(static_cast<PageId>(i * 4)), 0x50 + i);
  }
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, AbortedTransactionNotReundone) {
  Open();
  auto setup = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*setup, 2, UserBytes(0x11)).ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());
  auto aborted = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*aborted, 2, UserBytes(0x22)).ok());
  Steal(2);
  ASSERT_TRUE(db_->Abort(*aborted).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  // The aborted transaction logged AbortComplete: recovery skips it.
  EXPECT_TRUE(report->losers.empty());
  EXPECT_EQ(DiskByte(2), 0x11);
  ExpectParityConsistent();
}


DatabaseOptions RecordOptions() {
  DatabaseOptions options = BaseOptions();
  options.txn.logging_mode = LoggingMode::kRecordLogging;
  options.txn.record_size = 16;
  return options;
}

TEST_F(CrashRecoveryTest, RecordModeSharedPageWinnerAndLoser) {
  Open(RecordOptions());
  auto winner = db_->Begin();
  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*winner, 1, 0, std::vector<uint8_t>(16, 0xA1)).ok());
  ASSERT_TRUE(
      db_->WriteRecord(*loser, 1, 1, std::vector<uint8_t>(16, 0xB1)).ok());
  Steal(1);  // Multi-modifier: logged for both.
  ASSERT_TRUE(db_->Commit(*winner).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  auto payload = db_->RawReadPage(1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[kDataRegionOffset], 0xA1);       // Winner's slot.
  EXPECT_EQ((*payload)[kDataRegionOffset + 16], 0x00);  // Loser undone.
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, RecordModeUnloggedLoserSlotUndone) {
  Open(RecordOptions());
  auto setup = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*setup, 2, 0, std::vector<uint8_t>(16, 0x11)).ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());

  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*loser, 2, 0, std::vector<uint8_t>(16, 0x99)).ok());
  Steal(2);  // Sole modifier: unlogged, parity-covered.
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parity_undos, 1u);
  auto payload = db_->RawReadPage(2);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[kDataRegionOffset], 0x11);
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, ManyCrashEpochsAccumulateCorrectly) {
  Open();
  uint8_t expected = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    auto winner = db_->Begin();
    expected = static_cast<uint8_t>(0x10 + epoch);
    ASSERT_TRUE(db_->WritePage(*winner, 1, UserBytes(expected)).ok());
    ASSERT_TRUE(db_->Commit(*winner).ok());
    auto loser = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*loser, 1, UserBytes(0xEE)).ok());
    Steal(1);
    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << "epoch " << epoch;
    ASSERT_EQ(DiskByte(1), expected) << "epoch " << epoch;
    ExpectParityConsistent();
  }
}

TEST_F(CrashRecoveryTest, RedoSkippedCountsForceProplagatedPages) {
  DatabaseOptions options = BaseOptions();
  options.txn.force = true;
  Open(options);
  for (int i = 0; i < 3; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*txn, static_cast<PageId>(i * 4),
                               UserBytes(static_cast<uint8_t>(i + 1)))
                    .ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_applied, 0u);
  EXPECT_EQ(report->redo_skipped, 3u);
}

TEST_F(CrashRecoveryTest, FlushedBotWithoutWorkIsCleanLoser) {
  Open();
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(0x44)).ok());
  ASSERT_TRUE(db_->log()->Flush().ok());  // BOT reaches stable storage.
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->losers.size(), 1u);
  EXPECT_EQ(report->parity_undos, 0u);  // Nothing was propagated.
  EXPECT_EQ(DiskByte(1), 0x00);
  // Its AbortComplete is now logged: the next epoch forgets it.
  db_->Crash();
  auto second = db_->Recover();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->losers.empty());
}

// Every data payload, then every parity twin's payload, as on disk.
std::vector<std::vector<uint8_t>> ArrayState(Database* db) {
  std::vector<std::vector<uint8_t>> state;
  for (PageId page = 0; page < db->num_pages(); ++page) {
    PageImage image;
    EXPECT_TRUE(db->array()->ReadData(page, &image).ok());
    state.push_back(std::move(image.payload));
  }
  for (GroupId group = 0; group < db->array()->num_groups(); ++group) {
    for (uint32_t twin = 0; twin < 2; ++twin) {
      PageImage image;
      EXPECT_TRUE(db->array()->ReadParity(group, twin, &image).ok());
      state.push_back(std::move(image.payload));
    }
  }
  return state;
}

const obs::PhaseCost* FindPhase(const CrashRecoveryReport& report,
                                obs::RecoveryPhase phase) {
  for (const obs::PhaseCost& cost : report.phases) {
    if (cost.phase == phase) {
      return &cost;
    }
  }
  return nullptr;
}

TEST_F(CrashRecoveryTest, RecordUndoReadsEachPageOnce) {
  Open(RecordOptions());
  auto winner = db_->Begin();
  auto loser = db_->Begin();
  ASSERT_TRUE(
      db_->WriteRecord(*winner, 3, 0, std::vector<uint8_t>(16, 0xA1)).ok());
  ASSERT_TRUE(
      db_->WriteRecord(*loser, 3, 1, std::vector<uint8_t>(16, 0xB1)).ok());
  ASSERT_TRUE(
      db_->WriteRecord(*loser, 3, 2, std::vector<uint8_t>(16, 0xB2)).ok());
  Steal(3);  // Two modifiers: logged, one before-image per loser slot.
  ASSERT_TRUE(db_->Commit(*winner).ok());

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->logged_undos, 2u);
  // One data read, then one plain propagation per image (data read, parity
  // read, data write, parity write). The second image patches the payload
  // the first one wrote instead of reading the page again.
  const obs::PhaseCost* undo =
      FindPhase(*report, obs::RecoveryPhase::kLoggedUndo);
  ASSERT_NE(undo, nullptr);
  EXPECT_EQ(undo->page_transfers, 1u + 4u * 2u);

  auto payload = db_->RawReadPage(3);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[kDataRegionOffset], 0xA1);       // Winner's slot.
  EXPECT_EQ((*payload)[kDataRegionOffset + 16], 0x00);  // Loser slot 1.
  EXPECT_EQ((*payload)[kDataRegionOffset + 32], 0x00);  // Loser slot 2.
  ExpectParityConsistent();
}

TEST_F(CrashRecoveryTest, RedoReadsEachPageOnceAndPropagatesItOnce) {
  Open();
  // Three winners rewrite page 1, a fourth writes page 6. notFORCE keeps
  // every version in the buffer: only the log holds them at the crash.
  for (const uint8_t fill : {0x31, 0x32, 0x33}) {
    auto txn = db_->Begin();
    ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(fill)).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  auto other = db_->Begin();
  ASSERT_TRUE(db_->WritePage(*other, 6, UserBytes(0x44)).ok());
  ASSERT_TRUE(db_->Commit(*other).ok());
  EXPECT_EQ(DiskByte(1), 0x00);

  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The counts stay per after-image.
  EXPECT_EQ(report->redo_applied, 4u);
  EXPECT_EQ(report->redo_skipped, 0u);
  // One data read per page, then one plain propagation per applied page:
  // parity read, parity write, data write (the old payload is the read).
  const obs::PhaseCost* redo = FindPhase(*report, obs::RecoveryPhase::kRedo);
  ASSERT_NE(redo, nullptr);
  EXPECT_EQ(redo->page_transfers, 2u + 3u * 2u);

  for (const auto& [page, fill] :
       {std::pair<PageId, uint8_t>{1, 0x33}, {6, 0x44}}) {
    auto payload = db_->RawReadPage(page);
    ASSERT_TRUE(payload.ok());
    EXPECT_TRUE(std::equal(payload->begin() + kDataRegionOffset,
                           payload->end(), UserBytes(fill).begin()))
        << "page " << page;
  }
  ExpectParityConsistent();

  // A second pass finds every image on disk: reads only, no propagation.
  db_->Crash();
  auto again = db_->Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->redo_applied, 0u);
  EXPECT_EQ(again->redo_skipped, 4u);
  redo = FindPhase(*again, obs::RecoveryPhase::kRedo);
  ASSERT_NE(redo, nullptr);
  EXPECT_EQ(redo->page_transfers, 2u);
}

TEST_F(CrashRecoveryTest, CrashInsideRedoConvergesAtEveryBudget) {
  // Committed rewrites of four pages (two in one group), all still only in
  // the log at the crash: no losers, no dirty groups, so every recovery
  // action is REDO work — one per page.
  const auto crash_with_redo_work = [this] {
    Open();
    for (int round = 0; round < 3; ++round) {
      for (const PageId page : {1, 2, 5, 9}) {
        auto txn = db_->Begin();
        ASSERT_TRUE(db_->WritePage(*txn, page,
                                   UserBytes(static_cast<uint8_t>(
                                       0x10 * (round + 1) + page)))
                        .ok());
        ASSERT_TRUE(db_->Commit(*txn).ok());
      }
    }
    db_->Crash();
  };
  crash_with_redo_work();
  ASSERT_TRUE(db_->Recover().ok());
  const std::vector<std::vector<uint8_t>> expected = ArrayState(db_.get());
  EXPECT_EQ(DiskByte(9), 0x39);

  constexpr uint64_t kRedoPages = 4;
  for (uint64_t budget = 0; budget <= kRedoPages; ++budget) {
    crash_with_redo_work();
    auto interrupted = db_->RecoverWithInjectedFault(budget);
    if (budget < kRedoPages) {
      ASSERT_FALSE(interrupted.ok()) << "budget " << budget;
      EXPECT_TRUE(interrupted.status().IsAborted());
      db_->Crash();
      ASSERT_TRUE(db_->Recover().ok()) << "budget " << budget;
    } else {
      ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
    }
    EXPECT_EQ(ArrayState(db_.get()), expected) << "budget " << budget;
    ExpectParityConsistent();
  }
}

TEST_F(CrashRecoveryTest, AfterImageOutsideTheArrayIsCorruption) {
  Open();
  LogRecord image;
  image.type = LogRecordType::kAfterImage;
  image.txn = 1;
  image.page = static_cast<PageId>(db_->num_pages());
  ASSERT_TRUE(db_->log()->Append(std::move(image)).ok());
  ASSERT_TRUE(db_->log()->Flush().ok());
  db_->Crash();
  EXPECT_TRUE(db_->Recover().status().IsCorruption());
}

// FORCE puts every committed page on the array before its commit record, so
// restart REDO reads only the pages a non-winner wrote: here pages 2 and 9,
// out of the four (1, 2, 5, 9) with winner images. Page 12 was written only
// by the loser. In record logging the loser's slot on page 2 rides the
// winner's FORCE propagation (a multi-modifier steal).
TEST_F(CrashRecoveryTest, ForceRedoReadsOnlyPagesANonWinnerWrote) {
  for (const LoggingMode mode :
       {LoggingMode::kPageLogging, LoggingMode::kRecordLogging}) {
    SCOPED_TRACE(mode == LoggingMode::kPageLogging ? "page" : "record");
    DatabaseOptions options = RecordOptions();
    options.txn.logging_mode = mode;
    options.txn.force = true;
    Open(options);
    const bool record = mode == LoggingMode::kRecordLogging;
    // Page logging rewrites the whole user region; record logging writes
    // slot `slot` (16 bytes).
    const auto write = [&](TxnId txn, PageId page, RecordSlot slot,
                           uint8_t fill) {
      return record ? db_->WriteRecord(txn, page, slot,
                                       std::vector<uint8_t>(16, fill))
                    : db_->WritePage(txn, page, UserBytes(fill));
    };
    const auto commit = [&](std::vector<std::pair<PageId, uint8_t>> writes) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      for (const auto& [page, fill] : writes) {
        ASSERT_TRUE(write(*txn, page, 0, fill).ok());
      }
      ASSERT_TRUE(db_->Commit(*txn).ok());
    };
    commit({{1, 0x11}, {2, 0x12}});
    commit({{5, 0x25}, {9, 0x29}});
    auto loser = db_->Begin();
    ASSERT_TRUE(loser.ok());
    if (record) {
      ASSERT_TRUE(write(*loser, 2, 1, 0xE2).ok());
    }
    commit({{2, 0x32}});
    if (!record) {
      ASSERT_TRUE(write(*loser, 2, 0, 0xE2).ok());
    }
    ASSERT_TRUE(write(*loser, 9, 1, 0xE9).ok());
    ASSERT_TRUE(write(*loser, 12, 0, 0xEC).ok());
    for (const PageId page : {2, 9, 12}) {
      Steal(page);
    }
    constexpr uint64_t kWinnerImages = 5;

    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->redo_applied + report->redo_skipped, kWinnerImages);
    const obs::PhaseCost* redo =
        FindPhase(*report, obs::RecoveryPhase::kRedo);
    ASSERT_NE(redo, nullptr);
    // One read each of pages 2 and 9, never of 1 or 5. A whole-page undo
    // restores the committed image with its pageLSN, so nothing is
    // re-applied. A record-granular undo resets the pageLSN, so the
    // winners' records there replay: one plain propagation (parity read,
    // parity write, data write) per page.
    EXPECT_EQ(redo->page_transfers, record ? 2u + 2u * 3u : 2u);

    for (const auto& [page, fill] : std::vector<std::pair<PageId, uint8_t>>{
             {1, 0x11}, {2, 0x32}, {5, 0x25}, {9, 0x29}, {12, 0x00}}) {
      auto payload = db_->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      const auto user = payload->begin() + kDataRegionOffset;
      if (record) {
        // Slot 0 holds the committed record, the loser's slot 1 is undone.
        EXPECT_TRUE(std::all_of(user, user + 16,
                                [&](uint8_t b) { return b == fill; }))
            << "page " << page;
        EXPECT_TRUE(std::all_of(user + 16, user + 32,
                                [](uint8_t b) { return b == 0; }))
            << "page " << page;
      } else {
        EXPECT_TRUE(std::equal(user, payload->end(), UserBytes(fill).begin()))
            << "page " << page;
      }
    }
    ExpectParityConsistent();
  }
}

// Regression: after a restart, RebuildDirectory must seed the timestamp
// counter ABOVE every timestamp already stamped on stable twins. If the
// counter restarted low, the first post-restart unlogged update would get a
// twin timestamp not newer than the committed twin's, the WORKING/committed
// classification would pick the wrong image, and undo would restore stale
// data.
TEST_F(CrashRecoveryTest, RestartSeedsTimestampsAboveStableTwins) {
  Open();
  // Several committed generations inflate the pre-crash timestamps.
  for (const uint8_t fill : {0x11, 0x22, 0xAA}) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->WritePage(*txn, 1, UserBytes(fill)).ok());
    Steal(1);
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(DiskByte(1), 0xAA);

  // Runtime undo after the restart: the fresh twin must be classified as
  // the working (newer) image so parity undo restores 0xAA, not vice versa.
  auto loser = db_->Begin();
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE(db_->WritePage(*loser, 1, UserBytes(0xBB)).ok());
  Steal(1);
  EXPECT_EQ(DiskByte(1), 0xBB);
  ASSERT_TRUE(db_->Abort(*loser).ok());
  EXPECT_EQ(DiskByte(1), 0xAA);
  ExpectParityConsistent();

  // Crash undo after the restart: same property through recovery.
  auto crash_loser = db_->Begin();
  ASSERT_TRUE(crash_loser.ok());
  ASSERT_TRUE(db_->WritePage(*crash_loser, 1, UserBytes(0xCC)).ok());
  Steal(1);
  EXPECT_EQ(DiskByte(1), 0xCC);
  db_->Crash();
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->parity_undos, 1u);
  EXPECT_EQ(DiskByte(1), 0xAA);
  ExpectParityConsistent();
}

// Differential check of the one undo executor: "abort, then crash and
// recover" must end where "crash before the abort, then recover" does, for
// every algorithm class and recovery width. The loser T makes a logged
// steal before its dirty page's unlogged window opens (the pre-window
// image), the unlogged steal that opens it, a logged steal inside it, an
// unlogged repeat, an unlogged steal in a second group and a buffered-only
// write.
struct UndoDifferentialParam {
  bool force;
  LoggingMode mode;
  uint32_t recovery_threads;
};

class UndoDifferentialTest
    : public ::testing::TestWithParam<UndoDifferentialParam> {
 protected:
  struct Outcome {
    std::vector<std::vector<uint8_t>> user_bytes;  // Per data page.
    CrashRecoveryReport report;
  };

  // Runs the schedule; aborts T before the crash iff `abort_first`.
  void Run(bool abort_first, Outcome* out) {
    DatabaseOptions options = BaseOptions();
    options.txn.force = GetParam().force;
    options.txn.logging_mode = GetParam().mode;
    options.txn.record_size = 16;
    options.recovery.recovery_threads = GetParam().recovery_threads;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();

    // Committed base values, all on the array.
    auto setup = db_->Begin();
    for (const PageId page : {0, 1, 2, 5}) {
      Write(*setup, page, static_cast<uint8_t>(0x10 + page));
    }
    ASSERT_TRUE(db_->Commit(*setup).ok());
    for (const PageId page : {0, 1, 2, 5}) {
      Steal(page);
    }

    auto other = db_->Begin();
    auto txn = db_->Begin();
    Write(*other, 0, 0xE0);
    Steal(0);  // Unlogged: group 0 is now dirty by `other`.
    Write(*txn, 1, 0xA1);
    Steal(1);  // Group 0 dirty by another transaction: logged.
    ASSERT_TRUE(db_->Commit(*other).ok());  // Group 0 clean again.
    Write(*txn, 1, 0xA2);
    Steal(1);  // Unlogged: the window on page 1 opens after its image.
    Write(*txn, 2, 0xA3);
    Steal(2);  // Logged, inside the window.
    Write(*txn, 1, 0xA4);
    Steal(1);  // Unlogged repeat.
    Write(*txn, 5, 0xA5);
    Steal(5);  // Unlogged: a second group.
    Write(*txn, 9, 0xA6);  // Buffered only.

    if (abort_first) {
      ASSERT_TRUE(db_->Abort(*txn).ok());
    }
    db_->Crash();
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    out->report = *report;
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto payload = db_->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      out->user_bytes.emplace_back(payload->begin() + kDataRegionOffset,
                                   payload->end());
    }
    auto parity_ok = db_->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    EXPECT_TRUE(*parity_ok);
  }

  // Page logging writes the whole user region, record logging slot 1.
  void Write(TxnId txn, PageId page, uint8_t fill) {
    const Status status =
        GetParam().mode == LoggingMode::kPageLogging
            ? db_->WritePage(txn, page,
                             std::vector<uint8_t>(db_->user_page_size(), fill))
            : db_->WriteRecord(txn, page, 1, std::vector<uint8_t>(16, fill));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  void Steal(PageId page) {
    Frame* frame = db_->txn_manager()->pool()->Lookup(page);
    ASSERT_NE(frame, nullptr);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_P(UndoDifferentialTest, AbortThenCrashMatchesCrashBeforeAbort) {
  Outcome aborted;
  Outcome crashed;
  ASSERT_NO_FATAL_FAILURE(Run(/*abort_first=*/true, &aborted));
  ASSERT_NO_FATAL_FAILURE(Run(/*abort_first=*/false, &crashed));

  // The restart undid T itself: both windows by parity, the pre-window and
  // the in-window image from the log.
  EXPECT_TRUE(aborted.report.losers.empty());
  ASSERT_EQ(crashed.report.losers.size(), 1u);
  EXPECT_EQ(crashed.report.parity_undos, 2u);
  EXPECT_EQ(crashed.report.logged_undos, 2u);

  ASSERT_EQ(aborted.user_bytes.size(), crashed.user_bytes.size());
  for (PageId page = 0; page < aborted.user_bytes.size(); ++page) {
    EXPECT_EQ(aborted.user_bytes[page], crashed.user_bytes[page])
        << "page " << page;
  }
  // And both hold the committed state: `other`'s write and T's base.
  const size_t at = GetParam().mode == LoggingMode::kPageLogging ? 0 : 16;
  for (const auto& [page, byte] :
       {std::pair<PageId, uint8_t>{0, 0xE0}, {1, 0x11}, {2, 0x12}, {5, 0x15},
        {9, 0x00}}) {
    EXPECT_EQ(crashed.user_bytes[page][at], byte) << "page " << page;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, UndoDifferentialTest,
    ::testing::Values(
        UndoDifferentialParam{true, LoggingMode::kPageLogging, 1},
        UndoDifferentialParam{true, LoggingMode::kPageLogging, 4},
        UndoDifferentialParam{false, LoggingMode::kPageLogging, 1},
        UndoDifferentialParam{false, LoggingMode::kPageLogging, 4},
        UndoDifferentialParam{true, LoggingMode::kRecordLogging, 1},
        UndoDifferentialParam{true, LoggingMode::kRecordLogging, 4},
        UndoDifferentialParam{false, LoggingMode::kRecordLogging, 1},
        UndoDifferentialParam{false, LoggingMode::kRecordLogging, 4}),
    [](const ::testing::TestParamInfo<UndoDifferentialParam>& info) {
      return std::string(info.param.force ? "Force" : "NoForce") +
             (info.param.mode == LoggingMode::kPageLogging ? "Page"
                                                           : "Record") +
             "Threads" + std::to_string(info.param.recovery_threads);
    });

}  // namespace
}  // namespace rda
