// notFORCE restart from an ACC checkpoint (DESIGN.md §4.3): the master
// record names the last complete checkpoint, and restart scans the log from
// its REDO floor (or lower, from the first record of a transaction it lists
// as unfinished) instead of from the log base.
//
// A crash-point sweep replays scripts that cross checkpoints and crashes
// after every prefix, and also inside each checkpoint: after its
// propagation, and after its record is durable but before the master
// record names it. Pinned cases check the shapes a restart point must get
// right, and a cost test checks that restart reads what was logged since
// the checkpoint, not the history before it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <string>

#include "core/database.h"

namespace rda {
namespace {

using Step = Checkpointer::Step;

enum class OpKind : uint8_t {
  kBegin,
  kWrite,       // txn slot, page, fill
  kSteal,       // propagate the page's frame now
  kCommit,      // txn slot
  kAbort,       // txn slot
  kCheckpoint,
  // A checkpoint during which `txn` writes `page` and commits, after the
  // propagation and before the record: the commit lands between the REDO
  // floor and the checkpoint record.
  kCheckpointWithCommit,
  kArchive,            // TakeArchive(false): snapshot, log kept.
  kTruncatingArchive,  // TakeArchive(true): truncates the log.
  kRestore,            // RestoreFromArchive().
};

struct Op {
  OpKind kind;
  int txn = 0;
  PageId page = 0;
  uint8_t fill = 0;
};

// Groups are 4 pages wide (pages 0-3 = group 0, 4-7 = group 1, ...).
std::vector<Op> CheckpointScript() {
  return {
      // t0 opens an unlogged window in group 0 and commits: the group's
      // valid twin stays kWorking(t0), stamp pending, and nothing below
      // rewrites it.
      {OpKind::kBegin, 0},
      {OpKind::kWrite, 0, 1, 0x10},
      {OpKind::kSteal, 0, 1},
      {OpKind::kWrite, 0, 4, 0x11},
      {OpKind::kCommit, 0},
      // The loser t1 logs a before-image of page 13 (a steal into t2's
      // dirty group 3), then opens its own unlogged window on the same page
      // once t2 committed: its kChainHead and before-image lie before the
      // checkpoint, and it stays active to the end.
      {OpKind::kBegin, 2},
      {OpKind::kWrite, 2, 12, 0x20},
      {OpKind::kSteal, 2, 12},
      {OpKind::kBegin, 1},
      {OpKind::kWrite, 1, 13, 0x30},
      {OpKind::kSteal, 1, 13},
      {OpKind::kCommit, 2},
      {OpKind::kWrite, 1, 13, 0x31},
      {OpKind::kSteal, 1, 13},
      {OpKind::kWrite, 1, 17, 0x32},  // Buffered; the checkpoint steals it.
      {OpKind::kCheckpoint},
      // Work after the first checkpoint.
      {OpKind::kBegin, 3},
      {OpKind::kWrite, 3, 20, 0x40},
      {OpKind::kCommit, 3},
      // t4 is active across the second checkpoint and aborts after it.
      {OpKind::kBegin, 4},
      {OpKind::kWrite, 4, 24, 0x50},
      {OpKind::kSteal, 4, 24},
      {OpKind::kWrite, 4, 21, 0x51},
      {OpKind::kCheckpoint},
      {OpKind::kAbort, 4},
      // t5 commits inside the third checkpoint.
      {OpKind::kBegin, 5},
      {OpKind::kWrite, 5, 28, 0x60},
      {OpKind::kCheckpointWithCommit, 5, 29, 0x61},
      {OpKind::kBegin, 6},
      {OpKind::kWrite, 6, 20, 0x70},
      {OpKind::kCommit, 6},
  };
}

// Archives around a checkpoint: a restore after it must replay the whole
// log, and a truncating archive voids the master record.
std::vector<Op> ArchiveScript() {
  return {
      {OpKind::kBegin, 0},
      {OpKind::kWrite, 0, 0, 0x10},
      {OpKind::kCommit, 0},
      {OpKind::kArchive},
      // Committed after the archive and propagated by the checkpoint: only
      // the log can give it back after a restore.
      {OpKind::kBegin, 1},
      {OpKind::kWrite, 1, 4, 0x20},
      {OpKind::kCommit, 1},
      {OpKind::kCheckpoint},
      {OpKind::kBegin, 2},
      {OpKind::kWrite, 2, 8, 0x30},
      {OpKind::kCommit, 2},
      {OpKind::kRestore},
      {OpKind::kBegin, 3},
      {OpKind::kWrite, 3, 12, 0x40},
      {OpKind::kCommit, 3},
      {OpKind::kCheckpoint},
      {OpKind::kTruncatingArchive},
      {OpKind::kBegin, 4},
      {OpKind::kWrite, 4, 16, 0x50},
      {OpKind::kCommit, 4},
  };
}

struct ModeCase {
  LoggingMode mode;
  bool rda;
};

std::string ModeName(const ModeCase& c) {
  return std::string(c.mode == LoggingMode::kPageLogging ? "Page"
                                                         : "Record") +
         (c.rda ? "Rda" : "NoRda");
}

void PrintTo(const ModeCase& c, std::ostream* os) { *os << ModeName(c); }

// Drives one database through a script and keeps the committed oracle.
class Runner {
 public:
  explicit Runner(const ModeCase& mode) : mode_(mode) {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = 32;
    options.array.page_size = 128;
    options.buffer.capacity = 16;
    options.txn.force = false;
    options.txn.rda_undo = mode.rda;
    options.txn.logging_mode = mode.mode;
    options.txn.record_size = 24;
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok());
    db_ = std::move(db).value();
  }

  Database* db() { return db_.get(); }
  TxnId txn(int slot) { return txns_[slot]; }

  // Applies `op`. A checkpoint with `cut` stops before that step, as a
  // crash inside it would; the caller crashes next.
  void Apply(const Op& op, std::optional<Step> cut = std::nullopt) {
    switch (op.kind) {
      case OpKind::kBegin: {
        auto txn = db_->Begin();
        ASSERT_TRUE(txn.ok());
        txns_[op.txn] = *txn;
        pending_[op.txn].clear();
        break;
      }
      case OpKind::kWrite:
        Write(op);
        break;
      case OpKind::kSteal: {
        Frame* frame = db_->txn_manager()->pool()->Lookup(op.page);
        if (frame != nullptr && frame->dirty) {
          ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
        }
        break;
      }
      case OpKind::kCommit:
        Commit(op.txn);
        break;
      case OpKind::kAbort:
        ASSERT_TRUE(db_->Abort(txns_[op.txn]).ok());
        pending_[op.txn].clear();
        break;
      case OpKind::kCheckpoint:
      case OpKind::kCheckpointWithCommit: {
        db_->checkpointer()->SetBeforeStepForTest([&](Step step) {
          if (op.kind == OpKind::kCheckpointWithCommit &&
              step == Step::kLogRecord) {
            Write(op);
            Commit(op.txn);
          }
          return step == cut ? Status::Aborted("crash inside the checkpoint")
                             : Status::Ok();
        });
        const Status status = db_->Checkpoint();
        db_->checkpointer()->SetBeforeStepForTest(nullptr);
        ASSERT_EQ(status.ok(), !cut.has_value()) << status.ToString();
        break;
      }
      case OpKind::kArchive:
      case OpKind::kTruncatingArchive:
        ASSERT_TRUE(
            db_->TakeArchive(op.kind == OpKind::kTruncatingArchive).ok());
        break;
      case OpKind::kRestore:
        ASSERT_TRUE(db_->RestoreFromArchive().ok());
        break;
    }
  }

  // Every page reads as the oracle says (zero if never committed) and
  // every parity group is consistent.
  void Verify(const std::string& where) {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto payload = db_->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      const auto it = committed_.find(page);
      const uint8_t want = it == committed_.end() ? 0x00 : it->second;
      ASSERT_EQ((*payload)[kDataRegionOffset], want)
          << where << ", page " << page;
    }
    auto parity_ok = db_->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    ASSERT_TRUE(*parity_ok) << where;
  }

 private:
  void Write(const Op& op) {
    if (mode_.mode == LoggingMode::kRecordLogging) {
      ASSERT_TRUE(db_->WriteRecord(txns_[op.txn], op.page, 0,
                                   std::vector<uint8_t>(24, op.fill))
                      .ok());
    } else {
      ASSERT_TRUE(db_->WritePage(txns_[op.txn], op.page,
                                 std::vector<uint8_t>(db_->user_page_size(),
                                                      op.fill))
                      .ok());
    }
    pending_[op.txn][op.page] = op.fill;
  }

  void Commit(int slot) {
    ASSERT_TRUE(db_->Commit(txns_[slot]).ok());
    for (const auto& [page, fill] : pending_[slot]) {
      committed_[page] = fill;
    }
    pending_[slot].clear();
  }

  ModeCase mode_;
  std::unique_ptr<Database> db_;
  std::map<int, TxnId> txns_;
  std::map<int, std::map<PageId, uint8_t>> pending_;
  std::map<PageId, uint8_t> committed_;
};

class CheckpointRestartTest : public ::testing::TestWithParam<ModeCase> {
 protected:
  // Crashes after every prefix of `script`, and inside every checkpoint
  // that ends a prefix, and checks the recovered state.
  void Sweep(const std::vector<Op>& script) {
    for (size_t crash_at = 0; crash_at <= script.size(); ++crash_at) {
      std::vector<std::optional<Step>> cuts = {std::nullopt};
      if (crash_at > 0 &&
          (script[crash_at - 1].kind == OpKind::kCheckpoint ||
           script[crash_at - 1].kind == OpKind::kCheckpointWithCommit)) {
        cuts.push_back(Step::kLogRecord);
        cuts.push_back(Step::kWriteMaster);
      }
      for (const std::optional<Step> cut : cuts) {
        const std::string where =
            "crash point " + std::to_string(crash_at) +
            (cut.has_value()
                 ? " inside the checkpoint, before step " +
                       std::to_string(static_cast<int>(*cut))
                 : "");
        Runner runner(GetParam());
        for (size_t i = 0; i < crash_at; ++i) {
          runner.Apply(script[i], i + 1 == crash_at ? cut : std::nullopt);
          ASSERT_FALSE(HasFatalFailure()) << where << ", step " << i;
        }
        runner.db()->Crash();
        auto report = runner.db()->Recover();
        ASSERT_TRUE(report.ok()) << where << ": " << report.status().ToString();
        runner.Verify(where);
        ASSERT_FALSE(HasFatalFailure()) << where;
        // A second crash right after the restart converges too.
        runner.db()->Crash();
        ASSERT_TRUE(runner.db()->Recover().ok()) << where;
        runner.Verify(where + ", after a second crash");
        ASSERT_FALSE(HasFatalFailure()) << where;
      }
    }
  }

  // Runs `script` to its end, crashes and restarts.
  CrashRecoveryReport RunAndRecover(Runner* runner,
                                    const std::vector<Op>& script) {
    for (const Op& op : script) {
      runner->Apply(op);
    }
    runner->db()->Crash();
    auto report = runner->db()->Recover();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : CrashRecoveryReport{};
  }
};

TEST_P(CheckpointRestartTest, EveryCrashPointAcrossCheckpointsRecovers) {
  Sweep(CheckpointScript());
}

TEST_P(CheckpointRestartTest, EveryCrashPointAroundArchivesRecovers) {
  Sweep(ArchiveScript());
}

// A commit between the floor and the record: its after-images lie below
// the checkpoint record but at or above the floor, and its page reached
// the buffer only after the propagation, so REDO must replay them.
TEST_P(CheckpointRestartTest, CommitBetweenFloorAndRecordIsReplayed) {
  Runner runner(GetParam());
  const CrashRecoveryReport report =
      RunAndRecover(&runner, {{OpKind::kBegin, 0},
                              {OpKind::kWrite, 0, 2, 0x10},
                              {OpKind::kCommit, 0},
                              {OpKind::kBegin, 1},
                              {OpKind::kCheckpointWithCommit, 1, 9, 0x20}});
  EXPECT_GT(report.analysis_from, 0u);
  EXPECT_GE(report.redo_applied, 1u);
  runner.Verify("commit inside the checkpoint");
}

// A stamp-pending group whose owner committed before the checkpoint and
// whose twin is never rewritten: the scan never sees the owner, and the
// twin-owner rule must still count it as a winner.
TEST_P(CheckpointRestartTest, StampPendingOwnerBeforeCheckpointIsAWinner) {
  Runner runner(GetParam());
  const CrashRecoveryReport report =
      RunAndRecover(&runner, {{OpKind::kBegin, 0},
                              {OpKind::kWrite, 0, 1, 0x10},
                              {OpKind::kSteal, 0, 1},
                              {OpKind::kCommit, 0},
                              {OpKind::kCheckpoint},
                              {OpKind::kBegin, 1},
                              {OpKind::kWrite, 1, 8, 0x20},
                              {OpKind::kCommit, 1}});
  const TxnId owner = runner.txn(0);
  EXPECT_GT(report.analysis_from, 0u);
  if (GetParam().rda) {
    EXPECT_EQ(report.groups_finalized, 1u);
    EXPECT_TRUE(std::find(report.winners.begin(), report.winners.end(),
                          owner) != report.winners.end());
  }
  EXPECT_TRUE(report.losers.empty());
  EXPECT_EQ(report.parity_undos, 0u);
  runner.Verify("stamp-pending owner");
}

// Transactions that finished before the checkpoint are not in the scan;
// restart still never hands out their ids again.
TEST_P(CheckpointRestartTest, RestartDoesNotReuseIdsBeforeTheCheckpoint) {
  Runner runner(GetParam());
  RunAndRecover(&runner, {{OpKind::kBegin, 0},
                          {OpKind::kWrite, 0, 1, 0x10},
                          {OpKind::kCommit, 0},
                          {OpKind::kBegin, 1},
                          {OpKind::kCommit, 1},
                          {OpKind::kCheckpoint}});
  auto next = runner.db()->Begin();
  ASSERT_TRUE(next.ok());
  EXPECT_GT(*next, runner.txn(1));
  runner.Verify("restart at the checkpoint");
}

// A loser active at the checkpoint whose before-image and kChainHead lie
// before it: the scan starts at its first record, below the floor.
TEST_P(CheckpointRestartTest, LoserActiveAtCheckpointIsUndoneFromItsFirstLsn) {
  Runner runner(GetParam());
  std::vector<Op> script = CheckpointScript();
  // Up to and including the first checkpoint, then one more commit.
  script.resize(16);
  script.push_back({OpKind::kBegin, 3});
  script.push_back({OpKind::kWrite, 3, 20, 0x40});
  script.push_back({OpKind::kCommit, 3});
  const CrashRecoveryReport report = RunAndRecover(&runner, script);
  EXPECT_EQ(report.losers, std::vector<TxnId>{runner.txn(1)});
  std::vector<LogRecord> records;
  ASSERT_TRUE(runner.db()->log()->Scan(0, &records).ok());
  Lsn bot = kInvalidLsn;
  Lsn checkpoint = kInvalidLsn;
  for (const LogRecord& record : records) {
    if (record.type == LogRecordType::kBot && record.txn == runner.txn(1)) {
      bot = record.lsn;
    }
    if (record.type == LogRecordType::kCheckpoint) {
      checkpoint = record.lsn;
    }
  }
  EXPECT_EQ(report.analysis_from, bot);
  EXPECT_LT(bot, checkpoint);
  EXPECT_GE(report.logged_undos, 1u);
  if (GetParam().rda) {
    EXPECT_GE(report.parity_undos, 1u);
  }
  runner.Verify("loser active at the checkpoint");
}

// A runtime abort that straddles the checkpoint: listed as unfinished,
// then finished by its abort-complete record after it.
TEST_P(CheckpointRestartTest, RuntimeAbortAcrossCheckpointIsFinished) {
  Runner runner(GetParam());
  const CrashRecoveryReport report =
      RunAndRecover(&runner, {{OpKind::kBegin, 2},
                              {OpKind::kWrite, 2, 16, 0x05},
                              {OpKind::kCommit, 2},
                              {OpKind::kBegin, 0},
                              {OpKind::kWrite, 0, 4, 0x10},
                              {OpKind::kSteal, 0, 4},
                              {OpKind::kWrite, 0, 9, 0x11},
                              {OpKind::kCheckpoint},
                              {OpKind::kAbort, 0},
                              {OpKind::kBegin, 1},
                              {OpKind::kWrite, 1, 12, 0x20},
                              {OpKind::kCommit, 1}});
  EXPECT_TRUE(report.losers.empty());
  EXPECT_GT(report.analysis_from, 0u);
  runner.Verify("runtime abort across the checkpoint");
}

// A kArchiveRestore marker after the checkpoint: the restore rewrote the
// array from the snapshot, so the replay starts at the log base.
TEST_P(CheckpointRestartTest, ArchiveRestoreAfterCheckpointReplaysTheLog) {
  std::vector<Op> script = ArchiveScript();
  script.resize(11);  // Up to the commit before the restore.
  {
    Runner runner(GetParam());
    for (const Op& op : script) {
      runner.Apply(op);
    }
    auto restored = runner.db()->RestoreFromArchive();
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->analysis_from, runner.db()->log()->base_lsn());
    runner.Verify("after the restore");
  }
  // A crash that cuts the restore short: the next restart replays it all.
  for (uint64_t actions = 0; actions < 3; ++actions) {
    Runner runner(GetParam());
    for (const Op& op : script) {
      runner.Apply(op);
    }
    EXPECT_FALSE(
        runner.db()->RestoreFromArchiveWithInjectedFault(actions).ok());
    runner.db()->Crash();
    auto report = runner.db()->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->analysis_from, runner.db()->log()->base_lsn());
    runner.Verify("restore cut after " + std::to_string(actions) +
                  " actions");
  }
}

// A truncating archive passes the checkpoint and voids the master record:
// restart starts at the new log base.
TEST_P(CheckpointRestartTest, TruncatingArchiveVoidsTheMasterRecord) {
  Runner runner(GetParam());
  for (const Op& op : std::vector<Op>{{OpKind::kBegin, 0},
                                      {OpKind::kWrite, 0, 3, 0x10},
                                      {OpKind::kCommit, 0},
                                      {OpKind::kCheckpoint}}) {
    runner.Apply(op);
  }
  EXPECT_NE(runner.db()->log()->ReadMaster(), kInvalidLsn);
  runner.Apply({OpKind::kTruncatingArchive});
  EXPECT_EQ(runner.db()->log()->ReadMaster(), kInvalidLsn);
  const CrashRecoveryReport report =
      RunAndRecover(&runner, {{OpKind::kBegin, 1},
                              {OpKind::kWrite, 1, 5, 0x20},
                              {OpKind::kCommit, 1}});
  EXPECT_GT(report.analysis_from, 0u);
  EXPECT_EQ(report.analysis_from, runner.db()->log()->base_lsn());
  runner.Verify("after the truncating archive");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CheckpointRestartTest,
    ::testing::Values(ModeCase{LoggingMode::kPageLogging, true},
                      ModeCase{LoggingMode::kPageLogging, false},
                      ModeCase{LoggingMode::kRecordLogging, true},
                      ModeCase{LoggingMode::kRecordLogging, false}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return ModeName(info.param);
    });

// Restart cost follows the work since the checkpoint: two databases with
// the same post-checkpoint tail, one with 8x the pre-checkpoint history,
// read the same number of log pages in analysis, fewer than the log holds.
TEST(CheckpointRestartCostTest, AnalysisReadsOnlyTheLogSinceTheCheckpoint) {
  struct Outcome {
    uint64_t analysis_transfers = 0;
    uint64_t log_pages = 0;
  };
  const auto run = [](int history) {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = 64;
    options.array.page_size = 128;
    options.buffer.capacity = 16;
    options.txn.force = false;
    auto opened = Database::Open(options);
    EXPECT_TRUE(opened.ok());
    Database& db = **opened;
    const std::vector<uint8_t> bytes(db.user_page_size(), 0x5a);
    for (int i = 0; i < history; ++i) {
      auto txn = db.Begin();
      EXPECT_TRUE(txn.ok());
      EXPECT_TRUE(db.WritePage(*txn, static_cast<PageId>(i % 48), bytes).ok());
      EXPECT_TRUE(db.Commit(*txn).ok());
    }
    EXPECT_TRUE(db.Checkpoint().ok());
    // The tail: four commits and a loser, all within the buffer.
    for (PageId page = 48; page < 52; ++page) {
      auto txn = db.Begin();
      EXPECT_TRUE(txn.ok());
      EXPECT_TRUE(db.WritePage(*txn, page, bytes).ok());
      EXPECT_TRUE(db.Commit(*txn).ok());
    }
    auto loser = db.Begin();
    EXPECT_TRUE(loser.ok());
    EXPECT_TRUE(db.WritePage(*loser, 60, bytes).ok());
    Outcome outcome;
    outcome.log_pages =
        (db.log()->flushed_lsn() - db.log()->base_lsn() + 127) / 128;
    db.Crash();
    auto report = db.Recover();
    EXPECT_TRUE(report.ok());
    for (const obs::PhaseCost& phase : report->phases) {
      if (phase.phase == obs::RecoveryPhase::kAnalysis) {
        outcome.analysis_transfers = phase.page_transfers;
      }
    }
    return outcome;
  };
  const Outcome small = run(64);
  const Outcome large = run(8 * 64);
  EXPECT_GT(small.analysis_transfers, 0u);
  EXPECT_EQ(small.analysis_transfers, large.analysis_transfers);
  EXPECT_LT(small.analysis_transfers, small.log_pages);
  EXPECT_LT(large.analysis_transfers, large.log_pages);
}

}  // namespace
}  // namespace rda
