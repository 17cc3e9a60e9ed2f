// Systematic crash-point sweep: a fixed, deterministic workload script is
// replayed from scratch; for EVERY prefix length k the database is crashed
// after k steps and recovered, and the durable state must equal exactly
// what had been committed by step k. This exercises every crash window
// between operations of the protocol (between steal and EOT, between EOT
// and twin finalization, mid-abort, around checkpoints).
#include <gtest/gtest.h>

#include <map>
#include <variant>

#include "core/database.h"
#include "fuzz/runner.h"
#include "fuzz/schedule.h"

namespace rda {
namespace {

enum class OpKind : uint8_t {
  kBegin,
  kWrite,       // txn slot, page, fill
  kSteal,       // force page to disk
  kCommit,      // txn slot
  kAbort,       // txn slot
  kCheckpoint,
};

struct Op {
  OpKind kind;
  int txn = 0;      // Index into the script's transaction slots.
  PageId page = 0;
  uint8_t fill = 0;
};

// A hand-designed script that covers the interesting shapes: unlogged
// steals (distinct groups), logged steals (same group), re-modification
// after steal, aborts with and without steals, interleaved transactions
// sharing a group, checkpoints, and winners whose pages never hit disk.
// Groups are 4 pages wide (pages 0-3 = group 0, 4-7 = group 1, ...).
std::vector<Op> Script() {
  return {
      {OpKind::kBegin, 0},
      {OpKind::kWrite, 0, 0, 0x10},   // t0 writes group 0.
      {OpKind::kSteal, 0, 0},         // Unlogged steal.
      {OpKind::kWrite, 0, 4, 0x11},   // t0 writes group 1.
      {OpKind::kCommit, 0},           // Winner with dirty groups.

      {OpKind::kBegin, 1},
      {OpKind::kWrite, 1, 0, 0x20},   // Overwrite committed page.
      {OpKind::kWrite, 1, 1, 0x21},   // Same group: second steal logs.
      {OpKind::kSteal, 1, 0},
      {OpKind::kSteal, 1, 1},
      {OpKind::kAbort, 1},            // Runtime abort: parity + log undo.

      {OpKind::kBegin, 2},
      {OpKind::kWrite, 2, 8, 0x30},
      {OpKind::kCheckpoint, 0},       // ACC checkpoint steals page 8.
      {OpKind::kWrite, 2, 8, 0x31},   // Re-modify after checkpoint steal.
      {OpKind::kSteal, 2, 8},         // Unlogged repeat.
      {OpKind::kBegin, 3},
      {OpKind::kWrite, 3, 9, 0x40},   // Same group as t2's dirty page.
      {OpKind::kSteal, 3, 9},         // Logged steal into dirty group.
      {OpKind::kCommit, 3},
      {OpKind::kCommit, 2},

      {OpKind::kBegin, 4},
      {OpKind::kWrite, 4, 12, 0x50},  // Buffered only, never stolen.
      {OpKind::kBegin, 5},
      {OpKind::kWrite, 5, 16, 0x60},
      {OpKind::kSteal, 5, 16},
      {OpKind::kCommit, 5},
      {OpKind::kAbort, 4},

      {OpKind::kBegin, 6},
      {OpKind::kWrite, 6, 0, 0x70},   // Hot page again.
      {OpKind::kSteal, 6, 0},
      {OpKind::kCheckpoint, 0},
  };
}

struct CrashPointCase {
  bool force;
  bool rda;
  LoggingMode mode = LoggingMode::kPageLogging;
};

std::string CaseName(const ::testing::TestParamInfo<CrashPointCase>& info) {
  std::string name = info.param.force ? "Force" : "NoForce";
  name += info.param.rda ? "Rda" : "NoRda";
  name += info.param.mode == LoggingMode::kRecordLogging ? "Record" : "";
  return name;
}

class CrashPointTest : public ::testing::TestWithParam<CrashPointCase> {
 protected:
  std::unique_ptr<Database> OpenDb() {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = 32;
    options.array.page_size = 128;
    options.buffer.capacity = 16;
    options.txn.force = GetParam().force;
    options.txn.rda_undo = GetParam().rda;
    options.txn.logging_mode = GetParam().mode;
    options.txn.record_size = 24;
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok());
    return std::move(db).value();
  }
};

TEST_P(CrashPointTest, EveryPrefixRecoversToCommittedState) {
  const std::vector<Op> script = Script();
  for (size_t crash_at = 0; crash_at <= script.size(); ++crash_at) {
    std::unique_ptr<Database> db = OpenDb();
    std::map<int, TxnId> txns;
    std::map<int, std::map<PageId, uint8_t>> pending;
    std::map<PageId, uint8_t> committed;

    for (size_t i = 0; i < crash_at; ++i) {
      const Op& op = script[i];
      switch (op.kind) {
        case OpKind::kBegin: {
          auto txn = db->Begin();
          ASSERT_TRUE(txn.ok());
          txns[op.txn] = *txn;
          pending[op.txn].clear();
          break;
        }
        case OpKind::kWrite: {
          if (GetParam().mode == LoggingMode::kRecordLogging) {
            ASSERT_TRUE(db->WriteRecord(txns[op.txn], op.page, 0,
                                        std::vector<uint8_t>(24, op.fill))
                            .ok())
                << "step " << i;
          } else {
            ASSERT_TRUE(
                db->WritePage(txns[op.txn], op.page,
                              std::vector<uint8_t>(db->user_page_size(),
                                                   op.fill))
                    .ok())
                << "step " << i;
          }
          pending[op.txn][op.page] = op.fill;
          break;
        }
        case OpKind::kSteal: {
          Frame* frame = db->txn_manager()->pool()->Lookup(op.page);
          if (frame != nullptr && frame->dirty) {
            ASSERT_TRUE(
                db->txn_manager()->pool()->PropagateFrame(frame).ok());
          }
          break;
        }
        case OpKind::kCommit: {
          ASSERT_TRUE(db->Commit(txns[op.txn]).ok()) << "step " << i;
          for (const auto& [page, fill] : pending[op.txn]) {
            committed[page] = fill;
          }
          pending[op.txn].clear();
          break;
        }
        case OpKind::kAbort: {
          ASSERT_TRUE(db->Abort(txns[op.txn]).ok()) << "step " << i;
          pending[op.txn].clear();
          break;
        }
        case OpKind::kCheckpoint: {
          ASSERT_TRUE(db->Checkpoint().ok()) << "step " << i;
          break;
        }
      }
    }

    db->Crash();
    auto report = db->Recover();
    ASSERT_TRUE(report.ok())
        << "crash point " << crash_at << ": " << report.status().ToString();

    // Durable state == committed state as of the crash point; everything
    // else reads as the initial zero page.
    for (PageId page = 0; page < db->num_pages(); ++page) {
      auto payload = db->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      const uint8_t want =
          committed.contains(page) ? committed[page] : 0x00;
      ASSERT_EQ((*payload)[kDataRegionOffset], want)
          << "crash point " << crash_at << ", page " << page;
    }
    auto parity_ok = db->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    ASSERT_TRUE(*parity_ok) << "crash point " << crash_at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashPointTest,
    ::testing::Values(
        CrashPointCase{true, true}, CrashPointCase{true, false},
        CrashPointCase{false, true}, CrashPointCase{false, false},
        CrashPointCase{true, true, LoggingMode::kRecordLogging},
        CrashPointCase{false, true, LoggingMode::kRecordLogging},
        CrashPointCase{false, false, LoggingMode::kRecordLogging}),
    CaseName);

// The same sweep with a second crash DURING recovery: recover, crash again
// immediately, recover again — convergence to the same state.
TEST_P(CrashPointTest, DoubleCrashConverges) {
  const std::vector<Op> script = Script();
  // Sample a few interesting crash points rather than all (runtime).
  for (const size_t crash_at :
       {size_t{5}, size_t{10}, size_t{19}, size_t{26}, script.size()}) {
    std::unique_ptr<Database> db = OpenDb();
    std::map<int, TxnId> txns;
    std::map<int, std::map<PageId, uint8_t>> pending;
    std::map<PageId, uint8_t> committed;
    for (size_t i = 0; i < crash_at && i < script.size(); ++i) {
      const Op& op = script[i];
      switch (op.kind) {
        case OpKind::kBegin: {
          auto txn = db->Begin();
          ASSERT_TRUE(txn.ok());
          txns[op.txn] = *txn;
          pending[op.txn].clear();
          break;
        }
        case OpKind::kWrite:
          if (GetParam().mode == LoggingMode::kRecordLogging) {
            ASSERT_TRUE(db->WriteRecord(txns[op.txn], op.page, 0,
                                        std::vector<uint8_t>(24, op.fill))
                            .ok());
          } else {
            ASSERT_TRUE(
                db->WritePage(txns[op.txn], op.page,
                              std::vector<uint8_t>(db->user_page_size(),
                                                   op.fill))
                    .ok());
          }
          pending[op.txn][op.page] = op.fill;
          break;
        case OpKind::kSteal: {
          Frame* frame = db->txn_manager()->pool()->Lookup(op.page);
          if (frame != nullptr && frame->dirty) {
            ASSERT_TRUE(
                db->txn_manager()->pool()->PropagateFrame(frame).ok());
          }
          break;
        }
        case OpKind::kCommit:
          ASSERT_TRUE(db->Commit(txns[op.txn]).ok());
          for (const auto& [page, fill] : pending[op.txn]) {
            committed[page] = fill;
          }
          break;
        case OpKind::kAbort:
          ASSERT_TRUE(db->Abort(txns[op.txn]).ok());
          break;
        case OpKind::kCheckpoint:
          ASSERT_TRUE(db->Checkpoint().ok());
          break;
      }
    }
    db->Crash();
    ASSERT_TRUE(db->Recover().ok());
    db->Crash();  // Again, immediately.
    ASSERT_TRUE(db->Recover().ok());
    for (const auto& [page, fill] : committed) {
      auto payload = db->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      ASSERT_EQ((*payload)[kDataRegionOffset], fill)
          << "crash point " << crash_at << ", page " << page;
    }
    auto parity_ok = db->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    ASSERT_TRUE(*parity_ok);
  }
}

// ---------------------------------------------------------------------------
// Crash in the repair-on-read window: between reconstructing a faulty
// sector's content and writing it back (DESIGN.md section 10). The repair
// must be restartable — after recovery the fault is still there and the
// next read heals it for good.
// ---------------------------------------------------------------------------

class RepairCrashTest : public ::testing::Test {
 protected:
  void Open() {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = 32;
    options.array.page_size = 128;
    options.buffer.capacity = 16;
    options.txn.force = true;
    options.txn.rda_undo = true;
    options.fault.enabled = true;
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

  std::unique_ptr<Database> db_;
};

TEST_F(RepairCrashTest, CrashBetweenReconstructAndWriteBackOnDataRead) {
  Open();
  ASSERT_TRUE(WriteTxn(3, 0x3e).ok());
  const PhysicalLocation loc = db_->array()->layout().DataLocation(3);
  db_->array()->injector(loc.disk)->InjectLatentSector(loc.slot);

  // The repair reconstructs, then "crashes" before the write-back.
  db_->parity()->InjectCrashBeforeNextRepairWriteBack();
  auto payload = db_->RawReadPage(3);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(payload.status().IsAborted()) << payload.status().ToString();
  // Nothing was written: the latent error is still on the medium.
  EXPECT_TRUE(db_->array()->injector(loc.disk)->HasLatent(loc.slot));

  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  // The retried read completes the repair end to end.
  payload = db_->RawReadPage(3);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ((*payload)[kDataRegionOffset], 0x3e);
  EXPECT_FALSE(db_->array()->injector(loc.disk)->HasLatent(loc.slot));
  EXPECT_EQ(db_->parity()->stats().latent_repairs, 1u);
  auto parity_ok = db_->VerifyAllParity();
  ASSERT_TRUE(parity_ok.ok());
  EXPECT_TRUE(*parity_ok);
}

TEST_F(RepairCrashTest, CrashBetweenReconstructAndWriteBackDuringScrub) {
  Open();
  ASSERT_TRUE(WriteTxn(5, 0x5f).ok());
  const PhysicalLocation loc = db_->array()->layout().DataLocation(5);
  db_->array()->injector(loc.disk)->InjectLatentSector(loc.slot);

  db_->parity()->InjectCrashBeforeNextRepairWriteBack();
  auto report = db_->Scrub();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsAborted()) << report.status().ToString();
  EXPECT_TRUE(db_->array()->injector(loc.disk)->HasLatent(loc.slot));

  // The restarted scrub pass heals the sector and then verifies clean.
  // (No recovery needed: the aborted repair wrote nothing back.)
  report = db_->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sectors_repaired, 1u);
  EXPECT_TRUE(report->repaired.empty());
  EXPECT_FALSE(db_->array()->injector(loc.disk)->HasLatent(loc.slot));
  auto payload = db_->RawReadPage(5);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ((*payload)[kDataRegionOffset], 0x5f);

  auto again = db_->Scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->sectors_repaired, 0u);  // Nothing left to heal.
}

// Promoted fuzzer repro (minimized by the schedule shrinker). A NOFORCE
// checkpoint used to race the group-commit flush it overlapped with:
// LogManager::Truncate could discard a batch the leader was still writing,
// leaving commit records unreadable after the next crash — exactly the
// double-crash window this schedule drives (crash mid-stream with a
// mid-recovery crash injected, then the final crash). Pinned here so the
// Truncate/group-commit interlock never regresses.
TEST(FuzzRepro, CheckpointDuringGroupCommitThenDoubleCrash) {
  auto schedule = fuzz::Schedule::Parse(
      "rda-sched v1 seed=9177 algo=noforce,rda,page threads=1 steps=6 "
      "crash=21:2 fault=torn@9:3");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto outcome = fuzz::RunSchedule(*schedule);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->passed) << outcome->violation;
}

// Promoted fuzzer repro: a torn write landing on a stolen page right
// before a crash, under record logging without RDA undo — recovery must
// heal the torn image from parity before applying log undo, or the page
// survives as a mixed fill.
TEST(FuzzRepro, TornStolenPageHealedBeforeLogUndo) {
  auto schedule = fuzz::Schedule::Parse(
      "rda-sched v1 seed=311 algo=force,norda,record threads=1 steps=5 "
      "crash=17:0 fault=torn@12:1");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto outcome = fuzz::RunSchedule(*schedule);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->passed) << outcome->violation;
}

}  // namespace
}  // namespace rda
