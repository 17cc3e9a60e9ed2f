#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"

namespace rda {
namespace {

// Parallel recovery must be an implementation detail: for every algorithm
// class the paper distinguishes ({page, record} logging x {FORCE, notFORCE}),
// running the same crash at recovery_threads=1 and recovery_threads=4 must
// produce byte-identical data pages, identical recovery reports (including
// per-phase page-transfer counts) and an identical Dirty_Set.
struct ConfigCase {
  LoggingMode mode;
  bool force;
};

std::string CaseName(const ::testing::TestParamInfo<ConfigCase>& info) {
  std::string name =
      info.param.mode == LoggingMode::kPageLogging ? "Page" : "Record";
  name += info.param.force ? "Force" : "NoForce";
  return name;
}

DatabaseOptions BaseOptions(uint32_t threads) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 64;
  options.array.page_size = 128;
  options.buffer.capacity = 16;
  options.txn.rda_undo = true;
  options.txn.record_size = 16;
  options.recovery.recovery_threads = threads;
  return options;
}

// Everything recovery is allowed to influence, captured for comparison.
struct EndState {
  CrashRecoveryReport report;
  std::vector<std::vector<uint8_t>> pages;
  std::vector<GroupId> dirty_groups;
  bool parity_ok = false;
};

void ExpectSameOutcome(const EndState& serial, const EndState& parallel) {
  EXPECT_EQ(serial.pages, parallel.pages) << "data pages diverged";
  EXPECT_EQ(serial.dirty_groups, parallel.dirty_groups);
  EXPECT_TRUE(serial.parity_ok);
  EXPECT_TRUE(parallel.parity_ok);
  EXPECT_EQ(serial.report.winners, parallel.report.winners);
  EXPECT_EQ(serial.report.losers, parallel.report.losers);
  EXPECT_EQ(serial.report.groups_finalized, parallel.report.groups_finalized);
  EXPECT_EQ(serial.report.parity_undos, parallel.report.parity_undos);
  EXPECT_EQ(serial.report.logged_undos, parallel.report.logged_undos);
  EXPECT_EQ(serial.report.redo_applied, parallel.report.redo_applied);
  EXPECT_EQ(serial.report.redo_skipped, parallel.report.redo_skipped);
  EXPECT_EQ(serial.report.chain_pages_walked,
            parallel.report.chain_pages_walked);
  ASSERT_EQ(serial.report.phases.size(), parallel.report.phases.size());
  for (size_t i = 0; i < serial.report.phases.size(); ++i) {
    EXPECT_EQ(serial.report.phases[i].phase, parallel.report.phases[i].phase);
    EXPECT_EQ(serial.report.phases[i].page_transfers,
              parallel.report.phases[i].page_transfers)
        << "phase " << i;
  }
}

class ParallelRecoveryTest : public ::testing::TestWithParam<ConfigCase> {
 protected:
  void Open(uint32_t threads) {
    DatabaseOptions options = BaseOptions(threads);
    options.txn.logging_mode = GetParam().mode;
    options.txn.force = GetParam().force;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  Status Write(TxnId txn, PageId page, uint8_t fill) {
    if (GetParam().mode == LoggingMode::kRecordLogging) {
      return db_->WriteRecord(txn, page, 0, std::vector<uint8_t>(16, fill));
    }
    return db_->WritePage(txn, page,
                          std::vector<uint8_t>(db_->user_page_size(), fill));
  }

  void Steal(PageId page) {
    Frame* frame = db_->txn_manager()->pool()->Lookup(page);
    ASSERT_NE(frame, nullptr);
    ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  }

  void Populate() {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(Write(*txn, page, static_cast<uint8_t>(page + 1)).ok());
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
  }

  // A crash scenario touching every recovery mechanism at once: buffered
  // winners needing REDO, a committed-but-unfinalized dirty group needing
  // roll-forward, a parity-undo loser, a logged-undo loser and a buffered
  // loser that vanishes.
  void StageCrash() {
    for (uint32_t k = 0; k < 5; ++k) {
      auto winner = db_->Begin();
      ASSERT_TRUE(winner.ok());
      ASSERT_TRUE(Write(*winner, k, static_cast<uint8_t>(0xA0 + k)).ok());
      ASSERT_TRUE(
          Write(*winner, 19 + 4 * k, static_cast<uint8_t>(0xB0 + k)).ok());
      ASSERT_TRUE(db_->Commit(*winner).ok());
    }

    // Commit record on the stable log, crash before twin finalization.
    auto unfinalized = db_->Begin();
    ASSERT_TRUE(unfinalized.ok());
    ASSERT_TRUE(Write(*unfinalized, 40, 0xE1).ok());
    Steal(40);
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = *unfinalized;
    ASSERT_TRUE(db_->log()->Append(std::move(commit)).ok());
    ASSERT_TRUE(db_->log()->Flush().ok());

    auto parity_loser = db_->Begin();
    ASSERT_TRUE(parity_loser.ok());
    ASSERT_TRUE(Write(*parity_loser, 8, 0xC1).ok());
    Steal(8);

    auto logged_loser = db_->Begin();
    ASSERT_TRUE(logged_loser.ok());
    ASSERT_TRUE(Write(*logged_loser, 12, 0xD1).ok());
    ASSERT_TRUE(Write(*logged_loser, 13, 0xD2).ok());
    Steal(12);
    Steal(13);

    auto buffered_loser = db_->Begin();
    ASSERT_TRUE(buffered_loser.ok());
    ASSERT_TRUE(Write(*buffered_loser, 50, 0xF1).ok());
  }

  EndState Capture(CrashRecoveryReport report) {
    EndState state;
    state.report = std::move(report);
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      auto payload = db_->RawReadPage(page);
      EXPECT_TRUE(payload.ok()) << payload.status().ToString();
      state.pages.push_back(std::move(payload).value());
    }
    state.dirty_groups = db_->parity()->directory().AllDirtyGroups();
    auto ok = db_->VerifyAllParity();
    EXPECT_TRUE(ok.ok());
    state.parity_ok = ok.ok() && *ok;
    return state;
  }

  EndState RunCrashScenario(uint32_t threads) {
    Open(threads);
    Populate();
    StageCrash();
    db_->Crash();
    auto report = db_->Recover();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return Capture(std::move(report).value());
  }

  EndState RunRebuildScenario(uint32_t threads, DiskId disk) {
    Open(threads);
    Populate();
    EXPECT_TRUE(db_->FailDisk(disk).ok());
    auto report = db_->RebuildDisk(disk);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EndState state = Capture(CrashRecoveryReport{});
    // Fold the media report into comparable fields.
    state.report.groups_finalized = report->data_pages_rebuilt;
    state.report.parity_undos = report->parity_pages_rebuilt;
    state.report.logged_undos = report->obsolete_twins_reset;
    for (const auto& phase : report->phases) {
      state.report.phases.push_back(phase);
    }
    return state;
  }

  std::unique_ptr<Database> db_;
};

TEST_P(ParallelRecoveryTest, CrashRecoveryMatchesSerialAtFourThreads) {
  EndState serial = RunCrashScenario(1);
  EndState parallel = RunCrashScenario(4);
  ExpectSameOutcome(serial, parallel);
}

TEST_P(ParallelRecoveryTest, MediaRebuildMatchesSerialAtFourThreads) {
  // Disk 1 holds data pages; the last disks hold parity twins. Both kinds
  // of rebuild work must match the serial pass.
  EndState serial_data = RunRebuildScenario(1, 1);
  EndState parallel_data = RunRebuildScenario(4, 1);
  ExpectSameOutcome(serial_data, parallel_data);

  const DiskId parity_disk = static_cast<DiskId>(
      db_->array()->layout().ParityLocation(0, 0).disk);
  EndState serial_parity = RunRebuildScenario(1, parity_disk);
  EndState parallel_parity = RunRebuildScenario(4, parity_disk);
  ExpectSameOutcome(serial_parity, parallel_parity);
}

TEST_P(ParallelRecoveryTest, ScrubMatchesSerialAtFourThreads) {
  for (const uint32_t threads : {1u, 4u}) {
    Open(threads);
    Populate();
    auto report = db_->Scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->groups_checked, db_->array()->num_groups());
    EXPECT_TRUE(report->repaired.empty());
    EXPECT_EQ(report->groups_skipped_dirty, 0u);
  }
}

TEST_P(ParallelRecoveryTest, ArchiveRestoreMatchesSerialAtFourThreads) {
  std::vector<EndState> states;
  for (const uint32_t threads : {1u, 4u}) {
    Open(threads);
    Populate();
    ASSERT_TRUE(db_->TakeArchive(false).ok());
    // A catastrophe the array cannot survive: two disks at once.
    ASSERT_TRUE(db_->FailDisk(0).ok());
    ASSERT_TRUE(db_->FailDisk(1).ok());
    auto report = db_->RestoreFromArchive();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    states.push_back(Capture(std::move(report).value()));
  }
  ExpectSameOutcome(states[0], states[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelRecoveryTest,
    ::testing::Values(ConfigCase{LoggingMode::kPageLogging, true},
                      ConfigCase{LoggingMode::kPageLogging, false},
                      ConfigCase{LoggingMode::kRecordLogging, true},
                      ConfigCase{LoggingMode::kRecordLogging, false}),
    CaseName);

// --- fault-injection interaction (DESIGN.md sections 10 + 13) ---

// A latent sector fault hit by a rebuild worker must escalate through the
// IoPolicy error budget (second failure -> kDataLoss) without wedging the
// worker pool: the pool must still be usable for the archive restore that
// follows. Runs at 1 and 4 threads; the outcome is identical.
TEST(ParallelRebuildFaultTest, LatentFaultEscalatesWithoutDeadlock) {
  std::vector<std::vector<std::vector<uint8_t>>> restored_pages;
  for (const uint32_t threads : {1u, 4u}) {
    DatabaseOptions options = BaseOptions(threads);
    options.txn.logging_mode = LoggingMode::kPageLogging;
    options.txn.force = true;
    options.fault.enabled = true;       // Scripted injections only.
    options.io.disk_error_budget = 1;   // First sector error escalates.
    auto open = Database::Open(options);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    std::unique_ptr<Database> db = std::move(open).value();
    for (PageId page = 0; page < db->num_pages(); ++page) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      std::vector<uint8_t> bytes(db->user_page_size(),
                                 static_cast<uint8_t>(page + 1));
      ASSERT_TRUE(db->WritePage(*txn, page, bytes).ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    ASSERT_TRUE(db->TakeArchive(false).ok());

    // Fail the disk holding group 0's consistent parity twin; rebuilding it
    // recomputes parity from the data pages. Plant a latent sector under
    // one of those data reads: healing cannot reconstruct (the parity it
    // needs is on the failed disk), and RecordSectorError blows the error
    // budget — a second disk failure in mid-rebuild.
    const Layout& layout = db->array()->layout();
    const GroupState& state = db->parity()->directory().Get(0);
    const DiskId victim = layout.ParityLocation(0, state.valid_twin).disk;
    const PhysicalLocation faulty =
        layout.DataLocation(layout.PageAt(0, 1));
    ASSERT_NE(faulty.disk, victim);
    db->array()->injector(faulty.disk)->InjectLatentSector(faulty.slot);

    ASSERT_TRUE(db->FailDisk(victim).ok());
    auto rebuild = db->RebuildDisk(victim);
    ASSERT_FALSE(rebuild.ok()) << "threads=" << threads;
    EXPECT_TRUE(rebuild.status().IsDataLoss())
        << rebuild.status().ToString();
    EXPECT_GE(db->array()->policy_stats().escalations, 1u);
    EXPECT_TRUE(db->array()->DiskFailed(faulty.disk));

    // The pool survived: the (pooled) archive restore completes and the
    // database is whole again.
    auto restore = db->RestoreFromArchive();
    ASSERT_TRUE(restore.ok()) << restore.status().ToString();
    std::vector<std::vector<uint8_t>> pages;
    for (PageId page = 0; page < db->num_pages(); ++page) {
      auto payload = db->RawReadPage(page);
      ASSERT_TRUE(payload.ok());
      EXPECT_EQ((*payload)[kDataRegionOffset],
                static_cast<uint8_t>(page + 1));
      pages.push_back(std::move(payload).value());
    }
    auto ok = db->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
    restored_pages.push_back(std::move(pages));
  }
  EXPECT_EQ(restored_pages[0], restored_pages[1]);
}

}  // namespace
}  // namespace rda
