#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/database.h"

namespace rda {
namespace {

// Configuration matrix: logging granularity x FORCE x RDA.
struct ConfigCase {
  LoggingMode mode;
  bool force;
  bool rda;
};

std::string CaseName(const ::testing::TestParamInfo<ConfigCase>& info) {
  std::string name =
      info.param.mode == LoggingMode::kPageLogging ? "Page" : "Record";
  name += info.param.force ? "Force" : "NoForce";
  name += info.param.rda ? "Rda" : "NoRda";
  return name;
}

class DatabaseMatrixTest : public ::testing::TestWithParam<ConfigCase> {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = 64;
    options.array.page_size = 128;
    options.buffer.capacity = 12;
    options.txn.logging_mode = GetParam().mode;
    options.txn.force = GetParam().force;
    options.txn.rda_undo = GetParam().rda;
    options.txn.record_size = 16;
    if (!GetParam().force) {
      options.checkpoint_interval_updates = 16;
    }
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  bool record_mode() const {
    return GetParam().mode == LoggingMode::kRecordLogging;
  }

  // Uniform write helper for both modes.
  Status Write(TxnId txn, PageId page, uint8_t fill) {
    if (record_mode()) {
      return db_->WriteRecord(txn, page, 0, std::vector<uint8_t>(16, fill));
    }
    return db_->WritePage(txn, page,
                          std::vector<uint8_t>(db_->user_page_size(), fill));
  }

  uint8_t ReadCommitted(PageId page) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok());
    return (*payload)[kDataRegionOffset];
  }

  void ExpectParityConsistent() {
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok) << "parity inconsistent";
  }

  std::unique_ptr<Database> db_;
};

TEST_P(DatabaseMatrixTest, CommitDurableAcrossCrash) {
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(Write(*txn, 3, 0x5A).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(ReadCommitted(3), 0x5A);
  ExpectParityConsistent();
}

TEST_P(DatabaseMatrixTest, AbortLeavesNoTrace) {
  auto setup = db_->Begin();
  ASSERT_TRUE(Write(*setup, 3, 0x11).ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(Write(*txn, 3, 0x22).ok());
  ASSERT_TRUE(db_->Abort(*txn).ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(ReadCommitted(3), 0x11);
  ExpectParityConsistent();
}

TEST_P(DatabaseMatrixTest, InFlightTransactionRolledBackByRecovery) {
  auto setup = db_->Begin();
  ASSERT_TRUE(Write(*setup, 5, 0x33).ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());
  auto txn = db_->Begin();
  ASSERT_TRUE(Write(*txn, 5, 0x44).ok());
  // Force the uncommitted page onto disk to make recovery work for it.
  Frame* frame = db_->txn_manager()->pool()->Lookup(5);
  ASSERT_NE(frame, nullptr);
  ASSERT_TRUE(db_->txn_manager()->pool()->PropagateFrame(frame).ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_EQ(ReadCommitted(5), 0x33);
  ExpectParityConsistent();
}

TEST_P(DatabaseMatrixTest, ManyTransactionsRandomizedConsistency) {
  Random rng(GetParam().force ? 101 : 202);
  std::map<PageId, uint8_t> expected;
  for (int i = 0; i < 60; ++i) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    const PageId page = static_cast<PageId>(rng.Uniform(db_->num_pages()));
    const uint8_t fill = static_cast<uint8_t>(rng.UniformRange(1, 250));
    ASSERT_TRUE(Write(*txn, page, fill).ok());
    if (rng.Bernoulli(0.25)) {
      ASSERT_TRUE(db_->Abort(*txn).ok());
    } else {
      ASSERT_TRUE(db_->Commit(*txn).ok());
      expected[page] = fill;
    }
  }
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  for (const auto& [page, fill] : expected) {
    EXPECT_EQ(ReadCommitted(page), fill) << "page " << page;
  }
  ExpectParityConsistent();
}

TEST_P(DatabaseMatrixTest, SurvivesDiskFailureAfterCommits) {
  for (PageId page = 0; page < 16; ++page) {
    auto txn = db_->Begin();
    ASSERT_TRUE(Write(*txn, page, static_cast<uint8_t>(page + 1)).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  // Make everything durable before pulling the disk.
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->FailDisk(0).ok());
  for (PageId page = 0; page < 16; ++page) {
    EXPECT_EQ(ReadCommitted(page), page + 1) << "degraded read " << page;
  }
  auto report = db_->RebuildDisk(0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->undo_coverage_lost.empty());
  for (PageId page = 0; page < 16; ++page) {
    EXPECT_EQ(ReadCommitted(page), page + 1) << "rebuilt read " << page;
  }
  ExpectParityConsistent();
}

// One transaction writes 16 pages in several parity groups, more pages than
// the buffer holds, so it steals mid-flight. Such a transaction is aborted,
// then another is crashed in flight, then a committed one survives a disk
// failure and rebuild.
TEST_P(DatabaseMatrixTest, MultiGroupTransactionAbortCrashAndRebuild) {
  std::vector<PageId> pages;
  std::set<GroupId> groups;
  for (PageId page = 0; page < 48; page += 3) {
    pages.push_back(page);
    groups.insert(db_->array()->layout().GroupOf(page));
  }
  ASSERT_GT(pages.size(), db_->options().buffer.capacity);
  ASSERT_GE(groups.size(), 3u);
  auto write_all = [&](TxnId txn, uint8_t base) {
    for (size_t i = 0; i < pages.size(); ++i) {
      ASSERT_TRUE(Write(txn, pages[i], static_cast<uint8_t>(base + i)).ok())
          << "page " << pages[i];
    }
  };
  auto expect_all = [&](uint8_t base, const char* when) {
    for (size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(ReadCommitted(pages[i]), static_cast<uint8_t>(base + i))
          << when << ", page " << pages[i];
    }
  };

  auto setup = db_->Begin();
  ASSERT_NO_FATAL_FAILURE(write_all(*setup, 0x10));
  ASSERT_TRUE(db_->Commit(*setup).ok());

  auto aborted = db_->Begin();
  ASSERT_NO_FATAL_FAILURE(write_all(*aborted, 0x40));
  ASSERT_TRUE(db_->Abort(*aborted).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  expect_all(0x10, "after abort");
  ExpectParityConsistent();

  auto loser = db_->Begin();
  ASSERT_NO_FATAL_FAILURE(write_all(*loser, 0x80));
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  expect_all(0x10, "after restart");
  ExpectParityConsistent();

  auto winner = db_->Begin();
  ASSERT_NO_FATAL_FAILURE(write_all(*winner, 0xA0));
  ASSERT_TRUE(db_->Commit(*winner).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->FailDisk(1).ok());
  expect_all(0xA0, "degraded");
  auto report = db_->RebuildDisk(1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->undo_coverage_lost.empty());
  expect_all(0xA0, "rebuilt");
  ExpectParityConsistent();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DatabaseMatrixTest,
    ::testing::Values(ConfigCase{LoggingMode::kPageLogging, true, true},
                      ConfigCase{LoggingMode::kPageLogging, true, false},
                      ConfigCase{LoggingMode::kPageLogging, false, true},
                      ConfigCase{LoggingMode::kPageLogging, false, false},
                      ConfigCase{LoggingMode::kRecordLogging, true, true},
                      ConfigCase{LoggingMode::kRecordLogging, true, false},
                      ConfigCase{LoggingMode::kRecordLogging, false, true},
                      ConfigCase{LoggingMode::kRecordLogging, false, false}),
    CaseName);

// The twin array is the only array: any other parity page count is
// rejected, with RDA recovery on or off.
TEST(DatabaseOpenTest, RejectsInconsistentOptions) {
  for (const bool rda_undo : {true, false}) {
    for (const uint32_t copies : {0u, 1u, 3u}) {
      DatabaseOptions options;
      options.txn.rda_undo = rda_undo;
      options.array.parity_copies = copies;
      EXPECT_TRUE(Database::Open(options).status().IsInvalidArgument())
          << "parity_copies " << copies;
    }
  }
}

TEST(DatabaseStatsTest, TransferAccountingMoves) {
  DatabaseOptions options;
  options.array.min_data_pages = 32;
  options.array.page_size = 128;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  const uint64_t before = (*db)->TotalPageTransfers();
  auto txn = (*db)->Begin();
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x21);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
  EXPECT_GT((*db)->TotalPageTransfers(), before);
}


TEST(DatabaseStatsTest, SnapshotCoherent) {
  DatabaseOptions options;
  options.array.min_data_pages = 32;
  options.array.page_size = 128;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x33);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
  auto t2 = (*db)->Begin();
  ASSERT_TRUE((*db)->WritePage(*t2, 4, bytes).ok());
  ASSERT_TRUE((*db)->Abort(*t2).ok());

  const Database::StatsSnapshot s = (*db)->Stats();
  EXPECT_EQ(s.txn.begun, 2u);
  EXPECT_EQ(s.txn.committed, 1u);
  EXPECT_EQ(s.txn.aborted, 1u);
  EXPECT_GT(s.array.page_writes, 0u);
  EXPECT_GT(s.log.page_writes, 0u);
  EXPECT_GT(s.array_total_busy_ms, 0.0);
  EXPECT_EQ(s.dirty_groups, 0u);
  EXPECT_EQ(s.failed_disks, 0u);

  const std::string text = (*db)->FormatStats();
  EXPECT_NE(text.find("array:"), std::string::npos);
  EXPECT_NE(text.find("txns:   2 begun, 1 committed, 1 aborted"),
            std::string::npos);
}

}  // namespace
}  // namespace rda
