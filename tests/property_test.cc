// End-to-end property tests: a randomized client drives the Database while
// an oracle tracks what the committed state must be; crashes, aborts,
// checkpoints and disk failures are injected at random points. After every
// recovery the on-disk committed state must equal the oracle and all parity
// groups must be consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <string>

#include "common/random.h"
#include "core/database.h"

namespace rda {
namespace {

struct PropertyCase {
  uint64_t seed;
  LoggingMode mode;
  bool force;
  bool rda;
};

std::string PropertyName(const PropertyCase& c) {
  std::string name = "Seed" + std::to_string(c.seed);
  name += c.mode == LoggingMode::kPageLogging ? "Page" : "Record";
  name += c.force ? "Force" : "NoForce";
  name += c.rda ? "Rda" : "NoRda";
  return name;
}

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  return PropertyName(info.param);
}

// Without it gtest prints the raw bytes, padding included, into the ctest
// name.
void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << PropertyName(c);
}

class RecoveryPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static constexpr uint32_t kPages = 48;
  static constexpr size_t kRecordSize = 16;

  void SetUp() override {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = kPages;
    options.array.page_size = 128;
    options.buffer.capacity = 10;
    options.txn.logging_mode = GetParam().mode;
    options.txn.force = GetParam().force;
    options.txn.rda_undo = GetParam().rda;
    options.txn.record_size = kRecordSize;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    rng_ = std::make_unique<Random>(GetParam().seed);
  }

  bool record_mode() const {
    return GetParam().mode == LoggingMode::kRecordLogging;
  }

  // Oracle key: page (page mode) or page*1000+slot (record mode).
  using Key = uint64_t;
  Key MakeKey(PageId page, RecordSlot slot) {
    return static_cast<uint64_t>(page) * 1000 + slot;
  }

  Status Write(TxnId txn, PageId page, RecordSlot slot, uint8_t fill) {
    if (record_mode()) {
      return db_->WriteRecord(txn, page, slot,
                              std::vector<uint8_t>(kRecordSize, fill));
    }
    return db_->WritePage(
        txn, page, std::vector<uint8_t>(db_->user_page_size(), fill));
  }

  uint8_t ReadDurable(PageId page, RecordSlot slot) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok());
    const size_t offset =
        kDataRegionOffset + (record_mode() ? slot * kRecordSize : 0);
    return (*payload)[offset];
  }

  void VerifyOracle(const std::map<Key, uint8_t>& oracle) {
    for (const auto& [key, fill] : oracle) {
      const PageId page = static_cast<PageId>(key / 1000);
      const RecordSlot slot = static_cast<RecordSlot>(key % 1000);
      ASSERT_EQ(ReadDurable(page, slot), fill)
          << "page " << page << " slot " << slot;
    }
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(*ok);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Random> rng_;
};

TEST_P(RecoveryPropertyTest, CommittedStateSurvivesEverything) {
  std::map<Key, uint8_t> oracle;       // Durable truth.
  struct Pending {
    TxnId id;
    std::map<Key, uint8_t> writes;
  };
  std::vector<Pending> active;

  const uint32_t slots = record_mode() ? 5 : 1;
  uint8_t next_fill = 1;

  for (int step = 0; step < 500; ++step) {
    const double dice = rng_->NextDouble();
    if (dice < 0.25 && active.size() < 3) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      active.push_back(Pending{*txn, {}});
    } else if (dice < 0.70 && !active.empty()) {
      Pending& txn = active[rng_->Uniform(active.size())];
      const PageId page = static_cast<PageId>(rng_->Uniform(kPages));
      const RecordSlot slot =
          static_cast<RecordSlot>(rng_->Uniform(slots));
      const uint8_t fill = next_fill;
      const Status status = Write(txn.id, page, slot, fill);
      if (status.ok()) {
        next_fill = static_cast<uint8_t>(next_fill % 250 + 1);
        txn.writes[MakeKey(page, slot)] = fill;
      } else {
        ASSERT_TRUE(status.IsBusy()) << status.ToString();
      }
    } else if (dice < 0.82 && !active.empty()) {
      const size_t index = rng_->Uniform(active.size());
      const bool commit = rng_->Bernoulli(0.7);
      if (commit) {
        ASSERT_TRUE(db_->Commit(active[index].id).ok());
        for (const auto& [key, fill] : active[index].writes) {
          oracle[key] = fill;
        }
      } else {
        ASSERT_TRUE(db_->Abort(active[index].id).ok());
      }
      active.erase(active.begin() + index);
    } else if (dice < 0.87) {
      // Force a random dirty frame to disk (steal pressure).
      auto dirty = db_->txn_manager()->pool()->DirtyPages();
      if (!dirty.empty()) {
        Frame* frame = db_->txn_manager()->pool()->Lookup(
            dirty[rng_->Uniform(dirty.size())]);
        if (frame != nullptr) {
          ASSERT_TRUE(
              db_->txn_manager()->pool()->PropagateFrame(frame).ok());
        }
      }
    } else if (dice < 0.90 && !GetParam().force) {
      ASSERT_TRUE(db_->Checkpoint().ok());
    } else if (dice < 0.93) {
      // CRASH. All in-flight transactions become losers.
      db_->Crash();
      auto report = db_->Recover();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      active.clear();
      VerifyOracle(oracle);
    } else if (dice < 0.945) {
      // Media failure WHILE transactions are in flight. If the lost disk
      // held the old twin of a dirty group, the affected transactions lose
      // undo coverage: Abort must refuse with kDataLoss and Commit is the
      // only legal outcome.
      const DiskId victim =
          static_cast<DiskId>(rng_->Uniform(db_->array()->num_disks()));
      ASSERT_TRUE(db_->FailDisk(victim).ok());
      auto report = db_->RebuildDisk(victim);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      for (const TxnId poisoned : report->undo_coverage_lost) {
        auto it = std::find_if(active.begin(), active.end(),
                               [poisoned](const Pending& txn) {
                                 return txn.id == poisoned;
                               });
        ASSERT_NE(it, active.end());
        EXPECT_TRUE(db_->Abort(poisoned).IsDataLoss());
        ASSERT_TRUE(db_->Commit(poisoned).ok());
        for (const auto& [key, fill] : it->writes) {
          oracle[key] = fill;
        }
        active.erase(it);
      }
    } else if (dice < 0.96 && active.empty()) {
      // Media failure + rebuild (only between transactions so undo
      // coverage cannot be lost and the oracle stays exact). Propagate
      // committed buffer content first: the oracle check below reads the
      // durable state.
      ASSERT_TRUE(db_->Checkpoint().ok());
      const DiskId victim =
          static_cast<DiskId>(rng_->Uniform(db_->array()->num_disks()));
      ASSERT_TRUE(db_->FailDisk(victim).ok());
      auto report = db_->RebuildDisk(victim);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report->undo_coverage_lost.empty());
      VerifyOracle(oracle);
    }
  }

  // Wind down: commit or abort the stragglers, then final verification.
  for (Pending& txn : active) {
    if (rng_->Bernoulli(0.5)) {
      ASSERT_TRUE(db_->Commit(txn.id).ok());
      for (const auto& [key, fill] : txn.writes) {
        oracle[key] = fill;
      }
    } else {
      ASSERT_TRUE(db_->Abort(txn.id).ok());
    }
  }
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  VerifyOracle(oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryPropertyTest,
    ::testing::Values(
        PropertyCase{1, LoggingMode::kPageLogging, true, true},
        PropertyCase{2, LoggingMode::kPageLogging, true, false},
        PropertyCase{3, LoggingMode::kPageLogging, false, true},
        PropertyCase{4, LoggingMode::kPageLogging, false, false},
        PropertyCase{5, LoggingMode::kRecordLogging, true, true},
        PropertyCase{6, LoggingMode::kRecordLogging, false, true},
        PropertyCase{7, LoggingMode::kRecordLogging, false, false},
        PropertyCase{8, LoggingMode::kPageLogging, true, true},
        PropertyCase{9, LoggingMode::kPageLogging, false, true},
        PropertyCase{10, LoggingMode::kRecordLogging, false, true}),
    CaseName);

}  // namespace
}  // namespace rda
