#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "kv/btree.h"

namespace rda {
namespace {

DatabaseOptions DbOptions(uint32_t pages = 96) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = pages;
  options.array.page_size = 256;
  options.buffer.capacity = 20;
  options.txn.force = false;
  options.checkpoint_interval_updates = 48;
  return options;
}

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(); }

  void Open(uint32_t pages = 96) {
    auto db = Database::Open(DbOptions(pages));
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    BTree::Options options;
    options.num_pages = db_->num_pages();
    auto tree = BTree::Attach(db_.get(), options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  void InsertCommitted(uint64_t key, uint64_t value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(tree_->Insert(*txn, key, value).ok()) << key;
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  Result<uint64_t> GetCommitted(uint64_t key) {
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    auto value = tree_->Get(*txn, key);
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return value;
  }

  void ExpectInvariants() {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    EXPECT_TRUE(tree_->CheckInvariants(*txn).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, InsertGetRoundTrip) {
  InsertCommitted(42, 4200);
  InsertCommitted(7, 700);
  auto a = GetCommitted(42);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 4200u);
  auto b = GetCommitted(7);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 700u);
  EXPECT_TRUE(GetCommitted(8).status().IsNotFound());
}

TEST_F(BTreeTest, OverwriteKeepsSingleEntry) {
  InsertCommitted(5, 1);
  InsertCommitted(5, 2);
  auto value = GetCommitted(5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 2u);
  auto txn = db_->Begin();
  std::vector<std::pair<uint64_t, uint64_t>> all;
  ASSERT_TRUE(tree_->Scan(*txn, 0, UINT64_MAX, &all).ok());
  EXPECT_EQ(all.size(), 1u);
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(BTreeTest, SplitsKeepEverythingFindable) {
  // Enough keys to force several leaf splits and a root split.
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    InsertCommitted(static_cast<uint64_t>(i * 7919 % 1000), i);
  }
  ExpectInvariants();
  for (int i = 0; i < n; ++i) {
    auto value = GetCommitted(static_cast<uint64_t>(i * 7919 % 1000));
    ASSERT_TRUE(value.ok()) << i;
  }
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (uint64_t key = 0; key < 150; ++key) {
    InsertCommitted(key * 3, key);
  }
  auto txn = db_->Begin();
  std::vector<std::pair<uint64_t, uint64_t>> out;
  ASSERT_TRUE(tree_->Scan(*txn, 60, 120, &out).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_EQ(out.size(), 21u);  // 60, 63, ..., 120.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 60 + 3 * i);
    if (i > 0) {
      EXPECT_LT(out[i - 1].first, out[i].first);
    }
  }
}

TEST_F(BTreeTest, DeleteRemovesOnlyTarget) {
  for (uint64_t key = 0; key < 50; ++key) {
    InsertCommitted(key, key * 10);
  }
  auto txn = db_->Begin();
  ASSERT_TRUE(tree_->Delete(*txn, 25).ok());
  EXPECT_TRUE(tree_->Delete(*txn, 999).IsNotFound());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_TRUE(GetCommitted(25).status().IsNotFound());
  auto neighbor = GetCommitted(24);
  ASSERT_TRUE(neighbor.ok());
  EXPECT_EQ(*neighbor, 240u);
  ExpectInvariants();
}

TEST_F(BTreeTest, AbortedSplitRollsBackAtomically) {
  // Fill until the NEXT insert must split, then do that insert in a
  // transaction that aborts: the whole multi-page split disappears.
  const uint32_t cap = tree_->leaf_capacity();
  for (uint64_t key = 0; key < cap; ++key) {
    InsertCommitted(key, key);
  }
  auto txn = db_->Begin();
  ASSERT_TRUE(tree_->Insert(*txn, 1000, 1).ok());  // Forces the split.
  ASSERT_TRUE(db_->Abort(*txn).ok());

  EXPECT_TRUE(GetCommitted(1000).status().IsNotFound());
  for (uint64_t key = 0; key < cap; ++key) {
    auto value = GetCommitted(key);
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(*value, key);
  }
  ExpectInvariants();
  // And the insert can be redone successfully afterwards.
  InsertCommitted(1000, 1);
  ExpectInvariants();
}

TEST_F(BTreeTest, CrashMidGrowthRecovers) {
  for (uint64_t key = 0; key < 120; ++key) {
    InsertCommitted(key, key + 7);
  }
  // A loser in flight across a split at crash time.
  auto loser = db_->Begin();
  ASSERT_TRUE(tree_->Insert(*loser, 5000, 1).ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  EXPECT_TRUE(GetCommitted(5000).status().IsNotFound());
  for (uint64_t key = 0; key < 120; ++key) {
    auto value = GetCommitted(key);
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(*value, key + 7);
  }
  ExpectInvariants();
}

TEST_F(BTreeTest, RegionExhaustionSurfacesCleanly) {
  Open(/*pages=*/16);
  BTree::Options options;
  options.num_pages = 8;  // Tiny region: splits run out quickly.
  auto tree = BTree::Attach(db_.get(), options);
  ASSERT_TRUE(tree.ok());
  Status last = Status::Ok();
  for (uint64_t key = 0; key < 500 && last.ok(); ++key) {
    auto txn = db_->Begin();
    last = (*tree)->Insert(*txn, key, key);
    if (last.ok()) {
      ASSERT_TRUE(db_->Commit(*txn).ok());
    } else {
      ASSERT_TRUE(db_->Abort(*txn).ok());
    }
  }
  EXPECT_TRUE(last.IsBusy());
  // The aborted overflow insert left the tree intact.
  auto txn = db_->Begin();
  EXPECT_TRUE((*tree)->CheckInvariants(*txn).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(BTreeTest, AttachValidation) {
  DatabaseOptions record_mode = DbOptions();
  record_mode.txn.logging_mode = LoggingMode::kRecordLogging;
  auto db = Database::Open(record_mode);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(BTree::Attach(db->get(), BTree::Options{})
                  .status()
                  .IsInvalidArgument());
  BTree::Options bad;
  bad.num_pages = 100000;
  EXPECT_TRUE(BTree::Attach(db_.get(), bad).status().IsInvalidArgument());
}

TEST_F(BTreeTest, RandomizedOracleWithCrashesAndMediaFailure) {
  Random rng(4242);
  std::map<uint64_t, uint64_t> oracle;
  for (int step = 0; step < 400; ++step) {
    const uint64_t key = rng.Uniform(300);
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    const double dice = rng.NextDouble();
    if (dice < 0.6) {
      const uint64_t value = rng.Next();
      ASSERT_TRUE(tree_->Insert(*txn, key, value).ok());
      if (rng.Bernoulli(0.85)) {
        ASSERT_TRUE(db_->Commit(*txn).ok());
        oracle[key] = value;
      } else {
        ASSERT_TRUE(db_->Abort(*txn).ok());
      }
    } else if (dice < 0.8) {
      const Status status = tree_->Delete(*txn, key);
      ASSERT_TRUE(status.ok() || status.IsNotFound());
      if (rng.Bernoulli(0.85)) {
        ASSERT_TRUE(db_->Commit(*txn).ok());
        if (status.ok()) {
          oracle.erase(key);
        }
      } else {
        ASSERT_TRUE(db_->Abort(*txn).ok());
      }
    } else {
      auto value = tree_->Get(*txn, key);
      if (oracle.contains(key)) {
        ASSERT_TRUE(value.ok());
        EXPECT_EQ(*value, oracle[key]);
      } else {
        EXPECT_TRUE(value.status().IsNotFound());
      }
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    if (step == 150) {
      db_->Crash();
      ASSERT_TRUE(db_->Recover().ok());
    }
    if (step == 300) {
      ASSERT_TRUE(db_->Checkpoint().ok());
      ASSERT_TRUE(db_->FailDisk(1).ok());
      ASSERT_TRUE(db_->RebuildDisk(1).ok());
    }
  }
  ExpectInvariants();
  // Full scan equals the oracle.
  auto txn = db_->Begin();
  std::vector<std::pair<uint64_t, uint64_t>> all;
  ASSERT_TRUE(tree_->Scan(*txn, 0, UINT64_MAX, &all).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_EQ(all.size(), oracle.size());
  size_t i = 0;
  for (const auto& [key, value] : oracle) {
    EXPECT_EQ(all[i].first, key);
    EXPECT_EQ(all[i].second, value);
    ++i;
  }
}

}  // namespace
}  // namespace rda
