#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "kv/kv_store.h"

namespace rda {
namespace {

DatabaseOptions DbOptions() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 64;
  options.array.page_size = 256;
  options.buffer.capacity = 16;
  options.txn.logging_mode = LoggingMode::kRecordLogging;
  options.txn.record_size = 48;
  options.txn.force = false;
  options.checkpoint_interval_updates = 64;
  return options;
}

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(); }

  void Open(KvStore::Options kv_options = {}) {
    auto db = Database::Open(DbOptions());
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    if (kv_options.num_pages == 64) {
      kv_options.num_pages = db_->num_pages();
    }
    auto kv = KvStore::Attach(db_.get(), kv_options);
    ASSERT_TRUE(kv.ok()) << kv.status().ToString();
    kv_ = std::move(kv).value();
  }

  // One-shot committed operation helpers.
  void PutCommitted(const std::string& key, const std::string& value) {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(kv_->Put(*txn, key, value).ok()) << key;
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  Result<std::string> GetCommitted(const std::string& key) {
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    auto value = kv_->Get(*txn, key);
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return value;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<KvStore> kv_;
};

TEST_F(KvStoreTest, PutGetRoundTrip) {
  PutCommitted("alice", "engineer");
  PutCommitted("bob", "analyst");
  auto alice = GetCommitted("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(*alice, "engineer");
  auto bob = GetCommitted("bob");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(*bob, "analyst");
}

TEST_F(KvStoreTest, MissingKeyIsNotFound) {
  EXPECT_TRUE(GetCommitted("ghost").status().IsNotFound());
}

TEST_F(KvStoreTest, OverwriteReplacesValue) {
  PutCommitted("k", "v1");
  PutCommitted("k", "v2");
  auto value = GetCommitted("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v2");
  auto txn = db_->Begin();
  auto count = kv_->Count(*txn);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);  // No duplicate slot.
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(KvStoreTest, DeleteThenReinsertReusesTombstone) {
  PutCommitted("k", "v");
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(kv_->Delete(*txn, "k").ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  EXPECT_TRUE(GetCommitted("k").status().IsNotFound());
  PutCommitted("k", "v2");
  auto value = GetCommitted("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "v2");
}

TEST_F(KvStoreTest, DeleteMissingIsNotFound) {
  auto txn = db_->Begin();
  EXPECT_TRUE(kv_->Delete(*txn, "nope").IsNotFound());
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(KvStoreTest, AbortRollsBackPuts) {
  PutCommitted("stable", "yes");
  auto txn = db_->Begin();
  ASSERT_TRUE(kv_->Put(*txn, "temp", "value").ok());
  ASSERT_TRUE(kv_->Put(*txn, "stable", "overwritten").ok());
  ASSERT_TRUE(db_->Abort(*txn).ok());
  EXPECT_TRUE(GetCommitted("temp").status().IsNotFound());
  auto stable = GetCommitted("stable");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(*stable, "yes");
}

TEST_F(KvStoreTest, CommittedMapSurvivesCrash) {
  PutCommitted("alpha", "1");
  PutCommitted("beta", "2");
  auto loser = db_->Begin();
  ASSERT_TRUE(kv_->Put(*loser, "gamma", "3").ok());
  db_->Crash();
  ASSERT_TRUE(db_->Recover().ok());
  auto alpha = GetCommitted("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "1");
  auto beta = GetCommitted("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(*beta, "2");
  EXPECT_TRUE(GetCommitted("gamma").status().IsNotFound());
}

TEST_F(KvStoreTest, SurvivesDiskFailureAndRebuild) {
  for (int i = 0; i < 20; ++i) {
    PutCommitted("key" + std::to_string(i), "value" + std::to_string(i));
  }
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->FailDisk(1).ok());
  // Degraded read through parity.
  auto hit = GetCommitted("key7");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, "value7");
  ASSERT_TRUE(db_->RebuildDisk(1).ok());
  for (int i = 0; i < 20; ++i) {
    auto value = GetCommitted("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(*value, "value" + std::to_string(i));
  }
}

TEST_F(KvStoreTest, CollisionsResolveByProbing) {
  // A tiny 1-page table forces collisions.
  Open(KvStore::Options{0, 1, 64});
  const uint32_t capacity = static_cast<uint32_t>(kv_->capacity());
  ASSERT_GE(capacity, 3u);
  for (uint32_t i = 0; i < capacity; ++i) {
    PutCommitted(std::string("c") + std::to_string(i), std::to_string(i));
  }
  for (uint32_t i = 0; i < capacity; ++i) {
    auto value = GetCommitted(std::string("c") + std::to_string(i));
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(*value, std::to_string(i));
  }
  // The table is now full.
  auto txn = db_->Begin();
  EXPECT_TRUE(kv_->Put(*txn, "overflow", "x").IsBusy());
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(KvStoreTest, ValidationErrors) {
  auto txn = db_->Begin();
  EXPECT_TRUE(kv_->Put(*txn, "", "v").IsInvalidArgument());
  const std::string huge_value(kv_->max_value_size("k") + 1, 'x');
  EXPECT_TRUE(kv_->Put(*txn, "k", huge_value).IsInvalidArgument());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  DatabaseOptions page_mode = DbOptions();
  page_mode.txn.logging_mode = LoggingMode::kPageLogging;
  auto db = Database::Open(page_mode);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(
      KvStore::Attach(db->get(), KvStore::Options{}).status()
          .IsInvalidArgument());
}

TEST_F(KvStoreTest, RandomizedOracleWithCrashes) {
  Random rng(909);
  std::map<std::string, std::string> oracle;
  for (int step = 0; step < 300; ++step) {
    const std::string key = std::string("k") + std::to_string(rng.Uniform(40));
    const double dice = rng.NextDouble();
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    if (dice < 0.55) {
      const std::string value = std::string("v") + std::to_string(rng.Uniform(10000));
      ASSERT_TRUE(kv_->Put(*txn, key, value).ok());
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(db_->Commit(*txn).ok());
        oracle[key] = value;
      } else {
        ASSERT_TRUE(db_->Abort(*txn).ok());
      }
    } else if (dice < 0.75) {
      const Status status = kv_->Delete(*txn, key);
      ASSERT_TRUE(status.ok() || status.IsNotFound());
      if (rng.Bernoulli(0.8)) {
        ASSERT_TRUE(db_->Commit(*txn).ok());
        if (status.ok()) {
          oracle.erase(key);
        }
      } else {
        ASSERT_TRUE(db_->Abort(*txn).ok());
      }
    } else {
      auto value = kv_->Get(*txn, key);
      if (oracle.contains(key)) {
        ASSERT_TRUE(value.ok()) << key;
        EXPECT_EQ(*value, oracle[key]);
      } else {
        EXPECT_TRUE(value.status().IsNotFound()) << key;
      }
      ASSERT_TRUE(db_->Commit(*txn).ok());
    }
    if (step % 60 == 59) {
      db_->Crash();
      ASSERT_TRUE(db_->Recover().ok());
      for (const auto& [k, v] : oracle) {
        auto value = GetCommitted(k);
        ASSERT_TRUE(value.ok()) << k;
        ASSERT_EQ(*value, v);
      }
    }
  }
  auto txn = db_->Begin();
  auto count = kv_->Count(*txn);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, oracle.size());
  ASSERT_TRUE(db_->Commit(*txn).ok());
}


TEST_F(KvStoreTest, SizeLimitsReported) {
  // record_size 48: header 4, so key+value share 44 bytes.
  EXPECT_EQ(kv_->max_key_size(), 43u);  // Leaves >= 1 byte for the value.
  EXPECT_EQ(kv_->max_value_size("abcd"), 40u);
  const std::string key(kv_->max_key_size(), 'k');
  const std::string value(kv_->max_value_size(key), 'v');
  PutCommitted(key, value);
  auto got = GetCommitted(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
}

TEST_F(KvStoreTest, EmptyValueAllowed) {
  PutCommitted("k", "");
  auto value = GetCommitted("k");
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(value->empty());
  EXPECT_FALSE(GetCommitted("k").status().IsNotFound());
}

TEST_F(KvStoreTest, CountScansLiveEntriesOnly) {
  PutCommitted("a", "1");
  PutCommitted("b", "2");
  PutCommitted("c", "3");
  auto txn = db_->Begin();
  ASSERT_TRUE(kv_->Delete(*txn, "b").ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  txn = db_->Begin();
  auto count = kv_->Count(*txn);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

}  // namespace
}  // namespace rda
