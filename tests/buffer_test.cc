#include <gtest/gtest.h>

#include <map>

#include "buffer/buffer_pool.h"

namespace rda {
namespace {

constexpr size_t kPageSize = 64;

// A buffer-pool harness with an in-memory "disk" behind the callbacks.
class BufferPoolTest : public ::testing::Test {
 protected:
  std::unique_ptr<BufferPool> MakePool(uint32_t capacity) {
    BufferPool::Options options;
    options.capacity = capacity;
    return std::make_unique<BufferPool>(
        options,
        [this](PageId page, PageImage* out) {
          *out = PageImage(kPageSize);
          auto it = disk_.find(page);
          if (it != disk_.end()) {
            out->payload = it->second;
          }
          ++fetches_;
          return Status::Ok();
        },
        [this](Frame* frame) {
          disk_[frame->page] = frame->payload;
          ++propagations_;
          if (!frame->modifiers.empty()) {
            ++steals_;
          }
          return Status::Ok();
        });
  }

  std::map<PageId, std::vector<uint8_t>> disk_;
  int fetches_ = 0;
  int propagations_ = 0;
  int steals_ = 0;
};

TEST_F(BufferPoolTest, FetchCachesPages) {
  auto pool = MakePool(4);
  bool hit = true;
  auto frame = pool->Fetch(1, &hit);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(hit);
  auto again = pool->Fetch(1, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(fetches_, 1);
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->stats().misses, 1u);
}

TEST_F(BufferPoolTest, EvictsLruVictim) {
  auto pool = MakePool(2);
  ASSERT_TRUE(pool->Fetch(1, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(2, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(1, nullptr).ok());  // Touch 1; 2 becomes LRU.
  ASSERT_TRUE(pool->Fetch(3, nullptr).ok());  // Evicts 2.
  EXPECT_NE(pool->Lookup(1), nullptr);
  EXPECT_EQ(pool->Lookup(2), nullptr);
  EXPECT_NE(pool->Lookup(3), nullptr);
}

TEST_F(BufferPoolTest, DirtyEvictionPropagates) {
  auto pool = MakePool(2);
  auto frame = pool->Fetch(1, nullptr);
  ASSERT_TRUE(frame.ok());
  (*frame)->payload[0] = 0xAB;
  (*frame)->dirty = true;
  ASSERT_TRUE(pool->Fetch(2, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(3, nullptr).ok());  // Evicts 1 -> propagate.
  EXPECT_EQ(propagations_, 1);
  EXPECT_EQ(disk_[1][0], 0xAB);
}

TEST_F(BufferPoolTest, StealCountsUncommittedEvictions) {
  auto pool = MakePool(1);
  auto frame = pool->Fetch(1, nullptr);
  ASSERT_TRUE(frame.ok());
  (*frame)->dirty = true;
  (*frame)->AddModifier(7);
  ASSERT_TRUE(pool->Fetch(2, nullptr).ok());
  EXPECT_EQ(steals_, 1);
  EXPECT_EQ(pool->stats().steals, 1u);
}

TEST_F(BufferPoolTest, PinnedFramesNotEvicted) {
  auto pool = MakePool(1);
  auto frame = pool->Fetch(1, nullptr);
  ASSERT_TRUE(frame.ok());
  (*frame)->pins = 1;
  EXPECT_TRUE(pool->Fetch(2, nullptr).status().IsBusy());
  (*frame)->pins = 0;
  EXPECT_TRUE(pool->Fetch(2, nullptr).ok());
}

// Regression pin for the eviction order: a mixed workload of misses, hits,
// re-reads of evicted pages, pins, and steals must evict in exactly
// least-recently-Fetched order, with pinned frames skipped in favor of the
// next-coldest victim.
TEST_F(BufferPoolTest, ExactLruEvictionOrder) {
  auto pool = MakePool(3);
  // Fill: recency (MRU..LRU) = 3, 2, 1.
  ASSERT_TRUE(pool->Fetch(1, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(2, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(3, nullptr).ok());
  // Hit on 1: recency = 1, 3, 2.
  bool hit = false;
  ASSERT_TRUE(pool->Fetch(1, &hit).ok());
  EXPECT_TRUE(hit);
  // Miss on 4 evicts 2 (the coldest). Recency = 4, 1, 3.
  ASSERT_TRUE(pool->Fetch(4, nullptr).ok());
  EXPECT_EQ(pool->Lookup(2), nullptr);
  // Re-read of evicted 2 is a miss and evicts 3. Recency = 2, 4, 1.
  ASSERT_TRUE(pool->Fetch(2, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(pool->Lookup(3), nullptr);
  // Pin the coldest frame (1); the next miss must skip it and evict 4.
  Frame* frame1 = pool->Lookup(1);
  ASSERT_NE(frame1, nullptr);
  frame1->pins = 1;
  ASSERT_TRUE(pool->Fetch(5, nullptr).ok());  // Recency = 5, 2, 1(pinned).
  EXPECT_NE(pool->Lookup(1), nullptr);
  EXPECT_EQ(pool->Lookup(4), nullptr);
  frame1->pins = 0;
  // Dirty + uncommitted modifier on the coldest frame (1): under STEAL it
  // is still the victim, and the eviction counts as a steal.
  frame1->dirty = true;
  frame1->AddModifier(42);
  ASSERT_TRUE(pool->Fetch(6, nullptr).ok());  // Evicts 1 (a steal).
  EXPECT_EQ(pool->Lookup(1), nullptr);
  EXPECT_EQ(steals_, 1);
  EXPECT_EQ(pool->stats().steals, 1u);
  // Remaining recency = 6, 5, 2: one more miss evicts 2.
  ASSERT_TRUE(pool->Fetch(7, nullptr).ok());
  EXPECT_EQ(pool->Lookup(2), nullptr);
  EXPECT_NE(pool->Lookup(5), nullptr);
  EXPECT_NE(pool->Lookup(6), nullptr);
}

TEST_F(BufferPoolTest, PropagateFrameRefreshesSnapshot) {
  auto pool = MakePool(2);
  auto frame = pool->Fetch(1, nullptr);
  ASSERT_TRUE(frame.ok());
  (*frame)->payload[3] = 0x44;
  (*frame)->dirty = true;
  (*frame)->pending_mods.push_back(PendingMod{5, 0, {}});
  ASSERT_TRUE(pool->PropagateFrame(*frame).ok());
  EXPECT_FALSE((*frame)->dirty);
  EXPECT_EQ((*frame)->last_propagated[3], 0x44);
  EXPECT_TRUE((*frame)->pending_mods.empty());
}

TEST_F(BufferPoolTest, PropagateAllDirtyFlushesEverything) {
  auto pool = MakePool(8);
  for (PageId page = 0; page < 5; ++page) {
    auto frame = pool->Fetch(page, nullptr);
    ASSERT_TRUE(frame.ok());
    (*frame)->payload[0] = static_cast<uint8_t>(page + 1);
    (*frame)->dirty = true;
  }
  ASSERT_TRUE(pool->PropagateAllDirty().ok());
  EXPECT_EQ(propagations_, 5);
  EXPECT_TRUE(pool->DirtyPages().empty());
  for (PageId page = 0; page < 5; ++page) {
    EXPECT_EQ(disk_[page][0], page + 1);
  }
}

TEST_F(BufferPoolTest, DiscardDropsWithoutWriting) {
  auto pool = MakePool(2);
  auto frame = pool->Fetch(1, nullptr);
  ASSERT_TRUE(frame.ok());
  (*frame)->payload[0] = 0x99;
  (*frame)->dirty = true;
  pool->Discard(1);
  EXPECT_EQ(pool->Lookup(1), nullptr);
  EXPECT_EQ(propagations_, 0);
}

TEST_F(BufferPoolTest, LoseAllSimulatesCrash) {
  auto pool = MakePool(4);
  ASSERT_TRUE(pool->Fetch(1, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(2, nullptr).ok());
  pool->LoseAll();
  EXPECT_EQ(pool->size(), 0u);
  EXPECT_EQ(pool->Lookup(1), nullptr);
}

TEST_F(BufferPoolTest, ModifierBookkeeping) {
  Frame frame;
  frame.AddModifier(3);
  frame.AddModifier(3);
  frame.AddModifier(4);
  EXPECT_EQ(frame.modifiers.size(), 2u);
  EXPECT_TRUE(frame.HasModifier(3));
  frame.RemoveModifier(3);
  EXPECT_FALSE(frame.HasModifier(3));
  EXPECT_TRUE(frame.HasModifier(4));
}

TEST_F(BufferPoolTest, DirtyPagesSorted) {
  auto pool = MakePool(8);
  for (const PageId page : {5u, 1u, 3u}) {
    auto frame = pool->Fetch(page, nullptr);
    ASSERT_TRUE(frame.ok());
    (*frame)->dirty = true;
  }
  EXPECT_EQ(pool->DirtyPages(), (std::vector<PageId>{1, 3, 5}));
}


TEST_F(BufferPoolTest, FetchErrorPropagates) {
  BufferPool::Options options;
  options.capacity = 2;
  BufferPool pool(
      options,
      [](PageId, PageImage*) { return Status::IoError("disk down"); },
      [](Frame*) { return Status::Ok(); });
  EXPECT_TRUE(pool.Fetch(1, nullptr).status().IsIoError());
  EXPECT_EQ(pool.size(), 0u);
}

TEST_F(BufferPoolTest, PropagateErrorAbortsEviction) {
  BufferPool::Options options;
  options.capacity = 1;
  int fetches = 0;
  BufferPool pool(
      options,
      [&](PageId, PageImage* out) {
        ++fetches;
        *out = PageImage(kPageSize);
        return Status::Ok();
      },
      [](Frame*) { return Status::IoError("array failure"); });
  auto frame = pool.Fetch(1, nullptr);
  ASSERT_TRUE(frame.ok());
  (*frame)->dirty = true;
  EXPECT_TRUE(pool.Fetch(2, nullptr).status().IsIoError());
  // The dirty victim stays resident (nothing was lost).
  EXPECT_NE(pool.Lookup(1), nullptr);
}

TEST_F(BufferPoolTest, StatsResetWorks) {
  auto pool = MakePool(2);
  ASSERT_TRUE(pool->Fetch(1, nullptr).ok());
  ASSERT_TRUE(pool->Fetch(1, nullptr).ok());
  EXPECT_GT(pool->stats().hits + pool->stats().misses, 0u);
  pool->ResetStats();
  EXPECT_EQ(pool->stats().hits, 0u);
  EXPECT_EQ(pool->stats().misses, 0u);
}

TEST_F(BufferPoolTest, CapacityOneChurn) {
  auto pool = MakePool(1);
  for (PageId page = 0; page < 20; ++page) {
    auto frame = pool->Fetch(page, nullptr);
    ASSERT_TRUE(frame.ok());
    (*frame)->payload[0] = static_cast<uint8_t>(page);
    (*frame)->dirty = true;
  }
  EXPECT_EQ(pool->size(), 1u);
  EXPECT_EQ(propagations_, 19);
  for (PageId page = 0; page < 19; ++page) {
    EXPECT_EQ(disk_[page][0], static_cast<uint8_t>(page));
  }
}

TEST_F(BufferPoolTest, ResidentPagesSortedListing) {
  auto pool = MakePool(8);
  for (const PageId page : {7u, 2u, 5u}) {
    ASSERT_TRUE(pool->Fetch(page, nullptr).ok());
  }
  EXPECT_EQ(pool->ResidentPages(), (std::vector<PageId>{2, 5, 7}));
}

}  // namespace
}  // namespace rda
