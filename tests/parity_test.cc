#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/obs.h"
#include "parity/twin_parity_manager.h"
#include "storage/data_page_meta.h"

namespace rda {
namespace {

constexpr size_t kPageSize = 128;

class TwinParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DiskArray::Options options;
    options.data_pages_per_group = 4;
    options.min_data_pages = 32;
    options.page_size = kPageSize;
    auto array = DiskArray::Create(options);
    ASSERT_TRUE(array.ok());
    array_ = std::move(array).value();
    parity_ = std::make_unique<TwinParityManager>(array_.get());
    ASSERT_TRUE(parity_->FormatArray().ok());
  }

  // Payload with embedded meta stamped for `txn`.
  std::vector<uint8_t> MakePayload(uint8_t fill, TxnId txn = kInvalidTxnId,
                                   PageId chain_prev = kInvalidPageId) {
    std::vector<uint8_t> payload(kPageSize, fill);
    DataPageMeta meta;
    meta.txn_id = txn;
    meta.chain_prev = chain_prev;
    StoreDataMeta(meta, &payload);
    return payload;
  }

  Status Propagate(PageId page, TxnId txn, PropagationKind kind,
                   const std::vector<uint8_t>& payload) {
    PageImage image(0);
    image.payload = payload;
    return parity_->Propagate(page, txn, kind, nullptr, image);
  }

  std::vector<uint8_t> ReadPayload(PageId page) {
    PageImage image;
    EXPECT_TRUE(array_->ReadData(page, &image).ok());
    return image.payload;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<TwinParityManager> parity_;
};

TEST_F(TwinParityTest, FormatLeavesAllGroupsCleanAndConsistent) {
  EXPECT_EQ(parity_->directory().DirtyCount(), 0u);
  for (GroupId group = 0; group < array_->num_groups(); ++group) {
    auto ok = parity_->VerifyGroupParity(group);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok) << "group " << group;
  }
}

TEST_F(TwinParityTest, ClassifyFollowsFigure3) {
  // Clean group: unlogged-first.
  EXPECT_EQ(parity_->Classify(0, 1), PropagationKind::kUnloggedFirst);
  ASSERT_TRUE(Propagate(0, 1, PropagationKind::kUnloggedFirst,
                        MakePayload(0x11, 1))
                  .ok());
  // Same page, same txn: unlogged repeat.
  EXPECT_EQ(parity_->Classify(0, 1), PropagationKind::kUnloggedRepeat);
  // Same page, different txn: must log.
  EXPECT_EQ(parity_->Classify(0, 2), PropagationKind::kLoggedDirtyGroup);
  // Different page in the dirty group, same txn: must log.
  EXPECT_EQ(parity_->Classify(1, 1), PropagationKind::kLoggedDirtyGroup);
  // Page in another (clean) group: unlogged-first again.
  EXPECT_EQ(parity_->Classify(4, 1), PropagationKind::kUnloggedFirst);
  // No transaction: plain.
  EXPECT_EQ(parity_->Classify(0, kInvalidTxnId), PropagationKind::kPlain);
}

TEST_F(TwinParityTest, UnloggedWriteDirtiesGroupAndKeepsBothInvariants) {
  ASSERT_TRUE(Propagate(1, 7, PropagationKind::kUnloggedFirst,
                        MakePayload(0x22, 7))
                  .ok());
  const GroupState& state = parity_->directory().Get(0);
  EXPECT_TRUE(state.dirty);
  EXPECT_EQ(state.dirty_page, 1u);
  EXPECT_EQ(state.dirty_txn, 7u);
  // Working twin consistent with current data.
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(TwinParityTest, ParityUndoRestoresExactPreStealImage) {
  // Commit an initial value for page 2 via a plain write.
  const std::vector<uint8_t> before = MakePayload(0x33);
  ASSERT_TRUE(Propagate(2, kInvalidTxnId, PropagationKind::kPlain, before)
                  .ok());

  // Unlogged steal by txn 9.
  ASSERT_TRUE(Propagate(2, 9, PropagationKind::kUnloggedFirst,
                        MakePayload(0x44, 9))
                  .ok());
  EXPECT_EQ(ReadPayload(2)[kDataRegionOffset], 0x44);

  auto undo = parity_->UndoUnloggedUpdate(0, 9);
  ASSERT_TRUE(undo.ok());
  EXPECT_TRUE(undo->payload_restored);
  EXPECT_EQ(undo->page, 2u);
  EXPECT_EQ(undo->overwritten_meta.txn_id, 9u);
  EXPECT_EQ(ReadPayload(2), before);  // Byte-exact, embedded meta included.
  EXPECT_FALSE(parity_->directory().Get(0).dirty);
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(TwinParityTest, RepeatStealStillUndoesToOriginal) {
  const std::vector<uint8_t> original = ReadPayload(3);
  ASSERT_TRUE(Propagate(3, 5, PropagationKind::kUnloggedFirst,
                        MakePayload(0x55, 5))
                  .ok());
  ASSERT_TRUE(Propagate(3, 5, PropagationKind::kUnloggedRepeat,
                        MakePayload(0x66, 5))
                  .ok());
  ASSERT_TRUE(Propagate(3, 5, PropagationKind::kUnloggedRepeat,
                        MakePayload(0x77, 5))
                  .ok());
  auto undo = parity_->UndoUnloggedUpdate(0, 5);
  ASSERT_TRUE(undo.ok());
  EXPECT_EQ(ReadPayload(3), original);
}

TEST_F(TwinParityTest, CommitFinalizesWorkingTwin) {
  ASSERT_TRUE(Propagate(0, 3, PropagationKind::kUnloggedFirst,
                        MakePayload(0x88, 3))
                  .ok());
  const uint32_t working = parity_->directory().Get(0).working_twin;
  ASSERT_TRUE(parity_->FinalizeCommit(0, 3).ok());
  const GroupState& state = parity_->directory().Get(0);
  EXPECT_FALSE(state.dirty);
  EXPECT_EQ(state.valid_twin, working);
  // The commit writes nothing: the new valid twin still says kWorking(3)
  // on disk, and its stamp is pending.
  EXPECT_TRUE(state.stamp_pending);
  PageImage twin;
  ASSERT_TRUE(array_->ReadParity(0, working, &twin).ok());
  EXPECT_EQ(twin.header.parity_state, ParityState::kWorking);
  EXPECT_EQ(twin.header.txn_id, 3u);
  // Idempotent re-run (recovery path).
  EXPECT_TRUE(parity_->FinalizeCommit(0, 3).ok());
}

// A steal with the old payload at hand reads only the valid twin, and the
// commit adds no I/O at all: it flips the twin roles in memory.
TEST_F(TwinParityTest, FinalizeCommitWritesHeldWorkingImageWithoutRead) {
  const std::vector<uint8_t> old = ReadPayload(0);
  PageImage image(0);
  image.payload = MakePayload(0x5a, 7);
  array_->ResetCounters();
  ASSERT_TRUE(parity_
                  ->Propagate(0, 7, PropagationKind::kUnloggedFirst, &old,
                              image)
                  .ok());
  const uint32_t working = parity_->directory().Get(0).working_twin;
  ASSERT_TRUE(parity_->FinalizeCommit(0, 7).ok());
  const IoCounters io = array_->counters();
  EXPECT_EQ(io.page_reads, 1u);   // The valid twin.
  EXPECT_EQ(io.page_writes, 2u);  // Working twin, data page.
  PageImage twin;
  ASSERT_TRUE(array_->ReadParity(0, working, &twin).ok());
  EXPECT_EQ(twin.header.parity_state, ParityState::kWorking);
  EXPECT_EQ(parity_->directory().Get(0).valid_twin, working);
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

// A logged write into the dirty group rewrites both twins; the commit does
// no I/O and leaves valid parity that covers both pages.
TEST_F(TwinParityTest, FinalizeAfterLoggedDirtyGroupWriteStaysCoherent) {
  ASSERT_TRUE(Propagate(1, 2, PropagationKind::kUnloggedFirst,
                        MakePayload(0x11, 2))
                  .ok());
  ASSERT_TRUE(Propagate(0, 3, PropagationKind::kLoggedDirtyGroup,
                        MakePayload(0x99))
                  .ok());
  array_->ResetCounters();
  ASSERT_TRUE(parity_->FinalizeCommit(0, 2).ok());
  EXPECT_EQ(array_->counters().page_reads, 0u);
  EXPECT_EQ(array_->counters().page_writes, 0u);
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

// After a crash the rebuilt directory finds the group dirty by its
// working twin's owner; the restart roll-forward finalizes it with no I/O.
TEST_F(TwinParityTest, FinalizeAfterCrashReadsTheWorkingTwin) {
  const GroupId group = array_->layout().GroupOf(9);
  ASSERT_TRUE(Propagate(9, 11, PropagationKind::kUnloggedFirst,
                        MakePayload(0x61, 11))
                  .ok());
  parity_->LoseVolatileState();
  ASSERT_TRUE(parity_->RebuildDirectory().ok());
  ASSERT_TRUE(parity_->directory().Get(group).dirty);
  array_->ResetCounters();
  ASSERT_TRUE(parity_->FinalizeCommit(group, 11).ok());
  EXPECT_EQ(array_->counters().page_reads, 0u);
  EXPECT_EQ(array_->counters().page_writes, 0u);
  EXPECT_FALSE(parity_->directory().Get(group).dirty);
  auto ok = parity_->VerifyGroupParity(group);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

// An online rebuild of the working twin's disk recomputes that twin from
// data; the commit then adopts the rebuilt twin without any I/O.
TEST_F(TwinParityTest, FinalizeAfterOnlineRebuildOfWorkingTwinDisk) {
  const std::vector<uint8_t> payload = MakePayload(0x3c, 4);
  ASSERT_TRUE(Propagate(0, 4, PropagationKind::kUnloggedFirst, payload)
                  .ok());
  const uint32_t working = parity_->directory().Get(0).working_twin;
  const DiskId disk = array_->layout().ParityLocation(0, working).disk;
  ASSERT_TRUE(array_->FailDisk(disk).ok());
  ASSERT_TRUE(parity_->BeginOnlineRebuild(disk).ok());
  bool did_work = false;
  ASSERT_TRUE(parity_->RebuildGroupIfPending(0, &did_work).ok());
  ASSERT_TRUE(did_work);
  array_->ResetCounters();
  ASSERT_TRUE(parity_->FinalizeCommit(0, 4).ok());
  EXPECT_EQ(array_->counters().page_reads, 0u);
  EXPECT_EQ(array_->counters().page_writes, 0u);
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    ASSERT_TRUE(parity_->RebuildGroupIfPending(g, &did_work).ok());
  }
  ASSERT_TRUE(parity_->EndOnlineRebuild().ok());
  EXPECT_EQ(ReadPayload(0), payload);
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    auto ok = parity_->VerifyGroupParity(g);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok) << "group " << g;
  }
}

// A torn write of the working twin reports success and leaves a slot that
// fails its checksum. The commit writes nothing, so the tear survives it;
// the next healed read of the now-valid twin recomputes it from data and
// stamps it committed. (After a crash, the restart scrub heals it.)
TEST_F(TwinParityTest, FinalizeOverwritesTornWorkingTwin) {
  FaultConfig faults;
  faults.enabled = true;  // Scripted faults only.
  array_->ArmFaultInjection(faults);
  const uint32_t working = 1 - parity_->directory().Get(0).valid_twin;
  const PhysicalLocation loc = array_->layout().ParityLocation(0, working);
  array_->injector(loc.disk)->ScheduleTornWrite(loc.slot);
  ASSERT_TRUE(Propagate(0, 6, PropagationKind::kUnloggedFirst,
                        MakePayload(0x4d, 6))
                  .ok());
  ASSERT_EQ(array_->injector(loc.disk)->stats().torn_writes, 1u);
  PageImage torn;
  EXPECT_FALSE(array_->ReadParity(0, working, &torn).ok());
  array_->ResetCounters();
  ASSERT_TRUE(parity_->FinalizeCommit(0, 6).ok());
  EXPECT_EQ(array_->counters().page_reads, 0u);
  EXPECT_EQ(array_->counters().page_writes, 0u);
  EXPECT_FALSE(array_->ReadParity(0, working, &torn).ok());
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  PageImage twin;
  ASSERT_TRUE(array_->ReadParity(0, working, &twin).ok());
  EXPECT_EQ(twin.header.parity_state, ParityState::kCommitted);
  EXPECT_FALSE(parity_->directory().Get(0).stamp_pending);
}

// Committers on different threads steal and commit pages that share
// groups; each pins its group latch across Classify, Propagate and
// FinalizeCommit, as the transaction layer does. Run under TSan in CI.
TEST_F(TwinParityTest, ConcurrentCommittersKeepParityConsistent) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const PageId page = static_cast<PageId>(
            (t + kThreads * i) % array_->num_data_pages());
        const TxnId txn = static_cast<TxnId>(1000 * (t + 1) + i);
        auto latch = parity_->LockGroupOfPage(page);
        PageImage image(0);
        image.payload = MakePayload(static_cast<uint8_t>(i), txn);
        if (parity_->Classify(page, txn) != PropagationKind::kUnloggedFirst ||
            !parity_
                 ->Propagate(page, txn, PropagationKind::kUnloggedFirst,
                             nullptr, image)
                 .ok() ||
            !parity_->FinalizeCommit(array_->layout().GroupOf(page), txn)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(parity_->stats().commits_finalized,
            uint64_t{kThreads * kCommitsPerThread});
  EXPECT_EQ(parity_->directory().DirtyCount(), 0u);
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    auto ok = parity_->VerifyGroupParity(g);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok) << "group " << g;
  }
}

TEST_F(TwinParityTest, FinalizeRejectsWrongTransaction) {
  ASSERT_TRUE(Propagate(0, 3, PropagationKind::kUnloggedFirst,
                        MakePayload(0x88, 3))
                  .ok());
  EXPECT_TRUE(parity_->FinalizeCommit(0, 4).IsFailedPrecondition());
}

TEST_F(TwinParityTest, LoggedWriteToDirtyGroupPreservesUndoInvariant) {
  const std::vector<uint8_t> original1 = ReadPayload(1);
  // Txn 2 dirties the group via page 1.
  ASSERT_TRUE(Propagate(1, 2, PropagationKind::kUnloggedFirst,
                        MakePayload(0x11, 2))
                  .ok());
  // Txn 3 writes page 0 in the same group (logged steal; both twins XORed).
  ASSERT_TRUE(Propagate(0, 3, PropagationKind::kLoggedDirtyGroup,
                        MakePayload(0x99))
                  .ok());
  EXPECT_EQ(ReadPayload(0)[kDataRegionOffset], 0x99);
  // Undo of txn 2's page 1 must restore it exactly, and keep 0x99 intact.
  auto undo = parity_->UndoUnloggedUpdate(0, 2);
  ASSERT_TRUE(undo.ok());
  EXPECT_EQ(ReadPayload(1), original1);
  EXPECT_EQ(ReadPayload(0)[kDataRegionOffset], 0x99);
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(TwinParityTest, UnloggedPropagationValidatedAgainstRule) {
  ASSERT_TRUE(Propagate(0, 1, PropagationKind::kUnloggedFirst,
                        MakePayload(0x10, 1))
                  .ok());
  // A second unlogged-first into the same dirty group must be refused.
  EXPECT_TRUE(Propagate(1, 1, PropagationKind::kUnloggedFirst,
                        MakePayload(0x20, 1))
                  .IsFailedPrecondition());
  // Repeat kind for a different page must be refused too.
  EXPECT_TRUE(Propagate(1, 1, PropagationKind::kUnloggedRepeat,
                        MakePayload(0x20, 1))
                  .IsFailedPrecondition());
}

TEST_F(TwinParityTest, ApplyLoggedUndoRestoresAndMaintainsParity) {
  const std::vector<uint8_t> before = MakePayload(0x21);
  ASSERT_TRUE(Propagate(5, kInvalidTxnId, PropagationKind::kPlain, before)
                  .ok());
  ASSERT_TRUE(Propagate(5, kInvalidTxnId, PropagationKind::kPlain,
                        MakePayload(0x42))
                  .ok());
  ASSERT_TRUE(parity_->ApplyLoggedUndo(5, before).ok());
  EXPECT_EQ(ReadPayload(5), before);
  auto ok = parity_->VerifyGroupParity(array_->layout().GroupOf(5));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(TwinParityTest, RebuildDirectoryAfterCrashFindsDirtyGroups) {
  ASSERT_TRUE(Propagate(2, 11, PropagationKind::kUnloggedFirst,
                        MakePayload(0x61, 11))
                  .ok());
  ASSERT_TRUE(Propagate(8, 12, PropagationKind::kUnloggedFirst,
                        MakePayload(0x62, 12))
                  .ok());
  ASSERT_TRUE(parity_->FinalizeCommit(array_->layout().GroupOf(8), 12).ok());

  parity_->LoseVolatileState();
  EXPECT_EQ(parity_->Classify(0, 1), PropagationKind::kPlain);  // Unusable.
  ASSERT_TRUE(parity_->RebuildDirectory().ok());

  const GroupState& dirty = parity_->directory().Get(0);
  EXPECT_TRUE(dirty.dirty);
  EXPECT_EQ(dirty.dirty_page, 2u);
  EXPECT_EQ(dirty.dirty_txn, 11u);
  // The finalized group's twin still says kWorking(12) and outranks the
  // committed one, so without a log the group reads dirty by txn 12 until
  // the roll-forward finalizes it, with no I/O.
  const GroupState& committed = parity_->directory().Get(2);
  EXPECT_TRUE(committed.dirty);
  EXPECT_EQ(committed.dirty_page, 8u);
  EXPECT_EQ(committed.dirty_txn, 12u);
  array_->ResetCounters();
  ASSERT_TRUE(parity_->FinalizeCommit(2, 12).ok());
  EXPECT_EQ(array_->counters().total(), 0u);
  EXPECT_FALSE(committed.dirty);
  EXPECT_TRUE(committed.stamp_pending);
  PageImage twin;
  ASSERT_TRUE(array_->ReadParity(2, committed.valid_twin, &twin).ok());
  EXPECT_EQ(twin.header.parity_state, ParityState::kWorking);
  EXPECT_EQ(twin.header.txn_id, 12u);
}

TEST_F(TwinParityTest, UndoAfterRebuildStillExact) {
  const std::vector<uint8_t> original = ReadPayload(6);
  ASSERT_TRUE(Propagate(6, 21, PropagationKind::kUnloggedFirst,
                        MakePayload(0x71, 21))
                  .ok());
  parity_->LoseVolatileState();
  ASSERT_TRUE(parity_->RebuildDirectory().ok());
  const GroupId group = array_->layout().GroupOf(6);
  auto undo = parity_->UndoUnloggedUpdate(group, 21);
  ASSERT_TRUE(undo.ok());
  EXPECT_EQ(ReadPayload(6), original);
}

TEST_F(TwinParityTest, UndoIsIdempotentAcrossInterruptedRecovery) {
  ASSERT_TRUE(Propagate(6, 21, PropagationKind::kUnloggedFirst,
                        MakePayload(0x71, 21))
                  .ok());
  const GroupId group = array_->layout().GroupOf(6);
  auto first = parity_->UndoUnloggedUpdate(group, 21);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->payload_restored);
  const std::vector<uint8_t> restored = ReadPayload(6);

  // Simulate a crash after the data restore but before the recovery epoch
  // finished: the directory is rebuilt and the undo re-runs. The working
  // twin was invalidated, so the group is clean and a second undo is
  // rejected as a precondition failure — and the data stays put.
  parity_->LoseVolatileState();
  ASSERT_TRUE(parity_->RebuildDirectory().ok());
  EXPECT_FALSE(parity_->directory().Get(group).dirty);
  EXPECT_TRUE(
      parity_->UndoUnloggedUpdate(group, 21).status().IsFailedPrecondition());
  EXPECT_EQ(ReadPayload(6), restored);
}

TEST_F(TwinParityTest, ScrubRecomputesCommittedParity) {
  ASSERT_TRUE(Propagate(9, kInvalidTxnId, PropagationKind::kPlain,
                        MakePayload(0x13))
                  .ok());
  const GroupId group = array_->layout().GroupOf(9);
  // Corrupt the valid twin behind the manager's back, then scrub.
  const GroupState& state = parity_->directory().Get(group);
  const PhysicalLocation loc =
      array_->layout().ParityLocation(group, state.valid_twin);
  PageImage bogus(kPageSize);
  bogus.payload[50] = 0xFF;
  bogus.header.parity_state = ParityState::kCommitted;
  bogus.header.timestamp = 1;
  ASSERT_TRUE(array_->disk(loc.disk)->Write(loc.slot, bogus).ok());
  auto broken = parity_->VerifyGroupParity(group);
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(*broken);
  ASSERT_TRUE(parity_->ScrubGroup(group).ok());
  auto fixed = parity_->VerifyGroupParity(group);
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(*fixed);
}

TEST_F(TwinParityTest, ScrubRefusesDirtyGroup) {
  ASSERT_TRUE(Propagate(0, 2, PropagationKind::kUnloggedFirst,
                        MakePayload(0x31, 2))
                  .ok());
  EXPECT_TRUE(parity_->ScrubGroup(0).IsFailedPrecondition());
}

TEST_F(TwinParityTest, ReconstructDataPayloadMatchesDisk) {
  const std::vector<uint8_t> payload = MakePayload(0x47);
  ASSERT_TRUE(Propagate(10, kInvalidTxnId, PropagationKind::kPlain, payload)
                  .ok());
  auto rebuilt = parity_->ReconstructDataPayload(10);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, payload);
}

TEST_F(TwinParityTest, ReconstructWorksForDirtyGroups) {
  ASSERT_TRUE(Propagate(10, 4, PropagationKind::kUnloggedFirst,
                        MakePayload(0x58, 4))
                  .ok());
  auto rebuilt = parity_->ReconstructDataPayload(10);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*rebuilt)[kDataRegionOffset], 0x58);
}

TEST_F(TwinParityTest, StatsCountDecisions) {
  ASSERT_TRUE(Propagate(0, 1, PropagationKind::kUnloggedFirst,
                        MakePayload(0x01, 1))
                  .ok());
  ASSERT_TRUE(Propagate(0, 1, PropagationKind::kUnloggedRepeat,
                        MakePayload(0x02, 1))
                  .ok());
  ASSERT_TRUE(Propagate(1, 2, PropagationKind::kLoggedDirtyGroup,
                        MakePayload(0x03))
                  .ok());
  ASSERT_TRUE(Propagate(20, kInvalidTxnId, PropagationKind::kPlain,
                        MakePayload(0x04))
                  .ok());
  const ParityStats& stats = parity_->stats();
  EXPECT_EQ(stats.unlogged_first, 1u);
  EXPECT_EQ(stats.unlogged_repeat, 1u);
  EXPECT_EQ(stats.logged_dirty_group, 1u);
  EXPECT_EQ(stats.plain, 1u);
}

// Property sweep: random interleavings of plain writes, unlogged steals,
// logged writes, commits and aborts across all groups keep (a) the
// consistent twin equal to XOR(data) and (b) parity undo exact.
class TwinParityRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwinParityRandomTest, InvariantsHoldUnderRandomOperations) {
  DiskArray::Options options;
  options.data_pages_per_group = 4;
  options.min_data_pages = 24;
  options.page_size = 96;
  auto array_or = DiskArray::Create(options);
  ASSERT_TRUE(array_or.ok());
  DiskArray* array = array_or->get();
  TwinParityManager parity(array);
  ASSERT_TRUE(parity.FormatArray().ok());

  Random rng(GetParam());
  const uint32_t pages = array->num_data_pages();
  std::vector<std::vector<uint8_t>> committed(pages);
  std::vector<std::vector<uint8_t>> pre_steal(pages);
  for (PageId page = 0; page < pages; ++page) {
    PageImage image;
    ASSERT_TRUE(array->ReadData(page, &image).ok());
    committed[page] = image.payload;
  }
  TxnId next_txn = 100;

  for (int step = 0; step < 300; ++step) {
    const PageId page = static_cast<PageId>(rng.Uniform(pages));
    const GroupId group = array->layout().GroupOf(page);
    const GroupState& state = parity.directory().Get(group);

    std::vector<uint8_t> payload(96);
    rng.FillBytes(&payload);

    if (!state.dirty && rng.Bernoulli(0.5)) {
      // Unlogged steal by a fresh transaction.
      const TxnId txn = next_txn++;
      DataPageMeta meta;
      meta.txn_id = txn;
      StoreDataMeta(meta, &payload);
      pre_steal[page] = committed[page];
      PageImage image(0);
      image.payload = payload;
      ASSERT_TRUE(parity
                      .Propagate(page, txn, PropagationKind::kUnloggedFirst,
                                 nullptr, image)
                      .ok());
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(parity.FinalizeCommit(group, txn).ok());
        committed[page] = payload;
      } else {
        auto undo = parity.UndoUnloggedUpdate(group, txn);
        ASSERT_TRUE(undo.ok());
        PageImage check;
        ASSERT_TRUE(array->ReadData(page, &check).ok());
        ASSERT_EQ(check.payload, pre_steal[page]) << "undo not exact";
      }
    } else {
      // Plain committed write (auto-upgrades inside dirty groups).
      DataPageMeta meta;
      StoreDataMeta(meta, &payload);
      PageImage image(0);
      image.payload = payload;
      const PropagationKind kind = state.dirty && state.dirty_page == page
                                       ? PropagationKind::kUnloggedRepeat
                                       : PropagationKind::kPlain;
      if (kind == PropagationKind::kUnloggedRepeat) {
        continue;  // Avoid mutating another txn's covered page.
      }
      ASSERT_TRUE(
          parity.Propagate(page, kInvalidTxnId, kind, nullptr, image).ok());
      committed[page] = payload;
    }

    if (step % 25 == 0) {
      for (GroupId g = 0; g < array->num_groups(); ++g) {
        auto ok = parity.VerifyGroupParity(g);
        ASSERT_TRUE(ok.ok());
        ASSERT_TRUE(*ok) << "group " << g << " inconsistent at step " << step;
      }
    }
  }

  // Resolve leftover dirty groups by undoing them, then final full check.
  for (const GroupId group : parity.directory().AllDirtyGroups()) {
    const GroupState& state = parity.directory().Get(group);
    ASSERT_TRUE(parity.UndoUnloggedUpdate(group, state.dirty_txn).ok());
  }
  for (GroupId g = 0; g < array->num_groups(); ++g) {
    auto ok = parity.VerifyGroupParity(g);
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(*ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwinParityRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));


TEST_F(TwinParityTest, WriteFullGroupInstallsConsistentParity) {
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back(MakePayload(static_cast<uint8_t>(0x30 + i)));
  }
  ASSERT_TRUE(parity_->WriteFullGroup(2, payloads).ok());
  for (uint32_t i = 0; i < 4; ++i) {
    const PageId page = array_->layout().PageAt(2, i);
    EXPECT_EQ(ReadPayload(page)[kDataRegionOffset], 0x30 + i);
  }
  auto ok = parity_->VerifyGroupParity(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(TwinParityTest, WriteFullGroupValidation) {
  std::vector<std::vector<uint8_t>> too_few(3, MakePayload(0x01));
  EXPECT_TRUE(parity_->WriteFullGroup(0, too_few).IsInvalidArgument());
  std::vector<std::vector<uint8_t>> wrong_size(
      4, std::vector<uint8_t>(kPageSize / 2));
  EXPECT_TRUE(parity_->WriteFullGroup(0, wrong_size).IsInvalidArgument());
}

TEST_F(TwinParityTest, RebuildGroupMemberRestoresEachRole) {
  // Populate group 1, then exercise a data-page rebuild directly.
  ASSERT_TRUE(Propagate(4, kInvalidTxnId, PropagationKind::kPlain,
                        MakePayload(0x51))
                  .ok());
  const std::vector<uint8_t> golden = ReadPayload(4);
  const DiskId victim = array_->layout().DataLocation(4).disk;
  ASSERT_TRUE(array_->FailDisk(victim).ok());
  ASSERT_TRUE(array_->ReplaceDisk(victim).ok());
  // The replaced disk is zeroed: rebuild every group's member on it.
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    ASSERT_TRUE(parity_->RebuildGroupMember(g, victim).ok());
  }
  EXPECT_EQ(ReadPayload(4), golden);
}

// Every path that recomputes a group's parity from its data pages (or
// installs twins around such a recompute), pinned by its exact array
// traffic and by the twin headers it leaves behind: the state of the valid
// twin and of its sibling, and which of the two a restart would pick. Each
// case runs on a fresh array whose group 1 holds committed data.
TEST_F(TwinParityTest, GroupParityRecomputePathsPinned) {
  constexpr GroupId kGroup = 1;
  const uint64_t groups = array_->num_groups();
  DiskId victim = kInvalidDiskId;
  auto twin_of = [this](bool valid) {
    const GroupState& state = parity_->directory().Get(kGroup);
    return valid ? state.valid_twin : 1 - state.valid_twin;
  };
  auto replace_disk_of_twin = [&](bool valid) {
    victim = array_->layout().ParityLocation(kGroup, twin_of(valid)).disk;
    ASSERT_TRUE(array_->FailDisk(victim).ok());
    ASSERT_TRUE(array_->ReplaceDisk(victim).ok());
  };
  auto fault_twin = [&](bool valid, bool torn) {
    FaultConfig faults;
    faults.enabled = true;  // Scripted faults only.
    array_->ArmFaultInjection(faults);
    const PhysicalLocation loc =
        array_->layout().ParityLocation(kGroup, twin_of(valid));
    if (torn) {
      array_->injector(loc.disk)->ScheduleTornWrite(loc.slot);
    } else {
      array_->injector(loc.disk)->InjectLatentSector(loc.slot);
    }
  };
  auto steal = [this] {
    ASSERT_TRUE(Propagate(4, 9, PropagationKind::kUnloggedFirst,
                          MakePayload(0x3c, 9))
                    .ok());
  };
  auto healed_parity_read = [&](bool valid) {
    PageImage image;
    return parity_->ReadParityHealed(kGroup, twin_of(valid), &image);
  };
  auto rebuild_member = [&] {
    return parity_->RebuildGroupMember(kGroup, victim).status();
  };

  struct Case {
    const char* name;
    std::function<void()> arrange;
    std::function<Status()> act;
    uint64_t reads;
    uint64_t writes;
    uint64_t xors;
    ParityState valid_state;
    ParityState other_state;
    bool valid_newer;
  };
  const Case cases[] = {
      {"FormatArray", [] {}, [this] { return parity_->FormatArray(); }, 0,
       2 * groups, 0, ParityState::kCommitted, ParityState::kObsolete, true},
      {"ReinitializeParityFromData", steal,
       [this] { return parity_->ReinitializeParityFromData(); }, 4 * groups,
       2 * groups, 4 * groups, ParityState::kCommitted,
       ParityState::kObsolete, true},
      {"ScrubGroup", [] {}, [this] { return parity_->ScrubGroup(kGroup); }, 4,
       2, 4, ParityState::kCommitted, ParityState::kObsolete, true},
      {"VerifyGroupParity", [] {},
       [this]() -> Status {
         RDA_ASSIGN_OR_RETURN(const bool ok,
                              parity_->VerifyGroupParity(kGroup));
         return ok ? Status::Ok() : Status::Corruption("parity mismatch");
       },
       5, 0, 4, ParityState::kCommitted, ParityState::kObsolete, true},
      {"WriteFullGroup", [] {},
       [this] {
         std::vector<std::vector<uint8_t>> payloads;
         for (uint8_t i = 0; i < 4; ++i) {
           payloads.push_back(MakePayload(static_cast<uint8_t>(0x90 + i)));
         }
         return parity_->WriteFullGroup(kGroup, payloads);
       },
       0, 5, 4, ParityState::kCommitted, ParityState::kObsolete, true},
      {"RebuildGroupMember/data",
       [&] {
         victim = array_->layout().DataLocation(5).disk;
         ASSERT_TRUE(array_->FailDisk(victim).ok());
         ASSERT_TRUE(array_->ReplaceDisk(victim).ok());
       },
       rebuild_member, 4, 1, 3, ParityState::kCommitted,
       ParityState::kObsolete, true},
      {"RebuildGroupMember/consistent twin (clean)",
       [&] { replace_disk_of_twin(true); }, rebuild_member, 4, 1, 4,
       ParityState::kCommitted, ParityState::kObsolete, true},
      {"RebuildGroupMember/consistent twin (dirty)",
       [&] {
         steal();
         replace_disk_of_twin(false);
       },
       rebuild_member, 4, 1, 4, ParityState::kCommitted,
       ParityState::kWorking, false},
      {"RebuildGroupMember/obsolete twin",
       [&] { replace_disk_of_twin(false); }, rebuild_member, 0, 1, 0,
       ParityState::kCommitted, ParityState::kObsolete, true},
      {"RebuildGroupMember/undo lost",
       [&] {
         steal();
         replace_disk_of_twin(true);
       },
       rebuild_member, 1, 2, 0, ParityState::kCommitted,
       ParityState::kObsolete, true},
      {"ReadParityHealed/consistent twin",
       [&] { fault_twin(true, /*torn=*/false); },
       [&] { return healed_parity_read(true); }, 5, 1, 4,
       ParityState::kCommitted, ParityState::kObsolete, true},
      {"ReadParityHealed/obsolete twin",
       [&] { fault_twin(false, /*torn=*/false); },
       [&] { return healed_parity_read(false); }, 1, 1, 0,
       ParityState::kCommitted, ParityState::kObsolete, true},
      {"RebuildDirectory/unreadable twin",
       [&] {
         fault_twin(false, /*torn=*/true);
         steal();
         parity_->LoseVolatileState();
       },
       [this] { return parity_->RebuildDirectory(); }, 2 * groups + 4, 2, 4,
       ParityState::kCommitted, ParityState::kObsolete, true},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SetUp();
    victim = kInvalidDiskId;
    for (uint8_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(Propagate(array_->layout().PageAt(kGroup, i), kInvalidTxnId,
                            PropagationKind::kPlain,
                            MakePayload(static_cast<uint8_t>(0x11 << i)))
                      .ok());
    }
    c.arrange();
    array_->ResetCounters();
    ASSERT_TRUE(c.act().ok());
    const IoCounters io = array_->counters();
    EXPECT_EQ(io.page_reads, c.reads);
    EXPECT_EQ(io.page_writes, c.writes);
    EXPECT_EQ(io.xor_computations, c.xors);

    PageImage valid;
    PageImage other;
    ASSERT_TRUE(array_->ReadParity(kGroup, twin_of(true), &valid).ok());
    ASSERT_TRUE(array_->ReadParity(kGroup, twin_of(false), &other).ok());
    EXPECT_EQ(valid.header.parity_state, c.valid_state);
    EXPECT_EQ(other.header.parity_state, c.other_state);
    EXPECT_EQ(valid.header.timestamp > other.header.timestamp,
              c.valid_newer);
    for (GroupId g = 0; victim != kInvalidDiskId && g < groups; ++g) {
      if (g != kGroup) {  // The rest of the replaced disk.
        ASSERT_TRUE(parity_->RebuildGroupMember(g, victim).ok());
      }
    }
    EXPECT_TRUE(parity_->CheckInvariants().ok());
  }
}

TEST_F(TwinParityTest, ReconstructFailsWhenTwoMembersDown) {
  const DiskId d0 = array_->layout().DataLocation(0).disk;
  const DiskId d1 = array_->layout().DataLocation(1).disk;
  ASSERT_TRUE(array_->FailDisk(d0).ok());
  ASSERT_TRUE(array_->FailDisk(d1).ok());
  EXPECT_FALSE(parity_->ReconstructDataPayload(0).ok());
}

TEST_F(TwinParityTest, ClassifyRefusesUnloggedOnDegradedGroup) {
  const DiskId victim = array_->layout().DataLocation(0).disk;
  ASSERT_TRUE(array_->FailDisk(victim).ok());
  EXPECT_EQ(parity_->Classify(0, 5), PropagationKind::kPlain);
  // Pages on healthy disks in OTHER groups are unaffected... unless their
  // own group's members share the failed disk.
  PageId healthy = kInvalidPageId;
  for (PageId p = 0; p < array_->num_data_pages(); ++p) {
    const GroupId g = array_->layout().GroupOf(p);
    bool touched = array_->layout().DataLocation(p).disk == victim;
    for (uint32_t t = 0; t < 2; ++t) {
      touched |= array_->layout().ParityLocation(g, t).disk == victim;
    }
    if (!touched) {
      healthy = p;
      break;
    }
  }
  if (healthy != kInvalidPageId) {
    EXPECT_EQ(parity_->Classify(healthy, 5),
              PropagationKind::kUnloggedFirst);
  }
}

TEST_F(TwinParityTest, ReinitializeParityFromDataResetsEverything) {
  ASSERT_TRUE(Propagate(0, 9, PropagationKind::kUnloggedFirst,
                        MakePayload(0x61, 9))
                  .ok());
  EXPECT_EQ(parity_->directory().DirtyCount(), 1u);
  ASSERT_TRUE(parity_->ReinitializeParityFromData().ok());
  EXPECT_EQ(parity_->directory().DirtyCount(), 0u);
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    auto ok = parity_->VerifyGroupParity(g);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
  // Note: the uncommitted content of page 0 is now committed at the parity
  // level — ReinitializeParityFromData is a catastrophic-restore tool, not
  // part of normal operation.
}

// The Figure 8 parity-twin state machine, asserted transition by transition
// over a commit -> steal -> abort -> re-steal script. A fresh group starts
// with twin 0 committed and twin 1 obsolete.
TEST_F(TwinParityTest, Figure8TwinStateMachineTracedExactly) {
  obs::ObsHub hub(obs::ObsOptions{});
  parity_->AttachObs(&hub);

  // Commit: txn 5 steals page 0 unlogged, then finalizes.
  ASSERT_TRUE(Propagate(0, 5, PropagationKind::kUnloggedFirst,
                        MakePayload(0x71, 5))
                  .ok());
  ASSERT_TRUE(parity_->FinalizeCommit(0, 5).ok());
  // Steal + abort: txn 6 steals page 1, then parity-undoes.
  ASSERT_TRUE(Propagate(1, 6, PropagationKind::kUnloggedFirst,
                        MakePayload(0x72, 6))
                  .ok());
  ASSERT_TRUE(parity_->UndoUnloggedUpdate(0, 6).ok());
  // Re-steal: txn 7 revives the invalidated twin as the new working twin.
  ASSERT_TRUE(Propagate(2, 7, PropagationKind::kUnloggedFirst,
                        MakePayload(0x73, 7))
                  .ok());

  struct Expected {
    uint32_t twin;
    ParityState from;
    ParityState to;
    TxnId txn;
  };
  const Expected expected[] = {
      // Commit path: the obsolete twin becomes the working twin, is
      // committed at EOT, and the old committed twin goes obsolete.
      {1, ParityState::kObsolete, ParityState::kWorking, 5},
      {1, ParityState::kWorking, ParityState::kCommitted, 5},
      {0, ParityState::kCommitted, ParityState::kObsolete, 5},
      // Steal by txn 6 reuses the now-obsolete twin 0...
      {0, ParityState::kObsolete, ParityState::kWorking, 6},
      // ...and the abort invalidates it (undo info consumed).
      {0, ParityState::kWorking, ParityState::kInvalid, 6},
      // An invalid twin is still a legal steal target.
      {0, ParityState::kInvalid, ParityState::kWorking, 7},
  };

  std::vector<obs::TraceEvent> twins;
  for (const obs::TraceEvent& event : hub.trace()->Events()) {
    if (event.kind == obs::EventKind::kTwinTransition) {
      twins.push_back(event);
    }
  }
  ASSERT_EQ(twins.size(), std::size(expected));
  for (size_t i = 0; i < twins.size(); ++i) {
    EXPECT_EQ(twins[i].group, 0u) << "event " << i;
    EXPECT_EQ(twins[i].detail, static_cast<int64_t>(expected[i].twin))
        << "event " << i;
    EXPECT_EQ(twins[i].from_state, static_cast<uint8_t>(expected[i].from))
        << "event " << i;
    EXPECT_EQ(twins[i].to_state, static_cast<uint8_t>(expected[i].to))
        << "event " << i;
    EXPECT_EQ(twins[i].txn, expected[i].txn) << "event " << i;
  }
}

}  // namespace
}  // namespace rda
