#include <gtest/gtest.h>

#include <memory>

#include "storage/data_page_meta.h"
#include "txn/record_page.h"
#include "txn/transaction_manager.h"

namespace rda {
namespace {

TEST(RecordPageViewTest, SlotArithmetic) {
  EXPECT_EQ(RecordPageView::SlotsPerPage(256, 32),
            (256 - kDataRegionOffset) / 32);
  EXPECT_EQ(RecordPageView::SlotsPerPage(256, 0), 0u);
  EXPECT_EQ(RecordPageView::SlotsPerPage(kDataRegionOffset, 8), 0u);
}

TEST(RecordPageViewTest, ReadWriteRoundTrip) {
  std::vector<uint8_t> payload(256, 0);
  RecordPageView view(&payload, 32);
  std::vector<uint8_t> record(32, 0x7a);
  ASSERT_TRUE(view.Write(2, record).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(view.Read(2, &read).ok());
  EXPECT_EQ(read, record);
  // Neighbours untouched.
  ASSERT_TRUE(view.Read(1, &read).ok());
  EXPECT_TRUE(std::all_of(read.begin(), read.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(RecordPageViewTest, ShortWritesZeroPad) {
  std::vector<uint8_t> payload(256, 0xff);
  RecordPageView view(&payload, 32);
  ASSERT_TRUE(view.Write(0, {1, 2, 3}).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(view.Read(0, &read).ok());
  EXPECT_EQ(read[0], 1);
  EXPECT_EQ(read[2], 3);
  EXPECT_EQ(read[3], 0);
  EXPECT_EQ(read[31], 0);
}

TEST(RecordPageViewTest, BoundsChecked) {
  std::vector<uint8_t> payload(256, 0);
  RecordPageView view(&payload, 32);
  std::vector<uint8_t> read;
  EXPECT_TRUE(view.Read(view.num_slots(), &read).IsInvalidArgument());
  EXPECT_TRUE(view.Write(0, std::vector<uint8_t>(33)).IsInvalidArgument());
}

TEST(RecordPageViewTest, RecordsStartAfterMeta) {
  std::vector<uint8_t> payload(256, 0);
  RecordPageView view(&payload, 32);
  EXPECT_EQ(view.SlotOffset(0), kDataRegionOffset);
  ASSERT_TRUE(view.Write(0, std::vector<uint8_t>(32, 0xee)).ok());
  DataPageMeta meta;
  meta.txn_id = 123;
  StoreDataMeta(meta, &payload);
  std::vector<uint8_t> read;
  ASSERT_TRUE(view.Read(0, &read).ok());
  EXPECT_EQ(read[0], 0xee);  // Meta write did not clobber the record.
}

// ---------------------------------------------------------------------------
// TransactionManager.
// ---------------------------------------------------------------------------

class TxnManagerTest : public ::testing::Test {
 protected:
  void Build(const TxnConfig& config, uint32_t buffer_capacity = 16) {
    DiskArray::Options array_options;
    array_options.data_pages_per_group = 4;
    array_options.min_data_pages = 48;
    array_options.page_size = 128;
    auto array = DiskArray::Create(array_options);
    ASSERT_TRUE(array.ok());
    array_ = std::move(array).value();
    parity_ = std::make_unique<TwinParityManager>(array_.get());
    ASSERT_TRUE(parity_->FormatArray().ok());
    log_ = std::make_unique<LogManager>(array_options.page_size,
                                        LogManager::Options{});
    locks_ = std::make_unique<LockManager>();
    BufferPool::Options pool_options;
    pool_options.capacity = buffer_capacity;
    tm_ = std::make_unique<TransactionManager>(config, parity_.get(),
                                               log_.get(), locks_.get(),
                                               pool_options);
  }

  std::vector<uint8_t> UserBytes(uint8_t fill) {
    return std::vector<uint8_t>(tm_->user_page_size(), fill);
  }

  std::vector<uint8_t> DiskUserBytes(PageId page) {
    PageImage image;
    EXPECT_TRUE(array_->ReadData(page, &image).ok());
    return std::vector<uint8_t>(image.payload.begin() + kDataRegionOffset,
                                image.payload.end());
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<TwinParityManager> parity_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TransactionManager> tm_;
};

TEST_F(TxnManagerTest, PageWriteReadCommit) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 3, UserBytes(0x42)).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadPage(*txn, 3, &read).ok());
  EXPECT_EQ(read, UserBytes(0x42));
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(DiskUserBytes(3), UserBytes(0x42));  // FORCE propagated it.
  EXPECT_EQ(tm_->stats().committed, 1u);
}

TEST_F(TxnManagerTest, ForceCommitUsesUnloggedSteals) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  // Pages 0 and 4 live in different parity groups (N=4).
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0x01)).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 4, UserBytes(0x02)).ok());
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(tm_->stats().before_images_avoided, 2u);
  EXPECT_EQ(tm_->stats().before_images_logged, 0u);
  EXPECT_EQ(parity_->stats().commits_finalized, 2u);
}

TEST_F(TxnManagerTest, SameGroupPagesForceLogging) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  // Pages 0 and 1 share parity group 0: the second steal must be logged.
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0x01)).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 1, UserBytes(0x02)).ok());
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(tm_->stats().before_images_avoided, 1u);
  EXPECT_EQ(tm_->stats().before_images_logged, 1u);
}

TEST_F(TxnManagerTest, RdaDisabledLogsEverything) {
  TxnConfig config;
  config.rda_undo = false;
  Build(config);
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0x01)).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 4, UserBytes(0x02)).ok());
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(tm_->stats().before_images_avoided, 0u);
  EXPECT_EQ(tm_->stats().before_images_logged, 2u);
}

TEST_F(TxnManagerTest, AbortBeforeAnyStealDiscardsBufferOnly) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 2, UserBytes(0x55)).ok());
  ASSERT_TRUE(tm_->Abort(*txn).ok());
  EXPECT_EQ(DiskUserBytes(2), UserBytes(0x00));  // Never reached disk.
  EXPECT_EQ(parity_->stats().parity_undos, 0u);
  // A new transaction sees the original content.
  auto txn2 = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadPage(*txn2, 2, &read).ok());
  EXPECT_EQ(read, UserBytes(0x00));
}

TEST_F(TxnManagerTest, AbortAfterStealUsesParityUndo) {
  Build(TxnConfig{});
  // Commit an initial value first.
  auto setup = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*setup, 2, UserBytes(0x11)).ok());
  ASSERT_TRUE(tm_->Commit(*setup).ok());

  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 2, UserBytes(0x99)).ok());
  Frame* frame = tm_->pool()->Lookup(2);
  ASSERT_NE(frame, nullptr);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  EXPECT_EQ(DiskUserBytes(2), UserBytes(0x99));  // Uncommitted on disk.

  ASSERT_TRUE(tm_->Abort(*txn).ok());
  EXPECT_EQ(DiskUserBytes(2), UserBytes(0x11));
  EXPECT_EQ(parity_->stats().parity_undos, 1u);
  EXPECT_EQ(tm_->stats().before_images_logged, 0u);
}

TEST_F(TxnManagerTest, AbortMixedLoggedAndUnloggedSteals) {
  Build(TxnConfig{});
  auto setup = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*setup, 0, UserBytes(0x10)).ok());
  ASSERT_TRUE(tm_->WritePage(*setup, 1, UserBytes(0x20)).ok());
  ASSERT_TRUE(tm_->Commit(*setup).ok());
  tm_->ResetStats();  // The setup commit itself stole pages.

  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0xA0)).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 1, UserBytes(0xB0)).ok());
  for (const PageId page : {0u, 1u}) {
    Frame* frame = tm_->pool()->Lookup(page);
    ASSERT_NE(frame, nullptr);
    ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  }
  EXPECT_EQ(tm_->stats().before_images_avoided, 1u);
  EXPECT_EQ(tm_->stats().before_images_logged, 1u);

  ASSERT_TRUE(tm_->Abort(*txn).ok());
  EXPECT_EQ(DiskUserBytes(0), UserBytes(0x10));
  EXPECT_EQ(DiskUserBytes(1), UserBytes(0x20));
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(TxnManagerTest, StealViaEvictionFollowsRule) {
  Build(TxnConfig{}, /*buffer_capacity=*/2);
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0x31)).ok());
  // Touch enough other pages to evict page 0 (capacity 2).
  std::vector<uint8_t> scratch;
  ASSERT_TRUE(tm_->ReadPage(*txn, 8, &scratch).ok());
  ASSERT_TRUE(tm_->ReadPage(*txn, 12, &scratch).ok());
  EXPECT_EQ(DiskUserBytes(0), UserBytes(0x31));  // Stolen.
  EXPECT_EQ(tm_->stats().before_images_avoided, 1u);
  EXPECT_TRUE(parity_->directory().Get(0).dirty);
  ASSERT_TRUE(tm_->Abort(*txn).ok());
  EXPECT_EQ(DiskUserBytes(0), UserBytes(0x00));
  EXPECT_FALSE(parity_->directory().Get(0).dirty);
}

TEST_F(TxnManagerTest, RereferenceAfterStealStaysUnlogged) {
  // The Figure 3 self-loop: update, steal, re-reference, update, steal
  // again — still no UNDO logging.
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 5, UserBytes(0x41)).ok());
  Frame* frame = tm_->pool()->Lookup(5);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 5, UserBytes(0x42)).ok());
  frame = tm_->pool()->Lookup(5);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  EXPECT_EQ(tm_->stats().before_images_logged, 0u);
  EXPECT_EQ(parity_->stats().unlogged_repeat, 1u);
  ASSERT_TRUE(tm_->Abort(*txn).ok());
  EXPECT_EQ(DiskUserBytes(5), UserBytes(0x00));
}

TEST_F(TxnManagerTest, LocksBlockConflictingWriters) {
  Build(TxnConfig{});
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*t1, 3, UserBytes(0x51)).ok());
  EXPECT_TRUE(tm_->WritePage(*t2, 3, UserBytes(0x52)).IsBusy());
  std::vector<uint8_t> read;
  EXPECT_TRUE(tm_->ReadPage(*t2, 3, &read).IsBusy());
  ASSERT_TRUE(tm_->Commit(*t1).ok());
  EXPECT_TRUE(tm_->WritePage(*t2, 3, UserBytes(0x52)).ok());
  ASSERT_TRUE(tm_->Commit(*t2).ok());
  EXPECT_EQ(DiskUserBytes(3), UserBytes(0x52));
}

TEST_F(TxnManagerTest, ReadOnlyTransactionWritesNoLog) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadPage(*txn, 1, &read).ok());
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(log_->next_lsn(), 0u);
}

TEST_F(TxnManagerTest, WrongModeApisRejected) {
  Build(TxnConfig{});  // Page logging.
  auto txn = tm_->Begin();
  std::vector<uint8_t> read;
  EXPECT_TRUE(
      tm_->ReadRecord(*txn, 0, 0, &read).IsFailedPrecondition());
  EXPECT_TRUE(tm_->WriteRecord(*txn, 0, 0, {1}).IsFailedPrecondition());

  TxnConfig record_config;
  record_config.logging_mode = LoggingMode::kRecordLogging;
  Build(record_config);
  auto txn2 = tm_->Begin();
  EXPECT_TRUE(tm_->ReadPage(*txn2, 0, &read).IsFailedPrecondition());
}

TEST_F(TxnManagerTest, UnknownAndFinishedTransactionsRejected) {
  Build(TxnConfig{});
  EXPECT_TRUE(tm_->Commit(999).IsNotFound());
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_TRUE(tm_->Commit(*txn).IsFailedPrecondition());
  EXPECT_TRUE(tm_->Abort(*txn).IsFailedPrecondition());
  EXPECT_TRUE(tm_->WritePage(*txn, 0, UserBytes(1)).IsFailedPrecondition());
}

TEST_F(TxnManagerTest, WritePageSizeValidated) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  EXPECT_TRUE(
      tm_->WritePage(*txn, 0, std::vector<uint8_t>(5)).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Record-logging mode.
// ---------------------------------------------------------------------------

class RecordTxnTest : public TxnManagerTest {
 protected:
  void SetUp() override {
    TxnConfig config;
    config.logging_mode = LoggingMode::kRecordLogging;
    config.record_size = 16;
    Build(config);
  }

  std::vector<uint8_t> Record(uint8_t fill) {
    return std::vector<uint8_t>(16, fill);
  }
};

TEST_F(RecordTxnTest, RecordWriteReadCommit) {
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*txn, 1, 2, Record(0x61)).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*txn, 1, 2, &read).ok());
  EXPECT_EQ(read, Record(0x61));
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  auto txn2 = tm_->Begin();
  ASSERT_TRUE(tm_->ReadRecord(*txn2, 1, 2, &read).ok());
  EXPECT_EQ(read, Record(0x61));
}

TEST_F(RecordTxnTest, TwoTransactionsSharePage) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 1, 0, Record(0x71)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*t2, 1, 1, Record(0x72)).ok());
  ASSERT_TRUE(tm_->Commit(*t1).ok());
  ASSERT_TRUE(tm_->Commit(*t2).ok());
  auto reader = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 0, &read).ok());
  EXPECT_EQ(read, Record(0x71));
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 1, &read).ok());
  EXPECT_EQ(read, Record(0x72));
}

TEST_F(RecordTxnTest, AbortRevertsOnlyOwnRecords) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 1, 0, Record(0x81)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*t2, 1, 1, Record(0x82)).ok());
  ASSERT_TRUE(tm_->Abort(*t1).ok());
  std::vector<uint8_t> read;
  auto reader = *t2;
  ASSERT_TRUE(tm_->ReadRecord(reader, 1, 1, &read).ok());
  EXPECT_EQ(read, Record(0x82));  // t2's record survives.
  ASSERT_TRUE(tm_->Commit(*t2).ok());
  auto r2 = tm_->Begin();
  ASSERT_TRUE(tm_->ReadRecord(*r2, 1, 0, &read).ok());
  EXPECT_EQ(read, Record(0x00));  // t1's record rolled back.
}

TEST_F(RecordTxnTest, SharedPageStealIsLoggedPerModifier) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 1, 0, Record(0x91)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*t2, 1, 1, Record(0x92)).ok());
  Frame* frame = tm_->pool()->Lookup(1);
  ASSERT_NE(frame, nullptr);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  // A multi-modifier steal cannot use parity coverage: one BI per record.
  EXPECT_EQ(tm_->stats().before_images_logged, 2u);
  EXPECT_EQ(tm_->stats().before_images_avoided, 0u);

  ASSERT_TRUE(tm_->Abort(*t1).ok());
  ASSERT_TRUE(tm_->Commit(*t2).ok());
  auto reader = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 0, &read).ok());
  EXPECT_EQ(read, Record(0x00));
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 1, &read).ok());
  EXPECT_EQ(read, Record(0x92));
}

TEST_F(RecordTxnTest, SoleModifierStealUsesParity) {
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*txn, 2, 0, Record(0xA1)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*txn, 2, 3, Record(0xA2)).ok());
  Frame* frame = tm_->pool()->Lookup(2);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  EXPECT_EQ(tm_->stats().before_images_avoided, 1u);
  EXPECT_EQ(tm_->stats().before_images_logged, 0u);
  ASSERT_TRUE(tm_->Abort(*txn).ok());
  auto reader = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*reader, 2, 0, &read).ok());
  EXPECT_EQ(read, Record(0x00));
}

TEST_F(RecordTxnTest, RecordLocksAllowDisjointSlotsBlockSameSlot) {
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 1, 0, Record(0xB1)).ok());
  EXPECT_TRUE(tm_->WriteRecord(*t2, 1, 0, Record(0xB2)).IsBusy());
  EXPECT_TRUE(tm_->WriteRecord(*t2, 1, 1, Record(0xB3)).ok());
}

TEST_F(RecordTxnTest, SelfOverwriteUndoesToOriginal) {
  auto setup = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*setup, 3, 1, Record(0x11)).ok());
  ASSERT_TRUE(tm_->Commit(*setup).ok());
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*txn, 3, 1, Record(0x22)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*txn, 3, 1, Record(0x33)).ok());
  ASSERT_TRUE(tm_->Abort(*txn).ok());
  auto reader = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*reader, 3, 1, &read).ok());
  EXPECT_EQ(read, Record(0x11));
}


TEST_F(TxnManagerTest, DeadlockDetectedAndVictimAbortable) {
  Build(TxnConfig{});
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*t1, 0, UserBytes(0x01)).ok());
  ASSERT_TRUE(tm_->WritePage(*t2, 4, UserBytes(0x02)).ok());
  EXPECT_TRUE(tm_->WritePage(*t1, 4, UserBytes(0x03)).IsBusy());
  EXPECT_FALSE(tm_->WouldDeadlock(*t1));
  EXPECT_TRUE(tm_->WritePage(*t2, 0, UserBytes(0x04)).IsBusy());
  EXPECT_TRUE(tm_->WouldDeadlock(*t1));
  EXPECT_TRUE(tm_->WouldDeadlock(*t2));
  // Victim aborts; the survivor proceeds.
  ASSERT_TRUE(tm_->Abort(*t2).ok());
  EXPECT_TRUE(tm_->WritePage(*t1, 4, UserBytes(0x03)).ok());
  ASSERT_TRUE(tm_->Commit(*t1).ok());
  EXPECT_EQ(DiskUserBytes(0), UserBytes(0x01));
  EXPECT_EQ(DiskUserBytes(4), UserBytes(0x03));
}

TEST_F(TxnManagerTest, CommittedDataEvictionIsPlainWrite) {
  TxnConfig config;
  config.force = false;
  Build(config, /*buffer_capacity=*/2);
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0x21)).ok());
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(DiskUserBytes(0), UserBytes(0x00));  // Still buffered.
  parity_->ResetStats();
  // Evict it by touching other pages.
  auto reader = tm_->Begin();
  std::vector<uint8_t> scratch;
  ASSERT_TRUE(tm_->ReadPage(*reader, 8, &scratch).ok());
  ASSERT_TRUE(tm_->ReadPage(*reader, 12, &scratch).ok());
  EXPECT_EQ(DiskUserBytes(0), UserBytes(0x21));
  EXPECT_EQ(parity_->stats().plain, 1u);  // No undo machinery involved.
  EXPECT_EQ(tm_->stats().before_images_logged, 0u);
}

TEST_F(TxnManagerTest, ChainLinksRecordedOnDisk) {
  Build(TxnConfig{});
  auto txn = tm_->Begin();
  ASSERT_TRUE(tm_->WritePage(*txn, 0, UserBytes(0x31)).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 4, UserBytes(0x32)).ok());
  ASSERT_TRUE(tm_->WritePage(*txn, 8, UserBytes(0x33)).ok());
  for (const PageId page : {0u, 4u, 8u}) {
    Frame* frame = tm_->pool()->Lookup(page);
    ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  }
  // Chain: 8 -> 4 -> 0 -> invalid, stamped with the owning transaction.
  PageImage image;
  ASSERT_TRUE(array_->ReadData(8, &image).ok());
  DataPageMeta meta = LoadDataMeta(image.payload);
  EXPECT_EQ(meta.txn_id, *txn);
  EXPECT_EQ(meta.chain_prev, 4u);
  ASSERT_TRUE(array_->ReadData(4, &image).ok());
  meta = LoadDataMeta(image.payload);
  EXPECT_EQ(meta.chain_prev, 0u);
  ASSERT_TRUE(array_->ReadData(0, &image).ok());
  meta = LoadDataMeta(image.payload);
  EXPECT_EQ(meta.chain_prev, kInvalidPageId);
}

TEST_F(TxnManagerTest, AccessorsReportGeometry) {
  TxnConfig config;
  config.logging_mode = LoggingMode::kRecordLogging;
  config.record_size = 20;
  Build(config);
  EXPECT_EQ(tm_->user_page_size(), 128u - kDataRegionOffset);
  EXPECT_EQ(tm_->records_per_page(), (128u - kDataRegionOffset) / 20);
}

TEST_F(TxnManagerTest, BumpNextTxnIdNeverLowers) {
  Build(TxnConfig{});
  auto t1 = tm_->Begin();
  tm_->BumpNextTxnId(2);  // Lower than current: no effect.
  auto t2 = tm_->Begin();
  EXPECT_GT(*t2, *t1);
  tm_->BumpNextTxnId(1000);
  auto t3 = tm_->Begin();
  EXPECT_GE(*t3, 1000u);
}

TEST_F(RecordTxnTest, InterleavedSharedPageAbortAfterEviction) {
  // t1 and t2 share page 1; the frame is stolen, t1 re-modifies, the frame
  // is stolen again, then t1 aborts while t2 commits. The reconciliation
  // path must keep t2's slot and roll back every t1 slot.
  auto t1 = tm_->Begin();
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 1, 0, Record(0x41)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*t2, 1, 1, Record(0x42)).ok());
  Frame* frame = tm_->pool()->Lookup(1);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());
  ASSERT_TRUE(tm_->WriteRecord(*t1, 1, 2, Record(0x43)).ok());
  frame = tm_->pool()->Lookup(1);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());

  ASSERT_TRUE(tm_->Abort(*t1).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*t2, 1, 1, &read).ok());
  EXPECT_EQ(read, Record(0x42));
  ASSERT_TRUE(tm_->Commit(*t2).ok());

  auto reader = tm_->Begin();
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 0, &read).ok());
  EXPECT_EQ(read, Record(0x00));
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 2, &read).ok());
  EXPECT_EQ(read, Record(0x00));
  ASSERT_TRUE(tm_->ReadRecord(*reader, 1, 1, &read).ok());
  EXPECT_EQ(read, Record(0x42));
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(RecordTxnTest, AbortWithCoveredPageRewrittenByLoggedSteal) {
  // Regression for the covered-page stamp bug: t1's unlogged steal covers
  // page 2; a later multi-modifier steal of the same page must not destroy
  // the parity-undo stamp.
  auto t1 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 2, 0, Record(0x51)).ok());
  Frame* frame = tm_->pool()->Lookup(2);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());  // Unlogged.
  auto t2 = tm_->Begin();
  ASSERT_TRUE(tm_->WriteRecord(*t1, 2, 1, Record(0x52)).ok());
  ASSERT_TRUE(tm_->WriteRecord(*t2, 2, 2, Record(0x53)).ok());
  frame = tm_->pool()->Lookup(2);
  ASSERT_TRUE(tm_->pool()->PropagateFrame(frame).ok());  // Logged steal.

  ASSERT_TRUE(tm_->Abort(*t1).ok());
  ASSERT_TRUE(tm_->Commit(*t2).ok());
  auto reader = tm_->Begin();
  std::vector<uint8_t> read;
  ASSERT_TRUE(tm_->ReadRecord(*reader, 2, 0, &read).ok());
  EXPECT_EQ(read, Record(0x00));
  ASSERT_TRUE(tm_->ReadRecord(*reader, 2, 1, &read).ok());
  EXPECT_EQ(read, Record(0x00));
  ASSERT_TRUE(tm_->ReadRecord(*reader, 2, 2, &read).ok());
  EXPECT_EQ(read, Record(0x53));
  auto ok = parity_->VerifyGroupParity(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

}  // namespace
}  // namespace rda
