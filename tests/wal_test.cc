#include <gtest/gtest.h>

#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace rda {
namespace {

constexpr size_t kLogPageSize = 512;

LogRecord SampleRecord() {
  LogRecord record;
  record.type = LogRecordType::kBeforeImage;
  record.txn = 42;
  record.page = 7;
  record.slot = 3;
  record.record_granular = true;
  record.page_header.timestamp = 99;
  record.page_header.parity_state = ParityState::kWorking;
  record.page_header.dirty_page = 7;
  record.before = {1, 2, 3, 4, 5};
  record.after = {9, 8};
  record.chain_head = 11;
  return record;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  const LogRecord record = SampleRecord();
  const std::vector<uint8_t> bytes = EncodeLogRecord(record);
  auto decoded = DecodeLogRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

TEST(LogRecordTest, AllTypesRoundTrip) {
  for (const LogRecordType type :
       {LogRecordType::kBot, LogRecordType::kCommit,
        LogRecordType::kAbortComplete, LogRecordType::kBeforeImage,
        LogRecordType::kAfterImage, LogRecordType::kChainHead,
        LogRecordType::kCheckpoint, LogRecordType::kArchiveRestore}) {
    LogRecord record;
    record.type = type;
    record.txn = 5;
    record.unfinished_txns = {{1, 10}, {2, 20}, {3, 30}};
    if (type == LogRecordType::kCheckpoint) {
      record.redo_floor = 40;
      record.next_txn = 6;
    }
    const std::vector<uint8_t> bytes = EncodeLogRecord(record);
    auto decoded = DecodeLogRecord(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, type);
    EXPECT_TRUE(*decoded == record);
  }
}

TEST(LogRecordTest, TruncatedInputRejected) {
  const std::vector<uint8_t> bytes = EncodeLogRecord(SampleRecord());
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{10},
                           bytes.size() - 1}) {
    auto decoded = DecodeLogRecord(bytes.data(), cut);
    EXPECT_TRUE(decoded.status().IsCorruption()) << "cut=" << cut;
  }
}

TEST(LogRecordTest, UnknownTypeRejected) {
  std::vector<uint8_t> bytes = EncodeLogRecord(SampleRecord());
  bytes[0] = 0xEE;
  EXPECT_TRUE(DecodeLogRecord(bytes.data(), bytes.size())
                  .status()
                  .IsCorruption());
}

TEST(LogRecordTest, TrailingGarbageRejected) {
  std::vector<uint8_t> bytes = EncodeLogRecord(SampleRecord());
  bytes.push_back(0x00);
  EXPECT_TRUE(DecodeLogRecord(bytes.data(), bytes.size())
                  .status()
                  .IsCorruption());
}

TEST(LogManagerTest, AppendAssignsMonotoneLsns) {
  LogManager log(kLogPageSize, {});
  auto a = log.Append(SampleRecord());
  auto b = log.Append(SampleRecord());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(*a, *b);
}

TEST(LogManagerTest, ScanReturnsFlushedRecordsInOrder) {
  LogManager log(kLogPageSize, {});
  LogRecord r1 = SampleRecord();
  r1.txn = 1;
  LogRecord r2 = SampleRecord();
  r2.txn = 2;
  ASSERT_TRUE(log.Append(r1).ok());
  ASSERT_TRUE(log.Append(r2).ok());
  ASSERT_TRUE(log.Flush().ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 1u);
  EXPECT_EQ(records[1].txn, 2u);
  EXPECT_EQ(records[0].lsn, 0u);
}

TEST(LogManagerTest, ScanFromOffsetSkipsPrefix) {
  LogManager log(kLogPageSize, {});
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  auto second = log.Append(SampleRecord());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(log.Flush().ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(*second, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, *second);
}

TEST(LogManagerTest, CrashDropsUnflushedTail) {
  LogManager log(kLogPageSize, {});
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(log.Append(SampleRecord()).ok());  // Never flushed.
  log.LoseVolatileState();
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_EQ(records.size(), 1u);
  // New appends continue at the stable boundary.
  auto next = log.Append(SampleRecord());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, log.stable_bytes());
}

TEST(LogManagerTest, DuplexSurvivesSingleCopyCorruption) {
  LogManager log(kLogPageSize, {});
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  log.CorruptStableByteForTest(0, 12);  // Damage copy 0's payload.
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, 42u);
}

TEST(LogManagerTest, CorruptionOnAllCopiesSurfaces) {
  LogManager log(kLogPageSize, {});
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  log.CorruptStableByteForTest(0, 12);
  log.CorruptStableByteForTest(1, 12);
  std::vector<LogRecord> records;
  EXPECT_TRUE(log.Scan(0, &records).IsCorruption());
}

TEST(LogManagerTest, FlushCountsPagesTimesCopies) {
  LogManager log(64, {});
  LogRecord small;
  small.type = LogRecordType::kBot;
  small.txn = 1;
  ASSERT_TRUE(log.Append(small).ok());
  ASSERT_TRUE(log.Flush().ok());
  // One (partial) page, two copies.
  EXPECT_EQ(log.counters().page_writes, 2u);

  LogRecord big;
  big.type = LogRecordType::kBeforeImage;
  big.txn = 1;
  big.before.assign(200, 0x5a);  // Spans several 64-byte pages.
  ASSERT_TRUE(log.Append(big).ok());
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_GE(log.counters().page_writes, 2u + 2u * 3u);
}

TEST(LogManagerTest, EmptyFlushIsFree) {
  LogManager log(kLogPageSize, {});
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.counters().page_writes, 0u);
}

TEST(LogManagerTest, ManyRecordsRoundTrip) {
  LogManager log(kLogPageSize, {});
  for (uint64_t i = 0; i < 500; ++i) {
    LogRecord record;
    record.type = LogRecordType::kAfterImage;
    record.txn = i;
    record.page = static_cast<PageId>(i * 3);
    record.after.assign(i % 40, static_cast<uint8_t>(i));
    ASSERT_TRUE(log.Append(std::move(record)).ok());
  }
  ASSERT_TRUE(log.Flush().ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 500u);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(records[i].txn, i);
    EXPECT_EQ(records[i].after.size(), i % 40);
  }
}

TEST(LogRecordTest, CheckpointWithManyActiveTxns) {
  LogRecord record;
  record.type = LogRecordType::kCheckpoint;
  for (TxnId t = 1; t <= 200; ++t) {
    record.unfinished_txns.push_back({t * 7, t * 100});
  }
  const std::vector<uint8_t> bytes = EncodeLogRecord(record);
  auto decoded = DecodeLogRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->unfinished_txns.size(), 200u);
  EXPECT_EQ(decoded->unfinished_txns[199].txn, 200u * 7);
  EXPECT_EQ(decoded->unfinished_txns[199].first_lsn, 200u * 100);
}

TEST(LogRecordTest, EmptyImagesRoundTrip) {
  LogRecord record;
  record.type = LogRecordType::kBeforeImage;
  record.txn = 1;
  const std::vector<uint8_t> bytes = EncodeLogRecord(record);
  auto decoded = DecodeLogRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->before.empty());
  EXPECT_TRUE(decoded->after.empty());
}

TEST(LogManagerTest, InterleavedAppendFlushPreservesOrder) {
  LogManager log(kLogPageSize, {});
  for (int round = 0; round < 10; ++round) {
    LogRecord r = SampleRecord();
    r.txn = static_cast<TxnId>(round * 2 + 1);
    ASSERT_TRUE(log.Append(std::move(r)).ok());
    if (round % 3 == 0) {
      ASSERT_TRUE(log.Flush().ok());
    }
    LogRecord r2 = SampleRecord();
    r2.txn = static_cast<TxnId>(round * 2 + 2);
    ASSERT_TRUE(log.Append(std::move(r2)).ok());
  }
  ASSERT_TRUE(log.Flush().ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(records[i].txn, i + 1);
  }
}

TEST(LogManagerTest, ScanAccountsReads) {
  LogManager log(64, {});
  LogRecord big = SampleRecord();
  big.before.assign(1000, 0x1);
  ASSERT_TRUE(log.Append(std::move(big)).ok());
  ASSERT_TRUE(log.Flush().ok());
  const uint64_t before = log.counters().page_reads;
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_GE(log.counters().page_reads, before + 1000 / 64);
}

// The LSN index lets a partial scan seek: scanning from the middle must
// yield exactly the suffix and charge only the pages actually read, not a
// full-log re-walk.
TEST(LogManagerTest, PartialScanSeeksAndChargesSuffixOnly) {
  LogManager log(64, {});
  std::vector<Lsn> lsns;
  for (int i = 0; i < 10; ++i) {
    LogRecord record = SampleRecord();
    record.txn = static_cast<TxnId>(i + 1);
    record.before.assign(500, static_cast<uint8_t>(i));
    auto lsn = log.Append(std::move(record));
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(lsn.value());
  }
  ASSERT_TRUE(log.Flush().ok());

  // Full scan as the accounting reference.
  log.ResetCounters();
  std::vector<LogRecord> all;
  ASSERT_TRUE(log.Scan(0, &all).ok());
  ASSERT_EQ(all.size(), 10u);
  const uint64_t full_cost = log.counters().page_reads;

  // Scan from record 7: three records, and strictly cheaper than a full
  // pass (the skipped prefix spans many pages).
  log.ResetCounters();
  std::vector<LogRecord> suffix;
  ASSERT_TRUE(log.Scan(lsns[7], &suffix).ok());
  ASSERT_EQ(suffix.size(), 3u);
  EXPECT_EQ(suffix[0].lsn, lsns[7]);
  EXPECT_EQ(suffix[0].txn, 8u);
  EXPECT_EQ(suffix[2].txn, 10u);
  EXPECT_LT(log.counters().page_reads, full_cost);
  EXPECT_GT(log.counters().page_reads, 0u);

  // A `from` between boundaries starts at the next record.
  std::vector<LogRecord> from_middle;
  ASSERT_TRUE(log.Scan(lsns[7] + 1, &from_middle).ok());
  ASSERT_EQ(from_middle.size(), 2u);
  EXPECT_EQ(from_middle[0].lsn, lsns[8]);

  // Scanning past the end is empty and free.
  log.ResetCounters();
  std::vector<LogRecord> none;
  ASSERT_TRUE(log.Scan(log.flushed_lsn(), &none).ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(log.counters().page_reads, 0u);
}

// --- truncation boundary semantics (archive log truncation) ---

TEST(LogManagerTest, TruncateExactlyAtRecordBoundaryKeepsSuffix) {
  LogManager log(kLogPageSize, {});
  LogRecord r = SampleRecord();
  r.txn = 1;
  ASSERT_TRUE(log.Append(r).ok());
  r.txn = 2;
  auto second = log.Append(r);
  ASSERT_TRUE(second.ok());
  r.txn = 3;
  ASSERT_TRUE(log.Append(r).ok());
  ASSERT_TRUE(log.Flush().ok());

  ASSERT_TRUE(log.Truncate(*second).ok());
  EXPECT_EQ(log.base_lsn(), *second);

  // LSNs stay absolute: a scan from 0 starts at the new base, a scan from
  // the truncation point itself sees exactly the surviving records.
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 2u);
  EXPECT_EQ(records[0].lsn, *second);
  ASSERT_TRUE(log.Scan(*second, &records).ok());
  ASSERT_EQ(records.size(), 2u);
}

TEST(LogManagerTest, TruncateAtFlushedEndEmptiesLog) {
  LogManager log(kLogPageSize, {});
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());

  ASSERT_TRUE(log.Truncate(log.flushed_lsn()).ok());
  EXPECT_EQ(log.base_lsn(), log.flushed_lsn());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_TRUE(records.empty());

  // The log keeps working: post-truncation appends scan out normally.
  LogRecord r = SampleRecord();
  r.txn = 42;
  ASSERT_TRUE(log.Append(r).ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, 42u);
}

TEST(LogManagerTest, TruncateBeyondFlushedOrOffBoundaryRejected) {
  LogManager log(kLogPageSize, {});
  auto first = log.Append(SampleRecord());
  ASSERT_TRUE(first.ok());
  auto second = log.Append(SampleRecord());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(log.Flush().ok());

  // Above the stable tail.
  EXPECT_TRUE(log.Truncate(log.flushed_lsn() + 1).IsInvalidArgument());
  // Inside a record frame (not a boundary).
  EXPECT_TRUE(log.Truncate(*second + 1).IsInvalidArgument());

  // Below the base after a real truncation: the prefix is gone for good.
  ASSERT_TRUE(log.Truncate(*second).ok());
  EXPECT_TRUE(log.Truncate(*first).IsInvalidArgument());
  // Re-truncating exactly at the base is a no-op, not an error.
  EXPECT_TRUE(log.Truncate(*second).ok());
}

// --- master record (the notFORCE restart point) ---

TEST(LogManagerTest, MasterRecordIsStableAndCharged) {
  LogManager log(kLogPageSize, {});
  // A log that never took a checkpoint has no master page to read.
  EXPECT_EQ(log.ReadMaster(), kInvalidLsn);
  EXPECT_EQ(log.counters().page_reads, 0u);

  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  LogRecord checkpoint;
  checkpoint.type = LogRecordType::kCheckpoint;
  checkpoint.redo_floor = 0;
  checkpoint.next_txn = 9;
  checkpoint.unfinished_txns = {{4, 0}};
  auto lsn = log.Append(checkpoint);
  ASSERT_TRUE(lsn.ok());
  // Only a stable record can be named.
  EXPECT_TRUE(log.WriteMaster(*lsn).IsInvalidArgument());
  ASSERT_TRUE(log.Flush().ok());
  log.ResetCounters();
  ASSERT_TRUE(log.WriteMaster(*lsn).ok());
  EXPECT_EQ(log.counters().page_writes, LogManager::kCopies);

  // It survives a crash; reading it costs one page, the record it names
  // the pages of its frame.
  log.LoseVolatileState();
  log.ResetCounters();
  EXPECT_EQ(log.ReadMaster(), *lsn);
  EXPECT_EQ(log.counters().page_reads, 1u);
  LogRecord read;
  ASSERT_TRUE(log.ReadRecord(*lsn, &read).ok());
  EXPECT_EQ(log.counters().page_reads, 2u);
  checkpoint.lsn = *lsn;
  EXPECT_TRUE(read == checkpoint);
  EXPECT_TRUE(log.ReadRecord(*lsn + 1, &read).IsNotFound());
}

TEST(LogManagerTest, MasterRecordKeepsTheNewerCheckpoint) {
  LogManager log(kLogPageSize, {});
  auto first = log.Append(SampleRecord());
  auto second = log.Append(SampleRecord());
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(log.WriteMaster(*second).ok());
  ASSERT_TRUE(log.WriteMaster(*first).ok());  // Finished later, older.
  EXPECT_EQ(log.ReadMaster(), *second);
}

TEST(LogManagerTest, TruncatePastTheMasterRecordVoidsIt) {
  LogManager log(kLogPageSize, {});
  auto first = log.Append(SampleRecord());
  auto second = log.Append(SampleRecord());
  auto third = log.Append(SampleRecord());
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(log.WriteMaster(*second).ok());
  // Up to the record itself: it is still there.
  ASSERT_TRUE(log.Truncate(*second).ok());
  EXPECT_EQ(log.ReadMaster(), *second);
  ASSERT_TRUE(log.Truncate(*third).ok());
  EXPECT_EQ(log.ReadMaster(), kInvalidLsn);
}

}  // namespace
}  // namespace rda
