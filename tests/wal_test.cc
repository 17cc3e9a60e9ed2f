#include <gtest/gtest.h>

#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace rda {
namespace {

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
    record.active_txns = {1, 2, 3};
    const std::vector<uint8_t> bytes = EncodeLogRecord(record);
    auto decoded = DecodeLogRecord(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->active_txns, record.active_txns);
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
  LogManager log(LogManager::Options{});
  auto a = log.Append(SampleRecord());
  auto b = log.Append(SampleRecord());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(*a, *b);
}

TEST(LogManagerTest, ScanReturnsFlushedRecordsInOrder) {
  LogManager log(LogManager::Options{});
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
  LogManager log(LogManager::Options{});
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
  LogManager log(LogManager::Options{});
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
  LogManager::Options options;
  options.copies = 2;
  LogManager log(options);
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  log.CorruptStableByteForTest(0, 12);  // Damage copy 0's payload.
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, 42u);
}

TEST(LogManagerTest, CorruptionOnAllCopiesSurfaces) {
  LogManager::Options options;
  options.copies = 2;
  LogManager log(options);
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  log.CorruptStableByteForTest(0, 12);
  log.CorruptStableByteForTest(1, 12);
  std::vector<LogRecord> records;
  EXPECT_TRUE(log.Scan(0, &records).IsCorruption());
}

TEST(LogManagerTest, FlushCountsPagesTimesCopies) {
  LogManager::Options options;
  options.page_size = 64;
  options.copies = 2;
  LogManager log(options);
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
  LogManager log(LogManager::Options{});
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.counters().page_writes, 0u);
}

TEST(LogManagerTest, ManyRecordsRoundTrip) {
  LogManager log(LogManager::Options{});
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


TEST(LogManagerTest, SingleCopyConfigWorks) {
  LogManager::Options options;
  options.copies = 1;
  LogManager log(options);
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_EQ(records.size(), 1u);
  // With one copy, corruption is fatal.
  log.CorruptStableByteForTest(0, 12);
  EXPECT_TRUE(log.Scan(0, &records).IsCorruption());
}

TEST(LogManagerTest, TripleCopySurvivesTwoCorruptions) {
  LogManager::Options options;
  options.copies = 3;
  LogManager log(options);
  ASSERT_TRUE(log.Append(SampleRecord()).ok());
  ASSERT_TRUE(log.Flush().ok());
  log.CorruptStableByteForTest(0, 12);
  log.CorruptStableByteForTest(1, 12);
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.Scan(0, &records).ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(LogRecordTest, CheckpointWithManyActiveTxns) {
  LogRecord record;
  record.type = LogRecordType::kCheckpoint;
  for (TxnId t = 1; t <= 200; ++t) {
    record.active_txns.push_back(t * 7);
  }
  const std::vector<uint8_t> bytes = EncodeLogRecord(record);
  auto decoded = DecodeLogRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->active_txns.size(), 200u);
  EXPECT_EQ(decoded->active_txns[199], 200u * 7);
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
  LogManager log(LogManager::Options{});
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
  LogManager::Options options;
  options.page_size = 64;
  LogManager log(options);
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
  LogManager::Options options;
  options.page_size = 64;
  LogManager log(options);
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
  LogManager log(LogManager::Options{});
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
  LogManager log(LogManager::Options{});
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
  LogManager log(LogManager::Options{});
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

}  // namespace
}  // namespace rda
