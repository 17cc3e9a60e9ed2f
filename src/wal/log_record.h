#ifndef RDA_WAL_LOG_RECORD_H_
#define RDA_WAL_LOG_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace rda {

// Log record types. Page logging uses whole-page before/after images;
// record logging (paper Section 5.3) uses record-granular images addressed
// by (page, slot).
enum class LogRecordType : uint8_t {
  // Begin-of-transaction. Written "to the log file ... before it writes
  // back any modified pages" (paper Section 4.3).
  kBot = 1,
  // End-of-transaction (commit point).
  kCommit = 2,
  // Runtime abort fully undone; recovery can skip this transaction.
  kAbortComplete = 3,
  // UNDO information: page payload (page logging) or record bytes (record
  // logging) as they were before the update, plus the captured page header
  // (pageLSN semantics for idempotent recovery).
  kBeforeImage = 4,
  // REDO information: page payload or record bytes after the update. A
  // notFORCE restart replays every committed image at or above its
  // checkpoint's REDO floor that the pageLSN shows missing. Under FORCE a
  // committed page is on the array before its commit record, so restart
  // replays only the images of pages a non-winner wrote (its undo may have
  // rolled them back) and those logged before the last kArchiveRestore
  // marker.
  kAfterImage = 5,
  // Head of the TWIST-style chain of pages propagated without UNDO logging
  // (paper Section 4.3): names the most recently unlogged-stolen page; the
  // chain continues through the data pages' embedded chain_prev links.
  kChainHead = 6,
  // Action-consistent checkpoint, the restart point of a notFORCE restart:
  // every after-image below `redo_floor` is on the array, `unfinished_txns`
  // names each transaction without a commit or abort-complete record (with
  // the LSN of its first record), and `next_txn` is the first id not yet
  // handed out. The log's master record points at the last complete one.
  kCheckpoint = 7,
  // Archive restore: the array was rewritten from the archive snapshot, so
  // every committed image logged before this marker may be off the medium
  // and must be replayed, FORCE or not. Payload-free; it stays in the log
  // until the next truncating archive.
  kArchiveRestore = 8,
};

// One row of a checkpoint's unfinished-transaction table.
struct CheckpointTxn {
  TxnId txn = kInvalidTxnId;
  // LSN of the transaction's first (BOT) record, or the checkpoint's REDO
  // floor if it had logged nothing yet: whatever it logs later lies above.
  Lsn first_lsn = kInvalidLsn;

  bool operator==(const CheckpointTxn&) const = default;
};

// One log record. A plain struct; fields not used by a given type stay at
// their defaults and serialize compactly.
struct LogRecord {
  LogRecordType type = LogRecordType::kBot;
  TxnId txn = kInvalidTxnId;
  // Assigned by the LogManager at append time (byte offset of the frame).
  Lsn lsn = kInvalidLsn;
  PageId page = kInvalidPageId;
  RecordSlot slot = 0;
  // True for record-granular images (record logging mode).
  bool record_granular = false;
  // Captured data-page header for before-images.
  PageHeader page_header;
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
  // kCheckpoint only (see the type's comment); other types do not
  // serialize the two scalars.
  Lsn redo_floor = kInvalidLsn;
  TxnId next_txn = kInvalidTxnId;
  std::vector<CheckpointTxn> unfinished_txns;
  PageId chain_head = kInvalidPageId;  // kChainHead.

  bool operator==(const LogRecord&) const = default;
};

// Serializes `record` (without framing; the LogManager adds length + CRC).
std::vector<uint8_t> EncodeLogRecord(const LogRecord& record);

// Appends the serialized record to `*out` without clearing it — the
// LogManager encodes straight into its append buffer, so a log append
// allocates nothing once the buffer has warmed up.
void EncodeLogRecordTo(const LogRecord& record, std::vector<uint8_t>* out);

// Parses a serialized record. Returns kCorruption on malformed input.
Result<LogRecord> DecodeLogRecord(const uint8_t* data, size_t size);

}  // namespace rda

#endif  // RDA_WAL_LOG_RECORD_H_
