#ifndef RDA_TXN_TRANSACTION_H_
#define RDA_TXN_TRANSACTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace rda {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

// Latest value a transaction wrote to one record slot (record-logging mode);
// used to build after-images at commit even if the frame was evicted.
struct RecordWrite {
  PageId page = kInvalidPageId;
  RecordSlot slot = 0;
  std::vector<uint8_t> after;
  Lsn stamp = 0;  // Update stamp (pageLSN source).
};

// Per-transaction state tracked by the TransactionManager. A passive data
// holder; all protocol logic lives in the manager.
//
// Concurrency: all mutable fields are owned by the worker thread running
// the transaction, with one cross-thread exception — buffer-pool eviction
// (PropagateFrame) may log undo information on behalf of a frame's
// modifiers from any thread. `mu` serializes that: the owner takes it in
// brief sections (never across a pool call), evictions only try_lock it
// and treat failure as kBusy. `in_eot`, set under `mu` at the start of
// Commit/Abort, tells evictions to keep their hands off while EOT
// processing rewrites the transaction's state wholesale.
class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  TxnId id() const { return id_; }

  // Guards every field below (see the class comment). Acquired after the
  // buffer shard latch and parity group latch, before the WAL mutex.
  std::mutex mu;
  // True while Commit/Abort runs. The EOT thread sets it under `mu` — the
  // acquisition doubles as a barrier that waits out any in-flight eviction
  // touch — then works without `mu`, exclusivity guaranteed because
  // evictions seeing the flag back off with kBusy.
  bool in_eot = false;

  std::atomic<TxnState> state{TxnState::kActive};

  // Begin-of-transaction record is written lazily, "before it writes back
  // any modified pages" (paper Section 4.3).
  bool bot_logged = false;
  Lsn bot_lsn = kInvalidLsn;

  // Whether a kChainHead record has been logged for this transaction.
  bool chain_head_logged = false;
  // Most recently unlogged-propagated page (head of the TWIST chain).
  PageId chain_head = kInvalidPageId;

  // Parity groups this transaction dirtied via unlogged propagation, in
  // order of first dirtying, each with the LSN of the kChainHead record its
  // kUnloggedFirst steal logged. That LSN is the group's undo-order
  // boundary: a logged before-image of the dirty page with a SMALLER LSN
  // predates the unlogged window and must be applied only after the parity
  // undo has cancelled the window's delta (reverse chronology per page).
  std::vector<GroupId> dirtied_groups;
  std::vector<Lsn> dirtied_group_window_lsn;  // Parallel to dirtied_groups.

  // Pages modified (page-logging granularity bookkeeping), insertion order,
  // de-duplicated.
  std::vector<PageId> modified_pages;

  // Logged before-images as appended (LSNs set), append order: a runtime
  // abort undoes from them without re-scanning the log.
  std::vector<LogRecord> logged_undos;

  // Record-mode writes (latest value per (page, slot)).
  std::vector<RecordWrite> record_writes;

  // Begin() wall clock, for the begin->EOT lifetime latency span (the
  // begin and end live in different manager calls, so RAII cannot span it).
  std::chrono::steady_clock::time_point begin_time;

  // Statistics for the simulator.
  uint64_t page_updates = 0;
  uint64_t record_updates = 0;
  uint64_t reads = 0;
  // Page transfers (array + log) attributed to this transaction's own
  // operations, EOT processing included. Maintained only while the
  // TransactionManager has an observability hub attached.
  uint64_t transfers = 0;

  void NoteModifiedPage(PageId page);
  void NoteDirtiedGroup(GroupId group, Lsn window_lsn);
  RecordWrite* FindRecordWrite(PageId page, RecordSlot slot);

 private:
  TxnId id_;
};

}  // namespace rda

#endif  // RDA_TXN_TRANSACTION_H_
