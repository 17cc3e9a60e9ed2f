#include "recovery/crash_recovery.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/scoped.h"
#include "storage/data_page_meta.h"
#include "txn/record_page.h"
#include "wal/log_record.h"

namespace rda {

namespace {

// The pure fold step of REDO: applies one committed after-image to `image`,
// the page's payload as REDO has rebuilt it so far (the on-disk payload
// before the first fold), unless the pageLSN rules show it already there.
// Returns whether the image applied. Performs no I/O.
Result<bool> FoldAfterImage(const LogRecord& record, size_t record_size,
                            std::vector<uint8_t>* image) {
  const DataPageMeta on_page = LoadDataMeta(*image);
  DataPageMeta meta;
  if (!record.record_granular) {
    // Whole-page image: the captured payload embeds the pageLSN it
    // represents, so the skip test compares captured vs on-page pageLSN —
    // a FORCEd page whose latest image already reached the disk is left
    // alone. Equal stamps do NOT imply equal content: the stamp is
    // next_lsn() at write time, and a buffered rewrite that follows an
    // unlogged steal (which appends nothing) carries the same stamp as the
    // stolen version already on disk. Break the tie on the data bytes.
    const DataPageMeta captured = LoadDataMeta(record.after);
    if (captured.page_lsn < on_page.page_lsn ||
        (captured.page_lsn == on_page.page_lsn &&
         std::equal(record.after.begin() + kDataRegionOffset,
                    record.after.end(),
                    image->begin() + kDataRegionOffset))) {
      return false;
    }
    *image = record.after;
    meta = captured;
  } else {
    // Record-granular image: page-level LSN gating, replay in log order.
    // Equality does not prove the image landed: a page stamp is next_lsn()
    // at write time, and when the stamped write stays buffered past an
    // unlogged steal, the commit's after-image append consumes exactly that
    // LSN — same number, older bytes on disk. Skip on equality only when
    // the slot already holds the image (the idempotent re-recovery case).
    RecordPageView view(image, record_size);
    bool already_applied = false;
    if (record.lsn == on_page.page_lsn) {
      std::vector<uint8_t> slot;
      RDA_RETURN_IF_ERROR(view.Read(record.slot, &slot));
      already_applied = slot == record.after;
    }
    if (record.lsn < on_page.page_lsn || already_applied) {
      return false;
    }
    RDA_RETURN_IF_ERROR(view.Write(record.slot, record.after));
    meta = LoadDataMeta(*image);
    meta.page_lsn = record.lsn;
  }
  meta.txn_id = kInvalidTxnId;
  meta.chain_prev = kInvalidPageId;
  StoreDataMeta(meta, image);
  return true;
}

}  // namespace

Status CrashRecovery::ConsumeFaultBudget() {
  if (!fault_armed_) {
    return Status::Ok();
  }
  // Concurrent recovery shards race for the remaining units, so each one is
  // claimed with CAS; whoever finds the budget empty trips the crash point.
  uint64_t budget = fault_budget_.load(std::memory_order_relaxed);
  while (budget > 0) {
    if (fault_budget_.compare_exchange_weak(budget, budget - 1,
                                            std::memory_order_relaxed)) {
      return Status::Ok();
    }
  }
  // Crash-point trip: capture the per-thread span/event timeline before
  // the recovery attempt unwinds.
  obs::TriggerFlight(obs::FlightOf(hub_),
                     "injected crash-point tripped during recovery");
  return Status::Aborted("injected crash during recovery");
}

Status CrashRecovery::RedoPage(PageId page,
                               const std::vector<LogRecord>& records,
                               std::span<const uint32_t> images,
                               uint64_t* applied, uint64_t* skipped) {
  PageImage current;
  RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(page, &current));
  PageImage redone(0);
  redone.payload = current.payload;
  bool changed = false;
  for (const uint32_t index : images) {
    RDA_ASSIGN_OR_RETURN(
        const bool folded,
        FoldAfterImage(records[index], txn_manager_->config().record_size,
                       &redone.payload));
    ++*(folded ? applied : skipped);
    changed = changed || folded;
  }
  if (!changed) {
    return Status::Ok();
  }
  // kPlain (or kLoggedDirtyGroup, if the group is dirty) XORs the delta
  // into parity without stamping a timestamp, so one propagation from the
  // disk image to the folded one leaves data and parity byte-identical to
  // one propagation per applied image.
  return parity_->Propagate(page, kInvalidTxnId, PropagationKind::kPlain,
                            &current.payload, redone);
}

uint64_t CrashRecovery::TransfersNow() const {
  return parity_->array()->counters().total() + log_->counters().total();
}

Result<CrashRecoveryReport> CrashRecovery::Recover() {
  CrashRecoveryReport report;
  const auto transfers_now = [this] { return TransfersNow(); };

  // Phase 1: Current_Parity — rebuild the volatile parity directory.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kDirectoryRebuild,
                           transfers_now, &report.phases);
    RDA_RETURN_IF_ERROR(parity_->RebuildDirectory());
  }

  // Phase 2: analysis — one forward scan that classifies transactions AND
  // links each page's after-images, in LSN order, for the page-ordered REDO
  // of phase 5: redo_head[page] is the log index of the page's first image,
  // redo_next[index] that of the next one.
  //
  // Under notFORCE the scan starts at the last complete checkpoint the
  // master record names (DESIGN.md §4.3): at its REDO floor, or lower at
  // the first record of a transaction its table lists as unfinished, and
  // only after-images at or above the floor are folded. It starts at the
  // log base instead when there is no live checkpoint, when a
  // kArchiveRestore marker follows it (the restore rewrote the array from
  // the snapshot, so every committed image must be replayed) and under
  // FORCE, whose TOC discipline takes no checkpoints.
  //
  // Analysis also bounds REDO. Under FORCE every page a transaction changed
  // is on the array before its commit record, and only two events can take
  // committed bytes off the medium again: an undo by a non-winner (a loser,
  // or a runtime abort), and an archive restore. Both leave a durable trace
  // in the log. maybe_stale[page] marks the pages of the first: every page
  // named by a non-winner's before-image or chain head, and the dirty page
  // of every loser-owned dirty group. Records before index restore_end
  // predate the last kArchiveRestore marker, so a page with a winner image
  // there is stale too. Under notFORCE every page may be stale.
  constexpr uint32_t kNoImage = UINT32_MAX;
  const PageId num_pages = parity_->array()->num_data_pages();
  const bool force = txn_manager_->config().force;
  std::vector<LogRecord> records;
  std::vector<uint32_t> redo_head(num_pages, kNoImage);
  std::vector<uint32_t> redo_next;
  std::vector<bool> maybe_stale(num_pages, !force);
  uint32_t restore_end = 0;
  std::unordered_set<TxnId> winners;
  std::unordered_set<TxnId> losers;
  // Per transaction, the LSN at which each page's unlogged window opened
  // (from its kChainHead marker). Phase 4 plans the undo order from it.
  std::map<std::pair<TxnId, PageId>, Lsn> window_start;
  TxnId max_txn = 0;
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kAnalysis, transfers_now,
                           &report.phases);
    const Lsn base = log_->base_lsn();
    report.analysis_from = base;
    // The restart point, if analysis starts at a checkpoint.
    std::optional<LogRecord> checkpoint;
    const Lsn master = force ? kInvalidLsn : log_->ReadMaster();
    if (master != kInvalidLsn) {
      checkpoint.emplace();
      RDA_RETURN_IF_ERROR(log_->ReadRecord(master, &*checkpoint));
      if (checkpoint->type != LogRecordType::kCheckpoint) {
        return Status::Corruption("master record names no checkpoint");
      }
      report.analysis_from = checkpoint->redo_floor;
      for (const CheckpointTxn& entry : checkpoint->unfinished_txns) {
        report.analysis_from = std::min(report.analysis_from, entry.first_lsn);
      }
      report.analysis_from = std::max(report.analysis_from, base);
    }
    RDA_RETURN_IF_ERROR(log_->Scan(report.analysis_from, &records));
    if (checkpoint.has_value() &&
        std::any_of(records.begin(), records.end(), [](const LogRecord& r) {
          return r.type == LogRecordType::kArchiveRestore;
        })) {
      checkpoint.reset();
      report.analysis_from = base;
      RDA_RETURN_IF_ERROR(log_->Scan(base, &records));
    }
    const Lsn redo_floor = checkpoint.has_value() ? checkpoint->redo_floor : 0;
    if (checkpoint.has_value()) {
      // Ids below the recorded one may belong to transactions the scan no
      // longer sees; none is handed out again.
      max_txn = checkpoint->next_txn - 1;
    }
    std::unordered_set<TxnId> seen;
    std::unordered_set<TxnId> finished;  // Committed or abort-complete.
    // Pre-size the transaction sets from the checkpoint's unfinished table
    // plus the rebuilt dirty set, instead of rehashing as the scan grows
    // them record by record.
    const size_t txn_hint =
        (checkpoint.has_value() ? checkpoint->unfinished_txns.size() : 0) +
        parity_->directory().DirtyCount() + 16;
    seen.reserve(txn_hint);
    finished.reserve(txn_hint);
    winners.reserve(txn_hint);
    losers.reserve(txn_hint);
    redo_next.assign(records.size(), kNoImage);
    std::vector<uint32_t> redo_tail(num_pages, kNoImage);
    // FORCE: before-images and chain heads, kept until the winners are known.
    std::vector<uint32_t> undo_traces;
    const auto mark_stale = [&](PageId page) {
      if (page < num_pages) {
        maybe_stale[page] = true;
      }
    };
    for (uint32_t index = 0; index < records.size(); ++index) {
      const LogRecord& record = records[index];
      if (record.txn != kInvalidTxnId) {
        seen.insert(record.txn);
        max_txn = std::max(max_txn, record.txn);
      }
      switch (record.type) {
        case LogRecordType::kCommit:
          winners.insert(record.txn);
          finished.insert(record.txn);
          break;
        case LogRecordType::kAbortComplete:
          finished.insert(record.txn);
          break;
        case LogRecordType::kAfterImage:
          if (record.page >= num_pages) {
            return Status::Corruption("after-image of page " +
                                      std::to_string(record.page) +
                                      " lies outside the array");
          }
          if (record.lsn < redo_floor) {
            break;  // On the array since the checkpoint's propagation.
          }
          if (redo_tail[record.page] == kNoImage) {
            redo_head[record.page] = index;
          } else {
            redo_next[redo_tail[record.page]] = index;
          }
          redo_tail[record.page] = index;
          break;
        case LogRecordType::kChainHead:
          // Unlogged-window open marker: one per group dirtying. Its LSN
          // splits the transaction's before-images of that page into
          // pre-window (restored after the parity undo) and in-window
          // (restored before it); see UndoPlan. Later markers overwrite
          // earlier ones — only the window still open at the crash matters.
          window_start[{record.txn, record.chain_head}] = record.lsn;
          [[fallthrough]];
        case LogRecordType::kBeforeImage:
          if (force) {
            undo_traces.push_back(index);
          }
          break;
        case LogRecordType::kArchiveRestore:
          restore_end = index;
          break;
        default:
          break;
      }
    }
    for (const TxnId txn : seen) {
      if (!finished.contains(txn)) {
        losers.insert(txn);
      }
    }
    for (const uint32_t index : undo_traces) {
      const LogRecord& record = records[index];
      if (!winners.contains(record.txn)) {
        mark_stale(record.type == LogRecordType::kChainHead ? record.chain_head
                                                            : record.page);
      }
    }
    // A dirty group comes back from its deciding kWorking twin. An owner
    // the scan does not see may have finished before the checkpoint: if its
    // id predates the checkpoint and the table does not list it, it
    // committed, because a runtime abort always leaves its working twin
    // kInvalid. Any other owner the scan does not see as a winner (one
    // that never reached the log is defensive: BOT is flushed with the
    // first propagation) is a loser.
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      const TxnId owner = state.dirty_txn;
      if (winners.contains(owner)) {
        continue;
      }
      if (checkpoint.has_value() && owner != kInvalidTxnId &&
          owner < checkpoint->next_txn && !seen.contains(owner) &&
          std::none_of(checkpoint->unfinished_txns.begin(),
                       checkpoint->unfinished_txns.end(),
                       [owner](const CheckpointTxn& entry) {
                         return entry.txn == owner;
                       })) {
        winners.insert(owner);
        continue;
      }
      losers.insert(owner);
      mark_stale(state.dirty_page);
    }

    report.winners.assign(winners.begin(), winners.end());
    std::sort(report.winners.begin(), report.winners.end());
    report.losers.assign(losers.begin(), losers.end());
    std::sort(report.losers.begin(), report.losers.end());
  }

  // Phase 3: roll forward twin finalization for winners. Every winner's
  // group whose valid twin still says kWorking comes back dirty, whether
  // the crash landed before or after its FinalizeCommit; finalizing it is
  // an in-memory flip, so this phase costs no I/O.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kRollForward,
                           transfers_now, &report.phases);
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      if (winners.contains(state.dirty_txn)) {
        RDA_RETURN_IF_ERROR(ConsumeFaultBudget());
        RDA_RETURN_IF_ERROR(parity_->FinalizeCommit(group, state.dirty_txn));
        ++report.groups_finalized;
      }
    }
  }

  // Phase 4: undo every loser through the executor a runtime abort uses
  // (TransactionManager::UndoPlan), one plan for all losers. Its two
  // stages are the logged-undo and parity-undo phases.
  TransactionManager::UndoPlan undo;
  undo.before_step = [this] { return ConsumeFaultBudget(); };
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kLoggedUndo,
                           transfers_now, &report.phases);
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->type == LogRecordType::kBeforeImage &&
          losers.contains(it->txn)) {
        undo.images.push_back(&*it);
      }
    }
    for (const GroupId group : parity_->directory().AllDirtyGroups()) {
      const GroupState& state = parity_->directory().Get(group);
      if (!losers.contains(state.dirty_txn)) {
        continue;
      }
      undo.parity_groups.emplace_back(group, state.dirty_txn);
      auto window = window_start.find({state.dirty_txn, state.dirty_page});
      if (window != window_start.end()) {
        undo.window_open.insert(*window);
      }
    }
    RDA_RETURN_IF_ERROR(txn_manager_->UndoLogged(&undo));
  }
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kParityUndo,
                           transfers_now, &report.phases);
    RDA_RETURN_IF_ERROR(txn_manager_->UndoParity(&undo, pool_));
  }
  report.logged_undos = undo.logged_undos;
  report.parity_undos = undo.parity_undos;
  report.chain_pages_walked = undo.chain_pages_walked;

  // Phase 5: REDO committed after-images, page-ordered and read-once. Shard
  // = page id mod shard count; each shard walks its pages in ascending
  // order (ascending positions on every disk) and, per page with winners'
  // images, reads it once, folds the images in LSN order under the pageLSN
  // rules, and propagates at most once. A page analysis proved current
  // (FORCE, no non-winner wrote it, no image before the last archive
  // restore) is not read: its images all count as skipped. Any shard count
  // yields the same reads and propagations. Shards tally separately and the
  // totals are summed in shard order, so the report is deterministic.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kRedo, transfers_now,
                           &report.phases);
    const uint32_t shards =
        pool_ != nullptr ? std::max<uint32_t>(pool_->width(), 1) : 1;
    std::vector<uint64_t> applied(shards, 0);
    std::vector<uint64_t> skipped(shards, 0);
    RDA_RETURN_IF_ERROR(exec::RunSharded(
        pool_, shards, [&](uint64_t shard) -> Status {
          std::vector<uint32_t> images;
          for (PageId page = static_cast<PageId>(shard); page < num_pages;
               page += shards) {
            images.clear();
            for (uint32_t index = redo_head[page]; index != kNoImage;
                 index = redo_next[index]) {
              if (winners.contains(records[index].txn)) {
                images.push_back(index);
              }
            }
            if (images.empty()) {
              continue;
            }
            if (!maybe_stale[page] && images.front() >= restore_end) {
              skipped[shard] += images.size();
              continue;
            }
            RDA_RETURN_IF_ERROR(ConsumeFaultBudget());
            RDA_RETURN_IF_ERROR(RedoPage(page, records, images,
                                         &applied[shard], &skipped[shard]));
          }
          return Status::Ok();
        }));
    for (uint32_t shard = 0; shard < shards; ++shard) {
      report.redo_applied += applied[shard];
      report.redo_skipped += skipped[shard];
    }
  }

  // Phase 6: mark losers resolved so a crash during the next epoch does not
  // re-undo them.
  {
    obs::ScopedPhase phase(hub_, obs::RecoveryPhase::kLoserResolution,
                           transfers_now, &report.phases);
    for (const TxnId txn : report.losers) {
      LogRecord done;
      done.type = LogRecordType::kAbortComplete;
      done.txn = txn;
      RDA_RETURN_IF_ERROR(log_->Append(std::move(done)).status());
    }
    RDA_RETURN_IF_ERROR(log_->Flush());
  }

  txn_manager_->BumpNextTxnId(max_txn + 1);
  return report;
}

}  // namespace rda
