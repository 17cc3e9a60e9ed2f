#include "txn/transaction_manager.h"

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include "storage/data_page_meta.h"
#include "txn/record_page.h"
#include "wal/log_record.h"

namespace rda {

TransactionManager::TransactionManager(const TxnConfig& config,
                                       TwinParityManager* parity,
                                       LogManager* log, LockManager* locks,
                                       const BufferPool::Options& pool_options)
    : config_(config),
      parity_(parity),
      log_(log),
      locks_(locks),
      pool_(
          pool_options,
          [this](PageId page, PageImage* out) {
            // Healed read: sector faults on live disks are repaired in
            // place; only a genuinely failed disk reaches the fallback.
            Status status = parity_->ReadDataHealed(page, out);
            if (status.IsIoError()) {
              // Degraded mode: reconstruct the page from its parity group
              // while the disk awaits rebuild.
              Result<std::vector<uint8_t>> rebuilt =
                  parity_->ReconstructDataPayload(page);
              if (!rebuilt.ok()) {
                return status;
              }
              out->payload = std::move(rebuilt).value();
              out->header = PageHeader{};
              return Status::Ok();
            }
            return status;
          },
          [this](Frame* frame) { return PropagateFrame(frame); }) {}

size_t TransactionManager::user_page_size() const {
  return parity_->array()->page_size() - kDataRegionOffset;
}

uint32_t TransactionManager::records_per_page() const {
  return RecordPageView::SlotsPerPage(parity_->array()->page_size(),
                                      config_.record_size);
}

uint64_t TransactionManager::TransfersNow() const {
  return parity_->array()->counters().total() + log_->counters().total();
}

void TransactionManager::AttachObs(obs::ObsHub* hub) {
  pool_.AttachObs(hub);
  trace_ = obs::TraceOf(hub);
  begun_.Bind(obs::GetCounter(hub, "txn.begun"));
  committed_.Bind(obs::GetCounter(hub, "txn.committed"));
  aborted_.Bind(obs::GetCounter(hub, "txn.aborted"));
  before_images_logged_.Bind(obs::GetCounter(hub, "txn.before_images_logged"));
  before_images_avoided_.Bind(
      obs::GetCounter(hub, "txn.before_images_avoided"));
  transfers_per_commit_ = obs::GetHistogram(
      hub, "txn.transfers_per_commit", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  const std::vector<double> us_bounds = {5,    10,   25,   50,    100,  250,
                                         500,  1000, 2500, 5000,  10000};
  commit_us_hist_ = obs::GetHistogram(hub, "txn.commit_us", us_bounds);
  abort_us_hist_ = obs::GetHistogram(hub, "txn.abort_us", us_bounds);
  spans_ = obs::SpansOf(hub);
  obs_attached_ = hub != nullptr;
}

TxnStats TransactionManager::stats() const {
  TxnStats s;
  s.begun = begun_.value();
  s.committed = committed_.value();
  s.aborted = aborted_.value();
  s.before_images_logged = before_images_logged_.value();
  s.before_images_avoided = before_images_avoided_.value();
  return s;
}

void TransactionManager::ResetStats() {
  begun_.Reset();
  committed_.Reset();
  aborted_.Reset();
  before_images_logged_.Reset();
  before_images_avoided_.Reset();
}

Result<TxnId> TransactionManager::Begin() {
  TxnId id;
  {
    std::lock_guard<std::mutex> lock(txns_mu_);
    id = next_txn_++;
    auto txn = std::make_unique<Transaction>(id);
    if (spans_ != nullptr) {
      txn->begin_time = std::chrono::steady_clock::now();
    }
    txns_.emplace(id, std::move(txn));
  }
  begun_.Add();
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kTxn;
    event.kind = obs::EventKind::kTxnBegin;
    event.txn = id;
    trace_->Record(event);
  }
  return id;
}

Transaction* TransactionManager::Find(TxnId txn) {
  std::lock_guard<std::mutex> lock(txns_mu_);
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

std::vector<TxnId> TransactionManager::ActiveTxns() const {
  std::vector<TxnId> out;
  {
    std::lock_guard<std::mutex> lock(txns_mu_);
    for (const auto& [id, txn] : txns_) {
      if (txn->state == TxnState::kActive) {
        out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TransactionManager::BumpNextTxnId(TxnId floor) {
  std::lock_guard<std::mutex> lock(txns_mu_);
  next_txn_ = std::max(next_txn_, floor);
}

namespace {

Status RequireActive(Transaction* txn) {
  if (txn == nullptr) {
    return Status::NotFound("unknown transaction");
  }
  if (txn->state != TxnState::kActive) {
    return Status::FailedPrecondition("transaction not active");
  }
  return Status::Ok();
}

// Thread-local EOT markers: which transaction (of which manager) this
// thread is currently committing or aborting. PropagateFrame consults them
// so that the EOT's OWN propagations (the FORCE loop) pass the mid-EOT
// guard that turns everyone else away.
thread_local const void* tls_eot_manager = nullptr;
thread_local TxnId tls_eot_txn = kInvalidTxnId;

// Start-of-EOT barrier: sets txn->in_eot under the transaction mutex —
// the acquisition waits out any eviction currently touching the
// transaction; every later eviction sees the flag and answers kBusy — so
// the EOT body runs with exclusive use of the transaction without holding
// its mutex across pool or parity calls. Cleared on scope exit (error
// paths included).
class EotScope {
 public:
  EotScope(const void* manager, Transaction* txn) : txn_(txn) {
    {
      std::lock_guard<std::mutex> lock(txn->mu);
      txn->in_eot = true;
    }
    tls_eot_manager = manager;
    tls_eot_txn = txn->id();
  }
  ~EotScope() {
    tls_eot_manager = nullptr;
    tls_eot_txn = kInvalidTxnId;
    std::lock_guard<std::mutex> lock(txn_->mu);
    txn_->in_eot = false;
  }

 private:
  Transaction* txn_;
};

}  // namespace

Status TransactionManager::EnsureBot(Transaction* txn) {
  if (txn->bot_logged) {
    return Status::Ok();
  }
  LogRecord bot;
  bot.type = LogRecordType::kBot;
  bot.txn = txn->id();
  RDA_ASSIGN_OR_RETURN(txn->bot_lsn, log_->Append(std::move(bot)));
  txn->bot_logged = true;
  return Status::Ok();
}

Status TransactionManager::ReadPage(TxnId txn_id, PageId page,
                                    std::vector<uint8_t>* out) {
  Transaction* txn = Find(txn_id);
  RDA_RETURN_IF_ERROR(RequireActive(txn));
  if (config_.logging_mode != LoggingMode::kPageLogging) {
    return Status::FailedPrecondition("page API requires page logging mode");
  }
  RDA_RETURN_IF_ERROR(locks_->Acquire(txn_id, LockKey::Page(page),
                                      LockMode::kShared));
  const uint64_t transfers_start = TransfersStart();
  RDA_RETURN_IF_ERROR(pool_.WithFetchedFrame(
      page, nullptr, [out](Frame* frame) {
        out->assign(frame->payload.begin() + kDataRegionOffset,
                    frame->payload.end());
        return Status::Ok();
      }));
  std::lock_guard<std::mutex> lock(txn->mu);
  ++txn->reads;
  AttributeTransfers(txn, transfers_start);
  return Status::Ok();
}

Status TransactionManager::WritePage(TxnId txn_id, PageId page,
                                     const std::vector<uint8_t>& bytes) {
  Transaction* txn = Find(txn_id);
  RDA_RETURN_IF_ERROR(RequireActive(txn));
  if (config_.logging_mode != LoggingMode::kPageLogging) {
    return Status::FailedPrecondition("page API requires page logging mode");
  }
  if (bytes.size() != user_page_size()) {
    return Status::InvalidArgument("page write must cover the user region");
  }
  RDA_RETURN_IF_ERROR(locks_->Acquire(txn_id, LockKey::Page(page),
                                      LockMode::kExclusive));
  {
    std::lock_guard<std::mutex> lock(txn->mu);
    RDA_RETURN_IF_ERROR(EnsureBot(txn));
  }
  const uint64_t transfers_start = TransfersStart();
  RDA_RETURN_IF_ERROR(pool_.WithFetchedFrame(
      page, nullptr, [&](Frame* frame) {
        if (!frame->has_pending_before) {
          // Logical before-image for this propagation epoch: what an abort
          // (or a before-image log record) must restore. It may contain
          // committed-but-unpropagated bytes of earlier transactions —
          // which is why it is captured here and not derived from
          // last_propagated.
          frame->pending_before = frame->payload;
          frame->has_pending_before = true;
        }
        std::copy(bytes.begin(), bytes.end(),
                  frame->payload.begin() + kDataRegionOffset);
        DataPageMeta meta = LoadDataMeta(frame->payload);
        meta.page_lsn = log_->next_lsn();  // Monotone update stamp.
        StoreDataMeta(meta, &frame->payload);
        frame->dirty = true;
        frame->AddModifier(txn_id);
        return Status::Ok();
      }));
  std::lock_guard<std::mutex> lock(txn->mu);
  txn->NoteModifiedPage(page);
  ++txn->page_updates;
  AttributeTransfers(txn, transfers_start);
  return Status::Ok();
}

Status TransactionManager::ReadRecord(TxnId txn_id, PageId page,
                                      RecordSlot slot,
                                      std::vector<uint8_t>* out) {
  Transaction* txn = Find(txn_id);
  RDA_RETURN_IF_ERROR(RequireActive(txn));
  if (config_.logging_mode != LoggingMode::kRecordLogging) {
    return Status::FailedPrecondition(
        "record API requires record logging mode");
  }
  RDA_RETURN_IF_ERROR(locks_->Acquire(txn_id, LockKey::Record(page, slot),
                                      LockMode::kShared));
  const uint64_t transfers_start = TransfersStart();
  RDA_RETURN_IF_ERROR(pool_.WithFetchedFrame(
      page, nullptr, [&](Frame* frame) {
        RecordPageView view(&frame->payload, config_.record_size);
        return view.Read(slot, out);
      }));
  std::lock_guard<std::mutex> lock(txn->mu);
  ++txn->reads;
  AttributeTransfers(txn, transfers_start);
  return Status::Ok();
}

Status TransactionManager::WriteRecord(TxnId txn_id, PageId page,
                                       RecordSlot slot,
                                       const std::vector<uint8_t>& bytes) {
  Transaction* txn = Find(txn_id);
  RDA_RETURN_IF_ERROR(RequireActive(txn));
  if (config_.logging_mode != LoggingMode::kRecordLogging) {
    return Status::FailedPrecondition(
        "record API requires record logging mode");
  }
  RDA_RETURN_IF_ERROR(locks_->Acquire(txn_id, LockKey::Record(page, slot),
                                      LockMode::kExclusive));
  {
    std::lock_guard<std::mutex> lock(txn->mu);
    RDA_RETURN_IF_ERROR(EnsureBot(txn));
  }
  const uint64_t transfers_start = TransfersStart();
  Lsn stamp = kInvalidLsn;
  std::vector<uint8_t> after;
  RDA_RETURN_IF_ERROR(pool_.WithFetchedFrame(
      page, nullptr, [&](Frame* frame) {
        RecordPageView view(&frame->payload, config_.record_size);
        stamp = log_->next_lsn();

        // In-buffer undo info: value before this modification.
        RecordMod mod;
        mod.txn = txn_id;
        mod.slot = slot;
        mod.stamp = stamp;
        RDA_RETURN_IF_ERROR(view.Read(slot, &mod.before));
        frame->record_mods.push_back(std::move(mod));

        RDA_RETURN_IF_ERROR(view.Write(slot, bytes));
        DataPageMeta meta = LoadDataMeta(frame->payload);
        meta.page_lsn = stamp;
        StoreDataMeta(meta, &frame->payload);

        bool pending_known = false;
        for (const PendingMod& pending : frame->pending_mods) {
          if (pending.txn == txn_id && pending.slot == slot) {
            pending_known = true;
            break;
          }
        }
        if (!pending_known) {
          PendingMod pending;
          pending.txn = txn_id;
          pending.slot = slot;
          pending.before = frame->record_mods.back().before;
          frame->pending_mods.push_back(std::move(pending));
        }

        RDA_RETURN_IF_ERROR(view.Read(slot, &after));
        frame->dirty = true;
        frame->AddModifier(txn_id);
        return Status::Ok();
      }));

  std::lock_guard<std::mutex> lock(txn->mu);
  if (RecordWrite* existing = txn->FindRecordWrite(page, slot)) {
    existing->after = std::move(after);
    existing->stamp = stamp;
  } else {
    txn->record_writes.push_back(
        RecordWrite{page, slot, std::move(after), stamp});
  }
  txn->NoteModifiedPage(page);
  ++txn->record_updates;
  AttributeTransfers(txn, transfers_start);
  return Status::Ok();
}

Status TransactionManager::LogBeforeImagesForSteal(
    Frame* frame, const std::vector<Transaction*>& modifiers) {
  for (Transaction* txn : modifiers) {
    const TxnId txn_id = txn->id();
    RDA_RETURN_IF_ERROR(EnsureBot(txn));
    if (config_.logging_mode == LoggingMode::kPageLogging) {
      // The logical before-image captured at the transaction's first touch
      // of this propagation epoch (it may carry committed-but-unpropagated
      // bytes of earlier transactions — last_propagated may not).
      const std::vector<uint8_t>& before =
          frame->has_pending_before ? frame->pending_before
                                    : frame->last_propagated;
      LogRecord bi;
      bi.type = LogRecordType::kBeforeImage;
      bi.txn = txn_id;
      bi.page = frame->page;
      bi.before = before;
      RDA_ASSIGN_OR_RETURN(bi.lsn, log_->Append(bi));
      txn->logged_undos.push_back(std::move(bi));
      before_images_logged_.Add();
    } else {
      // One record-granular before-image per slot this transaction touched
      // since the last propagation, valued at the slot's logical
      // before-state (captured with the pending entry).
      std::vector<RecordSlot> seen;
      for (const PendingMod& pending : frame->pending_mods) {
        if (pending.txn != txn_id ||
            std::find(seen.begin(), seen.end(), pending.slot) !=
                seen.end()) {
          continue;
        }
        seen.push_back(pending.slot);
        LogRecord bi;
        bi.type = LogRecordType::kBeforeImage;
        bi.txn = txn_id;
        bi.page = frame->page;
        bi.slot = pending.slot;
        bi.record_granular = true;
        bi.before = pending.before;
        RDA_ASSIGN_OR_RETURN(bi.lsn, log_->Append(bi));
        txn->logged_undos.push_back(std::move(bi));
        before_images_logged_.Add();
      }
    }
  }
  // WAL: undo information must be stable before the page is overwritten.
  return log_->Flush();
}

bool TransactionManager::UnloggedCoverageExact(Frame* frame, TxnId txn) {
  // Parity undo restores the page to its last PROPAGATED state. That is
  // only the correct logical rollback if everything the frame changed since
  // the last propagation belongs to `txn`: any committed-but-unpropagated
  // bytes of earlier transactions (notFORCE) would be wiped with it. When
  // the logical before-state differs from the propagated state, fall back
  // to a logged steal whose before-image carries the committed bytes.
  if (config_.logging_mode == LoggingMode::kPageLogging) {
    return !frame->has_pending_before ||
           frame->pending_before == frame->last_propagated;
  }
  // Record mode: reconstruct "last_propagated + txn's pending changes" and
  // require it to equal the current payload outside the meta region.
  std::vector<uint8_t> expected = frame->last_propagated;
  RecordPageView expected_view(&expected, config_.record_size);
  std::vector<uint8_t> snapshot = frame->payload;
  RecordPageView payload_view(&snapshot, config_.record_size);
  for (const PendingMod& pending : frame->pending_mods) {
    if (pending.txn != txn) {
      return false;  // Another (committed) txn's pending change.
    }
    // The slot's pre-modification value must be the propagated one.
    std::vector<uint8_t> propagated;
    if (!expected_view.Read(pending.slot, &propagated).ok() ||
        propagated != pending.before) {
      return false;
    }
    std::vector<uint8_t> current;
    if (!payload_view.Read(pending.slot, &current).ok() ||
        !expected_view.Write(pending.slot, current).ok()) {
      return false;
    }
  }
  return std::equal(expected.begin() + kDataRegionOffset, expected.end(),
                    snapshot.begin() + kDataRegionOffset);
}

Status TransactionManager::PropagateFrame(Frame* frame) {
  // Called by the pool with the frame's shard latch held. Gather the active
  // modifiers, TRY-locking each one's mutex — holding them pins the
  // transactions' undo bookkeeping for the duration of the steal. A
  // contended mutex, or a modifier mid-EOT on another thread, turns the
  // whole propagation into kBusy: the eviction walk skips this victim
  // instead of blocking (the latch order forbids waiting on a transaction
  // mutex here, and a mid-EOT transaction owns its state exclusively).
  std::vector<Transaction*> modifiers;
  std::vector<std::unique_lock<std::mutex>> held;
  for (const TxnId id : frame->modifiers) {
    Transaction* txn = Find(id);
    if (txn == nullptr) {
      continue;
    }
    const bool own_eot = tls_eot_manager == this && tls_eot_txn == id;
    std::unique_lock<std::mutex> lock(txn->mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      // Own-EOT propagations never contend here: the EOT thread dropped
      // the mutex before calling into the pool.
      return Status::Busy("frame modifier busy");
    }
    if (txn->in_eot && !own_eot) {
      return Status::Busy("frame modifier mid-EOT");
    }
    if (txn->state != TxnState::kActive) {
      continue;  // Committed/aborted modifiers were detached at EOT.
    }
    modifiers.push_back(txn);
    held.push_back(std::move(lock));
  }

  DataPageMeta meta = LoadDataMeta(frame->payload);
  meta.chain_prev = kInvalidPageId;

  // Group latch held across classify -> chain-head log -> propagate: pins
  // the Figure 3 classification against concurrent propagations into the
  // same group from other buffer shards.
  auto group_latch = parity_->LockGroupOfPage(frame->page);

  if (modifiers.size() == 1 && config_.rda_undo &&
      UnloggedCoverageExact(frame, modifiers[0]->id())) {
    Transaction* txn = modifiers[0];
    const TxnId owner = txn->id();
    const PropagationKind kind = parity_->Classify(frame->page, owner);
    if (kind == PropagationKind::kUnloggedFirst ||
        kind == PropagationKind::kUnloggedRepeat) {
      RDA_RETURN_IF_ERROR(EnsureBot(txn));
      Lsn window_lsn = kInvalidLsn;
      if (kind == PropagationKind::kUnloggedFirst) {
        // The paper pairs the chain head with the BOT record (the
        // (l_bc + l_h) term). The kChainHead record doubles as the
        // unlogged window's open marker: its LSN orders the window against
        // the transaction's logged before-images (a before-image of this
        // page with a smaller LSN predates the window and must be undone
        // only after the parity undo — see UndoPlan). The marker is
        // load-bearing only when such a
        // before-image actually exists; otherwise recovery's no-marker
        // default (everything in-window) is already right, so skip the
        // append past the transaction's first chain head and keep the log
        // at the paper's volume.
        bool prior_before_image = false;
        for (const LogRecord& undo : txn->logged_undos) {
          if (undo.page == frame->page) {
            prior_before_image = true;
            break;
          }
        }
        if (!txn->chain_head_logged || prior_before_image) {
          LogRecord head;
          head.type = LogRecordType::kChainHead;
          head.txn = owner;
          head.chain_head = frame->page;
          RDA_ASSIGN_OR_RETURN(window_lsn,
                               log_->Append(std::move(head)));
          txn->chain_head_logged = true;
        } else {
          // No durable marker needed: the window boundary for the runtime
          // abort path is simply "everything this transaction logs from
          // here on is in-window".
          window_lsn = log_->next_lsn();
        }
      }
      RDA_RETURN_IF_ERROR(log_->Flush());

      meta.txn_id = owner;
      meta.chain_prev =
          (kind == PropagationKind::kUnloggedFirst) ? txn->chain_head
                                                    : meta.chain_prev;
      if (kind == PropagationKind::kUnloggedRepeat) {
        // Re-steal of the same page: it is already on the chain.
        meta.chain_prev = LoadDataMeta(frame->payload).chain_prev;
      }
      StoreDataMeta(meta, &frame->payload);

      PageImage image(0);
      image.payload = frame->payload;
      RDA_RETURN_IF_ERROR(parity_->Propagate(frame->page, owner, kind,
                                             &frame->last_propagated, image));
      if (kind == PropagationKind::kUnloggedFirst) {
        txn->NoteDirtiedGroup(
            parity_->array()->layout().GroupOf(frame->page), window_lsn);
        txn->chain_head = frame->page;
      }
      before_images_avoided_.Add();
      return Status::Ok();
    }
  }

  // Logged (or plain committed-data) propagation.
  if (!modifiers.empty()) {
    RDA_RETURN_IF_ERROR(LogBeforeImagesForSteal(frame, modifiers));
  }
  // If this page is the covered (dirty) page of its group, its embedded
  // txn stamp and chain link are the parity-undo bookkeeping of the
  // covering transaction — a logged rewrite must NOT clear them.
  const GroupState& group_state = parity_->directory().Get(
      parity_->array()->layout().GroupOf(frame->page));
  if (group_state.dirty && group_state.dirty_page == frame->page) {
    meta.txn_id = group_state.dirty_txn;
    meta.chain_prev = LoadDataMeta(frame->payload).chain_prev;
  } else {
    meta.txn_id = kInvalidTxnId;
  }
  StoreDataMeta(meta, &frame->payload);
  PageImage image(0);
  image.payload = frame->payload;
  return parity_->Propagate(frame->page, kInvalidTxnId,
                            PropagationKind::kPlain, &frame->last_propagated,
                            image);
}

Status TransactionManager::LogAfterImages(Transaction* txn) {
  if (!config_.log_after_images) {
    return Status::Ok();
  }
  if (config_.logging_mode == LoggingMode::kPageLogging) {
    for (const PageId page : txn->modified_pages) {
      LogRecord ai;
      ai.type = LogRecordType::kAfterImage;
      ai.txn = txn->id();
      ai.page = page;
      bool resident = false;
      RDA_RETURN_IF_ERROR(pool_.WithFrame(page, [&](Frame* frame) {
        if (frame != nullptr) {
          resident = true;
          ai.after = frame->payload;
        }
        return Status::Ok();
      }));
      if (!resident) {
        // Stolen and evicted: the latest content is on disk.
        PageImage image;
        RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(page, &image));
        ai.after = std::move(image.payload);
      }
      RDA_RETURN_IF_ERROR(log_->Append(std::move(ai)).status());
    }
    return Status::Ok();
  }
  for (const RecordWrite& write : txn->record_writes) {
    LogRecord ai;
    ai.type = LogRecordType::kAfterImage;
    ai.txn = txn->id();
    ai.page = write.page;
    ai.slot = write.slot;
    ai.record_granular = true;
    ai.after = write.after;
    RDA_RETURN_IF_ERROR(log_->Append(std::move(ai)).status());
  }
  return Status::Ok();
}

Status TransactionManager::Commit(TxnId txn_id) {
  Transaction* txn = Find(txn_id);
  RDA_RETURN_IF_ERROR(RequireActive(txn));
  // From here to return, this thread has exclusive use of `txn` without
  // holding its mutex: evictions answer kBusy to the in_eot flag.
  EotScope eot(this, txn);
  obs::ScopedSpan commit_span(spans_, obs::SpanKind::kTxnCommit,
                              commit_us_hist_, static_cast<int64_t>(txn_id));
  const uint64_t transfers_start = TransfersStart();

  if (config_.force) {
    // FORCE discipline: propagate every modified page before EOT. The
    // transaction is still active, so Figure 3 applies — this is where the
    // FORCE/TOC algorithms harvest unlogged propagations. A kBusy from a
    // shared frame (another modifier mid-flight) aborts the attempt; the
    // caller retries the commit.
    obs::ScopedSpan force_span(
        spans_, obs::SpanKind::kCommitForcePages, /*histogram=*/nullptr,
        static_cast<int64_t>(txn->modified_pages.size()));
    if (config_.elevator_force && txn->modified_pages.size() > 1) {
      // Group-then-page order: same-group propagations become back-to-back
      // RMWs on the same parity slot, which the async engine coalesces
      // into one physical write. Order does not affect correctness here —
      // each propagation is independent and the group latch serializes
      // parity state — so only the async path opts in.
      std::vector<PageId> ordered = txn->modified_pages;
      const Layout& layout = parity_->array()->layout();
      std::sort(ordered.begin(), ordered.end(),
                [&layout](PageId a, PageId b) {
                  const GroupId ga = layout.GroupOf(a);
                  const GroupId gb = layout.GroupOf(b);
                  return ga != gb ? ga < gb : a < b;
                });
      for (const PageId page : ordered) {
        RDA_RETURN_IF_ERROR(pool_.PropagatePage(page));
      }
    } else {
      for (const PageId page : txn->modified_pages) {
        RDA_RETURN_IF_ERROR(pool_.PropagatePage(page));
      }
    }
  }

  if (txn->bot_logged) {
    obs::ScopedSpan wal_span(spans_, obs::SpanKind::kCommitWalFlush,
                             /*histogram=*/nullptr,
                             static_cast<int64_t>(txn_id));
    RDA_RETURN_IF_ERROR(LogAfterImages(txn));
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn = txn_id;
    RDA_ASSIGN_OR_RETURN(const Lsn commit_lsn,
                         log_->Append(std::move(commit)));
    // Group commit: ride a batch flush with concurrent committers instead
    // of forcing the log alone.
    RDA_RETURN_IF_ERROR(log_->CommitFlush(commit_lsn));
  }

  {
    // After the commit point, finalize the twin parity of dirtied groups
    // (crash between the two is rolled forward by recovery).
    obs::ScopedSpan parity_span(
        spans_, obs::SpanKind::kCommitParityFinalize, /*histogram=*/nullptr,
        static_cast<int64_t>(txn->dirtied_groups.size()));
    for (const GroupId group : txn->dirtied_groups) {
      RDA_RETURN_IF_ERROR(parity_->FinalizeCommit(group, txn_id));
    }
  }

  for (const PageId page : txn->modified_pages) {
    RDA_RETURN_IF_ERROR(pool_.WithFrame(page, [&](Frame* frame) {
      if (frame == nullptr) {
        return Status::Ok();
      }
      frame->RemoveModifier(txn_id);
      frame->record_mods.erase(
          std::remove_if(frame->record_mods.begin(),
                         frame->record_mods.end(),
                         [txn_id](const RecordMod& mod) {
                           return mod.txn == txn_id;
                         }),
          frame->record_mods.end());
      // Committed data needs no UNDO; drop this transaction's entries.
      frame->pending_mods.erase(
          std::remove_if(frame->pending_mods.begin(),
                         frame->pending_mods.end(),
                         [txn_id](const PendingMod& mod) {
                           return mod.txn == txn_id;
                         }),
          frame->pending_mods.end());
      // The next transaction's first write must capture ITS logical
      // before-state (which now includes this commit's bytes).
      if (frame->modifiers.empty()) {
        frame->has_pending_before = false;
        frame->pending_before.clear();
      }
      return Status::Ok();
    }));
  }

  locks_->ReleaseAll(txn_id);
  txn->state = TxnState::kCommitted;
  committed_.Add();
  AttributeTransfers(txn, transfers_start);
  obs::Observe(transfers_per_commit_, static_cast<double>(txn->transfers));
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kTxn;
    event.kind = obs::EventKind::kTxnCommit;
    event.txn = txn_id;
    event.value = static_cast<int64_t>(txn->transfers);
    trace_->Record(event);
  }
  if (spans_ != nullptr) {
    spans_->RecordInterval(obs::SpanKind::kTxnLifetime, txn->begin_time,
                           std::chrono::steady_clock::now(),
                           static_cast<int64_t>(txn_id));
  }
  return Status::Ok();
}

Status TransactionManager::RestoreBeforeImage(const LogRecord& image,
                                              UndoPlan* plan) {
  if (plan->before_step) {
    RDA_RETURN_IF_ERROR(plan->before_step());
  }
  ++plan->logged_undos;
  if (!image.record_granular) {
    RDA_RETURN_IF_ERROR(parity_->ApplyLoggedUndo(image.page, image.before));
    plan->restored[image.page] = image.before;
    return Status::Ok();
  }
  // Record-granular: patch the slot inside the current on-disk payload.
  // The group latch spans the read-modify-write and the dirty-group
  // directory check.
  auto group_latch = parity_->LockGroupOfPage(image.page);
  std::vector<uint8_t>& payload = plan->restored[image.page];
  if (payload.empty()) {
    PageImage current;
    RDA_RETURN_IF_ERROR(parity_->ReadDataHealed(image.page, &current));
    payload = std::move(current.payload);
  }
  RecordPageView view(&payload, config_.record_size);
  RDA_RETURN_IF_ERROR(view.Write(image.slot, image.before));
  DataPageMeta meta = LoadDataMeta(payload);
  const GroupState& group = parity_->directory().Get(
      parity_->array()->layout().GroupOf(image.page));
  if (!(group.dirty && group.dirty_page == image.page)) {
    // Keep the covering transaction's stamp: the parity undo recognizes
    // its work by it.
    meta.txn_id = kInvalidTxnId;
  }
  meta.page_lsn = 0;  // Mixed state: let REDO replay decide per record.
  StoreDataMeta(meta, &payload);
  return parity_->ApplyLoggedUndo(image.page, payload);
}

Status TransactionManager::UndoLogged(UndoPlan* plan) {
  for (const LogRecord* image : plan->images) {
    auto window = plan->window_open.find({image->txn, image->page});
    if (window != plan->window_open.end() && image->lsn < window->second) {
      plan->deferred.push_back(image);
      continue;
    }
    RDA_RETURN_IF_ERROR(RestoreBeforeImage(*image, plan));
  }
  return Status::Ok();
}

Status TransactionManager::UndoParity(UndoPlan* plan,
                                      exec::WorkerPool* pool) {
  // A skipped group's result keeps page == kInvalidPageId.
  std::vector<ParityUndoResult> undone(plan->parity_groups.size());
  RDA_RETURN_IF_ERROR(exec::RunSharded(
      pool, undone.size(), [&](uint64_t i) -> Status {
        if (plan->before_step) {
          RDA_RETURN_IF_ERROR(plan->before_step());
        }
        const auto [group, owner] = plan->parity_groups[i];
        auto group_latch = parity_->LockGroup(group);
        const GroupState& state = parity_->directory().Get(group);
        if (!state.dirty || state.dirty_txn != owner) {
          return Status::Ok();  // Already finalized or undone.
        }
        RDA_ASSIGN_OR_RETURN(undone[i],
                             parity_->UndoUnloggedUpdate(group, owner));
        return Status::Ok();
      }));
  for (size_t i = 0; i < undone.size(); ++i) {
    ParityUndoResult& undo = undone[i];
    if (undo.page == kInvalidPageId) {
      continue;
    }
    ++plan->parity_undos;
    if (undo.overwritten_meta.txn_id == plan->parity_groups[i].second) {
      ++plan->chain_pages_walked;
    }
    if (undo.payload_restored) {
      plan->restored[undo.page] = std::move(undo.restored_payload);
    }
  }
  for (const LogRecord* image : plan->deferred) {
    RDA_RETURN_IF_ERROR(RestoreBeforeImage(*image, plan));
  }
  return Status::Ok();
}

void TransactionManager::CleanBufferAfterAbort(
    Transaction* txn,
    const std::unordered_map<PageId, std::vector<uint8_t>>& restored_disk) {
  if (config_.logging_mode == LoggingMode::kPageLogging) {
    // Pages are not shared between active transactions under page locking,
    // but the frame may hold committed-but-unpropagated bytes of EARLIER
    // transactions (notFORCE) underneath this one's writes — so instead of
    // discarding, restore the frame to the logical before-state: the
    // disk-undo result if the page was propagated, else the captured
    // pending_before snapshot.
    for (const PageId page : txn->modified_pages) {
      auto restored = restored_disk.find(page);
      pool_.WithFrame(page, [&](Frame* frame) {
        if (frame == nullptr) {
          return Status::Ok();
        }
        if (restored != restored_disk.end()) {
          frame->payload = restored->second;
          frame->last_propagated = restored->second;
        } else if (frame->has_pending_before) {
          frame->payload = frame->pending_before;
        }
        frame->RemoveModifier(txn->id());
        frame->pending_mods.clear();
        frame->has_pending_before = false;
        frame->pending_before.clear();
        frame->dirty = frame->payload != frame->last_propagated;
        return Status::Ok();
      }).ok();
    }
    return;
  }
  for (const PageId page : txn->modified_pages) {
    auto restored = restored_disk.find(page);
    pool_.WithFrame(page, [&](Frame* frame) {
      if (frame == nullptr) {
        return Status::Ok();
      }
      if (restored != restored_disk.end()) {
        // The disk-level undo rewrote this page; the frame may hold stale
        // content from before an earlier steal (its in-buffer undo info was
        // lost with the eviction). Reconcile: every slot this transaction
        // ever wrote takes its restored on-disk (pre-transaction) value;
        // every other slot keeps the buffer value — that preserves other
        // active transactions' changes and committed-but-unpropagated data.
        RecordPageView frame_view(&frame->payload, config_.record_size);
        std::vector<uint8_t> restored_copy = restored->second;
        RecordPageView disk_view(&restored_copy, config_.record_size);
        for (const RecordWrite& write : txn->record_writes) {
          if (write.page != page) {
            continue;
          }
          std::vector<uint8_t> bytes;
          if (disk_view.Read(write.slot, &bytes).ok()) {
            frame_view.Write(write.slot, bytes).ok();
          }
        }
      } else {
        // Never propagated: revert this transaction's record modifications
        // in reverse append order (stamps can tie when no log append
        // happened between updates, so the vector order is the authority).
        std::vector<const RecordMod*> mine;
        for (const RecordMod& mod : frame->record_mods) {
          if (mod.txn == txn->id()) {
            mine.push_back(&mod);
          }
        }
        RecordPageView view(&frame->payload, config_.record_size);
        for (auto it = mine.rbegin(); it != mine.rend(); ++it) {
          view.Write((*it)->slot, (*it)->before).ok();
        }
      }
      frame->record_mods.erase(
          std::remove_if(
              frame->record_mods.begin(), frame->record_mods.end(),
              [txn](const RecordMod& mod) { return mod.txn == txn->id(); }),
          frame->record_mods.end());
      frame->pending_mods.erase(
          std::remove_if(
              frame->pending_mods.begin(), frame->pending_mods.end(),
              [txn](const PendingMod& mod) { return mod.txn == txn->id(); }),
          frame->pending_mods.end());
      frame->RemoveModifier(txn->id());
      if (restored != restored_disk.end()) {
        frame->last_propagated = restored->second;
      }
      if (frame->modifiers.empty() && frame->record_mods.empty() &&
          frame->payload == frame->last_propagated) {
        frame->dirty = false;
      }
      return Status::Ok();
    }).ok();
  }
}

Status TransactionManager::Abort(TxnId txn_id) {
  Transaction* txn = Find(txn_id);
  RDA_RETURN_IF_ERROR(RequireActive(txn));
  EotScope eot(this, txn);
  obs::ScopedSpan abort_span(spans_, obs::SpanKind::kTxnAbort,
                             abort_us_hist_, static_cast<int64_t>(txn_id));
  const uint64_t transfers_start = TransfersStart();

  UndoPlan plan;
  for (auto it = txn->logged_undos.rbegin(); it != txn->logged_undos.rend();
       ++it) {
    plan.images.push_back(&*it);
  }
  for (size_t i = 0; i < txn->dirtied_groups.size(); ++i) {
    const GroupId group = txn->dirtied_groups[i];
    plan.parity_groups.emplace_back(group, txn_id);
    const GroupState& state = parity_->directory().Get(group);
    if (state.dirty && state.dirty_txn == txn_id) {
      plan.window_open[{txn_id, state.dirty_page}] =
          txn->dirtied_group_window_lsn[i];
    }
  }
  RDA_RETURN_IF_ERROR(UndoLogged(&plan));
  RDA_RETURN_IF_ERROR(UndoParity(&plan, /*pool=*/nullptr));
  CleanBufferAfterAbort(txn, plan.restored);

  if (txn->bot_logged) {
    LogRecord done;
    done.type = LogRecordType::kAbortComplete;
    done.txn = txn_id;
    RDA_RETURN_IF_ERROR(log_->Append(std::move(done)).status());
    RDA_RETURN_IF_ERROR(log_->Flush());
  }

  locks_->ReleaseAll(txn_id);
  txn->state = TxnState::kAborted;
  aborted_.Add();
  AttributeTransfers(txn, transfers_start);
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kTxn;
    event.kind = obs::EventKind::kTxnAbort;
    event.txn = txn_id;
    event.value = static_cast<int64_t>(txn->transfers);
    trace_->Record(event);
  }
  if (spans_ != nullptr) {
    spans_->RecordInterval(obs::SpanKind::kTxnLifetime, txn->begin_time,
                           std::chrono::steady_clock::now(),
                           static_cast<int64_t>(txn_id));
  }
  return Status::Ok();
}

Result<ConcurrentResult> TransactionManager::RunConcurrent(
    const ConcurrentWorkload& workload) {
  if (workload.threads == 0 || workload.pages == 0) {
    return Status::InvalidArgument("empty concurrent workload");
  }
  struct Op {
    bool write = false;
    PageId page = 0;
    RecordSlot slot = 0;
    uint8_t value = 0;
  };
  struct WorkerOutcome {
    ConcurrentResult result;
    Status error = Status::Ok();
  };
  const bool record_mode = config_.logging_mode == LoggingMode::kRecordLogging;
  const size_t write_size =
      record_mode ? config_.record_size : user_page_size();
  const uint32_t slots = record_mode ? records_per_page() : 1;

  std::vector<WorkerOutcome> outcomes(workload.threads);
  std::atomic<bool> failed{false};

  auto worker = [&](uint32_t worker_id) {
    WorkerOutcome& out = outcomes[worker_id];
    std::mt19937_64 rng(workload.seed +
                        worker_id * uint64_t{0x9e3779b97f4a7c15});
    std::vector<uint8_t> scratch;
    for (uint32_t t = 0; t < workload.txns_per_thread; ++t) {
      // Draw the transaction's op script once; retries replay it.
      std::vector<Op> ops(workload.ops_per_txn);
      for (Op& op : ops) {
        op.write = (static_cast<double>(rng() % 1000) / 1000.0) <
                   workload.write_fraction;
        op.page = static_cast<PageId>(rng() % workload.pages);
        op.slot = static_cast<RecordSlot>(rng() % slots);
        op.value = static_cast<uint8_t>(rng());
      }
      bool committed = false;
      for (uint32_t attempt = 0;
           attempt < workload.max_attempts && !committed; ++attempt) {
        if (failed.load(std::memory_order_relaxed)) {
          return;
        }
        Result<TxnId> begun = Begin();
        if (!begun.ok()) {
          out.error = begun.status();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        const TxnId id = begun.value();
        bool busy = false;
        Status hard = Status::Ok();
        for (const Op& op : ops) {
          Status s;
          if (op.write) {
            std::vector<uint8_t> bytes(write_size, op.value);
            s = record_mode ? WriteRecord(id, op.page, op.slot, bytes)
                            : WritePage(id, op.page, bytes);
          } else {
            s = record_mode ? ReadRecord(id, op.page, op.slot, &scratch)
                            : ReadPage(id, op.page, &scratch);
          }
          if (s.IsBusy()) {
            busy = true;
            break;
          }
          if (!s.ok()) {
            hard = s;
            break;
          }
        }
        if (!busy && hard.ok()) {
          const Status c = Commit(id);
          if (c.IsBusy()) {
            busy = true;
          } else if (!c.ok()) {
            hard = c;
          } else {
            committed = true;
            ++out.result.committed;
          }
        }
        if (!committed) {
          const Status a = Abort(id);
          if (!a.ok() && hard.ok()) {
            hard = a;
          }
          ++out.result.aborted;
          if (busy) {
            ++out.result.busy_retries;
            std::this_thread::yield();
          }
        }
        if (!hard.ok()) {
          out.error = hard;
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (!committed) {
        out.error = Status::Aborted("concurrent workload livelocked");
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workload.threads);
  for (uint32_t i = 0; i < workload.threads; ++i) {
    threads.emplace_back(worker, i);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  ConcurrentResult total;
  for (const WorkerOutcome& out : outcomes) {
    if (!out.error.ok()) {
      return out.error;
    }
    total.committed += out.result.committed;
    total.aborted += out.result.aborted;
    total.busy_retries += out.result.busy_retries;
  }
  return total;
}

void TransactionManager::LoseVolatileState() {
  pool_.LoseAll();
  locks_->Clear();
  std::lock_guard<std::mutex> lock(txns_mu_);
  txns_.clear();
}

}  // namespace rda
