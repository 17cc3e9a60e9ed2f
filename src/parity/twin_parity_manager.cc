#include "parity/twin_parity_manager.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/xor_util.h"

namespace rda {

TwinParityManager::TwinParityManager(DiskArray* array)
    : array_(array),
      directory_(array->num_groups()),
      group_latches_(
          std::make_unique<std::recursive_mutex[]>(array->num_groups())),
      scratch_(array->page_size()),
      twin_shadow_(array->num_groups(),
                   {static_cast<uint8_t>(ParityState::kCommitted),
                    static_cast<uint8_t>(ParityState::kObsolete)}),
      held_working_(array->num_groups()) {}

std::unique_lock<std::recursive_mutex> TwinParityManager::LockGroup(
    GroupId group) {
  std::unique_lock<std::recursive_mutex> lock(group_latches_[group],
                                              std::try_to_lock);
  if (!lock.owns_lock()) {
    obs::Inc(latch_waits_counter_);
    lock.lock();
  }
  return lock;
}

std::unique_lock<std::recursive_mutex> TwinParityManager::LockGroupOfPage(
    PageId page) {
  return LockGroup(array_->layout().GroupOf(page));
}

ParityStats TwinParityManager::stats() const {
  ParityStats s;
  s.unlogged_first = unlogged_first_.value();
  s.unlogged_repeat = unlogged_repeat_.value();
  s.logged_dirty_group = logged_dirty_group_.value();
  s.plain = plain_.value();
  s.parity_undos = parity_undos_.value();
  s.logged_undos = logged_undos_.value();
  s.commits_finalized = commits_finalized_.value();
  s.latent_repairs = latent_repairs_.value();
  s.corruption_repairs = corruption_repairs_.value();
  return s;
}

void TwinParityManager::ResetStats() {
  unlogged_first_.Reset();
  unlogged_repeat_.Reset();
  logged_dirty_group_.Reset();
  plain_.Reset();
  parity_undos_.Reset();
  logged_undos_.Reset();
  commits_finalized_.Reset();
  latent_repairs_.Reset();
  corruption_repairs_.Reset();
}

void TwinParityManager::XorPage(std::vector<uint8_t>* dst,
                                const std::vector<uint8_t>& src) {
  XorInto(dst, src);
  array_->AccountXor(1);
}

Status TwinParityManager::WriteTwin(GroupId group, uint32_t twin,
                                    const PageImage& image) {
  std::optional<PageImage>& held = held_working_[group];
  held.reset();
  RDA_RETURN_IF_ERROR(array_->WriteParity(group, twin, image));
  if (image.header.parity_state == ParityState::kWorking) {
    held = image;
  }
  return Status::Ok();
}

void TwinParityManager::MarkClean(GroupId group, uint32_t valid_twin) {
  held_working_[group].reset();
  directory_.MarkClean(group, valid_twin);
}

void TwinParityManager::SyncTwinShadow(GroupId group, uint32_t twin,
                                       uint8_t state) {
  if (group < twin_shadow_.size() && twin < 2) {
    twin_shadow_[group][twin] = state;
  }
}

void TwinParityManager::TraceTwinTransition(GroupId group, uint32_t twin,
                                            uint8_t to_state, PageId page,
                                            TxnId txn) {
  const uint8_t from_state =
      (group < twin_shadow_.size() && twin < 2) ? twin_shadow_[group][twin]
                                                : 0;
  SyncTwinShadow(group, twin, to_state);
  if (trace_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.subsystem = obs::Subsystem::kParity;
  event.kind = obs::EventKind::kTwinTransition;
  event.group = group;
  event.page = page;
  event.txn = txn;
  event.detail = static_cast<int64_t>(twin);
  event.from_state = from_state;
  event.to_state = to_state;
  trace_->Record(event);
}

void TwinParityManager::TraceGroupTransition(GroupId group, bool to_dirty,
                                             PageId page, TxnId txn) {
  if (trace_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.subsystem = obs::Subsystem::kParity;
  event.kind = obs::EventKind::kGroupTransition;
  event.group = group;
  event.page = page;
  event.txn = txn;
  event.from_state = static_cast<uint8_t>(to_dirty ? obs::GroupFigState::kClean
                                                   : obs::GroupFigState::kDirty);
  event.to_state = static_cast<uint8_t>(to_dirty ? obs::GroupFigState::kDirty
                                                 : obs::GroupFigState::kClean);
  trace_->Record(event);
}

void TwinParityManager::AttachObs(obs::ObsHub* hub) {
  trace_ = obs::TraceOf(hub);
  unlogged_first_.Bind(obs::GetCounter(hub, "parity.unlogged_first"));
  unlogged_repeat_.Bind(obs::GetCounter(hub, "parity.unlogged_repeat"));
  logged_dirty_group_.Bind(obs::GetCounter(hub, "parity.logged_dirty_group"));
  plain_.Bind(obs::GetCounter(hub, "parity.plain"));
  parity_undos_.Bind(obs::GetCounter(hub, "parity.parity_undos"));
  logged_undos_.Bind(obs::GetCounter(hub, "parity.logged_undos"));
  commits_finalized_.Bind(obs::GetCounter(hub, "parity.commits_finalized"));
  latent_repairs_.Bind(obs::GetCounter(hub, "parity.latent_repairs"));
  corruption_repairs_.Bind(obs::GetCounter(hub, "parity.corruption_repairs"));
  degraded_reads_counter_ = obs::GetCounter(hub, "parity.degraded_reads");
  latch_waits_counter_ = obs::GetCounter(hub, "parity.latch_waits");
  online_on_demand_counter_ =
      obs::GetCounter(hub, "parity.online_on_demand_rebuilds");
  online_write_promotions_counter_ =
      obs::GetCounter(hub, "parity.online_write_promotions");
  spans_ = obs::SpansOf(hub);
  propagate_hist_ = obs::GetHistogram(
      hub, "parity.propagate_us",
      {1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000});
}

bool TwinParityManager::HealableFault(const Status& status,
                                      DiskId disk) const {
  return (status.IsIoError() || status.IsCorruption()) &&
         !array_->DiskFailed(disk);
}

void TwinParityManager::NoteSectorRepair(const Status& cause, PageId page,
                                         GroupId group) {
  const bool corruption = cause.IsCorruption();
  if (corruption) {
    corruption_repairs_.Add();
  } else {
    latent_repairs_.Add();
  }
  if (trace_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.subsystem = obs::Subsystem::kParity;
  event.kind = obs::EventKind::kSectorRepair;
  event.page = page;
  event.group = group;
  event.detail = corruption ? 2 : 1;
  trace_->Record(event);
}

Status TwinParityManager::ReadDataHealed(PageId page, PageImage* out) {
  auto latch = LockGroupOfPage(page);
  // Online rebuild: a fresh replaced medium reads stale zeros SUCCESSFULLY,
  // so the group must be rebuilt before the raw read below can be trusted.
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(array_->layout().GroupOf(page)));
  Status status = array_->ReadData(page, out);
  if (status.ok() || !directory_valid()) {
    return status;
  }
  const DiskId disk = array_->layout().DataLocation(page).disk;
  if (!HealableFault(status, disk)) {
    if (status.IsIoError() && array_->DiskFailed(disk)) {
      // Degraded read: the page's disk is out (failed or escalated, not
      // yet rebuilt), so its content is implicit in the rest of the group.
      // Reconstruct it; no write-back — there is no medium to repair. A
      // reconstruction failure is a second fault: report the original
      // read error, which names the failed disk.
      Result<std::vector<uint8_t>> rebuilt = ReconstructDataPayload(page);
      if (!rebuilt.ok()) {
        return status;
      }
      out->header = PageHeader();
      out->payload = std::move(rebuilt).value();
      return Status::Ok();
    }
    return status;
  }
  array_->RecordSectorError(disk);  // May escalate the disk to Fail().
  Result<std::vector<uint8_t>> rebuilt = ReconstructDataPayload(page);
  if (!rebuilt.ok()) {
    // Second fault in the group: nothing left to XOR from. Report the
    // original read error, not the reconstruction's.
    return status;
  }
  if (crash_before_writeback_.exchange(false, std::memory_order_relaxed)) {
    return Status::Aborted("injected crash before repair write-back");
  }
  out->header = PageHeader();
  out->payload = std::move(rebuilt).value();
  if (!array_->DiskFailed(disk)) {
    // Repair on read: write the page straight back — no parity propagation,
    // because parity already encodes exactly this content. The rewrite
    // clears a latent sector error. If the write-back itself fails, the
    // slot simply stays faulty and the next read heals it again.
    PageImage repaired(0);
    repaired.payload = out->payload;
    if (array_->WriteData(page, std::move(repaired)).ok()) {
      NoteSectorRepair(status, page, array_->layout().GroupOf(page));
    }
  }
  return Status::Ok();
}

Status TwinParityManager::ReadParityHealed(GroupId group, uint32_t twin,
                                           PageImage* out) {
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  Status status = array_->ReadParity(group, twin, out);
  if (status.ok() || !directory_valid()) {
    return status;
  }
  const DiskId disk = array_->layout().ParityLocation(group, twin).disk;
  if (!HealableFault(status, disk)) {
    return status;
  }
  array_->RecordSectorError(disk);
  const GroupState state = directory_.Get(group);
  if (state.dirty && twin == state.valid_twin) {
    // The valid twin of a dirty group is BEFORE-image parity: the data it
    // summarizes has already moved on, so no reconstruction can bring it
    // back. The in-flight unlogged update of dirty_txn is no longer
    // undoable — say so instead of fabricating parity.
    return Status::DataLoss("valid parity twin of dirty group " +
                            std::to_string(group) +
                            " unreadable: parity undo coverage lost");
  }
  PageImage repaired(array_->page_size());
  if (state.dirty || twin == state.valid_twin) {
    // The consistent twin (working twin of a dirty group, valid twin of a
    // clean one) equals XOR of the current data pages — the running
    // invariant of parity-first propagation.
    const Layout& layout = array_->layout();
    ScratchPool::ScratchImage data = scratch_.Acquire();
    for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
      RDA_RETURN_IF_ERROR(array_->ReadData(layout.PageAt(group, i), &*data));
      XorPage(&repaired.payload, data->payload);
    }
    if (state.dirty) {
      repaired.header.parity_state = ParityState::kWorking;
      repaired.header.txn_id = state.dirty_txn;
      repaired.header.dirty_page = state.dirty_page;
    } else {
      repaired.header.parity_state = ParityState::kCommitted;
    }
    repaired.header.timestamp = NextTimestamp();
  } else {
    // Obsolete twin: its content is dead weight; a reset is a full repair.
    repaired.header.parity_state = ParityState::kObsolete;
    repaired.header.timestamp = 0;
  }
  if (crash_before_writeback_.exchange(false, std::memory_order_relaxed)) {
    return Status::Aborted("injected crash before repair write-back");
  }
  *out = repaired;
  if (!array_->DiskFailed(disk)) {
    if (WriteTwin(group, twin, repaired).ok()) {
      NoteSectorRepair(status, kInvalidPageId, group);
    }
  }
  return Status::Ok();
}

Status TwinParityManager::FormatArray() {
  const size_t page_size = array_->page_size();
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    PageImage committed(page_size);  // Parity of an all-zero group is zero.
    committed.header.parity_state = ParityState::kCommitted;
    committed.header.timestamp = NextTimestamp();
    RDA_RETURN_IF_ERROR(WriteTwin(g, 0, committed));
    SyncTwinShadow(g, 0, static_cast<uint8_t>(ParityState::kCommitted));
    if (array_->layout().parity_copies() == 2) {
      PageImage obsolete(page_size);
      obsolete.header.parity_state = ParityState::kObsolete;
      obsolete.header.timestamp = 0;
      RDA_RETURN_IF_ERROR(WriteTwin(g, 1, obsolete));
      SyncTwinShadow(g, 1, static_cast<uint8_t>(ParityState::kObsolete));
    }
    MarkClean(g, 0);
  }
  directory_valid_.store(true, std::memory_order_release);
  return Status::Ok();
}

bool TwinParityManager::LocationHealthy(const PhysicalLocation& loc) const {
  return !array_->DiskFailed(loc.disk);
}

bool TwinParityManager::FullyHealthyForUnlogged(PageId page) const {
  const Layout& layout = array_->layout();
  if (!LocationHealthy(layout.DataLocation(page))) {
    return false;
  }
  const GroupId group = layout.GroupOf(page);
  for (uint32_t t = 0; t < layout.parity_copies(); ++t) {
    if (!LocationHealthy(layout.ParityLocation(group, t))) {
      return false;
    }
  }
  return true;
}

PropagationKind TwinParityManager::Classify(PageId page, TxnId txn) const {
  if (array_->layout().parity_copies() != 2 || txn == kInvalidTxnId ||
      !directory_valid() || !FullyHealthyForUnlogged(page)) {
    return PropagationKind::kPlain;
  }
  const GroupId group = array_->layout().GroupOf(page);
  std::unique_lock<std::recursive_mutex> latch(group_latches_[group]);
  const GroupState& g = directory_.Get(group);
  if (!g.dirty) {
    return PropagationKind::kUnloggedFirst;
  }
  if (g.dirty_page == page && g.dirty_txn == txn) {
    return PropagationKind::kUnloggedRepeat;
  }
  return PropagationKind::kLoggedDirtyGroup;
}

Status TwinParityManager::ReadOldPayload(PageId page,
                                         const std::vector<uint8_t>* hint,
                                         std::vector<uint8_t>* out) {
  if (hint != nullptr) {
    if (hint->size() != array_->page_size()) {
      return Status::InvalidArgument("old payload size mismatch");
    }
    *out = *hint;  // The model's a=3 case: old data available in memory.
    return Status::Ok();
  }
  PageImage old_image;
  Status status = ReadDataHealed(page, &old_image);  // a=4 case.
  if (status.IsIoError()) {
    // Degraded mode: the page's disk is down; its content is implicit in
    // the rest of the group.
    RDA_ASSIGN_OR_RETURN(*out, ReconstructDataPayload(page));
    return Status::Ok();
  }
  RDA_RETURN_IF_ERROR(status);
  *out = std::move(old_image.payload);
  return Status::Ok();
}

Status TwinParityManager::Propagate(PageId page, TxnId txn,
                                    PropagationKind kind,
                                    const std::vector<uint8_t>* old_payload,
                                    const PageImage& new_image) {
  obs::ScopedSpan span(spans_, obs::SpanKind::kParityPropagate,
                       propagate_hist_, static_cast<int64_t>(page));
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  if (new_image.payload.size() != array_->page_size()) {
    return Status::InvalidArgument("page payload size mismatch");
  }
  const GroupId group = array_->layout().GroupOf(page);
  auto latch = LockGroup(group);

  // Online rebuild: a write whose data page sits on the disk under rebuild
  // is promoted — the new image is persisted below anyway, so rebuilding
  // the old content first would be wasted work. The pending bit is cleared
  // up front (the nested healed reads re-enter EnsureGroupRebuilt, which
  // must see the group as handled) and restored by the guard if the
  // propagation fails before the data write lands. Every other pending
  // group is rebuilt on demand before its parity is touched.
  struct PendingGuard {
    std::atomic<uint8_t>* slot = nullptr;
    ~PendingGuard() {
      if (slot != nullptr) {
        slot->store(1, std::memory_order_relaxed);
      }
    }
  } promotion;
  std::vector<uint8_t> old_from_parity;
  if (rebuild_active_.load(std::memory_order_acquire) &&
      rebuild_pending_ != nullptr &&
      rebuild_pending_[group].load(std::memory_order_relaxed) != 0 &&
      !array_->DiskFailed(rebuild_disk_)) {
    if (array_->layout().DataLocation(page).disk == rebuild_disk_) {
      rebuild_pending_[group].store(0, std::memory_order_relaxed);
      promotion.slot = &rebuild_pending_[group];
      if (old_payload == nullptr) {
        // The fresh medium holds stale zeros; the logical old content lives
        // only in parity space. (The reconstruction's raw reads never touch
        // `page` itself — group members sit on distinct disks.)
        RDA_ASSIGN_OR_RETURN(old_from_parity, ReconstructDataPayload(page));
        old_payload = &old_from_parity;
      }
    } else {
      RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
    }
  }
  const GroupState& state = directory_.Get(group);

  // Validate the caller's decision against the Figure 3 rule.
  const bool unlogged = kind == PropagationKind::kUnloggedFirst ||
                        kind == PropagationKind::kUnloggedRepeat;
  if (unlogged) {
    const PropagationKind verdict = Classify(page, txn);
    if (verdict != kind) {
      if (verdict != PropagationKind::kUnloggedFirst &&
          verdict != PropagationKind::kUnloggedRepeat) {
        return Status::FailedPrecondition(
            "unlogged propagation not permitted for page " +
            std::to_string(page));
      }
      // The on-demand rebuild above may have finalized an undo-lost dirty
      // group between the caller's Classify and this call; both unlogged
      // kinds keep full undo coverage, so adopt the fresh verdict.
      kind = verdict;
    }
  } else if (state.dirty && kind == PropagationKind::kPlain) {
    // A plain write into a dirty group (e.g. checkpoint propagation of
    // committed data while another transaction keeps the group dirty) must
    // keep BOTH twins in sync so the dirty page stays undoable.
    kind = PropagationKind::kLoggedDirtyGroup;
  } else if (!state.dirty && kind == PropagationKind::kLoggedDirtyGroup) {
    kind = PropagationKind::kPlain;
  }

  // delta = D_old xor D_new; every affected parity payload absorbs it. Both
  // the delta and the parity read-modify-write below run on pooled scratch
  // buffers, so a steady-state propagation performs no allocations.
  ScratchPool::ScratchImage delta = scratch_.Acquire();
  RDA_RETURN_IF_ERROR(ReadOldPayload(page, old_payload, &delta.payload()));
  XorInto(delta.payload().data(), new_image.payload.data(),
          delta.payload().size());
  array_->AccountXor(1);

  switch (kind) {
    case PropagationKind::kUnloggedFirst: {
      unlogged_first_.Add();
      ScratchPool::ScratchImage parity = scratch_.Acquire();
      RDA_RETURN_IF_ERROR(
          ReadParityHealed(group, state.valid_twin, &*parity));
      XorPage(&parity->payload, delta.payload());
      parity->header.parity_state = ParityState::kWorking;
      parity->header.txn_id = txn;
      parity->header.timestamp = NextTimestamp();
      parity->header.dirty_page = page;
      const uint32_t working = OtherTwin(state.valid_twin);
      RDA_RETURN_IF_ERROR(WriteTwin(group, working, *parity));
      TraceTwinTransition(group, working,
                          static_cast<uint8_t>(ParityState::kWorking), page,
                          txn);
      TraceGroupTransition(group, /*to_dirty=*/true, page, txn);
      directory_.MarkDirty(group, page, txn, working);
      break;
    }
    case PropagationKind::kUnloggedRepeat: {
      unlogged_repeat_.Add();
      ScratchPool::ScratchImage parity = scratch_.Acquire();
      RDA_RETURN_IF_ERROR(
          ReadParityHealed(group, state.working_twin, &*parity));
      XorPage(&parity->payload, delta.payload());
      parity->header.timestamp = NextTimestamp();
      RDA_RETURN_IF_ERROR(
          WriteTwin(group, state.working_twin, *parity));
      // Figure 8 self-loop: the working twin absorbs another update.
      TraceTwinTransition(group, state.working_twin,
                          static_cast<uint8_t>(ParityState::kWorking), page,
                          txn);
      break;
    }
    case PropagationKind::kLoggedDirtyGroup: {
      logged_dirty_group_.Add();
      // XOR the same delta into both twins: P xor P' is unchanged, so the
      // dirty page's parity undo stays exact (paper Section 4.1). In
      // degraded mode a twin on a failed disk is skipped — it goes stale
      // and is recomputed at rebuild time.
      for (const uint32_t twin : {state.valid_twin, state.working_twin}) {
        if (!LocationHealthy(
                array_->layout().ParityLocation(group, twin))) {
          held_working_[group].reset();  // The held twin image goes stale.
          continue;
        }
        ScratchPool::ScratchImage parity = scratch_.Acquire();
        RDA_RETURN_IF_ERROR(ReadParityHealed(group, twin, &*parity));
        XorPage(&parity->payload, delta.payload());
        RDA_RETURN_IF_ERROR(WriteTwin(group, twin, *parity));
      }
      break;
    }
    case PropagationKind::kPlain: {
      plain_.Add();
      if (LocationHealthy(
              array_->layout().ParityLocation(group, state.valid_twin))) {
        ScratchPool::ScratchImage parity = scratch_.Acquire();
        RDA_RETURN_IF_ERROR(
            ReadParityHealed(group, state.valid_twin, &*parity));
        XorPage(&parity->payload, delta.payload());
        RDA_RETURN_IF_ERROR(
            WriteTwin(group, state.valid_twin, *parity));
      }
      break;
    }
  }

  // Parity first, then data: a torn sequence leaves parity "ahead", which
  // recovery repairs; the reverse order could lose undo coverage.
  if (!LocationHealthy(array_->layout().DataLocation(page))) {
    // Degraded write: the data disk is down, but the parity update above
    // already encodes the new content — degraded reads reconstruct it and
    // the rebuild materializes it. Reject only if the parity could not be
    // updated either (that would silently drop the write).
    if (state.dirty ||
        LocationHealthy(
            array_->layout().ParityLocation(group, state.valid_twin))) {
      return Status::Ok();
    }
    return Status::IoError("write not durable: data disk and parity disk "
                           "both unavailable");
  }
  Status write = array_->WriteData(page, new_image);
  if (promotion.slot != nullptr && write.ok()) {
    // The new image is durable on the replaced medium: the group needs no
    // background rebuild. Disarm the guard and account the promotion.
    promotion.slot = nullptr;
    NotePendingCleared(group, /*on_demand=*/false);
  }
  return write;
}

Status TwinParityManager::FinalizeCommit(GroupId group, TxnId txn) {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  const GroupState state = directory_.Get(group);
  if (!state.dirty) {
    return Status::Ok();  // Already finalized (idempotent for recovery).
  }
  if (state.dirty_txn != txn) {
    return Status::FailedPrecondition(
        "group " + std::to_string(group) + " dirty by another transaction");
  }
  if (!LocationHealthy(
          array_->layout().ParityLocation(group, state.working_twin))) {
    // Degraded finalize: the working twin's disk is down. The commit record
    // is already stable (winners are rolled forward by recovery) and the
    // rebuild recomputes the consistent twin from data, so the in-memory
    // transition suffices.
    TraceTwinTransition(group, state.working_twin,
                        static_cast<uint8_t>(ParityState::kCommitted),
                        state.dirty_page, txn);
    TraceTwinTransition(group, state.valid_twin,
                        static_cast<uint8_t>(ParityState::kObsolete),
                        state.dirty_page, txn);
    TraceGroupTransition(group, /*to_dirty=*/false, state.dirty_page, txn);
    MarkClean(group, state.working_twin);
    commits_finalized_.Add();
    return Status::Ok();
  }
  // The working image is still held from the write that produced it, so
  // committing it is a single write. Only the restart roll-forward, whose
  // held images the crash lost, reads the twin back.
  ScratchPool::ScratchImage parity = scratch_.Acquire();
  std::optional<PageImage>& held = held_working_[group];
  if (held.has_value()) {
    std::swap(*parity, *held);
  } else {
    RDA_RETURN_IF_ERROR(
        ReadParityHealed(group, state.working_twin, &*parity));
  }
  parity->header.parity_state = ParityState::kCommitted;
  parity->header.timestamp = NextTimestamp();
  RDA_RETURN_IF_ERROR(WriteTwin(group, state.working_twin, *parity));
  // The freshly committed twin supersedes the old valid twin, which becomes
  // logically obsolete without a write (timestamps disambiguate after a
  // crash).
  TraceTwinTransition(group, state.working_twin,
                      static_cast<uint8_t>(ParityState::kCommitted),
                      state.dirty_page, txn);
  TraceTwinTransition(group, state.valid_twin,
                      static_cast<uint8_t>(ParityState::kObsolete),
                      state.dirty_page, txn);
  TraceGroupTransition(group, /*to_dirty=*/false, state.dirty_page, txn);
  MarkClean(group, state.working_twin);
  commits_finalized_.Add();
  return Status::Ok();
}

Result<ParityUndoResult> TwinParityManager::UndoUnloggedUpdate(GroupId group,
                                                               TxnId txn) {
  obs::ScopedSpan span(spans_, obs::SpanKind::kParityUndo,
                       /*histogram=*/nullptr, static_cast<int64_t>(group));
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  const GroupState state = directory_.Get(group);
  if (!state.dirty || state.dirty_txn != txn) {
    return Status::FailedPrecondition("group " + std::to_string(group) +
                                      " not dirty by transaction " +
                                      std::to_string(txn));
  }
  parity_undos_.Add();

  PageImage data;
  // Decide degraded mode from the disk's health, NOT from the read status:
  // a sector fault on a live disk is healed in place and must take the
  // normal (data-restoring) path, or the stale on-disk page would survive.
  const bool data_disk_down =
      array_->DiskFailed(array_->layout().DataLocation(state.dirty_page).disk);
  if (data_disk_down) {
    // Degraded undo: the covered page's disk is down. Its current content
    // is implicit in the WORKING twin; after invalidating that twin the
    // group's valid parity makes degraded reads return the OLD content —
    // the undo happens entirely in parity space.
    RDA_ASSIGN_OR_RETURN(data.payload,
                         ReconstructDataPayload(state.dirty_page));
  } else {
    RDA_RETURN_IF_ERROR(ReadDataHealed(state.dirty_page, &data));
  }

  ParityUndoResult result;
  result.page = state.dirty_page;
  result.overwritten_meta = LoadDataMeta(data.payload);

  if (data_disk_down) {
    ScratchPool::ScratchImage working = scratch_.Acquire();
    RDA_RETURN_IF_ERROR(
        ReadParityHealed(group, state.working_twin, &*working));
    working->header.parity_state = ParityState::kInvalid;
    working->header.txn_id = kInvalidTxnId;
    working->header.dirty_page = kInvalidPageId;
    RDA_RETURN_IF_ERROR(
        WriteTwin(group, state.working_twin, *working));
    TraceTwinTransition(group, state.working_twin,
                        static_cast<uint8_t>(ParityState::kInvalid),
                        state.dirty_page, txn);
    TraceGroupTransition(group, /*to_dirty=*/false, state.dirty_page, txn);
    MarkClean(group, state.valid_twin);
    RDA_ASSIGN_OR_RETURN(result.restored_payload,
                         ReconstructDataPayload(state.dirty_page));
    result.payload_restored = true;
    return result;
  }

  if (result.overwritten_meta.txn_id == txn) {
    // D_old = (P xor P') xor D_new (paper Figure 6). The embedded metadata
    // (pageLSN, chain link) of the old image comes back byte-exactly.
    ScratchPool::ScratchImage restored = scratch_.Acquire();
    ScratchPool::ScratchImage working = scratch_.Acquire();
    RDA_RETURN_IF_ERROR(
        ReadParityHealed(group, state.valid_twin, &*restored));
    RDA_RETURN_IF_ERROR(
        ReadParityHealed(group, state.working_twin, &*working));
    restored->header = PageHeader();
    XorPage(&restored->payload, working->payload);
    XorPage(&restored->payload, data.payload);
    RDA_RETURN_IF_ERROR(array_->WriteData(state.dirty_page, *restored));
    result.payload_restored = true;
    result.restored_payload = restored.TakePayload();

    working->header.parity_state = ParityState::kInvalid;
    working->header.txn_id = kInvalidTxnId;
    working->header.dirty_page = kInvalidPageId;
    RDA_RETURN_IF_ERROR(
        WriteTwin(group, state.working_twin, *working));
  } else {
    // The data page no longer carries the transaction's stamp: its content
    // was already restored. Two distinct histories lead here and they leave
    // OPPOSITE twins covering the on-disk group:
    //  - a crash interrupted a previous parity undo after its data write —
    //    the VALID twin covers the restored group;
    //  - a logged before-image undo rewrote the dirty page while the group
    //    was dirty (a transaction that first stole with a logged
    //    before-image, then re-stole unlogged in a later epoch) — that
    //    rewrite XORs its delta into BOTH twins, so the WORKING twin covers
    //    the group and the valid twin is stale by (committed xor restored).
    // The stamp alone cannot distinguish them: audit the group's data XOR
    // and refresh the valid twin if it no longer covers the data, or the
    // group would be marked clean around permanently corrupt parity.
    ScratchPool::ScratchImage actual = scratch_.Acquire();
    ScratchPool::ScratchImage member = scratch_.Acquire();
    bool xor_known = true;
    for (uint32_t i = 0; i < array_->layout().data_pages_per_group(); ++i) {
      const PageId member_page = array_->layout().PageAt(group, i);
      if (!LocationHealthy(array_->layout().DataLocation(member_page)) ||
          !ReadDataHealed(member_page, &*member).ok()) {
        xor_known = false;  // Degraded member: nothing to audit against.
        break;
      }
      XorPage(&actual->payload, member->payload);
    }
    if (xor_known) {
      ScratchPool::ScratchImage valid = scratch_.Acquire();
      RDA_RETURN_IF_ERROR(
          ReadParityHealed(group, state.valid_twin, &*valid));
      if (valid->payload != actual->payload) {
        actual->header.parity_state = ParityState::kCommitted;
        actual->header.txn_id = kInvalidTxnId;
        actual->header.dirty_page = kInvalidPageId;
        actual->header.timestamp = NextTimestamp();
        RDA_RETURN_IF_ERROR(
            WriteTwin(group, state.valid_twin, *actual));
        TraceTwinTransition(group, state.valid_twin,
                            static_cast<uint8_t>(ParityState::kCommitted),
                            state.dirty_page, txn);
      }
    }
    ScratchPool::ScratchImage working = scratch_.Acquire();
    RDA_RETURN_IF_ERROR(
        ReadParityHealed(group, state.working_twin, &*working));
    working->header.parity_state = ParityState::kInvalid;
    working->header.txn_id = kInvalidTxnId;
    working->header.dirty_page = kInvalidPageId;
    RDA_RETURN_IF_ERROR(
        WriteTwin(group, state.working_twin, *working));
  }

  TraceTwinTransition(group, state.working_twin,
                      static_cast<uint8_t>(ParityState::kInvalid),
                      state.dirty_page, txn);
  TraceGroupTransition(group, /*to_dirty=*/false, state.dirty_page, txn);
  MarkClean(group, state.valid_twin);
  return result;
}

Status TwinParityManager::ApplyLoggedUndo(PageId page,
                                          const std::vector<uint8_t>& before) {
  obs::ScopedSpan span(spans_, obs::SpanKind::kParityUndo,
                       /*histogram=*/nullptr, static_cast<int64_t>(page));
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  if (before.size() != array_->page_size()) {
    return Status::InvalidArgument("before-image size mismatch");
  }
  auto latch = LockGroupOfPage(page);
  logged_undos_.Add();
  PageImage restored(array_->page_size());
  restored.payload = before;
  // Reuse Propagate's parity maintenance; inside a dirty group both twins
  // absorb the delta, preserving P xor P' for the covered page.
  return Propagate(page, kInvalidTxnId, PropagationKind::kPlain,
                   /*old_payload=*/nullptr, restored);
}

Result<std::vector<uint8_t>> TwinParityManager::ReconstructDataPayload(
    PageId page) {
  ScratchPool::ScratchImage image = scratch_.Acquire();
  RDA_RETURN_IF_ERROR(ReconstructDataPayloadInto(page, &*image));
  // The payload escapes the scratch scope; the pool re-allocates lazily.
  return image.TakePayload();
}

Status TwinParityManager::ReconstructDataPayloadInto(PageId page,
                                                     PageImage* out) {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  const Layout& layout = array_->layout();
  const GroupId group = layout.GroupOf(page);
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  const GroupState& state = directory_.Get(group);
  const uint32_t twin = state.dirty ? state.working_twin : state.valid_twin;
  // Raw (unhealed) reads on purpose: reconstruction is what the healed
  // reads fall back ON. A faulted sibling or parity page here is a second
  // fault in the group — genuinely unrecoverable under single parity, so
  // the typed error must surface instead of recursing.
  RDA_RETURN_IF_ERROR(array_->ReadParity(group, twin, out));
  ScratchPool::ScratchImage data = scratch_.Acquire();
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    const PageId sibling = layout.PageAt(group, i);
    if (sibling == page) {
      continue;
    }
    RDA_RETURN_IF_ERROR(array_->ReadData(sibling, &*data));
    XorPage(&out->payload, data->payload);
  }
  obs::Inc(degraded_reads_counter_);
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kParity;
    event.kind = obs::EventKind::kDegradedRead;
    event.page = page;
    event.group = group;
    trace_->Record(event);
  }
  return Status::Ok();
}

Result<TwinParityManager::GroupRebuildOutcome>
TwinParityManager::RebuildGroupMember(GroupId group, DiskId disk) {
  obs::ScopedSpan span(spans_, obs::SpanKind::kParityRebuild,
                       /*histogram=*/nullptr, static_cast<int64_t>(group));
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  auto latch = LockGroup(group);
  GroupRebuildOutcome outcome;
  const Layout& layout = array_->layout();
  const GroupState state = directory_.Get(group);
  const uint32_t copies = layout.parity_copies();
  const uint32_t consistent_twin =
      state.dirty ? state.working_twin : state.valid_twin;

  // Lost data page?  Reconstructed into a scratch buffer and written back
  // by const reference, so a full-disk rebuild recycles the same pooled
  // pages group after group instead of allocating per group.
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    const PageId page = layout.PageAt(group, i);
    if (layout.DataLocation(page).disk != disk) {
      continue;
    }
    ScratchPool::ScratchImage rebuilt = scratch_.Acquire();
    RDA_RETURN_IF_ERROR(ReconstructDataPayloadInto(page, &*rebuilt));
    // The reconstruction leaves the parity twin's header behind; a data
    // page carries no out-of-band state.
    rebuilt->header = PageHeader{};
    RDA_RETURN_IF_ERROR(array_->WriteData(page, *rebuilt));
    ++outcome.data_rebuilt;
    return outcome;
  }

  // Lost parity twin?
  for (uint32_t t = 0; t < copies; ++t) {
    if (layout.ParityLocation(group, t).disk != disk) {
      continue;
    }
    if (t == consistent_twin) {
      // Recompute the consistent parity from the (surviving) data pages.
      ScratchPool::ScratchImage parity = scratch_.Acquire();
      ScratchPool::ScratchImage data = scratch_.Acquire();
      for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
        RDA_RETURN_IF_ERROR(
            ReadDataHealed(layout.PageAt(group, i), &*data));
        XorPage(&parity->payload, data->payload);
      }
      if (state.dirty) {
        parity->header.parity_state = ParityState::kWorking;
        parity->header.txn_id = state.dirty_txn;
        parity->header.dirty_page = state.dirty_page;
      } else {
        parity->header.parity_state = ParityState::kCommitted;
      }
      parity->header.timestamp = NextTimestamp();
      RDA_RETURN_IF_ERROR(WriteTwin(group, t, *parity));
      SyncTwinShadow(group, t,
                     static_cast<uint8_t>(parity->header.parity_state));
      ++outcome.parity_rebuilt;
      return outcome;
    }
    if (!state.dirty) {
      // Stale obsolete twin: its content is not needed; reset it.
      ScratchPool::ScratchImage obsolete = scratch_.Acquire();
      obsolete->header.parity_state = ParityState::kObsolete;
      RDA_RETURN_IF_ERROR(WriteTwin(group, t, *obsolete));
      SyncTwinShadow(group, t, static_cast<uint8_t>(ParityState::kObsolete));
      ++outcome.obsolete_reset;
      return outcome;
    }
    // Worst case: the OLD (valid) twin of a dirty group is gone — the
    // before-state of the in-flight unlogged update is unrecoverable.
    // Finalize the working twin so the group stays internally consistent
    // and report the affected transaction to the caller.
    outcome.undo_lost = true;
    outcome.lost_txn = state.dirty_txn;
    PageImage working;
    RDA_RETURN_IF_ERROR(
        ReadParityHealed(group, state.working_twin, &working));
    working.header.parity_state = ParityState::kCommitted;
    working.header.timestamp = NextTimestamp();
    RDA_RETURN_IF_ERROR(
        WriteTwin(group, state.working_twin, working));
    PageImage obsolete(array_->page_size());
    obsolete.header.parity_state = ParityState::kObsolete;
    RDA_RETURN_IF_ERROR(WriteTwin(group, t, obsolete));
    TraceTwinTransition(group, state.working_twin,
                        static_cast<uint8_t>(ParityState::kCommitted),
                        state.dirty_page, state.dirty_txn);
    SyncTwinShadow(group, t, static_cast<uint8_t>(ParityState::kObsolete));
    TraceGroupTransition(group, /*to_dirty=*/false, state.dirty_page,
                         state.dirty_txn);
    MarkClean(group, state.working_twin);
    ++outcome.parity_rebuilt;
    return outcome;
  }
  return outcome;  // This group lost nothing.
}

Result<TwinParityManager::OnlineRebuildInfo>
TwinParityManager::BeginOnlineRebuild(DiskId disk) {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  if (rebuild_active_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("an online rebuild is already active");
  }
  if (!array_->DiskFailed(disk)) {
    return Status::FailedPrecondition("disk " + std::to_string(disk) +
                                      " has not failed");
  }
  if (array_->NumFailedDisks() != 1) {
    return Status::FailedPrecondition(
        "online rebuild requires exactly one failed disk");
  }
  const Layout& layout = array_->layout();
  const uint32_t groups = array_->num_groups();
  if (rebuild_pending_ == nullptr) {
    rebuild_pending_ = std::make_unique<std::atomic<uint8_t>[]>(groups);
  }
  OnlineRebuildInfo info;
  for (GroupId g = 0; g < groups; ++g) {
    auto latch = LockGroup(g);
    bool member = false;
    for (uint32_t i = 0; i < layout.data_pages_per_group() && !member; ++i) {
      member = layout.DataLocation(layout.PageAt(g, i)).disk == disk;
    }
    for (uint32_t t = 0; t < layout.parity_copies() && !member; ++t) {
      member = layout.ParityLocation(g, t).disk == disk;
    }
    if (member) {
      const GroupState& state = directory_.Get(g);
      if (state.dirty &&
          layout.ParityLocation(g, state.valid_twin).disk == disk) {
        // The before-image parity of this in-flight unlogged update sits on
        // the dead disk: its undo coverage is lost, exactly as the
        // quiescent rebuild reports. (New dirtiness cannot join this list —
        // after Begin every pending group is rebuilt before it is touched.)
        info.undo_coverage_lost.push_back(state.dirty_txn);
      }
      ++info.groups_total;
    }
    rebuild_pending_[g].store(member ? 1 : 0, std::memory_order_relaxed);
  }
  info.groups_pending = info.groups_total;
  std::sort(info.undo_coverage_lost.begin(), info.undo_coverage_lost.end());
  info.undo_coverage_lost.erase(std::unique(info.undo_coverage_lost.begin(),
                                            info.undo_coverage_lost.end()),
                                info.undo_coverage_lost.end());
  rebuild_disk_ = disk;
  rebuild_groups_total_.store(info.groups_total, std::memory_order_relaxed);
  rebuild_groups_remaining_.store(info.groups_total,
                                  std::memory_order_relaxed);
  rebuild_on_demand_.store(0, std::memory_order_relaxed);
  rebuild_write_promotions_.store(0, std::memory_order_relaxed);
  array_->SetRebuilding(disk, true);
  // Publish the session BEFORE installing the fresh medium: between the two
  // the disk still reads as failed, so EnsureGroupRebuilt stands down and
  // the degraded-mode machinery serves — the zeroed medium is never visible
  // without the hook armed.
  rebuild_active_.store(true, std::memory_order_release);
  Status replaced = array_->ReplaceDisk(disk);
  if (!replaced.ok()) {
    rebuild_active_.store(false, std::memory_order_release);
    array_->SetRebuilding(disk, false);
    rebuild_disk_ = kInvalidDiskId;
    return replaced;
  }
  return info;
}

Result<TwinParityManager::GroupRebuildOutcome>
TwinParityManager::RebuildGroupIfPending(GroupId group, bool* did_work) {
  *did_work = false;
  GroupRebuildOutcome none;
  if (!rebuild_active_.load(std::memory_order_acquire) ||
      rebuild_pending_ == nullptr ||
      rebuild_pending_[group].load(std::memory_order_relaxed) == 0) {
    return none;  // Lock-free skip: someone already handled this group.
  }
  auto latch = LockGroup(group);
  if (rebuild_pending_[group].load(std::memory_order_relaxed) == 0) {
    return none;  // Lost the race under the latch.
  }
  if (array_->DiskFailed(rebuild_disk_)) {
    return Status::IoError("disk " + std::to_string(rebuild_disk_) +
                           " failed during its online rebuild");
  }
  rebuild_pending_[group].store(0, std::memory_order_relaxed);
  Result<GroupRebuildOutcome> outcome = RebuildGroupMember(group,
                                                           rebuild_disk_);
  if (!outcome.ok()) {
    rebuild_pending_[group].store(1, std::memory_order_relaxed);
    return outcome.status();
  }
  rebuild_groups_remaining_.fetch_sub(1, std::memory_order_relaxed);
  *did_work = true;
  return outcome;
}

Status TwinParityManager::EndOnlineRebuild() {
  if (!rebuild_active_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("no online rebuild is active");
  }
  const uint32_t remaining =
      rebuild_groups_remaining_.load(std::memory_order_relaxed);
  if (remaining != 0) {
    return Status::FailedPrecondition(
        std::to_string(remaining) + " groups still pending rebuild of disk " +
        std::to_string(rebuild_disk_));
  }
  const DiskId disk = rebuild_disk_;
  rebuild_active_.store(false, std::memory_order_release);
  rebuild_disk_ = kInvalidDiskId;
  array_->SetRebuilding(disk, false);
  return Status::Ok();
}

bool TwinParityManager::OnlineGroupPending(GroupId group) const {
  return rebuild_active_.load(std::memory_order_acquire) &&
         rebuild_pending_ != nullptr && group < array_->num_groups() &&
         rebuild_pending_[group].load(std::memory_order_relaxed) != 0;
}

Status TwinParityManager::EnsureGroupRebuilt(GroupId group) {
  if (!rebuild_active_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  auto latch = LockGroup(group);
  if (rebuild_pending_ == nullptr ||
      rebuild_pending_[group].load(std::memory_order_relaxed) == 0) {
    return Status::Ok();
  }
  if (array_->DiskFailed(rebuild_disk_)) {
    // Pre-replace window, or the new medium failed again: the group stays
    // pending and the degraded-mode machinery serves the access.
    return Status::Ok();
  }
  // Clear the bit BEFORE rebuilding: the latch is recursive and
  // RebuildGroupMember re-enters the healed readers, which re-enter this
  // hook — the bit is the recursion brake. Restored on failure so the
  // stale zeroed medium is never silently trusted.
  rebuild_pending_[group].store(0, std::memory_order_relaxed);
  Result<GroupRebuildOutcome> outcome = RebuildGroupMember(group,
                                                           rebuild_disk_);
  if (!outcome.ok()) {
    rebuild_pending_[group].store(1, std::memory_order_relaxed);
    return outcome.status();
  }
  NotePendingCleared(group, /*on_demand=*/true);
  return Status::Ok();
}

void TwinParityManager::NotePendingCleared(GroupId group, bool on_demand) {
  rebuild_groups_remaining_.fetch_sub(1, std::memory_order_relaxed);
  if (on_demand) {
    rebuild_on_demand_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(online_on_demand_counter_);
  } else {
    rebuild_write_promotions_.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(online_write_promotions_counter_);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kParity;
    event.kind = obs::EventKind::kOnDemandRebuild;
    event.group = group;
    event.detail = on_demand ? 1 : 2;  // 1 = repair-on-access, 2 = promotion.
    event.value = static_cast<int64_t>(rebuild_disk_);
    trace_->Record(event);
  }
}

Status TwinParityManager::WriteFullGroup(
    GroupId group, const std::vector<std::vector<uint8_t>>& payloads) {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  const Layout& layout = array_->layout();
  if (payloads.size() != layout.data_pages_per_group()) {
    return Status::InvalidArgument("full-stripe write needs every page");
  }
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  const GroupState& state = directory_.Get(group);
  if (state.dirty) {
    return Status::FailedPrecondition(
        "full-stripe write into a dirty group would destroy undo coverage");
  }
  PageImage parity(array_->page_size());
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    if (payloads[i].size() != array_->page_size()) {
      return Status::InvalidArgument("page payload size mismatch");
    }
    XorPage(&parity.payload, payloads[i]);
  }
  // Parity first (consistent with the small-write ordering), then data.
  parity.header.parity_state = ParityState::kCommitted;
  parity.header.timestamp = NextTimestamp();
  RDA_RETURN_IF_ERROR(WriteTwin(group, state.valid_twin, parity));
  SyncTwinShadow(group, state.valid_twin,
                 static_cast<uint8_t>(ParityState::kCommitted));
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    PageImage image(0);
    image.payload = payloads[i];
    RDA_RETURN_IF_ERROR(
        array_->WriteData(layout.PageAt(group, i), std::move(image)));
  }
  return Status::Ok();
}

Status TwinParityManager::ScrubGroup(GroupId group) {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  const GroupState& state = directory_.Get(group);
  if (state.dirty) {
    return Status::FailedPrecondition("cannot scrub a dirty group");
  }
  PageImage parity(array_->page_size());
  const Layout& layout = array_->layout();
  ScratchPool::ScratchImage data = scratch_.Acquire();
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    // Healed reads make the scrub a read-verify pass over the data pages
    // too: a latent or corrupt data sector found here is repaired in place
    // before its content goes into the fresh parity.
    RDA_RETURN_IF_ERROR(ReadDataHealed(layout.PageAt(group, i), &*data));
    XorPage(&parity.payload, data->payload);
  }
  parity.header.parity_state = ParityState::kCommitted;
  parity.header.timestamp = NextTimestamp();
  RDA_RETURN_IF_ERROR(WriteTwin(group, state.valid_twin, parity));
  SyncTwinShadow(group, state.valid_twin,
                 static_cast<uint8_t>(ParityState::kCommitted));
  if (array_->layout().parity_copies() == 2) {
    PageImage obsolete(array_->page_size());
    obsolete.header.parity_state = ParityState::kObsolete;
    RDA_RETURN_IF_ERROR(
        WriteTwin(group, OtherTwin(state.valid_twin), obsolete));
    SyncTwinShadow(group, OtherTwin(state.valid_twin),
                   static_cast<uint8_t>(ParityState::kObsolete));
  }
  return Status::Ok();
}

Result<bool> TwinParityManager::VerifyGroupParity(GroupId group) {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  auto latch = LockGroup(group);
  RDA_RETURN_IF_ERROR(EnsureGroupRebuilt(group));
  const GroupState& state = directory_.Get(group);
  const uint32_t twin = state.dirty ? state.working_twin : state.valid_twin;
  PageImage expected(array_->page_size());
  const Layout& layout = array_->layout();
  ScratchPool::ScratchImage data = scratch_.Acquire();
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    RDA_RETURN_IF_ERROR(ReadDataHealed(layout.PageAt(group, i), &*data));
    XorPage(&expected.payload, data->payload);
  }
  PageImage parity;
  RDA_RETURN_IF_ERROR(ReadParityHealed(group, twin, &parity));
  return expected.payload == parity.payload;
}

Status TwinParityManager::ReinitializeParityFromData(exec::WorkerPool* pool) {
  const Layout& layout = array_->layout();
  // Groups touch disjoint parity slots, directory entries and twin-shadow
  // elements, so the reinitialization fans out group-by-group with no shared
  // mutable state beyond the (thread-safe) scratch pool and disk mutexes.
  RDA_RETURN_IF_ERROR(exec::RunSharded(
      pool, array_->num_groups(), [&](uint64_t index) -> Status {
        const GroupId g = static_cast<GroupId>(index);
        ScratchPool::ScratchImage data = scratch_.Acquire();
        ScratchPool::ScratchImage parity = scratch_.Acquire();
        for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
          RDA_RETURN_IF_ERROR(array_->ReadData(layout.PageAt(g, i), &*data));
          XorPage(&parity->payload, data->payload);
        }
        parity->header.parity_state = ParityState::kCommitted;
        parity->header.timestamp = NextTimestamp();
        RDA_RETURN_IF_ERROR(WriteTwin(g, 0, *parity));
        SyncTwinShadow(g, 0, static_cast<uint8_t>(ParityState::kCommitted));
        if (layout.parity_copies() == 2) {
          // Reuse the data scratch as the zeroed obsolete image.
          std::fill(data->payload.begin(), data->payload.end(), 0);
          data->header = PageHeader{};
          data->header.parity_state = ParityState::kObsolete;
          RDA_RETURN_IF_ERROR(WriteTwin(g, 1, *data));
          SyncTwinShadow(g, 1, static_cast<uint8_t>(ParityState::kObsolete));
        }
        MarkClean(g, 0);
        return Status::Ok();
      }));
  directory_valid_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status TwinParityManager::RecomputeCommittedTwin(GroupId group, uint32_t twin,
                                                 ParityTimestamp floor,
                                                 PageImage* out) {
  const Layout& layout = array_->layout();
  PageImage parity(array_->page_size());
  ScratchPool::ScratchImage data = scratch_.Acquire();
  for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
    // Plain (non-degraded) reads on purpose: reconstructing a missing data
    // page would need exactly the committed parity being recomputed here,
    // so an unreadable member means the group really is lost — propagate
    // the error and let the caller declare data loss.
    RDA_RETURN_IF_ERROR(array_->ReadData(layout.PageAt(group, i), &*data));
    XorPage(&parity.payload, data->payload);
  }
  parity.header.parity_state = ParityState::kCommitted;
  parity.header.timestamp = floor + 1;
  RDA_RETURN_IF_ERROR(WriteTwin(group, twin, parity));
  *out = std::move(parity);
  return Status::Ok();
}

Status TwinParityManager::RebuildDirectory() {
  ParityTimestamp max_seen = 0;
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    PageImage twins[2];
    const uint32_t copies = array_->layout().parity_copies();
    // The directory is not valid yet, so the healed-read machinery (which
    // consults it) cannot run; sector faults are handled inline instead.
    bool faulted[2] = {false, false};
    Status fault_cause[2];
    for (uint32_t t = 0; t < copies; ++t) {
      Status read = array_->ReadParity(g, t, &twins[t]);
      if (!read.ok()) {
        const DiskId disk = array_->layout().ParityLocation(g, t).disk;
        // A twin on a FAILED disk (recovering from a crash mid-rebuild with
        // the half-written medium re-failed) is handled like a faulted
        // sector — select from the survivor — except no error is charged:
        // the disk is already out.
        if (copies == 2 &&
            (HealableFault(read, disk) || array_->DiskFailed(disk))) {
          faulted[t] = true;
          fault_cause[t] = read;
          if (!array_->DiskFailed(disk)) {
            array_->RecordSectorError(disk);
          }
          continue;
        }
        return read;
      }
      max_seen = std::max(max_seen, twins[t].header.timestamp);
      SyncTwinShadow(g, t,
                     static_cast<uint8_t>(twins[t].header.parity_state));
    }
    if (copies == 1) {
      MarkClean(g, 0);
      continue;
    }
    if (faulted[0] && faulted[1]) {
      return Status::Corruption("both parity twins of group " +
                                std::to_string(g) + " unreadable");
    }
    if (faulted[0] || faulted[1]) {
      const uint32_t bad = faulted[0] ? 0 : 1;
      const uint32_t good = 1 - bad;
      if (twins[good].header.parity_state != ParityState::kCommitted) {
        // The survivor is not committed parity, so the unreadable twin held
        // the group's only committed copy. A single-disk failure leaves all
        // of the group's data pages readable (members sit on distinct
        // disks), so committed parity is still derivable: recompute it from
        // data into the surviving slot. Only when a data page is ALSO
        // unreadable (a second fault) is the group genuinely lost.
        const ParityTimestamp floor =
            std::max(max_seen, twins[good].header.timestamp);
        const Status recomputed =
            RecomputeCommittedTwin(g, good, floor, &twins[good]);
        if (!recomputed.ok()) {
          return Status::DataLoss("committed parity twin of group " +
                                  std::to_string(g) + " unreadable (" +
                                  recomputed.ToString() + ")");
        }
        max_seen = std::max(max_seen, twins[good].header.timestamp);
        SyncTwinShadow(g, good,
                       static_cast<uint8_t>(ParityState::kCommitted));
      }
      // The survivor is committed: treat the unreadable twin as obsolete
      // and reset it. If it was in fact a working twin, the in-flight
      // unlogged update it covered can no longer be undone in parity space
      // — log-based undo and the post-recovery scrub restore consistency.
      PageImage obsolete(array_->page_size());
      obsolete.header.parity_state = ParityState::kObsolete;
      if (WriteTwin(g, bad, obsolete).ok()) {
        NoteSectorRepair(fault_cause[bad], kInvalidPageId, g);
      }
      twins[bad] = std::move(obsolete);
      SyncTwinShadow(g, bad, static_cast<uint8_t>(ParityState::kObsolete));
    }
    // Current_Parity (paper Figure 7): the committed twin with the highest
    // timestamp is valid. A WORKING twin marks the group dirty; its header
    // tells which page and transaction it covers.
    uint32_t valid = 0;
    bool have_valid = false;
    for (uint32_t t = 0; t < 2; ++t) {
      const ParityState st = twins[t].header.parity_state;
      if (st != ParityState::kCommitted && st != ParityState::kObsolete) {
        continue;
      }
      if (!have_valid ||
          twins[t].header.timestamp > twins[valid].header.timestamp) {
        valid = t;
        have_valid = true;
      }
    }
    if (!have_valid) {
      return Status::Corruption("group " + std::to_string(g) +
                                " has no committed parity twin");
    }
    MarkClean(g, valid);
    for (uint32_t t = 0; t < 2; ++t) {
      if (twins[t].header.parity_state == ParityState::kWorking) {
        directory_.MarkDirty(g, twins[t].header.dirty_page,
                             twins[t].header.txn_id, t);
      }
    }
  }
  // Seed the timestamp counter from the highest twin-header timestamp seen,
  // never going backwards: handing out an already-used timestamp after a
  // restart would break Current_Parity selection (Figure 7) at the next
  // crash. max() also hardens the warm-restart case where the in-memory
  // counter is already ahead of anything on disk.
  timestamp_.store(
      std::max(timestamp_.load(std::memory_order_relaxed), max_seen),
      std::memory_order_relaxed);
  directory_valid_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status TwinParityManager::CheckInvariants() {
  if (!directory_valid()) {
    return Status::FailedPrecondition("parity directory not available");
  }
  const Layout& layout = array_->layout();
  const uint32_t copies = layout.parity_copies();
  const bool rebuilding = OnlineRebuildActive();
  auto violation = [](GroupId g, const std::string& what) {
    return Status::Corruption("parity invariant violated in group " +
                              std::to_string(g) + ": " + what);
  };
  uint32_t pending_bits = 0;
  const ParityTimestamp counter = timestamp_.load(std::memory_order_relaxed);
  for (GroupId g = 0; g < array_->num_groups(); ++g) {
    auto latch = LockGroup(g);
    if (rebuilding && OnlineGroupPending(g)) {
      // The fresh medium under this group has not been reconstructed yet;
      // its twin headers are legitimately blank. Counted for conservation.
      ++pending_bits;
      continue;
    }
    const GroupState& state = directory_.Get(g);
    PageImage twins[2];
    bool readable[2] = {false, false};
    for (uint32_t t = 0; t < copies; ++t) {
      const DiskId disk = layout.ParityLocation(g, t).disk;
      if (array_->DiskFailed(disk)) {
        continue;  // Nothing to cross-check; degraded mode covers it.
      }
      Status read = array_->ReadParity(g, t, &twins[t]);
      if (!read.ok()) {
        if (HealableFault(read, disk)) {
          continue;  // A latent/corrupt sector, not an inconsistency.
        }
        return read;
      }
      readable[t] = true;
      const PageHeader& h = twins[t].header;
      if (h.timestamp > counter) {
        return violation(g, "twin " + std::to_string(t) + " timestamp " +
                                std::to_string(h.timestamp) +
                                " ahead of the in-memory counter " +
                                std::to_string(counter));
      }
      if (static_cast<uint8_t>(h.parity_state) != twin_shadow_[g][t]) {
        return violation(
            g, "twin " + std::to_string(t) + " on-disk state " +
                   std::to_string(static_cast<int>(h.parity_state)) +
                   " != volatile shadow " +
                   std::to_string(static_cast<int>(twin_shadow_[g][t])));
      }
    }
    if (state.dirty) {
      if (copies < 2) {
        return violation(g, "dirty with a single parity copy");
      }
      if (state.working_twin == state.valid_twin) {
        return violation(g, "working and valid twin coincide");
      }
      if (state.dirty_page == kInvalidPageId ||
          state.dirty_txn == kInvalidTxnId) {
        return violation(g, "dirty without a covered page/transaction");
      }
      if (readable[state.working_twin]) {
        const PageHeader& w = twins[state.working_twin].header;
        if (w.parity_state != ParityState::kWorking) {
          return violation(g, "working twin header not kWorking");
        }
        if (w.dirty_page != state.dirty_page || w.txn_id != state.dirty_txn) {
          return violation(g, "working twin header covers (page " +
                                  std::to_string(w.dirty_page) + ", txn " +
                                  std::to_string(w.txn_id) +
                                  ") but the directory says (page " +
                                  std::to_string(state.dirty_page) +
                                  ", txn " +
                                  std::to_string(state.dirty_txn) + ")");
        }
      }
      if (readable[state.valid_twin] &&
          twins[state.valid_twin].header.parity_state !=
              ParityState::kCommitted) {
        return violation(g, "dirty group's before-image twin not committed");
      }
    } else {
      if (readable[state.valid_twin] &&
          twins[state.valid_twin].header.parity_state !=
              ParityState::kCommitted) {
        return violation(g, "clean group's valid twin not committed");
      }
      if (copies == 2) {
        const uint32_t other = OtherTwin(state.valid_twin);
        if (readable[other]) {
          const PageHeader& o = twins[other].header;
          if (o.parity_state == ParityState::kWorking) {
            return violation(
                g, "directory says clean but a twin header is kWorking");
          }
          // Figure 7: when both twins are committed, the directory must
          // have selected the one with the winning timestamp.
          if (readable[state.valid_twin] &&
              o.parity_state == ParityState::kCommitted &&
              o.timestamp > twins[state.valid_twin].header.timestamp) {
            return violation(g, "valid twin lost Current_Parity selection");
          }
        }
      }
    }
  }
  if (rebuilding) {
    const uint32_t remaining =
        rebuild_groups_remaining_.load(std::memory_order_relaxed);
    const uint32_t total =
        rebuild_groups_total_.load(std::memory_order_relaxed);
    if (pending_bits != remaining || remaining > total ||
        total > array_->num_groups()) {
      return Status::Corruption(
          "online-rebuild bitmap conservation violated: " +
          std::to_string(pending_bits) + " pending bits, counter says " +
          std::to_string(remaining) + "/" + std::to_string(total));
    }
  }
  return Status::Ok();
}

void TwinParityManager::LoseVolatileState() {
  directory_ = DirtySet(array_->num_groups());
  directory_valid_.store(false, std::memory_order_release);
  for (std::optional<PageImage>& held : held_working_) {
    held.reset();
  }
  timestamp_.store(0, std::memory_order_relaxed);
  // The progress bitmap is volatile too: an interrupted online rebuild is
  // detected after restart through the array's persistent rebuilding flag
  // (DiskArray::RebuildingDisks), not through this session state.
  rebuild_active_.store(false, std::memory_order_release);
  rebuild_disk_ = kInvalidDiskId;
  rebuild_groups_total_.store(0, std::memory_order_relaxed);
  rebuild_groups_remaining_.store(0, std::memory_order_relaxed);
}

}  // namespace rda
