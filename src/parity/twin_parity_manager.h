#ifndef RDA_PARITY_TWIN_PARITY_MANAGER_H_
#define RDA_PARITY_TWIN_PARITY_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "exec/worker_pool.h"
#include "obs/obs.h"
#include "parity/dirty_set.h"
#include "storage/data_page_meta.h"
#include "storage/disk_array.h"
#include "storage/scratch_pool.h"

namespace rda {

// How a write of a data page must be propagated to the array — the outcome
// of the paper's Figure 3 decision rule plus the "no active transaction"
// case.
enum class PropagationKind {
  // Group is clean and the writer is an active transaction: the update may
  // be propagated WITHOUT an UNDO before-image; the group becomes dirty and
  // the obsolete twin receives the new (working) parity.
  kUnloggedFirst,
  // Group is dirty by the same (page, transaction): the page was stolen,
  // re-referenced, modified and stolen again before EOT. Still no UNDO
  // logging; the working twin is updated in place (the other twin keeps the
  // pre-transaction parity, so P xor P' still equals D_old xor D_new).
  kUnloggedRepeat,
  // Group is dirty by a different page or transaction: the caller MUST have
  // logged a before-image first. Both twins are XOR-updated so the undo
  // invariant of the dirty page is preserved (paper Section 4.1: "both P
  // and P' need to be updated").
  kLoggedDirtyGroup,
  // Plain redundant-array small write, no undo coverage needed: committed
  // data propagation, REDO during recovery, or RDA recovery disabled. The
  // valid twin is XOR-updated in place.
  kPlain,
};

// Outcome of a parity-based undo (UndoUnloggedUpdate).
struct ParityUndoResult {
  // The data page that was (or had already been) restored.
  PageId page = kInvalidPageId;
  // False when the undo had already happened (idempotent re-run after a
  // crash during a previous undo) and only the twin invalidation was redone.
  bool payload_restored = false;
  // The restored on-disk payload; set iff payload_restored. Callers use it
  // to repair buffer-frame snapshots without an extra read.
  std::vector<uint8_t> restored_payload;
  // Embedded metadata of the OVERWRITTEN (undone) image — its chain_prev
  // link lets recovery walk the TWIST chain.
  DataPageMeta overwritten_meta;
};

// Statistics of interest to the evaluation (counts of decision outcomes).
struct ParityStats {
  uint64_t unlogged_first = 0;
  uint64_t unlogged_repeat = 0;
  uint64_t logged_dirty_group = 0;
  uint64_t plain = 0;
  uint64_t parity_undos = 0;
  uint64_t logged_undos = 0;
  uint64_t commits_finalized = 0;  // Groups finalized at EOT.
  // Repair-on-read outcomes (DESIGN.md section 10): sticky kIoError sectors
  // healed by reconstruct + rewrite, and checksum-mismatch pages rebuilt.
  uint64_t latent_repairs = 0;
  uint64_t corruption_repairs = 0;
};

// The twin-page parity manager: owns the parity semantics of the array —
// XOR maintenance on every data write, the group state machine (Figure 3),
// the parity-page state machine (Figure 8), Current_Parity selection after
// a crash (Figure 7), parity-based UNDO (Figure 6: D_old = (P xor P') xor
// D_new) and parity recomputation ("scrub") utilities used by tests and
// media recovery.
//
// Atomicity model: one call (e.g. Propagate) performs up to ~5 page I/Os;
// the simulator treats a call as crash-atomic. Crash injection happens
// between calls — the windows the paper's protocol actually has to handle
// (between propagation and EOT, between EOT and twin finalization, during
// multi-group abort/commit). Real controllers close the intra-operation
// window with NVRAM write journaling; see DESIGN.md.
//
// Concurrency model (DESIGN.md section 11): a latch table with one
// RECURSIVE mutex per parity group serializes all group-state machinery —
// directory entry, twin shadow, twin pages — for that group; operations on
// different groups run in parallel. The latch is recursive because the
// manager's operations nest (Propagate reads old payloads via
// ReadDataHealed; ApplyLoggedUndo reuses Propagate), and it is exposed via
// LockGroup() so the transaction layer can pin a Classify verdict across
// the subsequent log write and Propagate call. Whole-array operations
// (FormatArray, RebuildDirectory, ReinitializeParityFromData,
// LoseVolatileState) and DirtySet scans assume a quiesced system — they are
// recovery/startup paths, never concurrent with transaction traffic.
class TwinParityManager {
 public:
  // `array` must outlive the manager and have parity_copies() == 2 for the
  // twin scheme (1 is allowed; then only kPlain propagation is legal and
  // Classify never returns an unlogged kind — used by ablation benches).
  explicit TwinParityManager(DiskArray* array);

  TwinParityManager(const TwinParityManager&) = delete;
  TwinParityManager& operator=(const TwinParityManager&) = delete;

  // Formats the array: zeroed data, twin 0 = committed parity of the zeroed
  // group, twin 1 obsolete. Resets the directory.
  Status FormatArray();

  // Acquires the latch of one parity group (or of the group owning `page`).
  // Blocks until available; a failed try-lock is counted as a latch wait
  // (`parity.latch_waits`). The latch is recursive, so a caller holding it
  // may invoke any group-scoped method of this manager on the same group.
  std::unique_lock<std::recursive_mutex> LockGroup(GroupId group);
  std::unique_lock<std::recursive_mutex> LockGroupOfPage(PageId page);

  // Decides how a steal of `page` by active transaction `txn` must be
  // handled. Never performs I/O. With parity_copies()==1, txn==kInvalid, or
  // a failed disk under the page or either twin (degraded mode: undo
  // coverage cannot be guaranteed), returns kPlain (caller must log if the
  // data is uncommitted).
  PropagationKind Classify(PageId page, TxnId txn) const;

  // Full-stripe write (paper Section 3.1's "large accesses"): replaces
  // every data page of a CLEAN group and installs freshly computed
  // committed parity — N+1 page writes, no reads, versus N read-modify-
  // write cycles. For committed data only (bulk load); payloads must embed
  // their DataPageMeta already.
  Status WriteFullGroup(GroupId group,
                        const std::vector<std::vector<uint8_t>>& payloads);

  // Propagates a data page to the array with parity maintenance per `kind`.
  // Data-page metadata (txn stamp, pageLSN, chain link) is embedded in
  // new_image.payload by the caller (storage/data_page_meta.h).
  // `old_payload` is the current on-disk payload if the caller has it
  // buffered (saves the a=4 vs a=3 read of the model); pass nullptr to let
  // the manager read it. Kind must match Classify's verdict for active
  // transactions (checked; returns kFailedPrecondition otherwise).
  Status Propagate(PageId page, TxnId txn, PropagationKind kind,
                   const std::vector<uint8_t>* old_payload,
                   const PageImage& new_image);

  // EOT finalization for one group dirtied by `txn`: the working twin is
  // committed (header state -> kCommitted, fresh timestamp) and becomes the
  // valid twin; the group becomes clean. One parity-page write, with no
  // read: the manager still holds the working image it last wrote (see
  // WriteTwin). Only the restart roll-forward, whose held images the crash
  // lost, reads the twin back first. Idempotent: finalizing a clean group
  // whose valid twin already committed is a no-op.
  Status FinalizeCommit(GroupId group, TxnId txn);

  // Parity-based UNDO of the unlogged update covering `group` (must be
  // dirty by `txn`): restores D_old = P_valid xor P_working xor D_current
  // (paper Figure 6) — including the embedded DataPageMeta, so pageLSN and
  // chain links come back exactly — invalidates the working twin and cleans
  // the group. Idempotent: if the data page no longer carries txn's stamp,
  // only the twin invalidation is (re)applied.
  Result<ParityUndoResult> UndoUnloggedUpdate(GroupId group, TxnId txn);

  // Log-based UNDO: restores the full `before` payload (embedded metadata
  // included) into `page` with parity maintenance (both twins if the group
  // is dirty, else the valid twin).
  Status ApplyLoggedUndo(PageId page, const std::vector<uint8_t>& before);

  // Outcome of rebuilding one group's member lost to a disk failure.
  struct GroupRebuildOutcome {
    uint32_t data_rebuilt = 0;
    uint32_t parity_rebuilt = 0;
    uint32_t obsolete_reset = 0;
    // Set when the lost page was the OLD (valid) twin of a dirty group: the
    // in-flight unlogged update of `lost_txn` can no longer be undone. The
    // working twin is finalized so the group stays consistent.
    bool undo_lost = false;
    TxnId lost_txn = kInvalidTxnId;
  };

  // Rebuilds the (at most one — group members sit on distinct disks) page
  // of `group` that lived on `disk`, which must already have been replaced
  // with a fresh medium. Data pages come back as XOR(siblings, consistent
  // twin); a lost consistent twin is recomputed from data; a lost obsolete
  // twin is reset.
  Result<GroupRebuildOutcome> RebuildGroupMember(GroupId group, DiskId disk);

  // --- online rebuild session (DESIGN.md section 14) ---
  //
  // An online rebuild replaces the quiescent RebuildDisk stop-the-world
  // window with a per-group "pending" bitmap: BeginOnlineRebuild installs
  // the fresh medium and marks every group with a member on the disk as
  // pending; from then on EVERY group-scoped entry point first ensures the
  // group is rebuilt (on-demand reconstruct-and-persist under the group
  // latch), so foreground traffic never observes the zeroed medium while
  // the background sweep drains the bitmap group by group.

  // Snapshot returned by BeginOnlineRebuild.
  struct OnlineRebuildInfo {
    uint32_t groups_total = 0;    // Groups with a member on the disk.
    uint32_t groups_pending = 0;  // == groups_total at Begin time.
    // Dirty groups whose valid (before-image) twin lived on the disk: their
    // in-flight unlogged updates lose undo coverage, exactly like the
    // quiescent rebuild reports.
    std::vector<TxnId> undo_coverage_lost;
  };

  // Starts an online rebuild of `disk` (must be the only failed disk):
  // builds the pending bitmap, replaces the disk, flags it as rebuilding on
  // the array and activates the on-demand hook. Foreground traffic may run
  // concurrently from the moment this returns.
  Result<OnlineRebuildInfo> BeginOnlineRebuild(DiskId disk);

  // Rebuilds `group` if it is still pending (the background sweep's unit of
  // work). *did_work is set false when another path (on-demand repair, a
  // foreground write promotion, a racing sweeper) got there first — then
  // the returned outcome is empty. Safe to call concurrently with traffic.
  Result<GroupRebuildOutcome> RebuildGroupIfPending(GroupId group,
                                                    bool* did_work);

  // Ends the session. Fails with kFailedPrecondition while groups are still
  // pending; on success clears the array's rebuilding flag.
  Status EndOnlineRebuild();

  bool OnlineRebuildActive() const {
    return rebuild_active_.load(std::memory_order_acquire);
  }
  DiskId online_rebuild_disk() const { return rebuild_disk_; }
  uint32_t OnlineRebuildGroupsTotal() const {
    return rebuild_groups_total_.load(std::memory_order_relaxed);
  }
  uint32_t OnlineRebuildGroupsRemaining() const {
    return rebuild_groups_remaining_.load(std::memory_order_relaxed);
  }
  // Lock-free peek (the sweep uses it to skip already-rebuilt groups
  // without taking the latch); the authoritative check under the latch
  // happens inside RebuildGroupIfPending.
  bool OnlineGroupPending(GroupId group) const;
  // Session counters (reset at Begin, retained after End for inspection).
  uint64_t OnlineOnDemandRepairs() const {
    return rebuild_on_demand_.load(std::memory_order_relaxed);
  }
  uint64_t OnlineWritePromotions() const {
    return rebuild_write_promotions_.load(std::memory_order_relaxed);
  }

  // Degraded-mode read: reconstructs (without writing) the payload of
  // `page` — whose disk may have failed — by XORing the other data pages of
  // its group with the parity twin that is consistent with on-disk data
  // (the working twin of a dirty group, else the valid twin).
  Result<std::vector<uint8_t>> ReconstructDataPayload(PageId page);

  // Allocation-free variant: reconstructs into `*out` (typically a
  // ScratchPool image — its page-sized buffer is reused by the parity read
  // and the XOR accumulation). The media-rebuild path loops this over every
  // lost page, so per-group buffer churn matters there.
  Status ReconstructDataPayloadInto(PageId page, PageImage* out);

  // Self-healing data read: like array()->ReadData, but a persistent
  // sector-level fault (kIoError surviving the retry policy, or a checksum
  // kCorruption) on a LIVE disk is served by group reconstruction and
  // repaired in place — the rebuilt page is written straight back (no
  // parity propagation: parity already encodes this content), which clears
  // a latent sector error. The fault is charged to the disk's error
  // budget. A page on a FAILED disk is served degraded — reconstructed
  // from the group with no write-back and no error charged — so callers
  // (recovery included) read through single-disk failures transparently.
  // An unreconstructable page (second fault in the group) returns the
  // original read error.
  Status ReadDataHealed(PageId page, PageImage* out);

  // Self-healing parity read. What "healing" means depends on the twin's
  // role: the consistent twin (working twin of a dirty group, valid twin
  // of a clean one) is recomputed from the group's data pages; an obsolete
  // twin is reset. The valid twin of a DIRTY group is before-image parity
  // that exists nowhere else — losing it loses the undo coverage of the
  // in-flight unlogged update, reported honestly as kDataLoss.
  Status ReadParityHealed(GroupId group, uint32_t twin, PageImage* out);

  // Test hook: the next sector repair aborts between reconstruction and
  // write-back (returns kAborted) — the crash window crash_point_test
  // probes. One-shot; self-disarms when it fires.
  void InjectCrashBeforeNextRepairWriteBack() {
    crash_before_writeback_.store(true, std::memory_order_relaxed);
  }

  // Recomputes the parity of `group` from its data pages and installs it as
  // the committed parity in the current valid twin slot (other twin becomes
  // obsolete). Used by tests, media recovery and post-crash scrubbing.
  // Precondition: group must be clean.
  Status ScrubGroup(GroupId group);

  // Reads all data pages and the valid parity of `group` and reports whether
  // XOR(data) == parity. I/O-counted like any other access.
  Result<bool> VerifyGroupParity(GroupId group);

  // Recomputes every group's parity from the on-disk data pages, installs
  // it as committed parity in twin 0 (twin 1 reset to obsolete) and resets
  // the directory to all-clean. Used by catastrophic (archive) restore,
  // where the parity pages themselves are untrustworthy. Groups are
  // independent (distinct directory/shadow slots, distinct pages), so with
  // a pool they fan out in contiguous bands; null keeps the serial loop.
  Status ReinitializeParityFromData(exec::WorkerPool* pool = nullptr);

  // Deep structural self-check of the twin/parity machinery, used by the
  // fuzzer's invariant oracle (and available to tests). For every group it
  // cross-checks the on-disk twin headers against the volatile directory
  // and the twin-state shadow: a clean group's valid twin must be committed
  // with the winning (Figure 7) timestamp and its sibling must not be
  // working; a dirty group's working twin header must name exactly the
  // (dirty_page, dirty_txn) the directory caches over a committed valid
  // twin; no header timestamp may exceed the in-memory counter. It also
  // checks online-rebuild bitmap conservation (set bits ==
  // groups_remaining <= groups_total). Twins on failed disks, groups still
  // pending in an active rebuild session, and sector-faulted twin reads are
  // skipped (they are healable, not inconsistent). Read-only — never
  // repairs. Caller must be quiesced; returns the first violation found as
  // kCorruption (kFailedPrecondition if the directory is invalid).
  Status CheckInvariants();

  // Rebuilds the volatile directory after a crash by reading both twin
  // headers of every group (the S/N-term of the paper's c'_s): valid twin =
  // committed twin with the highest timestamp; a working twin marks the
  // group dirty by (header.dirty_page, header.txn_id). Also restores the
  // timestamp counter.
  Status RebuildDirectory();

  // Drops all volatile state (simulates the crash itself). The directory
  // becomes unusable until RebuildDirectory().
  void LoseVolatileState();

  const DirtySet& directory() const { return directory_; }
  DiskArray* array() { return array_; }
  // Snapshot by value: counters are bumped under per-group latches, so a
  // reference would race with concurrent propagations. The counters count
  // with or without an attached registry.
  ParityStats stats() const;
  void ResetStats();

  // Hooks the manager into the observability hub: `parity.*` counters plus
  // the Figure 3 (kGroupTransition) and Figure 8 (kTwinTransition) trace
  // events at every state change. Null detaches.
  void AttachObs(obs::ObsHub* hub);

 private:
  uint32_t OtherTwin(uint32_t twin) const { return 1 - twin; }
  bool LocationHealthy(const PhysicalLocation& loc) const;
  // Data disk and both twin disks of `page`'s group are functional, so an
  // unlogged steal retains full undo + media coverage.
  bool FullyHealthyForUnlogged(PageId page) const;
  ParityTimestamp NextTimestamp() {
    return timestamp_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  bool directory_valid() const {
    return directory_valid_.load(std::memory_order_acquire);
  }

  Status ReadOldPayload(PageId page, const std::vector<uint8_t>* hint,
                        std::vector<uint8_t>* out);

  // Every parity-page write of the manager goes through here. A write in
  // state kWorking becomes the group's held working image: the exact bytes
  // now on that twin, which FinalizeCommit commits without reading them
  // back. Any other write to the group drops the held image, and so does
  // a failed write. Caller holds the group latch (or runs quiesced).
  Status WriteTwin(GroupId group, uint32_t twin, const PageImage& image);
  // Marks `group` clean with `valid_twin` valid and drops its held working
  // image: a held image exists only while its group is dirty.
  void MarkClean(GroupId group, uint32_t valid_twin);

  // On-demand arm of the online rebuild: if a session is active and `group`
  // is still pending, rebuilds it under the group latch before the caller
  // touches any of its pages. Clears the pending bit BEFORE rebuilding (the
  // latch is recursive and RebuildGroupMember re-enters the healed readers,
  // which re-enter this hook); restores it if the rebuild fails. No-op when
  // the rebuilding disk is (still or again) failed — the degraded-mode
  // machinery serves then.
  Status EnsureGroupRebuilt(GroupId group);
  // Shared by EnsureGroupRebuilt and the foreground write promotion: marks
  // `group` no longer pending. Caller holds the group latch and has
  // verified the bit was set. `on_demand` picks which session counter and
  // trace event to emit.
  void NotePendingCleared(GroupId group, bool on_demand);

  // Directory-rebuild fallback for a group whose only committed twin is
  // unreadable: recompute committed parity as the XOR of the group's data
  // pages and install it in twin slot `twin` (which must be on a live
  // disk). Sound because group members live on distinct disks, so a
  // single-disk failure leaves every data page of the group readable; if
  // any data read fails anyway (second fault), the caller's data-loss
  // verdict stands. `floor` is a timestamp the new twin must exceed so
  // Current_Parity selection picks it over the stale survivor.
  Status RecomputeCommittedTwin(GroupId group, uint32_t twin,
                                ParityTimestamp floor, PageImage* out);

  // True when `status` is the class of error repair-on-read can heal: a
  // persistent sector fault on a disk that is still alive.
  bool HealableFault(const Status& status, DiskId disk) const;
  // Accounting + kSectorRepair trace event for one completed repair;
  // `cause` picks latent (kIoError) vs corruption (checksum) counters.
  void NoteSectorRepair(const Status& cause, PageId page, GroupId group);

  // XOR of one page-sized payload into another, accounted as one XOR
  // computation on the array.
  void XorPage(std::vector<uint8_t>* dst, const std::vector<uint8_t>& src);

  // Silently records twin `state` (ParityState numeric value) in the
  // volatile shadow — used when (re)initializing, not for transitions.
  void SyncTwinShadow(GroupId group, uint32_t twin, uint8_t state);

  // Records a Figure 8 twin transition: emits a kTwinTransition event with
  // the accurate from-state (kept in the volatile shadow, so obsolete ->
  // working and invalid -> working are distinguishable without extra I/O)
  // and updates the shadow.
  void TraceTwinTransition(GroupId group, uint32_t twin, uint8_t to_state,
                           PageId page, TxnId txn);

  // Records a Figure 3 group transition (CLEAN <-> DIRTY).
  void TraceGroupTransition(GroupId group, bool to_dirty, PageId page,
                            TxnId txn);

  DiskArray* array_;
  DirtySet directory_;
  std::atomic<ParityTimestamp> timestamp_{0};
  std::atomic<bool> directory_valid_{false};
  std::atomic<bool> crash_before_writeback_{false};

  // The counters behind stats(), exported as `parity.<field>`. Bumped
  // under different group latches; each is one atomic.
  obs::StatCounter unlogged_first_;
  obs::StatCounter unlogged_repeat_;
  obs::StatCounter logged_dirty_group_;
  obs::StatCounter plain_;
  obs::StatCounter parity_undos_;
  obs::StatCounter logged_undos_;
  obs::StatCounter commits_finalized_;
  obs::StatCounter latent_repairs_;
  obs::StatCounter corruption_repairs_;

  // One recursive latch per parity group (see the class comment). The array
  // is sized at construction and never reallocated, so indexing is safe
  // without a global lock.
  std::unique_ptr<std::recursive_mutex[]> group_latches_;

  // Page-sized transient buffers for propagation, undo, reconstruction and
  // rebuild — steady-state parity maintenance allocates nothing (see
  // DESIGN.md section 9 for the ownership rules).
  ScratchPool scratch_;

  // Volatile per-group twin-state shadow (ParityState numeric values),
  // maintained whether or not observability is attached.
  std::vector<std::array<uint8_t, 2>> twin_shadow_;

  // The last image WriteTwin wrote in state kWorking, per dirty group: the
  // working twin's bytes. Each entry is touched only under its group's
  // latch.
  std::vector<std::optional<PageImage>> held_working_;

  // Online-rebuild session state. The bitmap entries are atomic so the
  // background sweep can peek without latches (TSan-clean); every logical
  // transition — pending set at Begin, cleared by rebuild/promotion —
  // happens under the owning group's latch. rebuild_active_ is published
  // with release order after the bitmap and disk id are in place.
  std::atomic<bool> rebuild_active_{false};
  DiskId rebuild_disk_ = kInvalidDiskId;
  std::unique_ptr<std::atomic<uint8_t>[]> rebuild_pending_;
  std::atomic<uint32_t> rebuild_groups_total_{0};
  std::atomic<uint32_t> rebuild_groups_remaining_{0};
  std::atomic<uint64_t> rebuild_on_demand_{0};
  std::atomic<uint64_t> rebuild_write_promotions_{0};

  // Observability (null = disabled).
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* degraded_reads_counter_ = nullptr;
  obs::Counter* latch_waits_counter_ = nullptr;
  obs::Counter* online_on_demand_counter_ = nullptr;
  obs::Counter* online_write_promotions_counter_ = nullptr;
  // Latency spans (propagate/undo/rebuild) and the propagate-latency
  // histogram feeding the percentile reports.
  obs::SpanCollector* spans_ = nullptr;
  obs::Histogram* propagate_hist_ = nullptr;
};

}  // namespace rda

#endif  // RDA_PARITY_TWIN_PARITY_MANAGER_H_
