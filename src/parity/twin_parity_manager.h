#ifndef RDA_PARITY_TWIN_PARITY_MANAGER_H_
#define RDA_PARITY_TWIN_PARITY_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
  // kCommitted stamps written by StampPendingTwins (log truncation).
  uint64_t deferred_stamps = 0;
  // Repair-on-read outcomes (DESIGN.md section 10): sticky kIoError sectors
  // healed by reconstruct + rewrite, and checksum-mismatch pages rebuilt.
  uint64_t latent_repairs = 0;
  uint64_t corruption_repairs = 0;
};

// The twin-page parity manager: owns the parity semantics of the array —
// XOR maintenance on every data write, the group state machine (Figure 3),
// the parity-page state machine (Figure 8), Current_Parity selection after
// a crash (Figure 7), parity-based UNDO (Figure 6: D_old = (P xor P') xor
// D_new), degraded reads, repair on read, and the online media rebuild.
// Every path that needs a group's parity as the XOR of its data pages —
// twin repair, media rebuild, scrub, verification, the valid-twin audit of
// a parity undo, directory rebuild and archive restore — goes through one
// recompute (XorGroupData) and one twin install (InstallTwin).
//
// Atomicity model: one call (e.g. Propagate) performs up to ~5 page I/Os;
// the simulator treats a call as crash-atomic. Crash injection happens
// between calls — the windows the paper's protocol actually has to handle
// (between propagation and EOT, between EOT and a twin's kCommitted stamp,
// during multi-group abort/commit). Real controllers close the
// intra-operation window with NVRAM write journaling; see DESIGN.md.
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

  // EOT finalization for one group dirtied by `txn`, called once the
  // commit record is durable: the working twin becomes the valid twin and
  // the group becomes clean. No I/O — the twin's on-disk header stays
  // kWorking(txn) and the commit record vouches for it (Current_Parity in
  // RebuildDirectory) until a stamp point writes kCommitted onto it: its
  // next write, or StampPendingTwins before a log truncation. Idempotent:
  // finalizing a clean group is a no-op.
  Status FinalizeCommit(GroupId group, TxnId txn);

  // Writes kCommitted (timestamp kept) onto every valid twin whose header
  // still says kWorking, so that no clean group depends on a commit record
  // any more. Must run before the log drops commit records
  // (LogManager::Truncate). A twin on a failed disk is skipped: its rebuild
  // writes it kCommitted. Caller must be quiesced.
  Status StampPendingTwins();

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
  // twin); a lost consistent twin is recomputed from data (a faulted data
  // page then loses the group: kDataLoss, the fault charged to its disk); a
  // lost obsolete twin is reset.
  Result<GroupRebuildOutcome> RebuildGroupMember(GroupId group, DiskId disk);

  // --- online rebuild session (DESIGN.md section 14) ---
  //
  // Every media rebuild runs as a session with a per-group "pending"
  // bitmap instead of a stop-the-world window: BeginOnlineRebuild installs
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
    // in-flight unlogged updates lose undo coverage.
    std::vector<TxnId> undo_coverage_lost;
    // A session of `disk` was already active (a concurrent Begin won, or an
    // earlier sweep was cancelled): nothing was begun, the other fields are
    // empty, and the caller sweeps that session.
    bool resumed = false;
  };

  // Starts an online rebuild of `disk` (must be the only failed disk):
  // builds the pending bitmap, replaces the disk, flags it as rebuilding on
  // the array and activates the on-demand hook. Foreground traffic may run
  // concurrently from the moment this returns. Calls are serialized; one
  // that finds a session of the same disk active returns it as `resumed`,
  // and one that finds another disk's session fails.
  Result<OnlineRebuildInfo> BeginOnlineRebuild(DiskId disk);

  // Rebuilds `group` if it is still pending (the background sweep's unit of
  // work). *did_work is set false when another path (on-demand repair, a
  // foreground write promotion, a racing sweeper) got there first — then
  // the returned outcome is empty. Safe to call concurrently with traffic.
  Result<GroupRebuildOutcome> RebuildGroupIfPending(GroupId group,
                                                    bool* did_work);

  // Ends the session and clears the array's rebuilding flag. Fails with
  // kFailedPrecondition while groups are still pending. When two sweeps of
  // one session both drain it, exactly one ends it; for the other (and
  // whenever no session is active) this is a no-op returning Ok.
  Status EndOnlineRebuild();

  bool OnlineRebuildActive() const {
    return rebuild_active_.load(std::memory_order_acquire);
  }
  // The disk of the current (or, after End, the last) session.
  DiskId online_rebuild_disk() const {
    return rebuild_disk_.load(std::memory_order_relaxed);
  }
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
  // Counts of the current (or, after End, the last) session: the
  // parity.online_* counters less their value at Begin.
  uint64_t OnlineOnDemandRepairs() const {
    return online_on_demand_.value() -
           on_demand_base_.load(std::memory_order_relaxed);
  }
  uint64_t OnlineWritePromotions() const {
    return online_write_promotions_.value() -
           write_promotions_base_.load(std::memory_order_relaxed);
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
  // obsolete). Used by the background parity scrubber (ParityScrubber) and
  // tests. Precondition: group must be clean.
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
  // cross-checks the on-disk twin headers against the volatile directory and
  // the twin-state shadow, which holds the logical Figure 8 state: a logically
  // committed twin reads kCommitted, or kWorking on the valid twin of a group
  // with a pending stamp; a logically obsolete twin reads kObsolete,
  // kCommitted, kInvalid or kWorking; a working or invalid twin reads exactly
  // that (DESIGN.md section 4.3). The valid twin must win the Figure 7
  // selection against its sibling; a dirty group's working twin header must
  // name exactly the (dirty_page, dirty_txn) the directory caches and outrank
  // the valid twin; no header timestamp may exceed the in-memory counter. It
  // also checks online-rebuild bitmap conservation (set bits ==
  // groups_remaining <= groups_total). Twins on failed disks, groups still
  // pending in an active rebuild session, and sector-faulted twin reads are
  // skipped (they are healable, not inconsistent). Read-only — never repairs.
  // Caller must be quiesced; returns the first violation found as kCorruption
  // (kFailedPrecondition if the directory is invalid).
  Status CheckInvariants();

  // Rebuilds the volatile directory after a crash by reading both twin
  // headers of every group (the S/N-term of the paper's c'_s). Current_Parity
  // (paper Figure 7): among the kCommitted, kObsolete and kWorking twins,
  // the one with the highest timestamp decides. A deciding kWorking twin
  // marks the group dirty by (header.dirty_page, header.txn_id) over the
  // other twin; the log then decides — a winner's group is finalized by
  // the restart roll-forward, a loser's is parity-undone. An older kWorking
  // twin was superseded and is ignored. Also restores the timestamp
  // counter. A group with an unreadable twin gets committed parity
  // recomputed from its data pages (unless a disk is down and a committed
  // twin survives).
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

  // Every parity-page write of the manager goes through here. A kCommitted
  // write of the valid twin clears the group's pending stamp. Caller holds
  // the group latch (or runs quiesced).
  Status WriteTwin(GroupId group, uint32_t twin, const PageImage& image);

  // On-demand arm of the online rebuild: if a session is active and `group`
  // is still pending, rebuilds it before the caller touches any of its
  // pages. The caller holds the group latch, so the bit it reads cannot
  // change under it. No-op when the rebuilding disk is (still or again)
  // failed — the degraded-mode machinery serves then.
  Status EnsureGroupRebuilt(GroupId group);
  // The claim on a pending group, shared by EnsureGroupRebuilt and the
  // background sweep: clears the bit BEFORE rebuilding (the latch is
  // recursive and RebuildGroupMember re-enters the healed readers, which
  // re-enter EnsureGroupRebuilt — the bit is the recursion brake), restores
  // it if the rebuild fails so the stale zeroed medium is never silently
  // trusted, and counts the group done. Caller holds the group latch and has
  // seen the bit set and the rebuilding disk alive.
  Result<GroupRebuildOutcome> ClaimPendingGroup(GroupId group);
  // A foreground path took `group` off the pending list: `on_demand` picks
  // the session counter and trace event (repair on access, or a write
  // promotion).
  void NotePendingCleared(GroupId group, bool on_demand);

  // The group-parity recompute: resets `*parity` to a zeroed page and XORs
  // the group's data pages into it, one accounted XorPage per page. The
  // rule for reading them: `healed` (ReadDataHealed) only when the parity a
  // heal falls back on — the group's consistent twin — still holds its
  // content; a path that recomputes that twin because it is lost,
  // unreadable or untrusted reads raw, and a faulted page fails it. On a
  // failed read `*failed_page` (if given) names the page.
  Status XorGroupData(GroupId group, bool healed, PageImage* parity,
                      PageId* failed_page = nullptr);

  // The one twin install: gives `*image` a `state` header and writes it as
  // twin `twin` of `group`. kCommitted and kWorking take a fresh timestamp
  // (kWorking names the group's dirty page and transaction); kObsolete is a
  // reset — zeroed payload, timestamp 0; kInvalid keeps the image's
  // timestamp. Once written, the shadow follows — silently, or with
  // `traced` as a Figure 8 transition of the group's dirty page and
  // transaction. Caller holds the group latch (or runs quiesced).
  Status InstallTwin(GroupId group, uint32_t twin, ParityState state,
                     PageImage* image, bool traced = false);
  // `*image` becomes the committed parity in `twin`, the other twin (if
  // any) is reset obsolete, and the group is clean on `twin`.
  Status InstallCleanParity(GroupId group, uint32_t twin, PageImage* image);

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
  // The shadow is the logical Figure 8 state, which a pending stamp lets
  // run ahead of the on-disk header.
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
  obs::StatCounter deferred_stamps_;
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

  // Online-rebuild session state. The bitmap entries are atomic so the
  // background sweep can peek without latches (TSan-clean); every logical
  // transition — pending set at Begin, cleared by rebuild/promotion —
  // happens under the owning group's latch. rebuild_active_ is published
  // with release order after the bitmap and disk id are in place.
  std::atomic<bool> rebuild_active_{false};
  // Serializes BeginOnlineRebuild from its session check to the publish.
  std::mutex rebuild_begin_mu_;
  // Atomic because progress polls read it while a sweep ends the session.
  std::atomic<DiskId> rebuild_disk_{kInvalidDiskId};
  std::unique_ptr<std::atomic<uint8_t>[]> rebuild_pending_;
  std::atomic<uint32_t> rebuild_groups_total_{0};
  std::atomic<uint32_t> rebuild_groups_remaining_{0};
  // Monotonic across sessions (exported as parity.online_*); the bases
  // are their values at the current session's Begin.
  obs::StatCounter online_on_demand_;
  obs::StatCounter online_write_promotions_;
  std::atomic<uint64_t> on_demand_base_{0};
  std::atomic<uint64_t> write_promotions_base_{0};

  // Observability (null = disabled).
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* degraded_reads_counter_ = nullptr;
  obs::Counter* latch_waits_counter_ = nullptr;
  // Latency spans (propagate/undo/rebuild) and the propagate-latency
  // histogram feeding the percentile reports.
  obs::SpanCollector* spans_ = nullptr;
  obs::Histogram* propagate_hist_ = nullptr;
};

}  // namespace rda

#endif  // RDA_PARITY_TWIN_PARITY_MANAGER_H_
