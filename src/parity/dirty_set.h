#ifndef RDA_PARITY_DIRTY_SET_H_
#define RDA_PARITY_DIRTY_SET_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rda {

// Volatile per-group bookkeeping: which parity twin is valid, and — when the
// group is dirty — which data page was propagated without UNDO logging and
// by which transaction.
//
// This is the paper's main-memory table of Section 4.1: "A table in main
// memory is kept ... It contains the numbers of all parity groups that are
// in the dirty state ... the page number of the data page that caused the
// group to be in the dirty state (only log N bits) and one bit for the
// parity page". Being volatile, it is lost on a system crash and rebuilt
// from the parity page headers (TwinParityManager::RebuildDirectory).
struct GroupState {
  // Which twin currently holds the committed ("valid") parity of the group.
  uint32_t valid_twin = 0;
  // True iff a data page of the group has been written back to the database
  // carrying uncommitted data, covered by the working parity twin.
  bool dirty = false;
  // Twin holding the working parity. Meaningful iff dirty.
  uint32_t working_twin = 0;
  // The data page whose uncommitted content is covered. Meaningful iff dirty.
  PageId dirty_page = kInvalidPageId;
  // The transaction whose update dirtied the group. Meaningful iff dirty.
  TxnId dirty_txn = kInvalidTxnId;
  // The valid twin's on-disk header still says kWorking: a commit made it
  // valid without a write, and the log's commit record vouches for it until
  // its next write (or a log truncation) stamps it kCommitted.
  bool stamp_pending = false;
};

class DirtySet {
 public:
  explicit DirtySet(uint32_t num_groups) : groups_(num_groups) {}

  const GroupState& Get(GroupId group) const { return groups_[group]; }

  void MarkDirty(GroupId group, PageId dirty_page, TxnId txn,
                 uint32_t working_twin) {
    GroupState& g = groups_[group];
    g.dirty = true;
    g.dirty_page = dirty_page;
    g.dirty_txn = txn;
    g.working_twin = working_twin;
  }

  // Cleans `group`; the committed parity now lives in `new_valid_twin`.
  // A pending stamp belongs to the old valid twin, so it survives only when
  // the valid twin stays (a parity undo).
  void MarkClean(GroupId group, uint32_t new_valid_twin) {
    GroupState& g = groups_[group];
    g.dirty = false;
    g.dirty_page = kInvalidPageId;
    g.dirty_txn = kInvalidTxnId;
    if (g.valid_twin != new_valid_twin) {
      g.stamp_pending = false;
    }
    g.valid_twin = new_valid_twin;
  }

  void SetStampPending(GroupId group, bool pending) {
    groups_[group].stamp_pending = pending;
  }

  uint32_t num_groups() const { return static_cast<uint32_t>(groups_.size()); }

  // Number of groups currently dirty.
  uint32_t DirtyCount() const;

  // All dirty groups, any owner.
  std::vector<GroupId> AllDirtyGroups() const;

 private:
  std::vector<GroupState> groups_;
};

}  // namespace rda

#endif  // RDA_PARITY_DIRTY_SET_H_
