#include "parity/dirty_set.h"

namespace rda {

uint32_t DirtySet::DirtyCount() const {
  uint32_t count = 0;
  for (const GroupState& g : groups_) {
    if (g.dirty) {
      ++count;
    }
  }
  return count;
}

std::vector<GroupId> DirtySet::AllDirtyGroups() const {
  std::vector<GroupId> out;
  for (GroupId id = 0; id < groups_.size(); ++id) {
    if (groups_[id].dirty) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace rda
