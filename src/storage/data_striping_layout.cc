#include "storage/data_striping_layout.h"

#include <string>

namespace rda {

Result<std::unique_ptr<DataStripingLayout>> DataStripingLayout::Create(
    uint32_t data_pages_per_group, uint32_t min_data_pages) {
  if (data_pages_per_group < 1) {
    return Status::InvalidArgument("data_pages_per_group must be >= 1");
  }
  if (min_data_pages < 1) {
    return Status::InvalidArgument("min_data_pages must be >= 1");
  }
  const uint32_t num_groups =
      (min_data_pages + data_pages_per_group - 1) / data_pages_per_group;
  return std::unique_ptr<DataStripingLayout>(
      new DataStripingLayout(data_pages_per_group, num_groups));
}

DataStripingLayout::DataStripingLayout(uint32_t n, uint32_t num_groups)
    : n_(n),
      num_disks_(n + kParityTwins),
      num_groups_(num_groups) {}

DiskId DataStripingLayout::ParityDisk(GroupId group, uint32_t twin) const {
  const uint32_t d = num_disks_;
  // Left-symmetric rotation; twin 1 sits on the previous disk (mod D) so the
  // two parity pages of a group are always on distinct disks.
  return (d - 1 - (group % d) + twin * (d - 1)) % d;
}

PhysicalLocation DataStripingLayout::DataLocation(PageId page) const {
  const GroupId group = GroupOf(page);
  const uint32_t index = IndexInGroup(page);
  // Data pages occupy, in increasing disk order, the disks of the stripe
  // that do not hold parity.
  uint32_t seen = 0;
  for (DiskId disk = 0; disk < num_disks_; ++disk) {
    bool is_parity = false;
    for (uint32_t t = 0; t < kParityTwins; ++t) {
      if (ParityDisk(group, t) == disk) {
        is_parity = true;
        break;
      }
    }
    if (is_parity) {
      continue;
    }
    if (seen == index) {
      return PhysicalLocation{disk, group};
    }
    ++seen;
  }
  // Unreachable for valid inputs: there are exactly n_ non-parity disks.
  return PhysicalLocation{};
}

PhysicalLocation DataStripingLayout::ParityLocation(GroupId group,
                                                    uint32_t twin) const {
  return PhysicalLocation{ParityDisk(group, twin), group};
}

}  // namespace rda
