#ifndef RDA_STORAGE_LAYOUT_H_
#define RDA_STORAGE_LAYOUT_H_

#include <cstdint>

#include "common/types.h"

namespace rda {

// Parity pages per group: the paper's twin pages. The twin array is the
// only array this engine builds.
inline constexpr uint32_t kParityTwins = 2;

// Physical address of one page: which disk, which page-granular slot.
struct PhysicalLocation {
  DiskId disk = kInvalidDiskId;
  SlotId slot = 0;

  bool operator==(const PhysicalLocation&) const = default;
};

// A redundant-array layout maps logical data pages and parity pages of
// parity groups to physical locations. Invariants every layout guarantees
// (verified by parameterized tests):
//  * the mapping of data pages is a bijection onto distinct locations;
//  * all pages of a group (n data + kParityTwins) live on distinct disks,
//    so any single-disk failure loses at most one page per group;
//  * parity locations rotate over the disks so no disk is a parity hotspot
//    (paper Section 3, Figures 1 and 2).
class Layout {
 public:
  virtual ~Layout() = default;

  // Number of data pages per parity group (the paper's N).
  virtual uint32_t data_pages_per_group() const = 0;
  virtual uint32_t num_disks() const = 0;
  virtual SlotId slots_per_disk() const = 0;
  virtual uint32_t num_groups() const = 0;
  virtual uint32_t num_data_pages() const = 0;

  // Physical location of data page `page`. Precondition: page in range.
  virtual PhysicalLocation DataLocation(PageId page) const = 0;

  // Physical location of parity twin `twin` (0-based) of group `group`.
  // Preconditions: group in range, twin < kParityTwins.
  virtual PhysicalLocation ParityLocation(GroupId group,
                                          uint32_t twin) const = 0;

  // Parity group that data page `page` belongs to.
  virtual GroupId GroupOf(PageId page) const = 0;

  // Index of `page` within its group, in [0, data_pages_per_group()).
  virtual uint32_t IndexInGroup(PageId page) const = 0;

  // The `index`-th data page of `group`; inverse of GroupOf/IndexInGroup.
  virtual PageId PageAt(GroupId group, uint32_t index) const = 0;
};

}  // namespace rda

#endif  // RDA_STORAGE_LAYOUT_H_
