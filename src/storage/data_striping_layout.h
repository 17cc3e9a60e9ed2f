#ifndef RDA_STORAGE_DATA_STRIPING_LAYOUT_H_
#define RDA_STORAGE_DATA_STRIPING_LAYOUT_H_

#include <memory>

#include "common/status.h"
#include "storage/layout.h"

namespace rda {

// RAID-5-style data striping with rotated parity (paper Figures 1 and 4).
//
// The array has D = n + 2 disks, where n = data pages per group and the 2
// are the parity twins. Parity group g is stripe g: one page on every disk
// at slot g. The twins occupy disks
//   parity disk t of stripe g = (D - 1 - (g % D) + t*(D-1)) % D  (t = 0, 1)
// i.e. the classic left-symmetric rotation, with the second twin placed on
// the disk "before" the first so the twins rotate together but never collide.
// Data pages of the stripe fill the remaining disks in increasing disk
// order; consecutive logical pages therefore interleave across disks (large
// transfers hit all disks — the design goal of striping, Section 3.1).
class DataStripingLayout final : public Layout {
 public:
  // Creates a layout with capacity for at least `min_data_pages` data pages
  // (rounded up to whole stripes). `data_pages_per_group` must be >= 1.
  static Result<std::unique_ptr<DataStripingLayout>> Create(
      uint32_t data_pages_per_group, uint32_t min_data_pages);

  uint32_t data_pages_per_group() const override { return n_; }
  uint32_t num_disks() const override { return num_disks_; }
  SlotId slots_per_disk() const override { return num_groups_; }
  uint32_t num_groups() const override { return num_groups_; }
  uint32_t num_data_pages() const override { return n_ * num_groups_; }

  PhysicalLocation DataLocation(PageId page) const override;
  PhysicalLocation ParityLocation(GroupId group, uint32_t twin) const override;
  GroupId GroupOf(PageId page) const override { return page / n_; }
  uint32_t IndexInGroup(PageId page) const override { return page % n_; }
  PageId PageAt(GroupId group, uint32_t index) const override {
    return group * n_ + index;
  }

 private:
  DataStripingLayout(uint32_t n, uint32_t num_groups);

  DiskId ParityDisk(GroupId group, uint32_t twin) const;

  uint32_t n_;
  uint32_t num_disks_;
  uint32_t num_groups_;
};

}  // namespace rda

#endif  // RDA_STORAGE_DATA_STRIPING_LAYOUT_H_
