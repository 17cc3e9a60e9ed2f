#ifndef RDA_STORAGE_PARITY_STRIPING_LAYOUT_H_
#define RDA_STORAGE_PARITY_STRIPING_LAYOUT_H_

#include <memory>

#include "common/status.h"
#include "storage/layout.h"

namespace rda {

// Parity striping of disk arrays (Gray, Horst and Walker, VLDB 1990; paper
// Figures 2 and 5): data is NOT interleaved — logical pages are laid out
// sequentially within one disk, preserving per-disk sequentiality for OLTP —
// while parity areas rotate across disks.
//
// Construction used here: D = n + 2 disks, each divided into D equal areas
// of `area_size` slots. Consider area-row r = the D areas at area index r,
// one per disk. In row r, the areas on disks r and (r+1) % D hold the
// parity twins; the other n areas hold data. A parity group is the set of
// blocks at the same offset k within the data areas of one row, plus the
// blocks at offset k of the row's parity areas:
//   GroupId = r * area_size + k.
// Logical data pages are numbered disk-major: all data blocks of disk 0
// first (in area order, skipping parity areas), then disk 1, etc. — so
// consecutive pages sit on the same disk, unlike data striping.
class ParityStripingLayout final : public Layout {
 public:
  // Creates a layout with capacity for at least `min_data_pages` data pages.
  // `data_pages_per_group` must be >= 1.
  static Result<std::unique_ptr<ParityStripingLayout>> Create(
      uint32_t data_pages_per_group, uint32_t min_data_pages);

  uint32_t data_pages_per_group() const override { return n_; }
  uint32_t num_disks() const override { return num_disks_; }
  SlotId slots_per_disk() const override { return num_disks_ * area_size_; }
  uint32_t num_groups() const override { return num_disks_ * area_size_; }
  uint32_t num_data_pages() const override { return n_ * num_groups(); }

  PhysicalLocation DataLocation(PageId page) const override;
  PhysicalLocation ParityLocation(GroupId group, uint32_t twin) const override;
  GroupId GroupOf(PageId page) const override;
  uint32_t IndexInGroup(PageId page) const override;
  PageId PageAt(GroupId group, uint32_t index) const override;

 private:
  ParityStripingLayout(uint32_t n, SlotId area_size);

  // True iff on disk `disk`, the area at index `row` holds parity.
  bool IsParityArea(DiskId disk, uint32_t row) const;
  // Disk holding parity copy `twin` of row `row`.
  DiskId ParityDisk(uint32_t row, uint32_t twin) const;
  // The `index`-th data disk (increasing disk order) of row `row`.
  DiskId DataDisk(uint32_t row, uint32_t index) const;
  // Position of `disk` among the data disks of row `row`.
  uint32_t DataIndexOfDisk(uint32_t row, DiskId disk) const;
  // Ordinal of area-row `row` among the data rows of `disk`.
  uint32_t DataRowOrdinal(DiskId disk, uint32_t row) const;
  // Inverse of DataRowOrdinal.
  uint32_t RowOfDataOrdinal(DiskId disk, uint32_t ordinal) const;

  uint32_t n_;
  uint32_t num_disks_;
  SlotId area_size_;
};

}  // namespace rda

#endif  // RDA_STORAGE_PARITY_STRIPING_LAYOUT_H_
