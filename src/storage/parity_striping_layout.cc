#include "storage/parity_striping_layout.h"

namespace rda {

Result<std::unique_ptr<ParityStripingLayout>> ParityStripingLayout::Create(
    uint32_t data_pages_per_group, uint32_t min_data_pages) {
  if (data_pages_per_group < 1) {
    return Status::InvalidArgument("data_pages_per_group must be >= 1");
  }
  if (min_data_pages < 1) {
    return Status::InvalidArgument("min_data_pages must be >= 1");
  }
  const uint32_t num_disks = data_pages_per_group + kParityTwins;
  // Capacity per unit of area_size is num_disks rows * n pages per group.
  const uint32_t per_area_slot = num_disks * data_pages_per_group;
  const SlotId area_size =
      (min_data_pages + per_area_slot - 1) / per_area_slot;
  return std::unique_ptr<ParityStripingLayout>(
      new ParityStripingLayout(data_pages_per_group, area_size));
}

ParityStripingLayout::ParityStripingLayout(uint32_t n, SlotId area_size)
    : n_(n),
      num_disks_(n + kParityTwins),
      area_size_(area_size) {}

bool ParityStripingLayout::IsParityArea(DiskId disk, uint32_t row) const {
  for (uint32_t t = 0; t < kParityTwins; ++t) {
    if (ParityDisk(row, t) == disk) {
      return true;
    }
  }
  return false;
}

DiskId ParityStripingLayout::ParityDisk(uint32_t row, uint32_t twin) const {
  return (row + twin) % num_disks_;
}

DiskId ParityStripingLayout::DataDisk(uint32_t row, uint32_t index) const {
  uint32_t seen = 0;
  for (DiskId disk = 0; disk < num_disks_; ++disk) {
    if (IsParityArea(disk, row)) {
      continue;
    }
    if (seen == index) {
      return disk;
    }
    ++seen;
  }
  return kInvalidDiskId;  // Unreachable for index < n_.
}

uint32_t ParityStripingLayout::DataIndexOfDisk(uint32_t row,
                                               DiskId disk) const {
  uint32_t seen = 0;
  for (DiskId d = 0; d < disk; ++d) {
    if (!IsParityArea(d, row)) {
      ++seen;
    }
  }
  return seen;
}

uint32_t ParityStripingLayout::DataRowOrdinal(DiskId disk,
                                              uint32_t row) const {
  // Parity rows of `disk` are rows r with ParityDisk(r, t) == disk, i.e.
  // r in {disk - t mod D}. Count data rows below `row`.
  uint32_t ordinal = 0;
  for (uint32_t r = 0; r < row; ++r) {
    if (!IsParityArea(disk, r)) {
      ++ordinal;
    }
  }
  return ordinal;
}

uint32_t ParityStripingLayout::RowOfDataOrdinal(DiskId disk,
                                                uint32_t ordinal) const {
  uint32_t seen = 0;
  for (uint32_t r = 0; r < num_disks_; ++r) {
    if (IsParityArea(disk, r)) {
      continue;
    }
    if (seen == ordinal) {
      return r;
    }
    ++seen;
  }
  return num_disks_;  // Unreachable for ordinal < D - 2.
}

PhysicalLocation ParityStripingLayout::DataLocation(PageId page) const {
  const uint32_t data_per_disk = n_ * area_size_;
  const DiskId disk = page / data_per_disk;
  const uint32_t within = page % data_per_disk;
  const uint32_t ordinal = within / area_size_;  // Which data area of disk.
  const uint32_t offset = within % area_size_;
  const uint32_t row = RowOfDataOrdinal(disk, ordinal);
  return PhysicalLocation{disk, row * area_size_ + offset};
}

PhysicalLocation ParityStripingLayout::ParityLocation(GroupId group,
                                                      uint32_t twin) const {
  const uint32_t row = group / area_size_;
  const uint32_t offset = group % area_size_;
  return PhysicalLocation{ParityDisk(row, twin), row * area_size_ + offset};
}

GroupId ParityStripingLayout::GroupOf(PageId page) const {
  const PhysicalLocation loc = DataLocation(page);
  // slot = row * area_size + offset, and GroupId = row * area_size + offset.
  return loc.slot;
}

uint32_t ParityStripingLayout::IndexInGroup(PageId page) const {
  const PhysicalLocation loc = DataLocation(page);
  const uint32_t row = loc.slot / area_size_;
  return DataIndexOfDisk(row, loc.disk);
}

PageId ParityStripingLayout::PageAt(GroupId group, uint32_t index) const {
  const uint32_t row = group / area_size_;
  const uint32_t offset = group % area_size_;
  const DiskId disk = DataDisk(row, index);
  const uint32_t ordinal = DataRowOrdinal(disk, row);
  const uint32_t data_per_disk = n_ * area_size_;
  return disk * data_per_disk + ordinal * area_size_ + offset;
}

}  // namespace rda
