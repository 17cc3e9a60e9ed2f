#include "recovery/scrubber.h"

#include <cstdint>
#include <vector>

namespace rda {

Result<ScrubReport> ParityScrubber::ScrubAll() {
  ScrubReport report;
  DiskArray* array = parity_->array();
  // The verify pass reads every page through the healed path, so sector
  // faults it trips over are repaired as a side effect; the counter delta
  // is this pass's contribution.
  const ParityStats before = parity_->stats();
  const GroupId num_groups = array->num_groups();
  // Banded parallel scan: per-group verdicts land in disjoint slots and are
  // folded into the report in ascending group order afterwards, so the
  // report matches the serial pass at every thread count.
  enum : uint8_t { kClean = 0, kSkippedDirty = 1, kRepaired = 2 };
  std::vector<uint8_t> verdicts(num_groups, kClean);
  RDA_RETURN_IF_ERROR(exec::RunSharded(
      pool_, num_groups, [&](uint64_t index) -> Status {
        const GroupId group = static_cast<GroupId>(index);
        const GroupState& state = parity_->directory().Get(group);
        if (state.dirty) {
          // The working parity is live undo state, so no XOR verdict — but
          // a torn or latent data sector left here would meet a later disk
          // failure as a second fault in the group. The healed read repairs
          // it from the working twin.
          const Layout& layout = array->layout();
          PageImage data;
          for (uint32_t i = 0; i < layout.data_pages_per_group(); ++i) {
            RDA_RETURN_IF_ERROR(
                parity_->ReadDataHealed(layout.PageAt(group, i), &data));
          }
          verdicts[group] = kSkippedDirty;
          return Status::Ok();
        }
        RDA_ASSIGN_OR_RETURN(const bool consistent,
                             parity_->VerifyGroupParity(group));
        if (!consistent) {
          RDA_RETURN_IF_ERROR(parity_->ScrubGroup(group));
          verdicts[group] = kRepaired;
        }
        return Status::Ok();
      }));
  for (GroupId group = 0; group < num_groups; ++group) {
    ++report.groups_checked;
    if (verdicts[group] == kSkippedDirty) {
      ++report.groups_skipped_dirty;
    } else if (verdicts[group] == kRepaired) {
      report.repaired.push_back(group);
    }
  }
  const ParityStats after = parity_->stats();
  report.sectors_repaired = (after.latent_repairs - before.latent_repairs) +
                            (after.corruption_repairs -
                             before.corruption_repairs);
  return report;
}

}  // namespace rda
