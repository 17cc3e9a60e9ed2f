#include "fuzz/oracle.h"

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/data_page_meta.h"

namespace rda::fuzz {
namespace {

Status Violation(const std::string& invariant, const std::string& detail) {
  return Status::Corruption("oracle: " + invariant + ": " + detail);
}

// Invariants 1, 2 and the per-page half of 5, straight off the disk image.
Status CheckPagesOnDisk(Database* db, const ShadowModel& shadow) {
  const Lsn flushed = db->log()->flushed_lsn();
  for (PageId page = 0; page < db->num_pages(); ++page) {
    Result<std::vector<uint8_t>> raw = db->RawReadPage(page);
    if (!raw.ok()) {
      return Violation("durability",
                       "page " + std::to_string(page) +
                           " unreadable: " + raw.status().ToString());
    }
    const std::vector<uint8_t>& payload = raw.value();
    const DataPageMeta meta = LoadDataMeta(payload);
    if (meta.page_lsn > flushed) {
      return Violation("wal-coherence",
                       "page " + std::to_string(page) + " pageLSN " +
                           std::to_string(meta.page_lsn) +
                           " above flushed watermark " +
                           std::to_string(flushed));
    }
    if (shadow.mode() != LoggingMode::kPageLogging) {
      continue;  // Record content is checked through the reader txn below.
    }
    const uint8_t expected = shadow.ExpectedPage(page);
    for (size_t i = kDataRegionOffset; i < payload.size(); ++i) {
      if (payload[i] != expected) {
        return Violation(
            "durability",
            "page " + std::to_string(page) + " byte " + std::to_string(i) +
                " is " + std::to_string(payload[i]) + ", committed value is " +
                std::to_string(expected) +
                (payload[i] == payload[kDataRegionOffset]
                     ? ""
                     : " (mixed fill: torn page survived recovery)"));
      }
    }
  }
  return Status::Ok();
}

// Record-mode durability through the transactional read path.
Status CheckRecords(Database* db, const ShadowModel& shadow) {
  Result<TxnId> txn = db->Begin();
  if (!txn.ok()) {
    return Violation("durability", "reader Begin: " + txn.status().ToString());
  }
  std::vector<uint8_t> record;
  for (PageId page = 0; page < db->num_pages(); ++page) {
    for (RecordSlot slot = 0; slot < shadow.records_per_page(); ++slot) {
      Status read = db->ReadRecord(*txn, page, slot, &record);
      if (!read.ok()) {
        (void)db->Abort(*txn);
        return Violation("durability", "record (" + std::to_string(page) +
                                           "," + std::to_string(slot) +
                                           ") unreadable: " + read.ToString());
      }
      const uint8_t expected = shadow.ExpectedRecord(page, slot);
      for (uint8_t byte : record) {
        if (byte != expected) {
          (void)db->Abort(*txn);
          return Violation("durability",
                           "record (" + std::to_string(page) + "," +
                               std::to_string(slot) + ") holds " +
                               std::to_string(byte) + ", committed value is " +
                               std::to_string(expected));
        }
      }
    }
  }
  Status done = db->Commit(*txn);
  if (!done.ok()) {
    return Violation("durability", "reader Commit: " + done.ToString());
  }
  return Status::Ok();
}

Status CheckCounters(Database* db) {
  if (!db->options().obs.enable_metrics) {
    return Status::Ok();
  }
  const obs::MetricsSnapshot snapshot = db->SnapshotMetrics();
  const IoCounters array = db->array()->counters();
  const uint64_t obs_xor = snapshot.CounterValue("storage.xor_computations");
  if (obs_xor != array.xor_computations) {
    return Violation("counter-conservation",
                     "obs xor " + std::to_string(obs_xor) +
                         " != array xor " +
                         std::to_string(array.xor_computations));
  }
  const uint32_t num_disks = db->array()->layout().num_disks();
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  for (uint32_t d = 0; d < num_disks; ++d) {
    const std::string prefix = "storage.disk" + std::to_string(d);
    disk_reads += snapshot.CounterValue(prefix + ".reads");
    disk_writes += snapshot.CounterValue(prefix + ".writes");
  }
  const uint64_t reads = snapshot.CounterValue("storage.reads");
  const uint64_t writes = snapshot.CounterValue("storage.writes");
  if (reads != disk_reads) {
    return Violation("counter-conservation",
                     "storage.reads " + std::to_string(reads) +
                         " != per-disk sum " + std::to_string(disk_reads));
  }
  if (writes != disk_writes) {
    return Violation("counter-conservation",
                     "storage.writes " + std::to_string(writes) +
                         " != per-disk sum " + std::to_string(disk_writes));
  }
  return Status::Ok();
}

}  // namespace

Status CheckOracle(Database* db, const ShadowModel& shadow) {
  // Counter conservation first: the read-backs below add I/O on both sides
  // of each equation, so order does not affect it — but a conservation bug
  // is easier to attribute before thousands of oracle reads.
  RDA_RETURN_IF_ERROR(CheckCounters(db));

  RDA_RETURN_IF_ERROR(CheckPagesOnDisk(db, shadow));
  if (shadow.mode() == LoggingMode::kRecordLogging) {
    RDA_RETURN_IF_ERROR(CheckRecords(db, shadow));
  }

  Result<bool> parity_ok = db->VerifyAllParity();
  if (!parity_ok.ok()) {
    return Violation("parity", parity_ok.status().ToString());
  }
  if (!parity_ok.value()) {
    // Name the offending group(s): a failing soak run should hand the
    // developer something to stare at, not a bare boolean.
    std::string detail = "XOR does not match parity in group(s):";
    for (GroupId g = 0; g < db->array()->num_groups(); ++g) {
      Result<bool> one = db->parity()->VerifyGroupParity(g);
      if (one.ok() && !one.value()) {
        const GroupState state = db->parity()->directory().Get(g);
        // Plain appends: GCC 12 flags the equivalent chain of nested
        // temporaries with a -Werror=restrict false positive in Release.
        detail += " ";
        detail += std::to_string(g);
        if (state.dirty) {
          detail += " (dirty, working twin ";
          detail += std::to_string(state.working_twin);
          detail += ", page ";
          detail += std::to_string(state.dirty_page);
        } else {
          detail += " (clean, valid twin ";
          detail += std::to_string(state.valid_twin);
        }
        detail += ")";
      }
    }
    return Violation("parity", detail);
  }
  Status twins = db->parity()->CheckInvariants();
  if (!twins.ok()) {
    return Violation("twin-structure", twins.ToString());
  }

  const Lsn flushed = db->log()->flushed_lsn();
  const Lsn durable = db->log()->commit_durable_lsn();
  if (durable > flushed) {
    return Violation("wal-coherence",
                     "commit-durable watermark " + std::to_string(durable) +
                         " above flushed " + std::to_string(flushed));
  }
  return Status::Ok();
}

}  // namespace rda::fuzz
