// Media-failure drill: populate the database, fail a disk, keep reading in
// degraded mode through parity reconstruction, rebuild the disk, and verify
// every page byte-for-byte — the classic redundant-array capability the
// paper's recovery scheme shares its parity with.
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/database.h"

namespace {

void Check(const rda::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  rda::DatabaseOptions options;
  options.array.layout_kind = rda::LayoutKind::kParityStriping;
  options.array.data_pages_per_group = 6;
  options.array.min_data_pages = 120;
  options.array.page_size = 256;
  options.buffer.capacity = 16;
  options.txn.force = true;
  options.txn.rda_undo = true;

  auto db_or = rda::Database::Open(options);
  Check(db_or.status(), "open");
  rda::Database* db = db_or->get();
  std::printf("parity-striped array: %u disks, %u data pages, %u groups\n",
              db->array()->num_disks(), db->num_pages(),
              db->array()->num_groups());

  // Populate every page with a distinct pattern.
  rda::Random rng(99);
  std::vector<std::vector<uint8_t>> golden(db->num_pages());
  for (rda::PageId page = 0; page < db->num_pages(); ++page) {
    golden[page].assign(db->user_page_size(), 0);
    rng.FillBytes(&golden[page]);
    auto txn = db->Begin();
    Check(txn.status(), "begin");
    Check(db->WritePage(*txn, page, golden[page]), "populate");
    Check(db->Commit(*txn), "commit");
  }

  // Kill a disk.
  const rda::DiskId victim = 2;
  Check(db->FailDisk(victim), "fail disk");
  std::printf("disk %u failed.\n", victim);

  // Degraded-mode reads still return correct data (reconstructed via XOR).
  int degraded_ok = 0;
  for (rda::PageId page = 0; page < db->num_pages(); ++page) {
    auto payload = db->RawReadPage(page);
    Check(payload.status(), "degraded read");
    if (std::equal(golden[page].begin(), golden[page].end(),
                   payload->begin() + rda::kDataRegionOffset)) {
      ++degraded_ok;
    }
  }
  std::printf("degraded reads correct: %d / %u\n", degraded_ok,
              db->num_pages());

  // Rebuild.
  auto report = db->RebuildDisk(victim);
  Check(report.status(), "rebuild");
  std::printf("rebuilt disk %u: %u data pages, %u parity pages, %u obsolete "
              "twins reset\n",
              report->disk, report->data_pages_rebuilt,
              report->parity_pages_rebuilt, report->obsolete_twins_reset);

  // Full verification: every page matches and parity is consistent.
  int verified = 0;
  for (rda::PageId page = 0; page < db->num_pages(); ++page) {
    auto payload = db->RawReadPage(page);
    Check(payload.status(), "verify read");
    if (std::equal(golden[page].begin(), golden[page].end(),
                   payload->begin() + rda::kDataRegionOffset)) {
      ++verified;
    }
  }
  auto parity_ok = db->VerifyAllParity();
  Check(parity_ok.status(), "verify parity");
  std::printf("pages verified after rebuild: %d / %u; parity consistent: "
              "%s\n",
              verified, db->num_pages(), *parity_ok ? "yes" : "NO");
  return (verified == static_cast<int>(db->num_pages()) && *parity_ok) ? 0
                                                                       : 1;
}
