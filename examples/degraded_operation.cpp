// Degraded-mode operation drill: the availability argument of redundant
// arrays (paper Section 1). A disk dies mid-workload and the database keeps
// committing — reads reconstruct through parity, writes land in the parity
// alone — until a rebuild brings the replacement disk up to date. Finally a
// quiescent archive is taken and a catastrophic two-disk failure is
// restored from it.
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
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 64;
  options.array.page_size = 256;
  options.buffer.capacity = 16;
  options.txn.force = true;
  options.txn.rda_undo = true;

  auto db_or = rda::Database::Open(options);
  Check(db_or.status(), "open");
  rda::Database* db = db_or->get();

  // Bulk-load initial content with full-stripe writes.
  rda::Random rng(4242);
  std::vector<std::vector<uint8_t>> golden(db->num_pages());
  for (rda::PageId page = 0; page < db->num_pages(); ++page) {
    golden[page].assign(db->user_page_size(), 0);
    rng.FillBytes(&golden[page]);
  }
  Check(db->BulkLoad(golden), "bulk load");
  std::printf("bulk-loaded %u pages (full-stripe writes: %llu transfers)\n",
              db->num_pages(),
              static_cast<unsigned long long>(
                  db->array()->counters().total()));

  auto churn = [&](int rounds, const char* phase) {
    int committed = 0;
    int aborted = 0;
    for (int i = 0; i < rounds; ++i) {
      auto txn = db->Begin();
      Check(txn.status(), "begin");
      const rda::PageId page =
          static_cast<rda::PageId>(rng.Uniform(db->num_pages()));
      std::vector<uint8_t> bytes(db->user_page_size(), 0);
      rng.FillBytes(&bytes);
      Check(db->WritePage(*txn, page, bytes), "write");
      if (rng.Bernoulli(0.2)) {
        Check(db->Abort(*txn), "abort");
        ++aborted;
      } else {
        Check(db->Commit(*txn), "commit");
        golden[page] = bytes;
        ++committed;
      }
    }
    std::printf("%s: %d committed, %d aborted\n", phase, committed, aborted);
  };

  auto audit = [&](const char* phase) {
    int bad = 0;
    for (rda::PageId page = 0; page < db->num_pages(); ++page) {
      auto payload = db->RawReadPage(page);
      Check(payload.status(), "audit read");
      if (!std::equal(golden[page].begin(), golden[page].end(),
                      payload->begin() + rda::kDataRegionOffset)) {
        ++bad;
      }
    }
    std::printf("%s: %d / %u pages mismatched\n", phase, bad,
                db->num_pages());
    return bad;
  };

  churn(40, "healthy phase");

  Check(db->FailDisk(1), "fail disk 1");
  std::printf("disk 1 FAILED — continuing in degraded mode\n");
  churn(40, "degraded phase");
  int bad = audit("degraded audit");

  auto rebuild = db->RebuildDisk(1);
  Check(rebuild.status(), "rebuild");
  std::printf("rebuilt disk 1: %u data + %u parity pages reconstructed\n",
              rebuild->data_pages_rebuilt, rebuild->parity_pages_rebuilt);
  bad += audit("post-rebuild audit");

  // Catastrophe drill: archive, lose two disks, restore.
  Check(db->TakeArchive(), "archive");
  churn(20, "post-archive phase");
  Check(db->FailDisk(0), "fail disk 0");
  Check(db->FailDisk(3), "fail disk 3");
  std::printf("disks 0 and 3 FAILED — beyond array redundancy\n");
  auto restore = db->RestoreFromArchive();
  Check(restore.status(), "restore from archive");
  std::printf("restored from archive + log: %llu after-images redone\n",
              static_cast<unsigned long long>(restore->redo_applied));
  bad += audit("post-catastrophe audit");

  auto parity_ok = db->VerifyAllParity();
  Check(parity_ok.status(), "verify parity");
  std::printf("parity consistent: %s\n", *parity_ok ? "yes" : "NO");
  return (bad == 0 && *parity_ok) ? 0 : 1;
}
