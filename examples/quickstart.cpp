// Quickstart: open a database on a twin-parity redundant disk array, run a
// couple of transactions, abort one, and watch the parity-based undo
// restore the on-disk state without any UNDO log record having been
// written.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/database.h"

namespace {

// Every example uses this tiny helper: bail out loudly on any error.
void Check(const rda::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  // A 10-disk array (8 data pages per group + 2 parity twins), page
  // logging, FORCE at commit, RDA recovery on.
  rda::DatabaseOptions options;
  options.array.layout_kind = rda::LayoutKind::kDataStriping;
  options.array.data_pages_per_group = 8;
  options.array.min_data_pages = 256;
  options.array.page_size = 512;
  options.buffer.capacity = 32;
  options.txn.logging_mode = rda::LoggingMode::kPageLogging;
  options.txn.force = true;
  options.txn.rda_undo = true;

  auto db_or = rda::Database::Open(options);
  Check(db_or.status(), "open");
  rda::Database* db = db_or->get();
  std::printf("opened: %u data pages on %u disks, %u parity groups\n",
              db->num_pages(), db->array()->num_disks(),
              db->array()->num_groups());

  // Transaction 1: write two pages and commit.
  auto t1 = db->Begin();
  Check(t1.status(), "begin t1");
  std::vector<uint8_t> hello(db->user_page_size(), 0);
  const char msg[] = "hello, redundant disk arrays";
  std::copy(std::begin(msg), std::end(msg), hello.begin());
  Check(db->WritePage(*t1, /*page=*/0, hello), "write page 0");
  Check(db->WritePage(*t1, /*page=*/9, hello), "write page 9");
  Check(db->Commit(*t1), "commit t1");
  std::printf("t1 committed; unlogged propagations so far: %llu\n",
              static_cast<unsigned long long>(
                  db->parity()->stats().unlogged_first));

  // Transaction 2: overwrite page 0, force it to disk, then abort. The
  // pre-image comes back from the parity twins (D_old = P xor P' xor D_new),
  // not from the log.
  auto t2 = db->Begin();
  Check(t2.status(), "begin t2");
  std::vector<uint8_t> scribble(db->user_page_size(), 0xee);
  Check(db->WritePage(*t2, 0, scribble), "write page 0 (t2)");
  rda::Frame* frame = db->txn_manager()->pool()->Lookup(0);
  Check(db->txn_manager()->pool()->PropagateFrame(frame), "steal page 0");
  std::printf("page 0 stolen with uncommitted data; dirty groups: %u\n",
              db->parity()->directory().DirtyCount());

  Check(db->Abort(*t2), "abort t2");
  std::printf("t2 aborted; parity undos: %llu, before-images logged: %llu\n",
              static_cast<unsigned long long>(
                  db->parity()->stats().parity_undos),
              static_cast<unsigned long long>(
                  db->txn_manager()->stats().before_images_logged));

  // Verify: page 0 is back to t1's committed content.
  auto page0 = db->RawReadPage(0);
  Check(page0.status(), "raw read");
  const bool restored = std::equal(hello.begin(), hello.end(),
                                   page0->begin() + rda::kDataRegionOffset);
  std::printf("page 0 restored to committed content: %s\n",
              restored ? "yes" : "NO (bug!)");

  auto parity_ok = db->VerifyAllParity();
  Check(parity_ok.status(), "verify parity");
  std::printf("all parity groups consistent: %s\n", *parity_ok ? "yes" : "NO");
  std::printf("total page transfers: %llu\n",
              static_cast<unsigned long long>(db->TotalPageTransfers()));
  std::printf("\n-- engine stats --\n%s", db->FormatStats().c_str());
  return restored && *parity_ok ? 0 : 1;
}
