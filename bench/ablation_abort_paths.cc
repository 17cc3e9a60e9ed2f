// Ablation Abl-2 (DESIGN.md): measured cost of aborting a transaction when
// its stolen pages are undone from twin parity vs from logged
// before-images. Exercises the real Database: each trial writes `pages`
// pages spread over distinct parity groups, forces them to disk, then
// aborts and reports the page transfers of the abort alone.
#include <iomanip>
#include <iostream>

#include "core/database.h"

namespace {

rda::DatabaseOptions MakeOptions(bool rda_on) {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = 8;
  options.array.min_data_pages = 512;
  options.array.page_size = 256;
  options.buffer.capacity = 64;
  options.txn.force = true;
  options.txn.rda_undo = rda_on;
  return options;
}

int Run(bool rda_on, int pages_per_txn, double* abort_transfers,
        double* steal_transfers) {
  auto db_or = rda::Database::Open(MakeOptions(rda_on));
  if (!db_or.ok()) {
    return 1;
  }
  rda::Database* db = db_or->get();
  const uint32_t group_stride = 8;  // One page per parity group.
  const int trials = 20;
  uint64_t abort_total = 0;
  uint64_t steal_total = 0;
  for (int t = 0; t < trials; ++t) {
    auto txn = db->Begin();
    std::vector<uint8_t> bytes(db->user_page_size(),
                               static_cast<uint8_t>(t + 1));
    const uint64_t before_steal = db->TotalPageTransfers();
    for (int i = 0; i < pages_per_txn; ++i) {
      const rda::PageId page = (t + i * group_stride) % db->num_pages();
      if (!db->WritePage(*txn, page, bytes).ok()) {
        return 1;
      }
      // Propagate immediately (steal) so the abort must undo disk state.
      rda::Frame* frame = db->txn_manager()->pool()->Lookup(page);
      if (frame == nullptr ||
          !db->txn_manager()->pool()->PropagateFrame(frame).ok()) {
        return 1;
      }
    }
    const uint64_t after_steal = db->TotalPageTransfers();
    if (!db->Abort(*txn).ok()) {
      return 1;
    }
    abort_total += db->TotalPageTransfers() - after_steal;
    steal_total += after_steal - before_steal;
  }
  *abort_transfers = static_cast<double>(abort_total) / trials;
  *steal_transfers = static_cast<double>(steal_total) / trials;
  return 0;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: abort cost, parity undo vs log undo ===\n\n"
            << std::setw(8) << "pages" << std::setw(22) << "steal+abort xfers"
            << std::setw(22) << "steal+abort xfers" << "\n"
            << std::setw(8) << "" << std::setw(22) << "(log undo)"
            << std::setw(22) << "(parity undo)" << "\n";
  for (const int pages : {1, 2, 4, 8}) {
    double abort_log = 0;
    double steal_log = 0;
    double abort_rda = 0;
    double steal_rda = 0;
    if (Run(false, pages, &abort_log, &steal_log) != 0 ||
        Run(true, pages, &abort_rda, &steal_rda) != 0) {
      std::cerr << "trial failed\n";
      return 1;
    }
    std::cout << std::setw(8) << pages << std::fixed << std::setprecision(1)
              << std::setw(11) << steal_log << " +" << std::setw(8)
              << abort_log << std::setw(11) << steal_rda << " +"
              << std::setw(8) << abort_rda << "\n";
  }
  std::cout << "\n(parity undo avoids the before-image log writes at steal "
               "time; the abort itself\n reads both twins and the page — "
               "the paper's <=6 I/O path)\n";
  return 0;
}
