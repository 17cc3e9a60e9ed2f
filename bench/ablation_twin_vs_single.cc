// Ablation: the twin-page parity scheme (the paper's contribution) vs a
// RAID baseline running the same workload with classical UNDO logging.
// The baseline is the twin array with RDA recovery off: every propagation
// is a plain small write to the valid twin, so it makes exactly the array
// and log transfers of a single-parity array. Shows what the second parity
// page buys (unlogged steals) and what it costs (extra storage).
#include <iomanip>
#include <iostream>

#include "sim/simulator.h"

namespace {

rda::sim::SimOptions MakeOptions(bool rda_on, double c) {
  rda::sim::SimOptions options;
  options.db.array.data_pages_per_group = 8;
  options.db.array.min_data_pages = 512;
  options.db.array.page_size = 256;
  options.db.buffer.capacity = 64;
  options.db.txn.force = true;
  options.db.txn.rda_undo = rda_on;
  options.workload.num_pages = 512;
  options.workload.pages_per_txn = 8;
  options.workload.communality = c;
  options.workload.update_txn_fraction = 0.8;
  options.workload.update_probability = 0.9;
  options.workload.abort_probability = 0.02;
  options.workload.seed = 11;
  options.num_transactions = 400;
  options.concurrency = 4;
  return options;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: twin-page parity vs RAID + UNDO log ===\n\n"
            << std::setw(6) << "C" << std::setw(22) << "RDA off (RAID + log)"
            << std::setw(22) << "twin parity (RDA)" << std::setw(12)
            << "gain %" << "\n"
            << std::setw(6) << "" << std::setw(22) << "xfers/txn"
            << std::setw(22) << "xfers/txn" << "\n";
  for (const double c : {0.2, 0.5, 0.8}) {
    double baseline = 0;
    double twin = 0;
    {
      rda::sim::Simulator sim(MakeOptions(false, c));
      auto result = sim.Run();
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        return 1;
      }
      baseline = result->transfers_per_commit;
    }
    {
      rda::sim::Simulator sim(MakeOptions(true, c));
      auto result = sim.Run();
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        return 1;
      }
      twin = result->transfers_per_commit;
    }
    std::cout << std::fixed << std::setprecision(2) << std::setw(6) << c
              << std::setw(22) << baseline << std::setw(22) << twin
              << std::setprecision(1) << std::setw(12)
              << 100.0 * (baseline - twin) / twin << "\n";
  }
  std::cout << "\n(storage cost of the twin scheme: one extra parity page "
               "per group = 100/N percent)\n";
  return 0;
}
