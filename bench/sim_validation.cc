// Cross-validation experiment (Sim-X1 in DESIGN.md): runs the REAL system
// (twin-page parity, buffer, WAL, transactions) under the Reuter workload
// and compares the measured RDA gain in page transfers per committed
// transaction against the analytical model evaluated at the same
// parameters (sim/validation.h). Absolute transfer counts differ (the sim
// pays integer I/Os and cold caches), so the comparison is also split by
// currency: the array transfers RDA adds per commit against the model's
// f_u 2 p_l s p_u, which sim_test pins, and the log transfers it saves.
#include <iomanip>
#include <iostream>

#include "sim/validation.h"

int main() {
  std::cout << "=== Simulator vs analytical model: page FORCE/TOC ===\n\n"
            << std::setw(6) << "C" << std::setw(16) << "sim xfers/txn"
            << std::setw(16) << "sim xfers/txn" << std::setw(12) << "sim gain"
            << std::setw(12) << "model gain" << "\n"
            << std::setw(6) << "" << std::setw(16) << "(no RDA)"
            << std::setw(16) << "(RDA)" << std::setw(12) << "%"
            << std::setw(12) << "%" << "\n";

  for (const double c : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
    auto gain = rda::sim::MeasureRdaGain(c, 42);
    if (!gain.ok()) {
      std::cerr << "simulation failed: " << gain.status().ToString() << "\n";
      return 1;
    }
    std::cout << std::fixed << std::setprecision(2) << std::setw(6) << c
              << std::setw(16) << gain->transfers_off << std::setw(16)
              << gain->transfers_on << std::setprecision(1) << std::setw(12)
              << gain->percent << std::setw(12)
              << rda::sim::ModelPageForceTocGain(c) << "\n";
  }
  std::cout << "\n(sim gain = reduction in page transfers per committed "
               "transaction when RDA is on)\n";

  std::cout << "\n=== Per currency, per committed transaction ===\n\n"
            << std::setw(6) << "C" << std::setw(14) << "array added"
            << std::setw(14) << "model" << std::setw(14) << "log saved"
            << std::setw(14) << "model" << "\n";
  for (const double c : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
    auto gain = rda::sim::MeasureRdaGain(c, 42);
    if (!gain.ok()) {
      std::cerr << "simulation failed: " << gain.status().ToString() << "\n";
      return 1;
    }
    std::cout << std::fixed << std::setprecision(2) << std::setw(6) << c
              << std::setw(14) << gain->array_on - gain->array_off
              << std::setw(14) << rda::sim::ModelPageForceTocRdaArrayCost(c)
              << std::setw(14) << gain->log_off - gain->log_on
              << std::setw(14) << rda::sim::ModelPageForceTocRdaLogSaving(c)
              << "\n";
  }

  // The other three algorithm classes at C = 0.5: the sim must agree with
  // the model about WHERE the RDA gain is large and where it is small.
  std::cout << "\n=== RDA gain by algorithm class (C = 0.5) ===\n\n"
            << std::setw(34) << "configuration" << std::setw(14)
            << "sim gain %" << "\n";
  struct Config {
    const char* name;
    bool force;
    bool record;
  };
  for (const Config config :
       {Config{"page FORCE/TOC", true, false},
        Config{"page notFORCE/ACC", false, false},
        Config{"record FORCE/TOC", true, true},
        Config{"record notFORCE/ACC", false, true}}) {
    auto gain = rda::sim::MeasureRdaGain(0.5, 99, config.force, config.record);
    if (!gain.ok()) {
      std::cerr << "simulation failed: " << gain.status().ToString() << "\n";
      return 1;
    }
    std::cout << std::setw(34) << config.name << std::fixed
              << std::setprecision(1) << std::setw(14) << gain->percent
              << "\n";
  }
  std::cout << "\n(expected ordering per the model: the page FORCE/TOC "
               "class gains the most;\n record/notFORCE classes gain "
               "little at small scale)\n";
  return 0;
}
