#ifndef RDA_SIM_VALIDATION_H_
#define RDA_SIM_VALIDATION_H_

#include <cstdint>

#include "common/status.h"
#include "model/params.h"
#include "sim/simulator.h"

namespace rda::sim {

// The simulator-vs-model cross-validation (EXPERIMENTS.md Sim-X1): the
// engine runs at the analytical model's parameters, so the two RDA gains
// can be compared point by point. bench/sim_validation prints the sweep;
// sim_test pins the page FORCE/TOC agreement.

// Engine and workload options for one run at communality `c`. `force` and
// `record_mode` pick the algorithm class (page FORCE/TOC by default).
SimOptions ValidationOptions(double c, bool rda_on, uint64_t seed,
                             bool force = true, bool record_mode = false);

// The model parameters ValidationOptions matches: B, S, N, P, s, f_u, p_u
// and p_b.
model::ModelParams ValidationModelParams();

// One measured RDA gain: page transfers per committed transaction with RDA
// off and on, and the gain in percent, (off - on) / on — the throughput
// gain in the model's own terms. The totals split into two currencies:
// array transfers (data and parity pages) and log transfers.
struct RdaGain {
  double transfers_off = 0;
  double transfers_on = 0;
  double percent = 0;
  double array_off = 0;
  double array_on = 0;
  double log_off = 0;
  double log_on = 0;
};

// Runs the engine twice at ValidationOptions(c, off/on, seed, ...).
Result<RdaGain> MeasureRdaGain(double c, uint64_t seed, bool force = true,
                               bool record_mode = false);

// The model's page FORCE/TOC throughput gain from RDA at communality `c`,
// in percent.
double ModelPageForceTocGain(double c);

// The array transfers per transaction that RDA adds in the model's page
// FORCE/TOC write cost (3 + 2 p_l per modified page instead of 3):
// f_u 2 p_l s p_u.
double ModelPageForceTocRdaArrayCost(double c);

// The log transfers per transaction that RDA saves in the same model: the
// logging cost c_l less its array writes, RDA off minus on, times f_u.
double ModelPageForceTocRdaLogSaving(double c);

}  // namespace rda::sim

#endif  // RDA_SIM_VALIDATION_H_
