#include "sim/validation.h"

#include <algorithm>

#include "model/algorithms.h"

namespace rda::sim {

SimOptions ValidationOptions(double c, bool rda_on, uint64_t seed, bool force,
                             bool record_mode) {
  SimOptions options;
  options.db.array.layout_kind = LayoutKind::kDataStriping;
  options.db.array.data_pages_per_group = 8;
  options.db.array.min_data_pages = 512;
  options.db.array.page_size = 256;
  options.db.buffer.capacity = 64;
  options.db.txn.logging_mode =
      record_mode ? LoggingMode::kRecordLogging : LoggingMode::kPageLogging;
  options.db.txn.record_size = 24;
  options.db.txn.force = force;
  options.db.txn.rda_undo = rda_on;
  if (!force) {
    options.db.checkpoint_interval_updates = 64;
  }
  if (record_mode) {
    options.workload.mode = LoggingMode::kRecordLogging;
    options.workload.records_per_page = 8;
  }
  options.workload.num_pages = 512;
  options.workload.pages_per_txn = 8;
  options.workload.communality = c;
  options.workload.update_txn_fraction = 0.8;
  options.workload.update_probability = 0.9;
  options.workload.abort_probability = 0.01;
  options.workload.hot_window = 48;
  options.workload.seed = seed;
  options.num_transactions = 400;
  options.concurrency = 4;
  options.seed = seed;
  return options;
}

model::ModelParams ValidationModelParams() {
  model::ModelParams p;
  p.B = 64;
  p.S = 512;
  p.N = 8;
  p.P = 4;
  p.s = 8;
  p.f_u = 0.8;
  p.p_u = 0.9;
  p.p_b = 0.01;
  return p;
}

Result<RdaGain> MeasureRdaGain(double c, uint64_t seed, bool force,
                               bool record_mode) {
  RdaGain gain;
  for (const bool rda_on : {false, true}) {
    Simulator sim(ValidationOptions(c, rda_on, seed, force, record_mode));
    RDA_ASSIGN_OR_RETURN(const SimResult result, sim.Run());
    (rda_on ? gain.transfers_on : gain.transfers_off) =
        result.transfers_per_commit;
    const double commits =
        static_cast<double>(std::max<uint64_t>(result.committed, 1));
    (rda_on ? gain.array_on : gain.array_off) =
        static_cast<double>(result.array_transfers) / commits;
    (rda_on ? gain.log_on : gain.log_off) =
        static_cast<double>(result.log_transfers) / commits;
  }
  gain.percent =
      100.0 * (gain.transfers_off - gain.transfers_on) / gain.transfers_on;
  return gain;
}

double ModelPageForceTocGain(double c) {
  const model::ModelParams params = ValidationModelParams();
  const double base = model::EvalPageForceToc(params, c, false).throughput;
  const double with = model::EvalPageForceToc(params, c, true).throughput;
  return 100.0 * (with - base) / base;
}

double ModelPageForceTocRdaArrayCost(double c) {
  const model::ModelParams params = ValidationModelParams();
  const double p_log = model::EvalPageForceToc(params, c, true).p_log;
  return params.f_u * 2.0 * p_log * params.s * params.p_u;
}

double ModelPageForceTocRdaLogSaving(double c) {
  const model::ModelParams params = ValidationModelParams();
  const double off = model::EvalPageForceToc(params, c, false).c_l;
  const double on = model::EvalPageForceToc(params, c, true).c_l;
  return params.f_u * (off - on) + ModelPageForceTocRdaArrayCost(c);
}

}  // namespace rda::sim
