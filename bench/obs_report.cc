// Observability report: runs the four algorithm classes of the paper's
// Sections 5.2/5.3 (page vs record logging x FORCE-TOC vs notFORCE-ACC),
// each with RDA undo on and off, through the simulator plus a staged crash,
// and emits BENCH_obs_report.json — per-subsystem counters and the
// phase-by-phase recovery breakdown, all in the paper's page-transfer unit.
#include <cstdio>

#include "harness.h"
#include "obs/export.h"
#include "sim/simulator.h"

namespace {

using rda::bench::AlgorithmClass;

rda::sim::SimOptions MakeOptions(const AlgorithmClass& cls, bool rda_on) {
  rda::sim::SimOptions options;
  options.db = rda::bench::ClassOptions(cls, rda_on);
  options.db.array.page_size = 256;
  options.db.buffer.capacity = 48;
  if (!cls.force) {
    options.db.checkpoint_interval_updates = 64;
  }
  options.workload.num_pages = 256;
  options.num_transactions = 120;
  options.concurrency = 4;
  options.seed = 42;
  return options;
}

}  // namespace

int main() {
  rda::obs::JsonWriter json = rda::bench::BeginReport();
  json.Key("configs").BeginArray();
  for (const AlgorithmClass& cls : rda::bench::kClasses) {
    for (const bool rda_on : {true, false}) {
      rda::sim::Simulator simulator(MakeOptions(cls, rda_on));
      auto sim_result = simulator.Run();
      if (!sim_result.ok()) {
        std::fprintf(stderr, "%s rda=%d: sim failed: %s\n", cls.name,
                     rda_on ? 1 : 0, sim_result.status().message().c_str());
        return 1;
      }
      rda::Database* db = simulator.db();
      rda::CrashRecoveryReport recovery;
      rda::Status staged = rda::bench::StageCrashAndRecover(db, &recovery);
      if (!staged.ok()) {
        std::fprintf(stderr, "%s rda=%d: staged recovery failed: %s\n",
                     cls.name, rda_on ? 1 : 0, staged.message().c_str());
        return 1;
      }

      const rda::obs::MetricsSnapshot snapshot = db->SnapshotMetrics();
      const uint64_t trace_dropped =
          snapshot.CounterValue("obs.trace_dropped");
      json.BeginObject().Key("config").String(cls.name);
      json.Key("rda_undo").Bool(rda_on);
      json.Key("committed").Uint(sim_result->committed);
      json.Key("total_transfers").Uint(sim_result->total_transfers);
      // Surfaced explicitly: a non-zero drop count means the retained trace
      // is a suffix of the run, not the whole story.
      json.Key("trace_dropped").Uint(trace_dropped);
      json.Key("metrics").Raw(rda::obs::MetricsToJson(snapshot));
      json.Key("recovery_phases").BeginArray();
      for (const rda::obs::PhaseCost& cost : recovery.phases) {
        json.BeginObject();
        json.Key("phase").String(rda::obs::RecoveryPhaseName(cost.phase));
        json.Key("page_transfers").Uint(cost.page_transfers);
        json.Key("wall_ms").Fixed(cost.wall_ms, 3).EndObject();
      }
      json.EndArray().Key("recovery").BeginObject();
      json.Key("parity_undos").Uint(recovery.parity_undos);
      json.Key("logged_undos").Uint(recovery.logged_undos);
      json.Key("redo_applied").Uint(recovery.redo_applied).EndObject();
      json.EndObject();

      std::printf("%-16s rda=%d: %llu committed, %llu transfers, "
                  "%zu recovery phases, %llu trace events dropped\n",
                  cls.name, rda_on ? 1 : 0,
                  static_cast<unsigned long long>(sim_result->committed),
                  static_cast<unsigned long long>(sim_result->total_transfers),
                  recovery.phases.size(),
                  static_cast<unsigned long long>(trace_dropped));
    }
  }
  json.EndArray();
  std::printf("\n");
  return rda::bench::WriteReport("BENCH_obs_report.json", &json) ? 0 : 1;
}
