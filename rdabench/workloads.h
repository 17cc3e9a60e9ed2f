// The three rdabench workloads and the result of one run.
#ifndef RDABENCH_WORKLOADS_H_
#define RDABENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rdabench {

// Everything that distinguishes one workload from another. All three run
// RDA on, twin parity, 8 data pages per group; any engine option not set
// here keeps its DatabaseOptions default.
struct WorkloadSpec {
  std::string name;
  bool record_logging = false;  // false = page logging.
  bool force = true;            // FORCE/TOC vs NOFORCE/ACC.
  uint32_t pages = 0;           // Data pages (the paper's S).
  uint32_t page_size = 512;
  uint32_t record_size = 48;    // Record logging only.
  uint32_t buffer_frames = 0;   // The paper's B.
  uint32_t clients = 1;         // Closed-loop client threads.
  uint32_t ops_per_txn = 0;
  double write_fraction = 1.0;  // Share of ops that write.
  double zipf_theta = 0;        // 0 = uniform item choice.
  double abort_fraction = 0;    // Transactions that abort by choice.
  uint32_t checkpoint_every = 0;  // Commits between Checkpoint() calls.
  uint32_t epoch_txns = 0;      // Transactions per epoch's commit phase.
  uint32_t loser_writes = 0;    // Writes of the in-flight loser at a crash.
  // Single-client workloads report their transfer and device metrics over
  // the first `exact_epochs` epochs, which repeat exactly at a fixed seed.
  uint32_t exact_epochs = 0;
};

// Returns false if `name` is not a workload. `tiny` shrinks every size
// for the benchmark's own tests.
bool FindWorkload(const std::string& name, bool tiny, WorkloadSpec* spec);

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;  // Transactions, restarts, rebuilds, gate checks.
  uint64_t failed = 0;     // Hard errors plus failed correctness checks.
  std::vector<std::string> errors;  // First few failures, for the log.
  uint64_t inputs_digest = 0;       // Hash of the seed's generated inputs.
  uint64_t epochs = 0;
  uint64_t latency_samples = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunConfig& config);

}  // namespace rdabench

#endif  // RDABENCH_WORKLOADS_H_
