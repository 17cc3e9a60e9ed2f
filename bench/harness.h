// Shared pieces of the report benches: the paper's algorithm-class matrix,
// the base engine options of each class, the staged crash that feeds the
// recovery-phase sections, and the report-file helpers every BENCH_*.json
// goes through.
#ifndef RDA_BENCH_HARNESS_H_
#define RDA_BENCH_HARNESS_H_

#include <string>

#include "core/database.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace rda::bench {

// One of the paper's four algorithm classes (Sections 5.2/5.3): page vs
// record logging x FORCE/TOC vs NOFORCE/ACC. RDA undo on/off is the second
// axis of every matrix. `name` is the key bench/compare_bench.py matches
// baselines on.
struct AlgorithmClass {
  const char* name;
  LoggingMode logging;
  bool force;
};

inline constexpr AlgorithmClass kClasses[] = {
    {"page_force", LoggingMode::kPageLogging, true},
    {"page_noforce", LoggingMode::kPageLogging, false},
    {"record_force", LoggingMode::kRecordLogging, true},
    {"record_noforce", LoggingMode::kRecordLogging, false},
};

// The class's engine configuration on the benches' common array: 8 data
// pages per group, twin parity, 512 data pages of 512 bytes, 48-byte
// records. Each bench sets its own buffer, log and checkpoint knobs on top.
DatabaseOptions ClassOptions(const AlgorithmClass& cls, bool rda_undo);

// Leaves 4 in-flight transactions with 3 stolen pages each on disk, then
// crashes and recovers: the restart behind every recovery-phase section.
// A page another transaction still locks is skipped.
Status StageCrashAndRecover(Database* db, CrashRecoveryReport* report);

// {"count","p50","p95","p99","max"} of a latency histogram, bucket-
// interpolated; zeros when the histogram is absent.
void WritePercentiles(
    obs::JsonWriter* json,
    const obs::MetricsSnapshot::HistogramSnapshot* histogram);

// A report document: an open, indented top-level object whose first key
// is "host" (nproc, compiler, build type), so a committed baseline names
// the machine and build that produced it. The bench adds its own keys and
// hands the writer to WriteReport.
obs::JsonWriter BeginReport();

// Closes the report object and writes it to `path`; false (with a message
// on stderr) when the file cannot be written.
bool WriteReport(const std::string& path, obs::JsonWriter* json);

}  // namespace rda::bench

#endif  // RDA_BENCH_HARNESS_H_
