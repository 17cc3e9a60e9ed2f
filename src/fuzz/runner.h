#ifndef RDA_FUZZ_RUNNER_H_
#define RDA_FUZZ_RUNNER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "fuzz/schedule.h"

namespace rda::fuzz {

// Bugs the runner can plant on purpose, to prove the oracle + shrinker
// pipeline catches what it claims to catch (the acceptance demo in
// bench/fuzz_report and tests/fuzz_test).
enum class InjectedBug : uint8_t {
  kNone = 0,
  // After every successful recovery, silently zero the on-disk image of the
  // lowest page the shadow model says holds committed data — a classic
  // "recovery dropped a committed update" defect. Violates durability AND
  // parity, so either invariant alone would catch it.
  kDropRecoveredPage = 1,
};

struct FuzzOptions {
  InjectedBug bug = InjectedBug::kNone;
};

// What one schedule execution produced. `passed` is false when any oracle
// invariant (or an engine call the schedule cannot legally provoke into
// failing) was violated; `violation` then carries the first diagnosis.
struct RunOutcome {
  bool passed = false;
  std::string violation;
  uint64_t committed_txns = 0;   // Diagnostics: workload actually executed.
  uint32_t recoveries = 0;       // Crash recoveries run (incl. the final one).
};

// Executes `schedule` against a fresh Database and checks the oracle after
// every recovery plus once at the end (always preceded by a final
// Crash+Recover, so NOFORCE configurations face the full durability check
// rather than reading their own buffer pool).
//
// threads == 1: fully deterministic. The workload's transactions are
// flattened into a micro-op list (begin / read / write / steal / commit /
// abort / checkpoint) and `step` indexes that list, so crashes land
// mid-transaction — between a steal and its EOT, inside multi-page updates
// — which is where the twin-parity undo machinery earns its keep.
//
// threads > 1: each worker drives its own deterministic workload over a
// disjoint page partition; `step` counts completed transactions and events
// fire at quiesced transaction boundaries (an online-rebuild fault runs
// concurrently with the next segment's traffic). Thread interleaving makes
// these runs deterministic only up to scheduling, like any concurrency
// test; the oracle must hold for every interleaving.
//
// A non-Ok Result means the HARNESS could not run the schedule (e.g.
// Database::Open failed) — distinct from an oracle violation.
Result<RunOutcome> RunSchedule(const Schedule& schedule,
                               const FuzzOptions& options = {});

}  // namespace rda::fuzz

#endif  // RDA_FUZZ_RUNNER_H_
