#ifndef RDA_FUZZ_SCHEDULE_H_
#define RDA_FUZZ_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/transaction_manager.h"

namespace rda::fuzz {

// One scripted fault of a schedule. `step` indexes the schedule's step
// space: the flattened micro-op list in single-threaded runs, transaction
// boundaries in multi-threaded ones (see runner.h). `a`/`b` are
// kind-specific operands, kept as plain integers so a schedule stays a
// compact, order-independent value.
struct FaultEvent {
  enum class Kind : uint8_t {
    kLatentSector = 0,   // a = data page index (mod num_pages).
    kTransientRead = 1,  // a = page, b = consecutive failures (clamped <=3,
    kTransientWrite = 2, //     always below the retry budget: absorbed).
    kBitFlip = 3,        // a = page; payload corruption caught by checksum.
    kTornWrite = 4,      // a = page; next write to it is torn mid-payload.
    // Disk failure + full rebuild, as ONE event so no schedule leaves a
    // disk degraded across unrelated steps. a = disk (mod num_disks).
    kDiskFailRebuild = 5,
    // Same, but via the online (group-by-group, concurrent with traffic in
    // multi-threaded runs) rebuild path.
    kDiskFailOnlineRebuild = 6,
    // TakeArchive with log truncation at the next point with no active
    // transaction. No operand.
    kArchive = 7,
    // a = page; the next write of the non-valid (working-to-be) parity twin
    // of its group is torn.
    kTornTwin = 8,
  };
  Kind kind = Kind::kLatentSector;
  uint32_t step = 0;
  uint32_t a = 0;
  uint32_t b = 0;

  bool operator==(const FaultEvent&) const = default;
};

// A crash at `step`. recovery_faults == 0 is a plain Crash() + Recover();
// N > 0 additionally crashes the FIRST recovery after N recovery actions
// (Database::RecoverWithInjectedFault) before recovering for real — the
// recovery-idempotence window.
struct CrashPoint {
  uint32_t step = 0;
  uint32_t recovery_faults = 0;

  bool operator==(const CrashPoint&) const = default;
};

// A deterministic, replayable fuzz schedule: everything the runner needs to
// reproduce one workload + crash/fault interleaving bit-for-bit. The text
// form (ToString/Parse) is what failing runs print, what the seed corpus
// stores, and what promoted regression tests embed:
//
//   rda-sched v1 seed=42 algo=noforce,rda,page threads=4 steps=40
//       crash=3:0,17:2 fault=latent@5:2,failon@9:0
//
// algo = {force|noforce},{rda|norda},{page|record}; crash entries are
// step:recovery_faults; fault entries are kind@step:a[:b] with kind in
// {latent,tread,twrite,flip,torn,fail,failon,torntwin}, or archive@step.
struct Schedule {
  uint64_t seed = 1;
  bool force = true;
  bool rda = true;
  LoggingMode mode = LoggingMode::kPageLogging;
  uint32_t threads = 1;   // 1 = micro-op steps; >1 = txn-boundary steps.
  uint32_t num_steps = 20;  // Transactions drawn from the workload.
  std::vector<CrashPoint> crash_points;
  std::vector<FaultEvent> faults;

  bool operator==(const Schedule&) const = default;

  // Size measure used by the shrinker and the acceptance criteria: the
  // workload length plus every scheduled event.
  uint32_t StepCount() const {
    return num_steps + static_cast<uint32_t>(crash_points.size()) +
           static_cast<uint32_t>(faults.size());
  }

  std::string ToString() const;
  static Result<Schedule> Parse(const std::string& text);
};

}  // namespace rda::fuzz

#endif  // RDA_FUZZ_SCHEDULE_H_
