// Seeded fuzz sweep for CI (the fuzz-soak job) and for local soaking:
// runs a deterministic family of schedules covering the paper's four
// algorithm classes (FORCE/NOFORCE x page/record logging, RDA undo
// toggled by seed) at 1 and 4 threads, checks the invariant oracle on
// every one, and fails loudly — writing each failing schedule (and its
// shrunken repro) to a directory CI uploads as an artifact.
//
// Also runs the acceptance self-test: a deliberately planted
// "recovery drops a committed page" bug must be caught by the oracle and
// shrink to a repro of at most 5 schedule steps.
//
// Writes machine-readable JSON (BENCH_fuzz.json).
//
// Usage: fuzz_report [output.json] [failure_dir] [seeds_per_config]
//        (defaults: BENCH_fuzz.json, fuzz_failures, 63)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "fuzz/runner.h"
#include "fuzz/schedule.h"
#include "fuzz/shrinker.h"
#include "harness.h"

namespace {

using rda::Random;
using rda::fuzz::FaultEvent;
using rda::fuzz::Schedule;

// Derives one schedule deterministically from (class, threads, seed): the
// whole sweep is replayable, and any single failure replays from the
// printed schedule text alone.
Schedule MakeSchedule(bool force, rda::LoggingMode mode, uint32_t threads,
                      uint64_t seed) {
  Schedule schedule;
  schedule.seed = seed;
  schedule.force = force;
  schedule.rda = seed % 2 == 0;  // Both undo schemes, half the sweep each.
  schedule.mode = mode;
  schedule.threads = threads;
  Random rng(seed * 0x9E3779B97F4A7C15ULL + threads * 131 + (force ? 7 : 0) +
             (mode == rda::LoggingMode::kPageLogging ? 0 : 3));
  schedule.num_steps = threads > 1
                           ? 8 + static_cast<uint32_t>(rng.Uniform(8))
                           : 12 + static_cast<uint32_t>(rng.Uniform(16));
  // Steps address micro-ops single-threaded (roughly 6 per transaction) and
  // transaction boundaries multi-threaded.
  const uint32_t step_space =
      threads > 1 ? schedule.num_steps : schedule.num_steps * 6;
  const uint32_t crashes = 1 + static_cast<uint32_t>(rng.Uniform(2));
  for (uint32_t i = 0; i < crashes; ++i) {
    rda::fuzz::CrashPoint crash;
    crash.step = static_cast<uint32_t>(rng.Uniform(step_space));
    if (rng.Bernoulli(0.3)) {
      crash.recovery_faults = 1 + static_cast<uint32_t>(rng.Uniform(4));
    }
    schedule.crash_points.push_back(crash);
  }
  const uint32_t faults = static_cast<uint32_t>(rng.Uniform(3));
  for (uint32_t i = 0; i < faults; ++i) {
    FaultEvent fault;
    fault.step = static_cast<uint32_t>(rng.Uniform(step_space));
    fault.a = static_cast<uint32_t>(rng.Uniform(64));
    const uint64_t pick = rng.Uniform(10);
    if (pick < 3) {
      fault.kind = FaultEvent::Kind::kLatentSector;
    } else if (pick < 5) {
      fault.kind = FaultEvent::Kind::kTransientRead;
      fault.b = 1 + static_cast<uint32_t>(rng.Uniform(3));
    } else if (pick < 7) {
      fault.kind = FaultEvent::Kind::kTransientWrite;
      fault.b = 1 + static_cast<uint32_t>(rng.Uniform(3));
    } else if (pick < 8) {
      fault.kind = FaultEvent::Kind::kBitFlip;
    } else if (pick < 9) {
      fault.kind = FaultEvent::Kind::kTornWrite;
    } else if (threads > 1 || rng.Bernoulli(0.5)) {
      fault.kind = FaultEvent::Kind::kDiskFailOnlineRebuild;
      fault.b = 1000 + static_cast<uint32_t>(rng.Uniform(2000));
    } else {
      fault.kind = FaultEvent::Kind::kDiskFailRebuild;
    }
    schedule.faults.push_back(fault);
  }
  return schedule;
}

void SaveFailure(const std::string& dir, uint32_t index,
                 const std::string& suffix, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/failure_" + std::to_string(index) + suffix + ".sched";
  std::ofstream out(path);
  out << text << "\n";
  std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fuzz.json";
  const std::string failure_dir = argc > 2 ? argv[2] : "fuzz_failures";
  const uint32_t seeds_per_config =
      argc > 3 ? static_cast<uint32_t>(std::strtoul(argv[3], nullptr, 10))
               : 63;

  const uint32_t kThreadCounts[] = {1, 4};

  const auto start = std::chrono::steady_clock::now();
  std::set<std::string> distinct;
  uint32_t runs = 0;
  uint32_t violations = 0;
  uint64_t committed = 0;
  uint64_t recoveries = 0;

  for (const rda::bench::AlgorithmClass& cls : rda::bench::kClasses) {
    for (uint32_t threads : kThreadCounts) {
      for (uint32_t s = 0; s < seeds_per_config; ++s) {
        const uint64_t seed = 1000 + s;
        const Schedule schedule =
            MakeSchedule(cls.force, cls.logging, threads, seed);
        distinct.insert(schedule.ToString());
        rda::Result<rda::fuzz::RunOutcome> outcome =
            rda::fuzz::RunSchedule(schedule);
        ++runs;
        if (!outcome.ok()) {
          ++violations;
          std::fprintf(stderr, "HARNESS FAILURE %s\n  %s\n",
                       schedule.ToString().c_str(),
                       outcome.status().ToString().c_str());
          SaveFailure(failure_dir, violations, "", schedule.ToString());
          continue;
        }
        committed += outcome->committed_txns;
        recoveries += outcome->recoveries;
        if (!outcome->passed) {
          ++violations;
          std::fprintf(stderr, "ORACLE VIOLATION %s\n  %s\n",
                       schedule.ToString().c_str(),
                       outcome->violation.c_str());
          SaveFailure(failure_dir, violations, "", schedule.ToString());
          // Hand the developer the smallest repro we can find, too.
          rda::Result<rda::fuzz::ShrinkResult> shrunk =
              rda::fuzz::Shrink(schedule, {}, /*max_runs=*/120);
          if (shrunk.ok()) {
            std::fprintf(stderr, "  minimized: %s\n    %s\n",
                         shrunk->minimized.ToString().c_str(),
                         shrunk->violation.c_str());
            SaveFailure(failure_dir, violations, "_min",
                        shrunk->minimized.ToString());
          }
        }
      }
      std::fprintf(stderr, "%-16s threads=%u done (%u schedules)\n",
                   cls.name, threads, seeds_per_config);
    }
  }

  // Acceptance self-test: the pipeline must catch a planted recovery bug
  // and shrink it to <= 5 schedule steps.
  rda::fuzz::FuzzOptions buggy;
  buggy.bug = rda::fuzz::InjectedBug::kDropRecoveredPage;
  rda::Result<Schedule> demo_seed = Schedule::Parse(
      "rda-sched v1 seed=7 algo=force,rda,page threads=1 steps=10 "
      "crash=12:0 fault=latent@5:3");
  bool demo_ok = false;
  std::string demo_min;
  uint32_t demo_steps = 0;
  uint32_t demo_runs = 0;
  if (demo_seed.ok()) {
    rda::Result<rda::fuzz::ShrinkResult> shrunk =
        rda::fuzz::Shrink(*demo_seed, buggy);
    if (shrunk.ok()) {
      demo_min = shrunk->minimized.ToString();
      demo_steps = shrunk->minimized.StepCount();
      demo_runs = shrunk->runs;
      demo_ok = demo_steps <= 5;
      std::fprintf(stderr,
                   "planted-bug demo: caught, shrunk to %u steps in %u "
                   "runs: %s\n",
                   demo_steps, demo_runs, demo_min.c_str());
    } else {
      std::fprintf(stderr, "planted-bug demo FAILED: %s\n",
                   shrunk.status().ToString().c_str());
    }
  }

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  rda::obs::JsonWriter json = rda::bench::BeginReport();
  json.Key("schedules").Uint(runs);
  json.Key("distinct").Uint(distinct.size());
  json.Key("violations").Uint(violations);
  json.Key("committed_txns").Uint(committed);
  json.Key("recoveries").Uint(recoveries).Key("demo").BeginObject();
  json.Key("caught_and_shrunk").Bool(demo_ok);
  json.Key("minimized").String(demo_min).Key("step_count").Uint(demo_steps);
  json.Key("shrink_runs").Uint(demo_runs).EndObject();
  json.Key("seconds").Fixed(secs, 3);
  std::fprintf(stderr,
               "fuzz_report: %u schedules (%zu distinct), %u violations, "
               "%llu commits, %llu recoveries, %.1fs -> %s\n",
               runs, distinct.size(), violations,
               static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(recoveries), secs,
               out_path.c_str());
  const bool written = rda::bench::WriteReport(out_path, &json);
  return (written && violations == 0 && demo_ok) ? 0 : 1;
}
