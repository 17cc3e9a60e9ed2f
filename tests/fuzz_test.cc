// The deterministic schedule fuzzer's own test suite: schedule text
// round-trips, the bounded smoke corpus (every .sched file under
// tests/fuzz_corpus must pass the oracle), a four-class smoke matrix, and
// the self-test that proves the pipeline catches bugs — a deliberately
// planted "recovery drops a committed page" defect must be detected AND
// shrink to a tiny repro.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/runner.h"
#include "fuzz/schedule.h"
#include "fuzz/shrinker.h"

namespace rda::fuzz {
namespace {

TEST(ScheduleText, RoundTripsThroughToStringAndParse) {
  Schedule schedule;
  schedule.seed = 424242;
  schedule.force = false;
  schedule.rda = true;
  schedule.mode = LoggingMode::kRecordLogging;
  schedule.threads = 4;
  schedule.num_steps = 37;
  schedule.crash_points.push_back({12, 0});
  schedule.crash_points.push_back({29, 3});
  schedule.faults.push_back(
      {FaultEvent::Kind::kLatentSector, 5, 17, 0});
  schedule.faults.push_back(
      {FaultEvent::Kind::kTransientRead, 8, 3, 2});
  schedule.faults.push_back(
      {FaultEvent::Kind::kDiskFailOnlineRebuild, 20, 1, 1500});
  schedule.faults.push_back({FaultEvent::Kind::kArchive, 24, 0, 0});
  schedule.faults.push_back({FaultEvent::Kind::kTornTwin, 26, 9, 0});

  const std::string text = schedule.ToString();
  Result<Schedule> parsed = Schedule::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << " from " << text;
  EXPECT_TRUE(*parsed == schedule) << text << " vs " << parsed->ToString();
  // And the text form is a fixpoint.
  EXPECT_EQ(parsed->ToString(), text);
}

TEST(ScheduleText, DefaultsRoundTripToo) {
  Schedule schedule;
  Result<Schedule> parsed = Schedule::Parse(schedule.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == schedule);
}

TEST(ScheduleText, RejectsMalformedInput) {
  const char* kBad[] = {
      "",
      "not-a-sched v1 steps=3",
      "rda-sched v2 steps=3",
      "rda-sched v1",                             // steps= is mandatory
      "rda-sched v1 steps=x",
      "rda-sched v1 steps=3 algo=force,rda",      // missing logging mode
      "rda-sched v1 steps=3 algo=force,rda,cake",
      "rda-sched v1 steps=3 threads=0",
      "rda-sched v1 steps=3 crash=5",             // missing recovery_faults
      "rda-sched v1 steps=3 fault=latent:5",      // missing '@'
      "rda-sched v1 steps=3 fault=gremlin@5:1",
      "rda-sched v1 steps=3 fault=archive@5:1",   // archive takes no operand
      "rda-sched v1 steps=3 fault=torntwin@5",    // torntwin needs a page
      "rda-sched v1 steps=3 wat=7",
  };
  for (const char* text : kBad) {
    EXPECT_FALSE(Schedule::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(ScheduleText, StepCountCoversWorkloadAndEvents) {
  Result<Schedule> parsed = Schedule::Parse(
      "rda-sched v1 steps=10 crash=3:0,7:1 fault=latent@5:2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->StepCount(), 13u);
}

// Every algorithm class the paper studies, single-threaded, with a
// mid-stream crash: the oracle must hold. This is the cheap always-on
// smoke version of the fuzz-soak sweep.
TEST(FuzzSmoke, AllFourAlgorithmClassesSurviveACrashSchedule) {
  const struct {
    bool force;
    LoggingMode mode;
  } kClasses[] = {
      {true, LoggingMode::kPageLogging},
      {true, LoggingMode::kRecordLogging},
      {false, LoggingMode::kPageLogging},
      {false, LoggingMode::kRecordLogging},
  };
  for (const auto& cls : kClasses) {
    for (bool rda : {true, false}) {
      Schedule schedule;
      schedule.seed = 17 + (cls.force ? 1 : 0) + (rda ? 2 : 0) +
                      (cls.mode == LoggingMode::kPageLogging ? 4 : 0);
      schedule.force = cls.force;
      schedule.rda = rda;
      schedule.mode = cls.mode;
      schedule.threads = 1;
      schedule.num_steps = 8;
      schedule.crash_points.push_back({13, 0});
      Result<RunOutcome> outcome = RunSchedule(schedule);
      ASSERT_TRUE(outcome.ok())
          << schedule.ToString() << ": " << outcome.status().ToString();
      EXPECT_TRUE(outcome->passed)
          << schedule.ToString() << ": " << outcome->violation;
      EXPECT_GT(outcome->committed_txns, 0u) << schedule.ToString();
      EXPECT_GE(outcome->recoveries, 2u) << schedule.ToString();
    }
  }
}

TEST(FuzzSmoke, MidRecoveryCrashScheduleConverges) {
  Result<Schedule> schedule = Schedule::Parse(
      "rda-sched v1 seed=88 algo=force,rda,page threads=1 steps=10 "
      "crash=11:2,23:4");
  ASSERT_TRUE(schedule.ok());
  Result<RunOutcome> outcome = RunSchedule(*schedule);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->passed) << outcome->violation;
}

// The committed seed corpus: every .sched file under tests/fuzz_corpus is
// replayed and must pass. New minimized repros get committed here (or
// promoted to a named regression test) so they run forever after.
TEST(FuzzCorpus, EveryCommittedScheduleStillPasses) {
  const std::filesystem::path dir = RDA_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t ran = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sched") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string text;
    std::getline(in, text);
    ASSERT_FALSE(text.empty()) << entry.path();
    Result<Schedule> schedule = Schedule::Parse(text);
    ASSERT_TRUE(schedule.ok())
        << entry.path() << ": " << schedule.status().ToString();
    Result<RunOutcome> outcome = RunSchedule(*schedule);
    ASSERT_TRUE(outcome.ok())
        << entry.path() << ": " << outcome.status().ToString();
    EXPECT_TRUE(outcome->passed)
        << entry.path() << " (" << text << "): " << outcome->violation;
    ++ran;
  }
  EXPECT_GE(ran, 7u) << "seed corpus went missing from " << dir;
}

// Self-test of the whole pipeline: plant a known bug (recovery silently
// zeroes a committed page), prove the oracle catches it, prove the
// shrinker reduces the repro to a handful of steps, and prove the
// minimized schedule still distinguishes buggy from correct.
TEST(FuzzSelfTest, PlantedRecoveryBugIsCaughtAndShrinksSmall) {
  Result<Schedule> parsed = Schedule::Parse(
      "rda-sched v1 seed=7 algo=force,rda,page threads=1 steps=10 "
      "crash=12:0 fault=latent@5:3");
  ASSERT_TRUE(parsed.ok());
  FuzzOptions buggy;
  buggy.bug = InjectedBug::kDropRecoveredPage;

  Result<RunOutcome> outcome = RunSchedule(*parsed, buggy);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_FALSE(outcome->passed) << "planted bug went undetected";

  Result<ShrinkResult> shrunk = Shrink(*parsed, buggy);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_LE(shrunk->minimized.StepCount(), 5u)
      << "repro did not minimize: " << shrunk->minimized.ToString();
  EXPECT_FALSE(shrunk->violation.empty());

  // The minimized schedule still fails under the bug...
  Result<RunOutcome> replay = RunSchedule(shrunk->minimized, buggy);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->passed) << shrunk->minimized.ToString();
  // ...and passes on the correct engine (it pins the bug, not the fuzzer).
  Result<RunOutcome> clean = RunSchedule(shrunk->minimized);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->passed)
      << shrunk->minimized.ToString() << ": " << clean->violation;
}

TEST(FuzzSelfTest, ShrinkRefusesAPassingSchedule) {
  Schedule schedule;
  schedule.num_steps = 3;
  Result<ShrinkResult> shrunk = Shrink(schedule);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_TRUE(shrunk.status().IsFailedPrecondition())
      << shrunk.status().ToString();
}

TEST(FuzzMultiThreaded, FourWorkersWithCrashAndLatentFaultHoldUp) {
  Result<Schedule> schedule = Schedule::Parse(
      "rda-sched v1 seed=913 algo=noforce,rda,page threads=4 steps=12 "
      "crash=6:0 fault=latent@3:9");
  ASSERT_TRUE(schedule.ok());
  Result<RunOutcome> outcome = RunSchedule(*schedule);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->passed) << outcome->violation;
  EXPECT_GT(outcome->committed_txns, 0u);
}

}  // namespace
}  // namespace rda::fuzz
