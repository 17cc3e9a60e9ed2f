#include <gtest/gtest.h>

#include <map>

#include "sim/simulator.h"
#include "sim/validation.h"

namespace rda::sim {
namespace {

WorkloadOptions BaseWorkload() {
  WorkloadOptions options;
  options.num_pages = 256;
  options.pages_per_txn = 6;
  options.communality = 0.5;
  options.update_txn_fraction = 0.6;
  options.update_probability = 0.7;
  options.hot_window = 32;
  options.seed = 3;
  return options;
}

TEST(WorkloadTest, DeterministicForSeed) {
  WorkloadGenerator a(BaseWorkload());
  WorkloadGenerator b(BaseWorkload());
  for (int i = 0; i < 20; ++i) {
    const TxnScript sa = a.Next();
    const TxnScript sb = b.Next();
    ASSERT_EQ(sa.ops.size(), sb.ops.size());
    for (size_t j = 0; j < sa.ops.size(); ++j) {
      EXPECT_EQ(sa.ops[j].page, sb.ops[j].page);
      EXPECT_EQ(sa.ops[j].is_update, sb.ops[j].is_update);
    }
  }
}

TEST(WorkloadTest, UpdateFractionApproximatelyRespected) {
  WorkloadOptions options = BaseWorkload();
  options.update_txn_fraction = 0.3;
  WorkloadGenerator gen(options);
  int updates = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    updates += gen.Next().is_update_txn;
  }
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.3, 0.03);
}

TEST(WorkloadTest, RetrievalTxnsNeverWrite) {
  WorkloadOptions options = BaseWorkload();
  WorkloadGenerator gen(options);
  for (int i = 0; i < 200; ++i) {
    const TxnScript script = gen.Next();
    if (!script.is_update_txn) {
      for (const TxnOp& op : script.ops) {
        EXPECT_FALSE(op.is_update);
      }
      EXPECT_FALSE(script.client_aborts);
    }
  }
}

TEST(WorkloadTest, CommunalityConcentratesReferences) {
  WorkloadOptions cold = BaseWorkload();
  cold.communality = 0.0;
  WorkloadOptions hot = BaseWorkload();
  hot.communality = 0.95;
  auto distinct = [](WorkloadGenerator& gen) {
    std::map<PageId, int> seen;
    for (int i = 0; i < 200; ++i) {
      for (const TxnOp& op : gen.Next().ops) {
        ++seen[op.page];
      }
    }
    return seen.size();
  };
  WorkloadGenerator cold_gen(cold);
  WorkloadGenerator hot_gen(hot);
  EXPECT_GT(distinct(cold_gen), 2 * distinct(hot_gen));
}

TEST(WorkloadTest, PagesWithinRange) {
  WorkloadOptions options = BaseWorkload();
  options.num_pages = 17;
  WorkloadGenerator gen(options);
  for (int i = 0; i < 100; ++i) {
    for (const TxnOp& op : gen.Next().ops) {
      EXPECT_LT(op.page, 17u);
    }
  }
}

SimOptions SmallSim(bool rda, double c = 0.5) {
  SimOptions options;
  options.db.array.data_pages_per_group = 4;
  options.db.array.parity_copies = 2;
  options.db.array.min_data_pages = 128;
  options.db.array.page_size = 128;
  options.db.buffer.capacity = 24;
  options.db.txn.force = true;
  options.db.txn.rda_undo = rda;
  options.workload.num_pages = 128;
  options.workload.pages_per_txn = 5;
  options.workload.communality = c;
  options.workload.update_txn_fraction = 0.7;
  options.workload.update_probability = 0.8;
  options.workload.abort_probability = 0.05;
  options.workload.hot_window = 20;
  options.workload.seed = 5;
  options.num_transactions = 120;
  options.concurrency = 3;
  options.seed = 5;
  return options;
}

TEST(SimulatorTest, RunsToCompletion) {
  Simulator sim(SmallSim(true));
  auto result = sim.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->committed + result->client_aborts +
                result->deadlock_aborts,
            120u);
  EXPECT_GT(result->committed, 50u);
  EXPECT_GT(result->total_transfers, 0u);
  EXPECT_GT(result->transfers_per_commit, 0.0);
}

TEST(SimulatorTest, RunsToCompletionUnderFaultSchedule) {
  SimOptions options = SmallSim(true);
  options.db.fault.enabled = true;
  options.db.fault.seed = 17;
  options.db.fault.transient_read_p = 0.01;
  options.db.fault.transient_write_p = 0.01;
  options.db.fault.latent_sector_p = 0.002;
  options.db.fault.bit_flip_p = 0.002;
  options.db.fault.torn_write_p = 0.002;
  options.db.fault.max_random_faults = 20;  // Per disk.
  Simulator sim(options);
  auto result = sim.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed, 50u);
  EXPECT_GT(result->faults.total(), 0u);  // The schedule actually fired.
  // Retries and repairs absorbed the schedule; the run ends healthy.
  EXPECT_GE(result->io.io_retries,
            result->faults.transient_reads + result->faults.transient_writes);
  EXPECT_EQ(sim.db()->array()->NumFailedDisks(), 0u);
  ASSERT_TRUE(sim.db()->Checkpoint().ok());
  auto scrub = sim.db()->Scrub();  // Heal whatever the workload never read.
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  auto ok = sim.db()->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST(SimulatorTest, ParityConsistentAfterRun) {
  Simulator sim(SmallSim(true));
  ASSERT_TRUE(sim.Run().ok());
  auto ok = sim.db()->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST(SimulatorTest, RdaReducesTransfersPerCommit) {
  Simulator baseline(SmallSim(false));
  Simulator rda(SmallSim(true));
  auto base_result = baseline.Run();
  auto rda_result = rda.Run();
  ASSERT_TRUE(base_result.ok());
  ASSERT_TRUE(rda_result.ok());
  EXPECT_LT(rda_result->transfers_per_commit,
            base_result->transfers_per_commit);
  EXPECT_GT(rda_result->txn.before_images_avoided, 0u);
}

// Sim-X1 at the model's own parameters (sim/validation.h): for page
// FORCE/TOC the engine's RDA gain must match the analytical model's within
// 6 points at every communality of the sweep, not just in direction.
TEST(SimulatorTest, PageForceRdaGainAgreesWithModel) {
  for (const double c : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
    auto gain = MeasureRdaGain(c, 42);
    ASSERT_TRUE(gain.ok()) << gain.status().ToString();
    EXPECT_NEAR(gain->percent, ModelPageForceTocGain(c), 6.0) << "C = " << c;
  }
}

TEST(SimulatorTest, HigherCommunalityFewerTransfers) {
  Simulator cold(SmallSim(true, 0.1));
  Simulator hot(SmallSim(true, 0.9));
  auto cold_result = cold.Run();
  auto hot_result = hot.Run();
  ASSERT_TRUE(cold_result.ok());
  ASSERT_TRUE(hot_result.ok());
  EXPECT_LT(hot_result->transfers_per_commit,
            cold_result->transfers_per_commit);
}

TEST(SimulatorTest, AbortsReportedSeparately) {
  SimOptions options = SmallSim(true);
  options.workload.abort_probability = 0.5;
  Simulator sim(options);
  auto result = sim.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->client_aborts, 10u);
}

TEST(SimulatorTest, RecordModeRuns) {
  SimOptions options = SmallSim(true);
  options.db.txn.logging_mode = LoggingMode::kRecordLogging;
  options.db.txn.record_size = 16;
  options.db.txn.force = false;
  options.db.checkpoint_interval_updates = 32;
  options.workload.mode = LoggingMode::kRecordLogging;
  options.workload.records_per_page = 6;
  Simulator sim(options);
  auto result = sim.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed, 50u);
  auto ok = sim.db()->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST(SimulatorTest, SurvivesCrashMidWorkloadAndContinues) {
  SimOptions options = SmallSim(true);
  Simulator sim(options);
  ASSERT_TRUE(sim.Run().ok());
  sim.db()->Crash();
  ASSERT_TRUE(sim.db()->Recover().ok());
  auto ok = sim.db()->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // The database is usable again.
  auto txn = sim.db()->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes(sim.db()->user_page_size(), 0x66);
  ASSERT_TRUE(sim.db()->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE(sim.db()->Commit(*txn).ok());
}


TEST(SimulatorTest, DeterministicForSameSeed) {
  Simulator a(SmallSim(true));
  Simulator b(SmallSim(true));
  auto ra = a.Run();
  auto rb = b.Run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->committed, rb->committed);
  EXPECT_EQ(ra->client_aborts, rb->client_aborts);
  EXPECT_EQ(ra->total_transfers, rb->total_transfers);
}

TEST(SimulatorTest, ConcurrencyOneHasNoConflicts) {
  SimOptions options = SmallSim(true);
  options.concurrency = 1;
  Simulator sim(options);
  auto result = sim.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->deadlock_aborts, 0u);
}

TEST(SimulatorTest, StatsPlumbedThrough) {
  Simulator sim(SmallSim(true));
  auto result = sim.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->buffer.hits + result->buffer.misses, 0u);
  EXPECT_GT(result->txn.begun, 0u);
  EXPECT_EQ(result->txn.committed, result->committed);
  EXPECT_GT(result->parity.unlogged_first + result->parity.plain, 0u);
}

TEST(SimulatorTest, ParityStripingLayoutRuns) {
  SimOptions options = SmallSim(true);
  options.db.array.layout_kind = LayoutKind::kParityStriping;
  Simulator sim(options);
  auto result = sim.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->committed, 50u);
  auto ok = sim.db()->VerifyAllParity();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST(SimulatorTest, CheckpointingConfigRuns) {
  SimOptions options = SmallSim(true);
  options.db.txn.force = false;
  options.db.checkpoint_interval_updates = 25;
  Simulator sim(options);
  auto result = sim.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(sim.db()->checkpointer()->checkpoints_taken(), 1u);
}

TEST(WorkloadTest, AbortFlagOnlyForUpdateTxns) {
  WorkloadOptions options = BaseWorkload();
  options.abort_probability = 1.0;
  WorkloadGenerator gen(options);
  for (int i = 0; i < 100; ++i) {
    const TxnScript script = gen.Next();
    EXPECT_EQ(script.client_aborts, script.is_update_txn);
  }
}

}  // namespace
}  // namespace rda::sim
