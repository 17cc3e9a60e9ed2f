// Long-running "everything at once" soak: hundreds of transactions over
// many epochs, each epoch ending in a crash, a media failure, an archive,
// or a catastrophic two-disk loss — with the oracle checked after every
// epoch. This is the closest thing to a production burn-in the simulator
// can express.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "common/random.h"
#include "core/database.h"

namespace rda {
namespace {

struct SoakCase {
  uint64_t seed;
  bool force;
  bool rda;
};

std::string SoakName(const SoakCase& c) {
  return "Seed" + std::to_string(c.seed) + (c.force ? "Force" : "NoForce") +
         (c.rda ? "Rda" : "NoRda");
}

std::string CaseName(const ::testing::TestParamInfo<SoakCase>& info) {
  return SoakName(info.param);
}

// Without it gtest prints the raw bytes, padding included, into the ctest
// name.
void PrintTo(const SoakCase& c, std::ostream* os) { *os << SoakName(c); }

class SoakTest : public ::testing::TestWithParam<SoakCase> {
 protected:
  static constexpr uint32_t kPages = 64;

  void SetUp() override {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = kPages;
    options.array.page_size = 128;
    options.buffer.capacity = 14;
    options.txn.force = GetParam().force;
    options.txn.rda_undo = GetParam().rda;
    if (!GetParam().force) {
      options.checkpoint_interval_updates = 24;
    }
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    rng_ = std::make_unique<Random>(GetParam().seed * 77 + 5);
  }

  void RunEpochWorkload(std::map<PageId, uint8_t>* oracle, int txn_count) {
    for (int i = 0; i < txn_count; ++i) {
      auto txn = db_->Begin();
      ASSERT_TRUE(txn.ok());
      std::map<PageId, uint8_t> writes;
      const int ops = 1 + static_cast<int>(rng_->Uniform(4));
      bool busy = false;
      for (int op = 0; op < ops; ++op) {
        const PageId page = static_cast<PageId>(rng_->Uniform(kPages));
        const uint8_t fill =
            static_cast<uint8_t>(rng_->UniformRange(1, 250));
        const Status status = db_->WritePage(
            *txn, page,
            std::vector<uint8_t>(db_->user_page_size(), fill));
        if (status.IsBusy()) {
          busy = true;
          break;
        }
        ASSERT_TRUE(status.ok()) << status.ToString();
        writes[page] = fill;
      }
      if (busy || rng_->Bernoulli(0.2)) {
        ASSERT_TRUE(db_->Abort(*txn).ok());
      } else {
        ASSERT_TRUE(db_->Commit(*txn).ok());
        for (const auto& [page, fill] : writes) {
          (*oracle)[page] = fill;
        }
      }
    }
  }

  void VerifyOracle(const std::map<PageId, uint8_t>& oracle,
                    const char* when) {
    for (const auto& [page, fill] : oracle) {
      auto payload = db_->RawReadPage(page);
      ASSERT_TRUE(payload.ok()) << when;
      ASSERT_EQ((*payload)[kDataRegionOffset], fill)
          << when << ", page " << page;
    }
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(*ok) << when;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Random> rng_;
};

TEST_P(SoakTest, TwentyEpochsOfEverything) {
  std::map<PageId, uint8_t> oracle;
  bool archived = false;
  for (int epoch = 0; epoch < 20; ++epoch) {
    RunEpochWorkload(&oracle, 25);

    const double dice = rng_->NextDouble();
    if (dice < 0.35) {
      // System crash.
      db_->Crash();
      ASSERT_TRUE(db_->Recover().ok()) << "epoch " << epoch;
    } else if (dice < 0.55) {
      // Single-disk media failure (quiesced via checkpoint first so the
      // durable oracle check below is exact).
      ASSERT_TRUE(db_->Checkpoint().ok());
      const DiskId victim =
          static_cast<DiskId>(rng_->Uniform(db_->array()->num_disks()));
      ASSERT_TRUE(db_->FailDisk(victim).ok());
      auto report = db_->RebuildDisk(victim);
      ASSERT_TRUE(report.ok()) << "epoch " << epoch;
    } else if (dice < 0.70) {
      // Quiescent archive (+ log truncation).
      ASSERT_TRUE(db_->TakeArchive().ok()) << "epoch " << epoch;
      archived = true;
    } else if (dice < 0.80 && archived) {
      // Catastrophe: two disks at once, restore from archive + log.
      ASSERT_TRUE(db_->FailDisk(0).ok());
      ASSERT_TRUE(db_->FailDisk(2).ok());
      ASSERT_TRUE(db_->RestoreFromArchive().ok()) << "epoch " << epoch;
    } else {
      // Quiet epoch: scrub and carry on.
      auto scrub = db_->Scrub();
      ASSERT_TRUE(scrub.ok());
      EXPECT_TRUE(scrub->repaired.empty()) << "epoch " << epoch;
    }

    // Everything committed so far must be durable-readable. (After a plain
    // epoch data may still be buffered; checkpoint to make the read-back
    // through RawReadPage exact.)
    ASSERT_TRUE(db_->Checkpoint().ok());
    VerifyOracle(oracle, ("epoch " + std::to_string(epoch)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SoakTest,
                         ::testing::Values(SoakCase{1, false, true},
                                           SoakCase{2, true, true},
                                           SoakCase{3, false, false},
                                           SoakCase{4, true, false},
                                           SoakCase{5, false, true}),
                         CaseName);

// ---------------------------------------------------------------------------
// Fault soak: the same seeded workload run twice — once fault-free, once
// under a randomized schedule of transient, latent, bit-flip and torn-write
// faults on every disk. Retry + repair-on-read must absorb all of it: same
// final bytes, a clean final scrub, and counters that account for the
// injected faults (DESIGN.md section 10).
// ---------------------------------------------------------------------------

struct FaultSoakOutcome {
  std::vector<std::vector<uint8_t>> pages;
  FaultStats injected;
  IoPolicyStats policy;
  ParityStats parity;
};

class FaultSoakTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPages = 64;
  static constexpr uint64_t kWorkloadSeed = 4242;

  void RunWorkload(bool with_faults, FaultSoakOutcome* out) {
    DatabaseOptions options;
    options.array.data_pages_per_group = 4;
    options.array.min_data_pages = kPages;
    options.array.page_size = 128;
    options.buffer.capacity = 14;
    options.txn.force = true;
    options.txn.rda_undo = true;
    if (with_faults) {
      options.fault.enabled = true;
      options.fault.seed = 99;
      options.fault.transient_read_p = 0.01;
      options.fault.transient_write_p = 0.01;
      options.fault.latent_sector_p = 0.002;
      options.fault.bit_flip_p = 0.002;
      options.fault.torn_write_p = 0.002;
      options.fault.max_random_faults = 25;  // Per disk.
    }
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    std::unique_ptr<Database> db = std::move(db_or).value();

    // The workload stream is seeded independently of the injectors, and no
    // decision in it depends on fault outcomes — both runs execute the
    // exact same transaction history.
    Random rng(kWorkloadSeed);
    for (int epoch = 0; epoch < 8; ++epoch) {
      for (int t = 0; t < 25; ++t) {
        auto txn = db->Begin();
        ASSERT_TRUE(txn.ok());
        const int ops = 1 + static_cast<int>(rng.Uniform(4));
        for (int op = 0; op < ops; ++op) {
          const PageId page = static_cast<PageId>(rng.Uniform(kPages));
          const uint8_t fill =
              static_cast<uint8_t>(rng.UniformRange(1, 250));
          ASSERT_TRUE(
              db->WritePage(*txn, page,
                            std::vector<uint8_t>(db->user_page_size(), fill))
                  .ok())
              << "epoch " << epoch << " txn " << t;
        }
        if (rng.Bernoulli(0.2)) {
          ASSERT_TRUE(db->Abort(*txn).ok());
        } else {
          ASSERT_TRUE(db->Commit(*txn).ok());
        }
      }
      ASSERT_TRUE(db->Checkpoint().ok());
    }

    // Heal everything the workload left behind. Scrub passes can draw NEW
    // faults from the schedule (their own I/O rolls the dice too), but the
    // per-disk fault budget is finite, so the scrub converges to a clean
    // pass.
    uint64_t healed = 0;
    bool clean = false;
    for (int pass = 0; pass < 6 && !clean; ++pass) {
      auto scrub = db->Scrub();
      ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
      healed += scrub->sectors_repaired;
      clean = scrub->sectors_repaired == 0 && scrub->repaired.empty();
    }
    EXPECT_TRUE(clean) << "scrub did not converge to a clean pass";

    out->pages.clear();
    for (PageId page = 0; page < kPages; ++page) {
      auto payload = db->RawReadPage(page);
      ASSERT_TRUE(payload.ok()) << "page " << page;
      out->pages.push_back(std::move(payload).value());
    }
    auto parity_ok = db->VerifyAllParity();
    ASSERT_TRUE(parity_ok.ok());
    EXPECT_TRUE(*parity_ok);
    out->injected = db->array()->fault_stats();
    out->policy = db->array()->policy_stats();
    out->parity = db->parity()->stats();
  }
};

TEST_F(FaultSoakTest, FaultScheduleConvergesToFaultFreeState) {
  FaultSoakOutcome clean;
  RunWorkload(/*with_faults=*/false, &clean);
  EXPECT_EQ(clean.injected.total(), 0u);
  EXPECT_EQ(clean.policy.io_retries, 0u);

  FaultSoakOutcome faulted;
  RunWorkload(/*with_faults=*/true, &faulted);

  // The schedule actually exercised every fault kind.
  EXPECT_GT(faulted.injected.transient_reads + faulted.injected.transient_writes,
            0u);
  EXPECT_GT(faulted.injected.latent_sectors, 0u);
  EXPECT_GT(faulted.injected.bit_flips + faulted.injected.torn_writes, 0u);

  // End-state equivalence: every page byte-identical to the fault-free run
  // (embedded metadata included — repairs restore exact images).
  ASSERT_EQ(clean.pages.size(), faulted.pages.size());
  for (PageId page = 0; page < kPages; ++page) {
    EXPECT_EQ(clean.pages[page], faulted.pages[page]) << "page " << page;
  }

  // Counter accounting. Every transient consumed (at least) one retry;
  // every repair traces back to an injected persistent fault; ordinary
  // rewrites may clear a latent sector before any read trips over it, so
  // repairs are bounded by injections, not equal to them. The default
  // error budget (0 = unlimited) never escalates a disk.
  EXPECT_GE(faulted.policy.io_retries,
            faulted.injected.transient_reads +
                faulted.injected.transient_writes);
  EXPECT_GT(faulted.policy.transient_faults, 0u);
  EXPECT_GT(faulted.parity.latent_repairs + faulted.parity.corruption_repairs,
            0u);
  EXPECT_LE(faulted.parity.latent_repairs, faulted.injected.latent_sectors);
  EXPECT_LE(faulted.parity.corruption_repairs,
            faulted.injected.bit_flips + faulted.injected.torn_writes);
  EXPECT_EQ(faulted.policy.escalations, 0u);
}

}  // namespace
}  // namespace rda
