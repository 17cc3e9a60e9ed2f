// Online media rebuild: the array serves transactions WHILE a replaced
// disk is reconstructed group by group (DESIGN.md section 14). Covers the
// pending-bitmap session (on-demand repair, write promotion), a background
// rebuild (RebuildDisk on a caller-owned thread) racing writers, cancel and
// resume, the nasty windows (crash mid-rebuild, second disk failure
// mid-rebuild) and the parallel VerifyAllParity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "exec/token_bucket.h"
#include "fuzz/runner.h"
#include "fuzz/schedule.h"

namespace rda {
namespace {

DatabaseOptions BaseOptions() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 48;
  options.array.page_size = 128;
  options.buffer.capacity = 12;
  options.txn.force = true;
  options.txn.rda_undo = true;
  return options;
}

bool WaitFor(const std::function<bool()>& done,
             std::chrono::milliseconds timeout = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

class OnlineRebuildTest : public ::testing::Test {
 protected:
  void Open(const DatabaseOptions& options = BaseOptions()) {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  Status WriteTxn(PageId page, uint8_t fill) {
    auto txn = db_->Begin();
    RDA_RETURN_IF_ERROR(txn.status());
    RDA_RETURN_IF_ERROR(db_->WritePage(
        *txn, page, std::vector<uint8_t>(db_->user_page_size(), fill)));
    return db_->Commit(*txn);
  }

  void Populate() {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      ASSERT_TRUE(WriteTxn(page, static_cast<uint8_t>(page + 1)).ok());
    }
  }

  uint8_t DiskByte(PageId page) {
    auto payload = db_->RawReadPage(page);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    return (*payload)[kDataRegionOffset];
  }

  DiskId DataDiskOf(PageId page) {
    return db_->array()->layout().DataLocation(page).disk;
  }

  void VerifyAllPages() {
    for (PageId page = 0; page < db_->num_pages(); ++page) {
      EXPECT_EQ(DiskByte(page), static_cast<uint8_t>(page + 1))
          << "page " << page;
    }
  }

  void ExpectParityConsistent() {
    auto ok = db_->VerifyAllParity();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_TRUE(*ok);
  }

  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// One rebuild path: the session a quiesced database runs and the one an
// online caller runs converge to the same committed state, for every
// algorithm class in the paper's taxonomy.
// ---------------------------------------------------------------------------

struct AlgoConfig {
  const char* name;
  LoggingMode mode;
  bool force;
};

TEST(OnlineVsQuiesced, EndStateMatchesForAllAlgorithmClasses) {
  const AlgoConfig configs[] = {
      {"page/FORCE", LoggingMode::kPageLogging, true},
      {"page/notFORCE", LoggingMode::kPageLogging, false},
      {"record/FORCE", LoggingMode::kRecordLogging, true},
      {"record/notFORCE", LoggingMode::kRecordLogging, false},
  };
  for (const AlgoConfig& config : configs) {
    SCOPED_TRACE(config.name);
    DatabaseOptions options = BaseOptions();
    options.txn.logging_mode = config.mode;
    options.txn.force = config.force;

    auto quiesced_or = Database::Open(options);
    auto online_or = Database::Open(options);
    ASSERT_TRUE(quiesced_or.ok()) << quiesced_or.status().ToString();
    ASSERT_TRUE(online_or.ok()) << online_or.status().ToString();
    std::unique_ptr<Database> quiesced = std::move(quiesced_or).value();
    std::unique_ptr<Database> online = std::move(online_or).value();

    const auto populate = [&](Database* db) {
      for (PageId page = 0; page < db->num_pages(); ++page) {
        auto txn = db->Begin();
        ASSERT_TRUE(txn.ok());
        const uint8_t fill = static_cast<uint8_t>(page * 3 + 7);
        if (config.mode == LoggingMode::kRecordLogging) {
          std::vector<uint8_t> record(options.txn.record_size, fill);
          ASSERT_TRUE(db->WriteRecord(*txn, page, 0, record).ok());
        } else {
          std::vector<uint8_t> bytes(db->user_page_size(), fill);
          ASSERT_TRUE(db->WritePage(*txn, page, bytes).ok());
        }
        ASSERT_TRUE(db->Commit(*txn).ok());
      }
      // notFORCE keeps committed pages in the pool; checkpoint so the
      // on-disk state both rebuild flavours operate on is identical.
      ASSERT_TRUE(db->Checkpoint().ok());
    };
    populate(quiesced.get());
    populate(online.get());

    const DiskId victim = 2;
    ASSERT_TRUE(quiesced->FailDisk(victim).ok());
    ASSERT_TRUE(online->FailDisk(victim).ok());

    auto quiesced_report = quiesced->RebuildDisk(victim);
    ASSERT_TRUE(quiesced_report.ok()) << quiesced_report.status().ToString();
    auto online_report = online->RebuildDisk(victim);
    ASSERT_TRUE(online_report.ok()) << online_report.status().ToString();
    EXPECT_TRUE(online_report->completed);
    EXPECT_FALSE(online->parity()->OnlineRebuildActive());
    EXPECT_TRUE(online->array()->RebuildingDisks().empty());

    // Byte-identical committed state, page by page.
    for (PageId page = 0; page < online->num_pages(); ++page) {
      auto a = quiesced->RawReadPage(page);
      auto b = online->RawReadPage(page);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(*a, *b) << "page " << page;
    }
    for (Database* db : {quiesced.get(), online.get()}) {
      auto ok = db->VerifyAllParity();
      ASSERT_TRUE(ok.ok());
      EXPECT_TRUE(*ok);
    }
  }
}

// ---------------------------------------------------------------------------
// On-demand repair and write promotion while the sweep has not arrived.
// ---------------------------------------------------------------------------

TEST_F(OnlineRebuildTest, ForegroundTrafficServedAndPromotedDuringSession) {
  Open();
  Populate();
  const DiskId victim = DataDiskOf(0);
  // Cache page 0 in the buffer pool: the write below then needs no fetch,
  // so it reaches Propagate while the group is still pending — the pure
  // write-promotion path (a fetch would repair the group on demand first).
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(db_->ReadPage(*txn, 0, &bytes).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto info = db_->parity()->BeginOnlineRebuild(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_GT(info->groups_pending, 0u);
  EXPECT_TRUE(db_->parity()->OnlineRebuildActive());
  EXPECT_TRUE(db_->array()->DiskRebuilding(victim));

  // A committed write to a page on the replaced disk persists directly and
  // retires its group from the sweep (write promotion).
  ASSERT_TRUE(db_->parity()->OnlineGroupPending(0));
  ASSERT_TRUE(WriteTxn(0, 0xAA).ok());
  EXPECT_FALSE(db_->parity()->OnlineGroupPending(0));
  EXPECT_GE(db_->parity()->OnlineWritePromotions(), 1u);

  // A foreground read of a not-yet-rebuilt page repairs its group on
  // demand — the zeroed replacement medium is never served.
  PageId probe = 0;
  for (PageId page = db_->num_pages(); page-- > 0;) {
    if (DataDiskOf(page) == victim &&
        db_->parity()->OnlineGroupPending(
            db_->array()->layout().GroupOf(page))) {
      probe = page;
      break;
    }
  }
  ASSERT_NE(probe, 0u);
  EXPECT_EQ(DiskByte(probe), static_cast<uint8_t>(probe + 1));
  EXPECT_GE(db_->parity()->OnlineOnDemandRepairs(), 1u);
  EXPECT_FALSE(db_->parity()->OnlineGroupPending(
      db_->array()->layout().GroupOf(probe)));

  // The background sweep finishes whatever the foreground did not touch;
  // every group is accounted for exactly once.
  auto report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  const uint64_t cleared = report->groups_background +
                           report->groups_on_demand +
                           report->write_promotions;
  EXPECT_EQ(cleared, info->groups_pending);
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  ASSERT_EQ(report->phases.size(), 1u);
  EXPECT_EQ(report->phases[0].phase, obs::RecoveryPhase::kMediaRebuild);

  EXPECT_EQ(DiskByte(0), 0xAA);
  for (PageId page = 1; page < db_->num_pages(); ++page) {
    EXPECT_EQ(DiskByte(page), static_cast<uint8_t>(page + 1));
  }
  ExpectParityConsistent();
}

TEST_F(OnlineRebuildTest, OnDemandRepairIsIdempotentAgainstTheSweep) {
  Open();
  Populate();
  const DiskId victim = 1;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto info = db_->parity()->BeginOnlineRebuild(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  // Touch EVERY page first: all pending groups are repaired on demand, so
  // the sweep that follows must find nothing left to do (the pending bit
  // protocol makes repair-on-access and the sweep idempotent).
  for (PageId page = 0; page < db_->num_pages(); ++page) {
    EXPECT_EQ(DiskByte(page), static_cast<uint8_t>(page + 1));
  }
  EXPECT_EQ(db_->parity()->OnlineRebuildGroupsRemaining(), 0u);
  EXPECT_EQ(db_->parity()->OnlineOnDemandRepairs(), info->groups_pending);

  auto report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->groups_background, 0u);
  EXPECT_EQ(report->groups_on_demand, info->groups_pending);
  VerifyAllPages();
  ExpectParityConsistent();
}

// The session accessors count one session each; the registry's
// parity.online_* counters keep counting across sessions.
TEST_F(OnlineRebuildTest, SessionCountersCountOnlyTheirOwnSession) {
  Open();
  Populate();
  const Layout& layout = db_->array()->layout();

  // Session 1: every pending group is repaired on demand.
  ASSERT_TRUE(db_->FailDisk(1).ok());
  auto first = db_->parity()->BeginOnlineRebuild(1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  VerifyAllPages();
  auto report = db_->RebuildDisk(1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->completed);
  const uint64_t first_on_demand = db_->parity()->OnlineOnDemandRepairs();
  const uint64_t first_promotions = db_->parity()->OnlineWritePromotions();
  EXPECT_EQ(first_on_demand, first->groups_pending);
  EXPECT_EQ(first_promotions, 0u);

  // Session 2 starts from zero and counts only its own repairs.
  const DiskId victim = 2;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto second = db_->parity()->BeginOnlineRebuild(victim);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(db_->parity()->OnlineOnDemandRepairs(), 0u);
  EXPECT_EQ(db_->parity()->OnlineWritePromotions(), 0u);
  std::vector<PageId> on_victim;
  for (PageId page = 0; page < db_->num_pages(); ++page) {
    if (DataDiskOf(page) == victim) {
      on_victim.push_back(page);
    }
  }
  ASSERT_GE(on_victim.size(), 2u);
  // The last page Populate wrote is still buffered, so writing it reads
  // nothing: its group is retired by write promotion.
  const PageId promoted = on_victim.back();
  const PageId repaired = on_victim.front();
  ASSERT_NE(layout.GroupOf(promoted), layout.GroupOf(repaired));
  ASSERT_TRUE(
      WriteTxn(promoted, static_cast<uint8_t>(promoted + 1)).ok());
  EXPECT_EQ(DiskByte(repaired), static_cast<uint8_t>(repaired + 1));
  report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->completed);
  const uint64_t second_on_demand = db_->parity()->OnlineOnDemandRepairs();
  const uint64_t second_promotions = db_->parity()->OnlineWritePromotions();
  EXPECT_GE(second_on_demand, 1u);
  EXPECT_GE(second_promotions, 1u);
  EXPECT_EQ(report->groups_on_demand, second_on_demand);
  EXPECT_EQ(report->write_promotions, second_promotions);
  EXPECT_EQ(report->groups_background + second_on_demand + second_promotions,
            second->groups_pending);

  const obs::MetricsSnapshot metrics = db_->SnapshotMetrics();
  EXPECT_EQ(metrics.CounterValue("parity.online_on_demand_rebuilds"),
            first_on_demand + second_on_demand);
  EXPECT_EQ(metrics.CounterValue("parity.online_write_promotions"),
            first_promotions + second_promotions);
  VerifyAllPages();
  ExpectParityConsistent();
}

// ---------------------------------------------------------------------------
// Nasty window 1: crash in the middle of an online rebuild. The persistent
// rebuilding flag makes Recover() fail the half-written medium and redo the
// rebuild before normal crash recovery.
// ---------------------------------------------------------------------------

TEST_F(OnlineRebuildTest, CrashMidOnlineRebuildConvergesOnRecover) {
  Open();
  Populate();
  const DiskId victim = 2;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  auto info = db_->parity()->BeginOnlineRebuild(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  // Rebuild only the first few groups, then crash: the rest of the medium
  // still holds stale zeros that MUST NOT survive recovery.
  uint32_t rebuilt = 0;
  for (GroupId group = 0; group < db_->array()->num_groups() && rebuilt < 3;
       ++group) {
    bool did_work = false;
    auto outcome = db_->parity()->RebuildGroupIfPending(group, &did_work);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (did_work) {
      ++rebuilt;
    }
  }
  ASSERT_GT(db_->parity()->OnlineRebuildGroupsRemaining(), 0u);

  db_->Crash();
  ASSERT_FALSE(db_->array()->RebuildingDisks().empty());
  auto report = db_->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  EXPECT_EQ(db_->array()->NumFailedDisks(), 0u);
  VerifyAllPages();
  ExpectParityConsistent();
}

// ---------------------------------------------------------------------------
// Nasty window 2: a second disk fails while the first is rebuilding online.
// Single parity cannot reconstruct the remaining groups: typed DataLoss,
// and the archive restores the committed state.
// ---------------------------------------------------------------------------

TEST_F(OnlineRebuildTest, SecondFailureDuringOnlineRebuildIsDataLoss) {
  Open();
  Populate();
  ASSERT_TRUE(db_->TakeArchive().ok());
  const DiskId first = 1;
  const DiskId second = 3;
  ASSERT_TRUE(db_->FailDisk(first).ok());
  auto info = db_->parity()->BeginOnlineRebuild(first);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(db_->FailDisk(second).ok());

  auto report = db_->RebuildDisk(first);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsDataLoss()) << report.status().ToString();

  auto restored = db_->RestoreFromArchive();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(db_->array()->NumFailedDisks(), 0u);
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  VerifyAllPages();
  ExpectParityConsistent();
}

// ---------------------------------------------------------------------------
// Satellite: RepairEscalations reports partial outcomes instead of dying on
// the first failed rebuild (two-disk escalation regression).
// ---------------------------------------------------------------------------

TEST_F(OnlineRebuildTest, TwoDiskEscalationReportsBothUnrepaired) {
  DatabaseOptions options = BaseOptions();
  options.fault.enabled = true;
  options.io.disk_error_budget = 1;
  Open(options);
  Populate();
  ASSERT_TRUE(db_->TakeArchive().ok());

  // Exhaust the one-error budget on two different disks: both escalate
  // (force-fail), which exceeds the single-failure model.
  const DiskId d0 = DataDiskOf(0);
  // A page on another disk AND in another parity group, so the first
  // strike's reconstruction does not collide with the second fault.
  PageId other = 0;
  for (PageId page = 1; page < db_->num_pages(); ++page) {
    if (DataDiskOf(page) != d0 &&
        db_->array()->layout().GroupOf(page) !=
            db_->array()->layout().GroupOf(0)) {
      other = page;
      break;
    }
  }
  ASSERT_NE(other, 0u);
  const DiskId d1 = DataDiskOf(other);
  db_->array()->injector(d0)->InjectLatentSector(
      db_->array()->layout().DataLocation(0).slot);
  db_->array()->injector(d1)->InjectLatentSector(
      db_->array()->layout().DataLocation(other).slot);
  EXPECT_EQ(DiskByte(0), 1u);  // Served degraded; d0 escalates.
  // The second strike escalates d1 too; the read itself may fail typed
  // (reconstructing through a group that spans the already-failed d0).
  (void)db_->RawReadPage(other);
  ASSERT_EQ(db_->array()->EscalatedDisks().size(), 2u);

  auto repairs = db_->RepairEscalations();
  ASSERT_TRUE(repairs.ok()) << repairs.status().ToString();
  // Neither disk is repairable while the other is down, but the pass walks
  // BOTH in disk order and reports them typed instead of erroring out.
  EXPECT_EQ(repairs->repaired, 0u);
  ASSERT_EQ(repairs->unrepaired.size(), 2u);
  EXPECT_EQ(repairs->unrepaired[0], std::min(d0, d1));
  EXPECT_EQ(repairs->unrepaired[1], std::max(d0, d1));
  EXPECT_FALSE(repairs->first_error.ok());
  EXPECT_TRUE(repairs->first_error.IsFailedPrecondition())
      << repairs->first_error.ToString();

  auto restored = db_->RestoreFromArchive();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  VerifyAllPages();
  ExpectParityConsistent();
}

// ---------------------------------------------------------------------------
// Satellite: VerifyAllParity is sharded over the recovery pool and returns
// the same verdict at every thread count.
// ---------------------------------------------------------------------------

TEST(ParallelVerify, SerialAndShardedAgree) {
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions options = BaseOptions();
    options.recovery.recovery_threads = threads;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    std::unique_ptr<Database> db = std::move(db_or).value();
    for (PageId page = 0; page < db->num_pages(); ++page) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db->WritePage(*txn, page,
                                std::vector<uint8_t>(db->user_page_size(),
                                                     0x5A))
                      .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    auto healthy = db->VerifyAllParity();
    ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
    EXPECT_TRUE(*healthy);

    // Corrupt the valid twin of group 0 behind the engine's back: every
    // thread count must spot it.
    const GroupState& state = db->parity()->directory().Get(0);
    const PhysicalLocation loc =
        db->array()->layout().ParityLocation(0, state.valid_twin);
    PageImage bogus(db->array()->page_size());
    bogus.header.parity_state = ParityState::kCommitted;
    bogus.header.timestamp = 1;
    bogus.payload[40] = 0xEE;
    ASSERT_TRUE(db->array()->disk(loc.disk)->Write(loc.slot, bogus).ok());
    auto corrupted = db->VerifyAllParity();
    ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
    EXPECT_FALSE(*corrupted);
  }
}

// ---------------------------------------------------------------------------
// One rebuild path: RebuildDisk begins, resumes or refuses a session.
// ---------------------------------------------------------------------------

TEST_F(OnlineRebuildTest, RebuildDiskFinishesACancelledSessionOfItsDisk) {
  Open();
  Populate();
  const DiskId victim = 1;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  const std::atomic<bool> cancel{true};
  OnlineRebuildOptions options;
  options.cancel = &cancel;
  auto cancelled = db_->RebuildDisk(victim, options);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_FALSE(cancelled->completed);
  ASSERT_TRUE(db_->parity()->OnlineRebuildActive());
  // The replacement medium is installed, so the disk no longer reads as
  // failed: the call resumes the session instead of refusing it.
  EXPECT_FALSE(db_->array()->DiskFailed(victim));

  auto report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->groups_background,
            db_->parity()->OnlineRebuildGroupsTotal());
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  VerifyAllPages();
  ExpectParityConsistent();
}

TEST_F(OnlineRebuildTest, RebuildDiskRefusesWhileAnotherDisksSessionIsActive) {
  Open();
  Populate();
  const DiskId active = 1;
  const DiskId other = 3;
  ASSERT_TRUE(db_->FailDisk(active).ok());
  ASSERT_TRUE(db_->parity()->BeginOnlineRebuild(active).ok());

  auto refused = db_->RebuildDisk(other);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_EQ(db_->parity()->online_rebuild_disk(), active);

  auto report = db_->RebuildDisk(active);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  VerifyAllPages();
  ExpectParityConsistent();
}

// Two sweeps of one session: the first parks (paused) right after Begin,
// a second finishes the session under it, and the first then resumes to
// find nothing left. Exactly one of them ends the session; the other
// returns a completed report instead of failing on the ended session.
TEST_F(OnlineRebuildTest, SecondSweepOfASessionEndsItWithoutFailingTheFirst) {
  Open();
  Populate();
  const DiskId victim = 1;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  std::atomic<bool> pause{true};
  OnlineRebuildOptions options;
  options.pause = &pause;
  Result<MediaRecoveryReport> parked = Status::Aborted("not run");
  std::thread first([&] { parked = db_->RebuildDisk(victim, options); });
  const bool began = WaitFor([&] {
    return db_->parity()->OnlineRebuildActive() &&
           !db_->array()->DiskFailed(victim);
  });
  Result<MediaRecoveryReport> second =
      began ? db_->RebuildDisk(victim) : Status::Aborted("no session");
  pause.store(false, std::memory_order_release);
  first.join();
  ASSERT_TRUE(began);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->completed);
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_TRUE(parked->completed);
  EXPECT_EQ(parked->groups_background, 0u);
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  EXPECT_EQ(db_->array()->NumFailedDisks(), 0u);
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  VerifyAllPages();
  ExpectParityConsistent();
}

// Two RebuildDisk calls that both find no session race into Begin (say,
// RepairEscalations and a caller's rebuild thread on one escalated disk).
// Begin is serialized: exactly one call begins the session, the other
// resumes it, and both return Ok. Run under TSan in CI.
TEST_F(OnlineRebuildTest, ConcurrentRebuildsOfOneDiskBeginOneSession) {
  Open();
  Populate();
  const DiskId victim = 1;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  // The paused sweep keeps the first call's session open until the second
  // call has arrived: a call opens its media-rebuild phase only after its
  // precondition checks, so two phase-begin events mean both got past them.
  std::atomic<bool> pause{true};
  OnlineRebuildOptions options;
  options.pause = &pause;
  const auto phases_begun = [&] {
    int begun = 0;
    for (const obs::TraceEvent& event : db_->obs()->trace()->Events()) {
      begun += event.kind == obs::EventKind::kPhaseBegin &&
               event.detail ==
                   static_cast<int64_t>(obs::RecoveryPhase::kMediaRebuild);
    }
    return begun;
  };
  std::atomic<bool> go{false};
  Result<MediaRecoveryReport> reports[2] = {Status::Aborted("not run"),
                                            Status::Aborted("not run")};
  std::vector<std::thread> callers;
  for (auto& report : reports) {
    callers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      report = db_->RebuildDisk(victim, options);
    });
  }
  go.store(true, std::memory_order_release);
  const bool both_arrived = WaitFor([&] { return phases_begun() == 2; });
  pause.store(false, std::memory_order_release);
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_TRUE(both_arrived);
  int begun = 0;
  for (const auto& report : reports) {
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->completed);
    begun += report->resumed ? 0 : 1;
  }
  EXPECT_EQ(begun, 1);
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  EXPECT_EQ(db_->array()->NumFailedDisks(), 0u);
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  VerifyAllPages();
  ExpectParityConsistent();
}

// At four recovery threads the unthrottled sweep is sharded; a cancel
// still leaves the session active and a later call finishes it.
TEST_F(OnlineRebuildTest, CancelledShardedSweepIsFinishedByALaterRebuild) {
  DatabaseOptions options = BaseOptions();
  options.recovery.recovery_threads = 4;
  Open(options);
  Populate();
  const DiskId victim = 2;
  ASSERT_TRUE(db_->FailDisk(victim).ok());
  std::atomic<bool> pause{true};
  std::atomic<bool> cancel{false};
  OnlineRebuildOptions sweep;
  sweep.pause = &pause;
  sweep.cancel = &cancel;
  Result<MediaRecoveryReport> cancelled = Status::Aborted("not run");
  std::thread worker([&] { cancelled = db_->RebuildDisk(victim, sweep); });
  const bool began = WaitFor([&] {
    return db_->parity()->OnlineRebuildActive() &&
           !db_->array()->DiskFailed(victim);
  });
  // Foreground reads repair a group on demand while the bands nap.
  if (began) {
    EXPECT_EQ(DiskByte(0), 1u);
  }
  cancel.store(true, std::memory_order_release);
  worker.join();
  ASSERT_TRUE(began);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_FALSE(cancelled->completed);
  EXPECT_EQ(cancelled->groups_background, 0u);
  ASSERT_TRUE(db_->parity()->OnlineRebuildActive());
  EXPECT_GT(db_->parity()->OnlineRebuildGroupsRemaining(), 0u);

  auto report = db_->RebuildDisk(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->groups_background + report->groups_on_demand +
                report->write_promotions,
            db_->parity()->OnlineRebuildGroupsTotal());
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  EXPECT_TRUE(db_->array()->RebuildingDisks().empty());
  VerifyAllPages();
  ExpectParityConsistent();
}

// ---------------------------------------------------------------------------
// Soak: real concurrency — writers commit non-stop while a caller-owned
// thread runs RebuildDisk under them (run under TSan in CI). Zero
// foreground unavailability and a consistent end state.
// ---------------------------------------------------------------------------

TEST_F(OnlineRebuildTest, WritersCommitThroughoutBackgroundRebuildSoak) {
  DatabaseOptions options = BaseOptions();
  options.array.min_data_pages = 192;  // 48 groups: a sweep worth racing.
  options.buffer.capacity = 24;
  Open(options);
  Populate();
  const DiskId victim = 2;
  ASSERT_TRUE(db_->FailDisk(victim).ok());

  // Writers own disjoint page ranges, so every commit must succeed: any
  // kBusy / IoError during the rebuild is an availability bug.
  constexpr uint32_t kWriters = 3;
  const PageId span = db_->num_pages() / kWriters;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> writers;
  for (uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(/*seed=*/w + 1);
      const PageId base = w * span;
      while (!stop.load(std::memory_order_acquire)) {
        const PageId page = base + static_cast<PageId>(rng.Uniform(span));
        const uint8_t fill = static_cast<uint8_t>(page + 1);
        if (WriteTxn(page, fill).ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // 48 groups x 5 tokens = 240 tokens: a 150-token bucket would stretch a
  // sweep of every group past a second, so the writers genuinely race it.
  exec::TokenBucket throttle(/*tokens_per_sec=*/150);
  OnlineRebuildOptions rebuild_options;
  rebuild_options.throttle = &throttle;
  Result<MediaRecoveryReport> report = Status::Aborted("not run");
  std::thread rebuilder(
      [&] { report = db_->RebuildDisk(victim, rebuild_options); });
  rebuilder.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : writers) {
    thread.join();
  }
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->completed) << "background rebuild did not complete";
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(commits.load(), 0u);
  EXPECT_EQ(db_->array()->NumFailedDisks(), 0u);
  EXPECT_FALSE(db_->parity()->OnlineRebuildActive());
  VerifyAllPages();
  ExpectParityConsistent();
}

// Promoted fuzzer repro (minimized by the schedule shrinker). Four workers
// commit against a throttled online rebuild; the rebuild's cancellation
// plumbing shares WorkerPool::ParallelFor with on-demand repair, and a
// real I/O error from one chunk used to be masked by a racing kAborted
// from another — surfacing as a "clean" rebuild whose groups were never
// reconstructed. The oracle's parity + twin-structure invariants catch the
// masked error; pinned here so error-over-abort ranking never regresses.
TEST(FuzzRepro, OnlineRebuildUnderConcurrentCommitsReportsRealErrors) {
  auto schedule = fuzz::Schedule::Parse(
      "rda-sched v1 seed=4242 algo=force,rda,record threads=4 steps=10 "
      "crash=8:0 fault=failon@3:1:1500");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  auto outcome = fuzz::RunSchedule(*schedule);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->passed) << outcome->violation;
}

}  // namespace
}  // namespace rda
