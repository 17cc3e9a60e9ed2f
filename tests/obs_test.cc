#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "io/io_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "storage/page.h"

namespace rda {
namespace {

using obs::EventKind;
using obs::GroupFigState;
using obs::Subsystem;
using obs::TraceEvent;

// --- registry ---

TEST(MetricsRegistryTest, CountersAndGaugesAreStableAndSnapshotted) {
  obs::MetricsRegistry registry;
  obs::Counter* reads = registry.GetCounter("storage.reads");
  obs::Counter* writes = registry.GetCounter("storage.writes");
  EXPECT_EQ(reads, registry.GetCounter("storage.reads"));  // Stable pointer.
  reads->Add(3);
  writes->Add();
  registry.GetGauge("sim.committed")->Set(-7);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("storage.reads"), 3u);
  EXPECT_EQ(snapshot.CounterValue("storage.writes"), 1u);
  EXPECT_EQ(snapshot.CounterValue("no.such.metric"), 0u);
  EXPECT_EQ(snapshot.CounterSum("storage."), 4u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].first, "sim.committed");
  EXPECT_EQ(snapshot.gauges[0].second, -7);

  registry.ResetAll();
  EXPECT_EQ(registry.Snapshot().CounterSum(""), 0u);
  EXPECT_EQ(reads->value(), 0u);  // Reset in place; pointer still valid.
}

TEST(MetricsRegistryTest, NullSafeHelpersAreNoOps) {
  obs::Inc(nullptr);
  obs::Inc(nullptr, 42);
  obs::Observe(nullptr, 1.0);
  obs::Emit(nullptr, TraceEvent{});
  EXPECT_EQ(obs::GetCounter(nullptr, "x"), nullptr);
  EXPECT_EQ(obs::GetGauge(nullptr, "x"), nullptr);
  EXPECT_EQ(obs::GetHistogram(nullptr, "x", {1.0}), nullptr);
}

TEST(HistogramTest, BucketingCountsAndOverflow) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("txn.transfers", {1, 2, 4});
  ASSERT_EQ(h->buckets().size(), 4u);  // 3 bounds + overflow.
  h->Observe(0.5);  // le_1
  h->Observe(1.0);  // le_1 (inclusive upper bound)
  h->Observe(1.5);  // le_2
  h->Observe(4.0);  // le_4
  h->Observe(9.0);  // overflow
  EXPECT_EQ(h->buckets()[0], 2u);
  EXPECT_EQ(h->buckets()[1], 1u);
  EXPECT_EQ(h->buckets()[2], 1u);
  EXPECT_EQ(h->buckets()[3], 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 16.0);
  EXPECT_DOUBLE_EQ(h->max(), 9.0);

  // Later Get with different bounds returns the same histogram.
  EXPECT_EQ(registry.GetHistogram("txn.transfers", {100}), h);
  h->Reset();
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->buckets()[0], 0u);
}

// --- quantile estimation ---

TEST(QuantileTest, InterpolatesWithinBuckets) {
  // 30 observations spread 10/10/10 over [0,10], (10,20], (20,30].
  const std::vector<double> bounds = {10, 20, 30};
  const std::vector<uint64_t> buckets = {10, 10, 10, 0};
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 0.0, 28), 0.0);
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 0.5, 28), 15.0);
  // target 27 lands 7/10 into the third bucket, whose upper edge is the
  // observed max (28), not the raw bound: 20 + 0.7 * 8.
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 0.9, 28), 25.6);
  // q=1 is the observed max, never the (larger) bucket bound.
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 1.0, 28), 28.0);
  // q outside [0,1] clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, -1.0, 28), 0.0);
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 2.0, 28), 28.0);
}

TEST(QuantileTest, OverflowBucketIsBoundedByObservedMax) {
  // All 4 observations above the last bound; the observed max (100) is the
  // upper edge, not +inf.
  const std::vector<double> bounds = {10};
  const std::vector<uint64_t> buckets = {0, 4};
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 0.5, 100), 55.0);
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 1.0, 100),
                   100.0);
}

TEST(QuantileTest, ObservedMaxBelowLastFiniteBoundClampsTheEdge) {
  // 8 observations, all in (10, 100], but none larger than 40: the report
  // must never claim a latency above 40.
  const std::vector<double> bounds = {10, 100};
  const std::vector<uint64_t> buckets = {0, 8, 0};
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 1.0, 40), 40.0);
  // Interpolation inside the clamped bucket uses the honest edge too:
  // p50 = 10 + 0.5 * (40 - 10).
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 0.5, 40), 25.0);
  // A degenerate max below the bucket's lower edge cannot drive the
  // estimate backwards below the lower bound.
  EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, 1.0, 5), 10.0);
}

TEST(QuantileTest, SingleObservationIsItsOwnQuantile) {
  // One observation of 3 with bounds far above it: every quantile is 3,
  // not an interpolated point inside [0, 10].
  const std::vector<double> bounds = {10, 100};
  const std::vector<uint64_t> buckets = {1, 0, 0};
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::QuantileFromBuckets(bounds, buckets, q, 3), 3.0)
        << "q=" << q;
  }
  // Through the Histogram member too (snapshots its own max).
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("one.obs", {10, 100});
  h->Observe(3);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 3.0);
}

TEST(QuantileTest, EdgeQuantilesAfterManyObservations) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("edge.q", {10, 100, 1000});
  for (int i = 1; i <= 50; ++i) {
    h->Observe(i * 2);  // 2..100: max 100 == the second bound exactly.
  }
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 0.0);   // Lower edge of first bucket.
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 100.0); // Exactly the observed max.
  EXPECT_LE(h->Quantile(0.99), 100.0);
}

TEST(QuantileTest, EmptyHistogramIsZeroAndMemberMatchesFree) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("txn.q", {10, 20});
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // Empty.
  h->Observe(5);
  h->Observe(15);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const auto* snap = snapshot.FindHistogram("txn.q");
  ASSERT_NE(snap, nullptr);
  for (const double q : {0.25, 0.5, 0.95}) {
    EXPECT_DOUBLE_EQ(h->Quantile(q), obs::Quantile(*snap, q)) << q;
  }
  EXPECT_EQ(snapshot.FindHistogram("no.such"), nullptr);
}

// --- span rings ---

TEST(SpanRingTest, PushSnapshotAndDropCounting) {
  obs::ThreadSpanRing ring(3, 4);
  for (int i = 0; i < 6; ++i) {
    obs::SpanRecord record;
    record.start_ns = static_cast<uint64_t>(i) * 100;
    record.duration_ns = 10;
    record.detail = i;
    record.kind = obs::SpanKind::kWalFlush;
    ring.Push(record);
  }
  EXPECT_EQ(ring.thread_index(), 3u);
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);  // Capacity 4: the two oldest overwritten.
  const std::vector<obs::SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].detail, static_cast<int64_t>(2 + i));  // Oldest-first.
    EXPECT_EQ(spans[i].kind, obs::SpanKind::kWalFlush);
  }
}

TEST(SpanCollectorTest, ScopedSpanRecordsNestingDepth) {
  obs::SpanCollector collector(64);
  {
    obs::ScopedSpan outer(&collector, obs::SpanKind::kTxnCommit, nullptr, 7);
    {
      obs::ScopedSpan inner(&collector, obs::SpanKind::kWalFlush);
    }
  }
  const auto threads = collector.SnapshotAll();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].spans.size(), 2u);
  // The inner span completes (and is pushed) first.
  EXPECT_EQ(threads[0].spans[0].kind, obs::SpanKind::kWalFlush);
  EXPECT_EQ(threads[0].spans[0].depth, 1u);
  EXPECT_EQ(threads[0].spans[1].kind, obs::SpanKind::kTxnCommit);
  EXPECT_EQ(threads[0].spans[1].depth, 0u);
  EXPECT_EQ(threads[0].spans[1].detail, 7);
  // The outer interval contains the inner one.
  EXPECT_LE(threads[0].spans[1].start_ns, threads[0].spans[0].start_ns);
  EXPECT_GE(threads[0].spans[1].duration_ns, threads[0].spans[0].duration_ns);
  EXPECT_EQ(collector.TotalRecorded(), 2u);
  EXPECT_EQ(collector.TotalDropped(), 0u);
}

TEST(SpanCollectorTest, ScopedSpanFeedsHistogramAndNullIsNoOp) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("txn.span_us", {1000});
  {
    obs::ScopedSpan span(nullptr, obs::SpanKind::kTxnCommit, h);
  }
  EXPECT_EQ(h->count(), 1u);  // Histogram-only span still measures.
  {
    obs::ScopedSpan span(nullptr, obs::SpanKind::kTxnCommit);  // Fully null.
  }
  EXPECT_EQ(h->count(), 1u);
}

TEST(SpanCollectorTest, RecordIntervalKeepsGivenTimestamps) {
  obs::SpanCollector collector(8);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::milliseconds(5);
  collector.RecordInterval(obs::SpanKind::kRecoveryPhase, start, end, 3);
  const auto threads = collector.SnapshotAll();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].spans.size(), 1u);
  EXPECT_EQ(threads[0].spans[0].duration_ns, 5'000'000u);
  EXPECT_EQ(threads[0].spans[0].detail, 3);
}

// --- flight recorder ---

TEST(FlightRecorderTest, TriggerCapturesRecentSpansAndTrace) {
  obs::SpanCollector collector(16);
  obs::TraceBuffer trace(8);
  obs::FlightRecorder flight(&collector, &trace, 4);
  for (int i = 0; i < 6; ++i) {
    obs::ScopedSpan span(&collector, obs::SpanKind::kParityPropagate, nullptr,
                         i);
  }
  TraceEvent event;
  event.subsystem = Subsystem::kStorage;
  trace.Record(event);

  EXPECT_EQ(flight.trigger_count(), 0u);
  obs::TriggerFlight(&flight, "disk 2 escalated");
  EXPECT_EQ(flight.trigger_count(), 1u);
  EXPECT_EQ(flight.last_reason(), "disk 2 escalated");
  const std::string dump = flight.last_dump();
  EXPECT_NE(dump.find("\"reason\":\"disk 2 escalated\""), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("parity.propagate"), std::string::npos) << dump;
  // last_n = 4: only the most recent spans survive; detail 0 and 1 are cut.
  EXPECT_NE(dump.find("\"detail\":5"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("\"detail\":1}"), std::string::npos) << dump;
  obs::TriggerFlight(nullptr, "no-op");  // Null-safe.
}

// --- trace buffer ---

TEST(TraceBufferTest, RingWrapsAndCountsDropped) {
  obs::TraceBuffer trace(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent event;
    event.detail = i;
    trace.Record(event);
  }
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].detail, static_cast<int64_t>(6 + i));  // Oldest kept.
    if (i > 0) {
      EXPECT_GT(events[i].tick, events[i - 1].tick);  // Chronological.
    }
  }
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_recorded(), 0u);
}

// --- exporters ---

// Minimal scanner: the numeric value following `"key":` in `json`.
int64_t JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " not in " << json;
  if (at == std::string::npos) {
    return -1;
  }
  return std::stoll(json.substr(at + needle.size()));
}

TEST(ExportTest, MetricsJsonRoundTripsValues) {
  obs::MetricsRegistry registry;
  registry.GetCounter("wal.records")->Add(12);
  registry.GetGauge("sim.committed")->Set(34);
  obs::Histogram* h = registry.GetHistogram("txn.t", {2});
  h->Observe(1);
  h->Observe(5);

  const std::string json = obs::MetricsToJson(registry.Snapshot());
  EXPECT_EQ(JsonNumber(json, "wal.records"), 12);
  EXPECT_EQ(JsonNumber(json, "sim.committed"), 34);
  EXPECT_EQ(JsonNumber(json, "count"), 2);
  EXPECT_NE(json.find("\"bounds\":[2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[1,1]"), std::string::npos) << json;

  const std::string csv = obs::MetricsToCsv(registry.Snapshot());
  EXPECT_NE(csv.find("counter,wal.records,12"), std::string::npos) << csv;
  EXPECT_NE(csv.find("gauge,sim.committed,34"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram,txn.t.count,2"), std::string::npos) << csv;
}

TEST(ExportTest, TraceJsonNamesStatesAndCountsDrops) {
  obs::TraceBuffer trace(2);
  TraceEvent twin;
  twin.subsystem = Subsystem::kParity;
  twin.kind = EventKind::kTwinTransition;
  twin.group = 3;
  twin.detail = 1;
  twin.from_state = static_cast<uint8_t>(ParityState::kObsolete);
  twin.to_state = static_cast<uint8_t>(ParityState::kWorking);
  trace.Record(twin);
  TraceEvent group;
  group.subsystem = Subsystem::kParity;
  group.kind = EventKind::kGroupTransition;
  group.from_state = static_cast<uint8_t>(GroupFigState::kClean);
  group.to_state = static_cast<uint8_t>(GroupFigState::kDirty);
  trace.Record(group);

  const std::string json = obs::TraceToJson(trace);
  EXPECT_EQ(JsonNumber(json, "total_recorded"), 2);
  EXPECT_EQ(JsonNumber(json, "dropped"), 0);
  EXPECT_NE(json.find("twin_transition"), std::string::npos) << json;
  EXPECT_NE(json.find("\"from\":\"obsolete\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"to\":\"working\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"from\":\"clean\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"to\":\"dirty\""), std::string::npos) << json;
}

// --- engine wiring ---

DatabaseOptions SmallDb() {
  DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.parity_copies = 2;
  options.array.min_data_pages = 32;
  options.array.page_size = 256;
  options.buffer.capacity = 16;
  options.txn.force = true;
  options.txn.rda_undo = true;
  return options;
}

std::vector<TraceEvent> ParityEvents(Database* db, EventKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : db->obs()->trace()->Events()) {
    if (event.subsystem == Subsystem::kParity && event.kind == kind) {
      out.push_back(event);
    }
  }
  return out;
}

TEST(ObsWiringTest, Figure3GroupTransitionsTracedThroughCommit) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x11);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  // FORCE commit: the steal dirties group 0 (CLEAN -> DIRTY), finalization
  // cleans it (DIRTY -> CLEAN) — Figure 3 exactly.
  const auto transitions = ParityEvents(db->get(),
                                        EventKind::kGroupTransition);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].from_state,
            static_cast<uint8_t>(GroupFigState::kClean));
  EXPECT_EQ(transitions[0].to_state,
            static_cast<uint8_t>(GroupFigState::kDirty));
  EXPECT_EQ(transitions[0].group, 0u);
  EXPECT_EQ(transitions[0].txn, *txn);
  EXPECT_EQ(transitions[1].from_state,
            static_cast<uint8_t>(GroupFigState::kDirty));
  EXPECT_EQ(transitions[1].to_state,
            static_cast<uint8_t>(GroupFigState::kClean));
}

TEST(ObsWiringTest, Figure8TwinTransitionsTracedThroughCommit) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x22);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  // obsolete -> working (unlogged steal), working -> committed +
  // committed -> obsolete (finalization).
  const auto twins = ParityEvents(db->get(), EventKind::kTwinTransition);
  ASSERT_EQ(twins.size(), 3u);
  EXPECT_EQ(twins[0].from_state, static_cast<uint8_t>(ParityState::kObsolete));
  EXPECT_EQ(twins[0].to_state, static_cast<uint8_t>(ParityState::kWorking));
  EXPECT_EQ(twins[1].from_state, static_cast<uint8_t>(ParityState::kWorking));
  EXPECT_EQ(twins[1].to_state, static_cast<uint8_t>(ParityState::kCommitted));
  EXPECT_EQ(twins[2].from_state,
            static_cast<uint8_t>(ParityState::kCommitted));
  EXPECT_EQ(twins[2].to_state, static_cast<uint8_t>(ParityState::kObsolete));
}

TEST(ObsWiringTest, CountersFollowTheWorkload) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x33);
  for (int i = 0; i < 3; ++i) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->WritePage(*txn, static_cast<PageId>(i * 4), bytes).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  const obs::MetricsSnapshot snapshot = (*db)->SnapshotMetrics();
  EXPECT_EQ(snapshot.CounterValue("txn.begun"), 3u);
  EXPECT_EQ(snapshot.CounterValue("txn.committed"), 3u);
  EXPECT_EQ(snapshot.CounterValue("parity.unlogged_first"), 3u);
  EXPECT_EQ(snapshot.CounterValue("parity.commits_finalized"), 3u);
  // Obs counters mirror the engine's own I/O accounting.
  EXPECT_EQ(snapshot.CounterValue("storage.reads") +
                snapshot.CounterValue("storage.writes"),
            (*db)->array()->counters().total());
  EXPECT_EQ(snapshot.CounterValue("storage.xor_computations"),
            (*db)->array()->counters().xor_computations);
  // BOT + chain-head + after-image + commit per transaction.
  EXPECT_EQ(snapshot.CounterValue("wal.records"), 3u * 4u);
  // Per-disk counters partition the array totals.
  EXPECT_EQ(snapshot.CounterSum("storage.disk"),
            (*db)->array()->counters().total());
  // Every commit observed into the transfer and latency histograms.
  const auto* transfers = snapshot.FindHistogram("txn.transfers_per_commit");
  ASSERT_NE(transfers, nullptr);
  EXPECT_EQ(transfers->count, 3u);
  const auto* commit_us = snapshot.FindHistogram("txn.commit_us");
  ASSERT_NE(commit_us, nullptr);
  EXPECT_EQ(commit_us->count, 3u);
  // FORCE propagation drives the parity latency histogram too.
  const auto* propagate = snapshot.FindHistogram("parity.propagate_us");
  ASSERT_NE(propagate, nullptr);
  EXPECT_GT(propagate->count, 0u);
}

TEST(ObsWiringTest, PerTxnTransferAttributionMatchesEngineTotals) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x44);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->WritePage(*txn, 5, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  // A single transaction drove all I/O, so its attributed transfers are the
  // engine totals; the commit event carries the same number.
  bool found = false;
  for (const TraceEvent& event : (*db)->obs()->trace()->Events()) {
    if (event.kind == EventKind::kTxnCommit && event.txn == *txn) {
      EXPECT_EQ(static_cast<uint64_t>(event.value),
                (*db)->TotalPageTransfers());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsWiringTest, RecoveryPhaseBreakdownCoversAllPhases) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x55);

  // One winner, one loser with a stolen page.
  auto winner = (*db)->Begin();
  ASSERT_TRUE(winner.ok());
  ASSERT_TRUE((*db)->WritePage(*winner, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*winner).ok());
  auto loser = (*db)->Begin();
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE((*db)->WritePage(*loser, 4, bytes).ok());
  Frame* frame = (*db)->txn_manager()->pool()->Lookup(4);
  ASSERT_NE(frame, nullptr);
  ASSERT_TRUE((*db)->txn_manager()->pool()->PropagateFrame(frame).ok());

  const uint64_t before = (*db)->TotalPageTransfers();
  (*db)->Crash();
  auto report = (*db)->Recover();
  ASSERT_TRUE(report.ok());
  const uint64_t spent = (*db)->TotalPageTransfers() - before;

  const obs::RecoveryPhase expected[] = {
      obs::RecoveryPhase::kDirectoryRebuild, obs::RecoveryPhase::kAnalysis,
      obs::RecoveryPhase::kRollForward,      obs::RecoveryPhase::kLoggedUndo,
      obs::RecoveryPhase::kParityUndo,       obs::RecoveryPhase::kRedo,
      obs::RecoveryPhase::kLoserResolution,
  };
  ASSERT_EQ(report->phases.size(), 7u);
  uint64_t phase_transfers = 0;
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(report->phases[i].phase, expected[i]) << "phase " << i;
    phase_transfers += report->phases[i].page_transfers;
  }
  EXPECT_EQ(phase_transfers, spent);  // The phases account for all the I/O.
  EXPECT_GT(report->phases[0].page_transfers, 0u);  // Directory scan (S/N).
  EXPECT_GT((*db)->SnapshotMetrics().CounterValue(
                "recovery.phase.parity_undo.runs"),
            0u);
}

TEST(ObsWiringTest, DisabledObsIsNullAndEngineStillWorks) {
  DatabaseOptions options = SmallDb();
  options.obs.enable_metrics = false;
  options.obs.enable_trace = false;
  options.obs.enable_spans = false;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->obs(), nullptr);

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x66);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  EXPECT_TRUE((*db)->SnapshotMetrics().counters.empty());
  // The stats views count without a registry.
  const Database::StatsSnapshot stats = (*db)->Stats();
  EXPECT_EQ(stats.txn.begun, 1u);
  EXPECT_EQ(stats.txn.committed, 1u);
  EXPECT_EQ(stats.parity.unlogged_first, 1u);
  EXPECT_EQ(stats.parity.commits_finalized, 1u);
  EXPECT_GT(stats.buffer.misses, 0u);
  EXPECT_TRUE((*db)->DumpTrace("/tmp/never-written").IsFailedPrecondition());
  EXPECT_TRUE((*db)->DumpMetrics("/tmp/never-written")
                  .IsFailedPrecondition());
  EXPECT_TRUE((*db)->DumpChromeTrace("/tmp/never-written")
                  .IsFailedPrecondition());

  // The phase breakdown is engine state, not observability: still filled.
  (*db)->Crash();
  auto report = (*db)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->phases.size(), 7u);
}

// Each field of the component stats views is the registry counter of the
// same name, not a second count of the same event: after a workload that
// moves every kind of field, view and export agree.
TEST(ObsWiringTest, EveryStatsViewFieldIsARegistryCounter) {
  DatabaseOptions options = SmallDb();
  options.buffer.capacity = 4;   // A loser writing 8 pages must steal.
  options.fault.enabled = true;  // All probabilities zero: scripted faults.
  options.io.width = 2;
  options.io.queue_watermark = 1u << 20;  // Writes stay queued until purged.
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  Database* d = db->get();

  // A latent sector on group 0's valid twin: the first write through the
  // group heals it.
  const GroupState& group0 = d->parity()->directory().Get(0);
  const PhysicalLocation twin =
      d->array()->layout().ParityLocation(0, group0.valid_twin);
  d->array()->injector(twin.disk)->InjectLatentSector(twin.slot);

  std::vector<uint8_t> bytes(d->user_page_size(), 0x77);
  auto winner = d->Begin();
  ASSERT_TRUE(winner.ok());
  ASSERT_TRUE(d->WritePage(*winner, 0, bytes).ok());
  ASSERT_TRUE(d->Commit(*winner).ok());
  ASSERT_TRUE(d->Checkpoint().ok());
  auto loser = d->Begin();
  ASSERT_TRUE(loser.ok());
  for (PageId page = 1; page < 32; page += 4) {
    ASSERT_TRUE(d->WritePage(*loser, page, bytes).ok());
  }
  ASSERT_TRUE(d->Abort(*loser).ok());
  // The commit's data write is still journaled: failing its disk purges it.
  ASSERT_TRUE(d->FailDisk(d->array()->layout().DataLocation(0).disk).ok());

  const Database::StatsSnapshot stats = d->Stats();
  const io::IoEngine::StatsSnapshot io = d->array()->io_engine()->stats();
  const IoPolicyStats policy = d->array()->policy_stats();
  EXPECT_GT(stats.buffer.steals, 0u);
  EXPECT_EQ(stats.txn.aborted, 1u);
  EXPECT_GT(stats.parity.parity_undos, 0u);
  EXPECT_EQ(stats.parity.latent_repairs, 1u);
  EXPECT_GT(policy.sector_errors, 0u);
  EXPECT_GT(io.purged_writes, 0u);
  EXPECT_GT(io.jobs_run, 0u);

  const obs::MetricsSnapshot metrics = d->SnapshotMetrics();
  const std::pair<const char*, uint64_t> fields[] = {
      {"txn.begun", stats.txn.begun},
      {"txn.committed", stats.txn.committed},
      {"txn.aborted", stats.txn.aborted},
      {"txn.before_images_logged", stats.txn.before_images_logged},
      {"txn.before_images_avoided", stats.txn.before_images_avoided},
      {"buffer.hits", stats.buffer.hits},
      {"buffer.misses", stats.buffer.misses},
      {"buffer.evictions", stats.buffer.evictions},
      {"buffer.steals", stats.buffer.steals},
      {"parity.unlogged_first", stats.parity.unlogged_first},
      {"parity.unlogged_repeat", stats.parity.unlogged_repeat},
      {"parity.logged_dirty_group", stats.parity.logged_dirty_group},
      {"parity.plain", stats.parity.plain},
      {"parity.parity_undos", stats.parity.parity_undos},
      {"parity.logged_undos", stats.parity.logged_undos},
      {"parity.commits_finalized", stats.parity.commits_finalized},
      {"parity.latent_repairs", stats.parity.latent_repairs},
      {"parity.corruption_repairs", stats.parity.corruption_repairs},
      {"recovery.checkpoints", stats.checkpoints},
      {"io.submitted_writes", io.submitted_writes},
      {"io.physical_writes", io.physical_writes},
      {"io.coalesced_writes", io.coalesced_writes},
      {"io.batched_parity_rmw", io.batched_parity_rmw},
      {"io.cache_hits", io.cache_hits},
      {"io.purged_writes", io.purged_writes},
      {"io.jobs_run", io.jobs_run},
      {"storage.io_retries", policy.io_retries},
      {"storage.transient_faults", policy.transient_faults},
      {"storage.sector_errors", policy.sector_errors},
      {"storage.escalations", policy.escalations},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_EQ(metrics.CounterValue(name), value) << name;
  }
}

TEST(ObsWiringTest, TraceOnlyModeHasNoRegistry) {
  DatabaseOptions options = SmallDb();
  options.obs.enable_metrics = false;
  options.obs.trace_capacity = 8;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_NE((*db)->obs(), nullptr);
  EXPECT_EQ((*db)->obs()->metrics(), nullptr);
  ASSERT_NE((*db)->obs()->trace(), nullptr);

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x77);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
  EXPECT_GT((*db)->obs()->trace()->total_recorded(), 0u);
  EXPECT_TRUE((*db)->SnapshotMetrics().counters.empty());
}

TEST(ObsWiringTest, SpansCoverCommitAndChromeTraceExports) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x88);
  ASSERT_TRUE((*db)->WritePage(*txn, 0, bytes).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  const obs::SpanCollector* spans = (*db)->obs()->spans();
  ASSERT_NE(spans, nullptr);
  EXPECT_GT(spans->TotalRecorded(), 0u);
  bool saw_commit = false;
  bool saw_nested = false;
  for (const auto& thread : spans->SnapshotAll()) {
    for (const obs::SpanRecord& span : thread.spans) {
      saw_commit |= span.kind == obs::SpanKind::kTxnCommit;
      saw_nested |= span.depth > 0;
    }
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_nested);  // Force/WAL/parity segments nest under commit.

  const std::string json =
      obs::ChromeTraceJson(spans, (*db)->obs()->trace());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // Duration spans.
  EXPECT_NE(json.find("txn.commit"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // Trace instants.

  const std::string path =
      testing::TempDir() + "/obs_chrome_trace.json";
  ASSERT_TRUE((*db)->DumpChromeTrace(path).ok());
}

TEST(ObsWiringTest, InjectedRecoveryCrashTripsFlightRecorder) {
  auto db = Database::Open(SmallDb());
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0x99);
  auto loser = (*db)->Begin();
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE((*db)->WritePage(*loser, 0, bytes).ok());
  Frame* frame = (*db)->txn_manager()->pool()->Lookup(0);
  ASSERT_NE(frame, nullptr);
  ASSERT_TRUE((*db)->txn_manager()->pool()->PropagateFrame(frame).ok());
  (*db)->Crash();

  obs::FlightRecorder* flight = (*db)->obs()->flight();
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->trigger_count(), 0u);
  // Budget 0: the first recovery mutation trips the crash point, which must
  // dump the flight recorder before the attempt unwinds.
  auto failed = (*db)->RecoverWithInjectedFault(0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(flight->trigger_count(), 1u);
  EXPECT_NE(flight->last_reason().find("crash-point"), std::string::npos);
  EXPECT_NE(flight->last_dump().find("\"threads\""), std::string::npos);
  // Convergence: a clean retry still recovers.
  (*db)->Crash();
  ASSERT_TRUE((*db)->Recover().ok());
}

TEST(ObsWiringTest, TraceRingOverflowSurfacesDroppedCounter) {
  DatabaseOptions options = SmallDb();
  options.obs.trace_capacity = 4;  // Tiny ring: guaranteed overflow.
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  std::vector<uint8_t> bytes((*db)->user_page_size(), 0xAA);
  for (int i = 0; i < 3; ++i) {
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*db)->WritePage(*txn, static_cast<PageId>(i), bytes).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  const obs::TraceBuffer* trace = (*db)->obs()->trace();
  EXPECT_GT(trace->dropped(), 0u);
  EXPECT_EQ((*db)->SnapshotMetrics().CounterValue("obs.trace_dropped"),
            trace->dropped());
}

}  // namespace
}  // namespace rda
