#include "harness.h"

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

namespace rda::bench {

DatabaseOptions ClassOptions(const AlgorithmClass& cls, bool rda_undo) {
  DatabaseOptions options;
  options.array.data_pages_per_group = 8;
  options.array.min_data_pages = 512;
  options.array.page_size = 512;
  options.txn.logging_mode = cls.logging;
  options.txn.record_size = 48;
  options.txn.force = cls.force;
  options.txn.rda_undo = rda_undo;
  return options;
}

Status StageCrashAndRecover(Database* db, CrashRecoveryReport* report) {
  const int losers = 4;
  const int pages_each = 3;
  const bool record_mode = db->txn_manager()->config().logging_mode ==
                           LoggingMode::kRecordLogging;
  std::vector<uint8_t> page_bytes(db->user_page_size(), 0xA5);
  std::vector<uint8_t> record_bytes(db->txn_manager()->config().record_size,
                                    0xA5);
  for (int t = 0; t < losers; ++t) {
    RDA_ASSIGN_OR_RETURN(const TxnId txn, db->Begin());
    for (int i = 0; i < pages_each; ++i) {
      const PageId page =
          static_cast<PageId>((t * 64 + i * 8) % db->num_pages());
      Status status = record_mode ? db->WriteRecord(txn, page, 0, record_bytes)
                                  : db->WritePage(txn, page, page_bytes);
      if (status.IsBusy()) {
        continue;
      }
      RDA_RETURN_IF_ERROR(status);
      Frame* frame = db->txn_manager()->pool()->Lookup(page);
      if (frame != nullptr) {
        RDA_RETURN_IF_ERROR(db->txn_manager()->pool()->PropagateFrame(frame));
      }
    }
  }
  db->Crash();
  RDA_ASSIGN_OR_RETURN(*report, db->Recover());
  return Status::Ok();
}

void WritePercentiles(
    obs::JsonWriter* json,
    const obs::MetricsSnapshot::HistogramSnapshot* histogram) {
  json->BeginObject();
  json->Key("count").Uint(histogram != nullptr ? histogram->count : 0);
  constexpr struct {
    const char* label;
    double q;
  } kQuantiles[] = {{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}};
  for (const auto& [label, q] : kQuantiles) {
    json->Key(label).Fixed(
        histogram != nullptr ? obs::Quantile(*histogram, q) : 0.0, 2);
  }
  json->Key("max").Fixed(histogram != nullptr ? histogram->max : 0.0, 2);
  json->EndObject();
}

obs::JsonWriter BeginReport() {
  obs::JsonWriter json(/*indent=*/2);
  json.BeginObject().Key("host").BeginObject();
  json.Key("nproc").Uint(std::thread::hardware_concurrency());
  json.Key("compiler").String(RDA_BENCH_COMPILER);
  json.Key("build").String(RDA_BENCH_BUILD_TYPE).EndObject();
  return json;
}

bool WriteReport(const std::string& path, obs::JsonWriter* json) {
  json->EndObject();
  std::ofstream out(path, std::ios::trunc);
  out << json->str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace rda::bench
