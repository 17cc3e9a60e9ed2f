// The adoption story: a transactional key-value catalog running on top of
// the RDA recovery engine. Multi-key transactions are atomic (an aborted
// batch leaves no trace), the committed map survives a crash, and a disk
// failure is absorbed by the array underneath — the KV layer never notices.
#include <cstdio>
#include <string>

#include "kv/kv_store.h"

namespace {

void Check(const rda::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 64;
  options.array.page_size = 256;
  options.buffer.capacity = 16;
  options.txn.logging_mode = rda::LoggingMode::kRecordLogging;
  options.txn.record_size = 48;
  options.txn.force = false;
  options.checkpoint_interval_updates = 32;

  auto db_or = rda::Database::Open(options);
  Check(db_or.status(), "open");
  rda::Database* db = db_or->get();
  rda::KvStore::Options kv_options;
  kv_options.num_pages = db->num_pages();
  auto kv_or = rda::KvStore::Attach(db, kv_options);
  Check(kv_or.status(), "attach");
  rda::KvStore* kv = kv_or->get();
  std::printf("attached KV table: %llu slots over %u pages\n",
              static_cast<unsigned long long>(kv->capacity()),
              kv_options.num_pages);

  // A committed multi-key batch.
  auto txn = db->Begin();
  Check(txn.status(), "begin");
  Check(kv->Put(*txn, "service/auth", "10.0.0.1:7001"), "put");
  Check(kv->Put(*txn, "service/billing", "10.0.0.2:7002"), "put");
  Check(kv->Put(*txn, "service/search", "10.0.0.3:7003"), "put");
  Check(db->Commit(*txn), "commit");
  std::printf("committed 3 service registrations\n");

  // An aborted batch: atomicity means neither key appears.
  txn = db->Begin();
  Check(kv->Put(*txn, "service/cache", "10.0.0.4:7004"), "put");
  Check(kv->Put(*txn, "service/auth", "BROKEN"), "put");
  Check(db->Abort(*txn), "abort");
  txn = db->Begin();
  auto auth = kv->Get(*txn, "service/auth");
  Check(auth.status(), "get auth");
  auto cache = kv->Get(*txn, "service/cache");
  Check(db->Commit(*txn), "commit read");
  std::printf("after aborted batch: auth=%s, cache=%s\n", auth->c_str(),
              cache.ok() ? cache->c_str() : "(absent, as it must be)");

  // Crash; the committed catalog survives.
  db->Crash();
  auto report = db->Recover();
  Check(report.status(), "recover");
  txn = db->Begin();
  auto billing = kv->Get(*txn, "service/billing");
  Check(billing.status(), "get billing after crash");
  Check(db->Commit(*txn), "commit");
  std::printf("after crash+recovery: billing=%s\n", billing->c_str());

  // Disk failure underneath; the KV layer keeps answering.
  Check(db->FailDisk(2), "fail disk");
  txn = db->Begin();
  auto search = kv->Get(*txn, "service/search");
  Check(search.status(), "get during degraded mode");
  Check(db->Commit(*txn), "commit");
  Check(db->RebuildDisk(2).status(), "rebuild");
  std::printf("degraded lookup worked: search=%s; disk rebuilt\n",
              search->c_str());

  const bool good = *auth == "10.0.0.1:7001" && !cache.ok() &&
                    *billing == "10.0.0.2:7002" &&
                    *search == "10.0.0.3:7003";
  std::printf("all invariants: %s\n", good ? "HELD" : "VIOLATED");
  return good ? 0 : 1;
}
