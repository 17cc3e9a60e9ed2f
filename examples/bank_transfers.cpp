// An OLTP scenario in the spirit of the paper's motivation: a bank keeps
// fixed-size account records on a redundant disk array (record logging,
// notFORCE/ACC — the paper's best-performing configuration). Transfers
// move money between random accounts; some transactions abort; a system
// crash hits mid-stream. The invariant checked throughout: the total
// balance is conserved, because every abort and the crash recovery undo
// partial transfers exactly.
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "core/database.h"

namespace {

void Check(const rda::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

constexpr int64_t kInitialBalance = 1000;

struct Account {
  rda::PageId page;
  rda::RecordSlot slot;
};

int64_t DecodeBalance(const std::vector<uint8_t>& record) {
  int64_t value = 0;
  std::memcpy(&value, record.data(), sizeof(value));
  return value;
}

std::vector<uint8_t> EncodeBalance(int64_t value, size_t record_size) {
  std::vector<uint8_t> record(record_size, 0);
  std::memcpy(record.data(), &value, sizeof(value));
  return record;
}

}  // namespace

int main() {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = 8;
  options.array.min_data_pages = 128;
  options.array.page_size = 512;
  options.buffer.capacity = 24;
  options.txn.logging_mode = rda::LoggingMode::kRecordLogging;
  options.txn.record_size = 61;  // Odd on purpose; slots are fixed-size.
  options.txn.force = false;     // notFORCE + ACC checkpoints.
  options.txn.rda_undo = true;
  options.checkpoint_interval_updates = 64;

  auto db_or = rda::Database::Open(options);
  Check(db_or.status(), "open");
  rda::Database* db = db_or->get();

  // Lay out accounts: one record per slot across the first pages.
  const uint32_t slots = db->records_per_page();
  const int num_accounts = 64;
  std::vector<Account> accounts;
  for (int i = 0; i < num_accounts; ++i) {
    accounts.push_back(Account{static_cast<rda::PageId>(i / slots),
                               static_cast<rda::RecordSlot>(i % slots)});
  }

  {
    auto setup = db->Begin();
    Check(setup.status(), "begin setup");
    for (const Account& account : accounts) {
      Check(db->WriteRecord(*setup, account.page, account.slot,
                            EncodeBalance(kInitialBalance,
                                          options.txn.record_size)),
            "seed account");
    }
    Check(db->Commit(*setup), "commit setup");
  }
  std::printf("seeded %d accounts with %lld each\n", num_accounts,
              static_cast<long long>(kInitialBalance));

  rda::Random rng(2024);
  int committed = 0;
  int aborted = 0;
  for (int i = 0; i < 300; ++i) {
    auto txn = db->Begin();
    Check(txn.status(), "begin transfer");
    const Account& from = accounts[rng.Uniform(num_accounts)];
    // Redraw until the target differs: a self-transfer would read the same
    // record twice and double-apply the second write.
    size_t to_index = rng.Uniform(num_accounts);
    while (&accounts[to_index] == &from) {
      to_index = rng.Uniform(num_accounts);
    }
    const Account& to = accounts[to_index];
    const int64_t amount = static_cast<int64_t>(rng.UniformRange(1, 50));

    std::vector<uint8_t> from_rec;
    std::vector<uint8_t> to_rec;
    rda::Status step = db->ReadRecord(*txn, from.page, from.slot, &from_rec);
    if (step.ok()) {
      step = db->ReadRecord(*txn, to.page, to.slot, &to_rec);
    }
    if (step.ok()) {
      step = db->WriteRecord(
          *txn, from.page, from.slot,
          EncodeBalance(DecodeBalance(from_rec) - amount,
                        options.txn.record_size));
    }
    if (step.ok()) {
      step = db->WriteRecord(*txn, to.page, to.slot,
                             EncodeBalance(DecodeBalance(to_rec) + amount,
                                           options.txn.record_size));
    }
    if (!step.ok() || rng.Bernoulli(0.15)) {
      Check(db->Abort(*txn), "abort transfer");
      ++aborted;
    } else {
      Check(db->Commit(*txn), "commit transfer");
      ++committed;
    }
  }
  std::printf("ran 300 transfers: %d committed, %d aborted\n", committed,
              aborted);

  // Crash in the middle of everything, then recover.
  db->Crash();
  auto report = db->Recover();
  Check(report.status(), "recover");
  std::printf("crash recovery: %zu winners, %zu losers, %llu parity undos, "
              "%llu redo applied\n",
              report->winners.size(), report->losers.size(),
              static_cast<unsigned long long>(report->parity_undos),
              static_cast<unsigned long long>(report->redo_applied));

  // Audit the books straight off the disk.
  int64_t total = 0;
  for (const Account& account : accounts) {
    auto payload = db->RawReadPage(account.page);
    Check(payload.status(), "audit read");
    std::vector<uint8_t> record(
        payload->begin() + rda::kDataRegionOffset +
            account.slot * options.txn.record_size,
        payload->begin() + rda::kDataRegionOffset +
            (account.slot + 1) * options.txn.record_size);
    total += DecodeBalance(record);
  }
  const int64_t expected = kInitialBalance * num_accounts;
  std::printf("audited balance: %lld (expected %lld) -> %s\n",
              static_cast<long long>(total),
              static_cast<long long>(expected),
              total == expected ? "CONSERVED" : "LOST MONEY (bug!)");
  return total == expected ? 0 : 1;
}
