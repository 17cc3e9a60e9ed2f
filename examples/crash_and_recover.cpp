// System-failure drill: interleave committed and in-flight transactions,
// pull the plug, and run Section 4.3 recovery. Shows the division of labor
// the paper proposes: committed work is REDOne from after-images, logged
// losers are undone from before-images, and unlogged losers are undone
// from the twin parity pages alone.
#include <cstdio>
#include <vector>

#include "core/database.h"

namespace {

void Check(const rda::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

std::vector<uint8_t> Fill(size_t size, uint8_t value) {
  return std::vector<uint8_t>(size, value);
}

}  // namespace

int main() {
  rda::DatabaseOptions options;
  options.array.data_pages_per_group = 4;
  options.array.min_data_pages = 64;
  options.array.page_size = 256;
  options.buffer.capacity = 16;
  options.txn.force = false;  // notFORCE: REDO matters after the crash.
  options.txn.rda_undo = true;

  auto db_or = rda::Database::Open(options);
  Check(db_or.status(), "open");
  rda::Database* db = db_or->get();
  const size_t user = db->user_page_size();

  // A committed transaction whose pages never reach the disk (notFORCE).
  auto winner = db->Begin();
  Check(db->WritePage(*winner, 0, Fill(user, 0xAA)), "winner write 0");
  Check(db->WritePage(*winner, 5, Fill(user, 0xAB)), "winner write 5");
  Check(db->Commit(*winner), "commit winner");

  // A loser whose page IS forced to disk, without UNDO logging: the twin
  // parity covers it.
  auto loser = db->Begin();
  Check(db->WritePage(*loser, 12, Fill(user, 0xCC)), "loser write 12");
  rda::Frame* frame = db->txn_manager()->pool()->Lookup(12);
  Check(db->txn_manager()->pool()->PropagateFrame(frame), "steal page 12");

  // A second loser that only dirtied the buffer.
  auto loser2 = db->Begin();
  Check(db->WritePage(*loser2, 20, Fill(user, 0xDD)), "loser2 write 20");

  std::printf("before crash: dirty parity groups = %u, buffer dirty pages = "
              "%zu\n",
              db->parity()->directory().DirtyCount(),
              db->txn_manager()->pool()->DirtyPages().size());

  db->Crash();
  std::printf("CRASH. buffer, lock table and parity directory are gone.\n");

  auto report = db->Recover();
  Check(report.status(), "recover");
  std::printf("recovery: winners=%zu losers=%zu | parity undos=%llu "
              "logged undos=%llu | redo applied=%llu skipped=%llu | chain "
              "pages walked=%llu\n",
              report->winners.size(), report->losers.size(),
              static_cast<unsigned long long>(report->parity_undos),
              static_cast<unsigned long long>(report->logged_undos),
              static_cast<unsigned long long>(report->redo_applied),
              static_cast<unsigned long long>(report->redo_skipped),
              static_cast<unsigned long long>(report->chain_pages_walked));

  // Check the final on-disk state.
  auto page0 = db->RawReadPage(0);
  auto page12 = db->RawReadPage(12);
  auto page20 = db->RawReadPage(20);
  Check(page0.status(), "read 0");
  Check(page12.status(), "read 12");
  Check(page20.status(), "read 20");
  const bool winner_redone = (*page0)[rda::kDataRegionOffset] == 0xAA;
  const bool loser_undone = (*page12)[rda::kDataRegionOffset] == 0x00;
  const bool loser2_gone = (*page20)[rda::kDataRegionOffset] == 0x00;
  std::printf("winner's committed data redone:   %s\n",
              winner_redone ? "yes" : "NO (bug!)");
  std::printf("stolen loser page undone (parity): %s\n",
              loser_undone ? "yes" : "NO (bug!)");
  std::printf("buffered loser change discarded:   %s\n",
              loser2_gone ? "yes" : "NO (bug!)");

  auto parity_ok = db->VerifyAllParity();
  Check(parity_ok.status(), "verify");
  std::printf("parity consistent after recovery:  %s\n",
              *parity_ok ? "yes" : "NO");
  return winner_redone && loser_undone && loser2_gone && *parity_ok ? 0 : 1;
}
