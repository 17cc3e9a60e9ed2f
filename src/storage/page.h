#ifndef RDA_STORAGE_PAGE_H_
#define RDA_STORAGE_PAGE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rda {

// State of a parity page, paper Figure 8. A parity page is:
//  - kCommitted: holds the parity of the last committed state of its group
//    (the "valid" twin when its timestamp is the higher committed one);
//  - kObsolete:  holds an old committed parity (the other twin);
//  - kWorking:   holds parity that includes updates of the transaction in
//    its header; after that transaction commits the header may stay
//    kWorking until a later write stamps it (the commit record decides);
//  - kInvalid:   the last transaction that updated it aborted.
// kFree marks a never-written page (also used for data pages, which do not
// use parity states).
enum class ParityState : uint8_t {
  kFree = 0,
  kCommitted = 1,
  kObsolete = 2,
  kWorking = 3,
  kInvalid = 4,
};

// Out-of-band PARITY page header. It travels with the page image on disk
// but is not covered by parity XOR. Data pages leave it at its defaults —
// their metadata is embedded inside the payload (storage/data_page_meta.h)
// so that media rebuild and parity undo reconstruct it.
//
// Fields: txn_id (the transaction whose update made this parity "working"),
// timestamp (Current_Parity selection, paper Figure 7), parity_state
// (Figure 8) and dirty_page (which data page of the group is covered by the
// working parity — what the in-memory Dirty_Set caches).
struct PageHeader {
  TxnId txn_id = kInvalidTxnId;
  ParityTimestamp timestamp = 0;
  ParityState parity_state = ParityState::kFree;
  PageId dirty_page = kInvalidPageId;

  bool operator==(const PageHeader&) const = default;
};

// A full physical page image: fixed-size payload plus the OOB header.
struct PageImage {
  std::vector<uint8_t> payload;
  PageHeader header;

  explicit PageImage(size_t page_size = 0) : payload(page_size, 0) {}

  bool operator==(const PageImage&) const = default;
};

}  // namespace rda

#endif  // RDA_STORAGE_PAGE_H_
