#include "wal/log_record.h"

#include <cstring>

namespace rda {
namespace {

// Little-endian, append-based primitives. The format is
// self-describing enough for the decoder to validate lengths.

template <typename T>
void PutFixed(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

void PutBytes(std::vector<uint8_t>* out, const std::vector<uint8_t>& bytes) {
  PutFixed<uint32_t>(out, static_cast<uint32_t>(bytes.size()));
  out->insert(out->end(), bytes.begin(), bytes.end());
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) {
      return false;
    }
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetBytes(std::vector<uint8_t>* bytes) {
    uint32_t len = 0;
    if (!Get(&len) || pos_ + len > size_) {
      return false;
    }
    bytes->assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
  }

  bool Done() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutHeader(std::vector<uint8_t>* out, const PageHeader& h) {
  PutFixed(out, h.txn_id);
  PutFixed(out, h.timestamp);
  PutFixed(out, static_cast<uint8_t>(h.parity_state));
  PutFixed(out, h.dirty_page);
}

bool GetHeader(Reader* r, PageHeader* h) {
  uint8_t state = 0;
  if (!r->Get(&h->txn_id) || !r->Get(&h->timestamp) || !r->Get(&state) ||
      !r->Get(&h->dirty_page)) {
    return false;
  }
  h->parity_state = static_cast<ParityState>(state);
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeLogRecord(const LogRecord& record) {
  std::vector<uint8_t> out;
  EncodeLogRecordTo(record, &out);
  return out;
}

void EncodeLogRecordTo(const LogRecord& record, std::vector<uint8_t>* out) {
  PutFixed(out, static_cast<uint8_t>(record.type));
  PutFixed(out, record.txn);
  PutFixed(out, record.page);
  PutFixed(out, record.slot);
  PutFixed(out, static_cast<uint8_t>(record.record_granular ? 1 : 0));
  PutHeader(out, record.page_header);
  PutBytes(out, record.before);
  PutBytes(out, record.after);
  PutFixed(out, static_cast<uint32_t>(record.unfinished_txns.size()));
  for (const CheckpointTxn& entry : record.unfinished_txns) {
    PutFixed(out, entry.txn);
    PutFixed(out, entry.first_lsn);
  }
  if (record.type == LogRecordType::kCheckpoint) {
    PutFixed(out, record.redo_floor);
    PutFixed(out, record.next_txn);
  }
  PutFixed(out, record.chain_head);
}

Result<LogRecord> DecodeLogRecord(const uint8_t* data, size_t size) {
  Reader reader(data, size);
  LogRecord record;
  uint8_t type = 0;
  uint8_t record_granular = 0;
  uint32_t num_unfinished = 0;
  if (!reader.Get(&type) || !reader.Get(&record.txn) ||
      !reader.Get(&record.page) || !reader.Get(&record.slot) ||
      !reader.Get(&record_granular) ||
      !GetHeader(&reader, &record.page_header) ||
      !reader.GetBytes(&record.before) || !reader.GetBytes(&record.after) ||
      !reader.Get(&num_unfinished)) {
    return Status::Corruption("truncated log record");
  }
  if (type < static_cast<uint8_t>(LogRecordType::kBot) ||
      type > static_cast<uint8_t>(LogRecordType::kArchiveRestore)) {
    return Status::Corruption("unknown log record type");
  }
  record.type = static_cast<LogRecordType>(type);
  record.record_granular = record_granular != 0;
  record.unfinished_txns.resize(num_unfinished);
  for (CheckpointTxn& entry : record.unfinished_txns) {
    if (!reader.Get(&entry.txn) || !reader.Get(&entry.first_lsn)) {
      return Status::Corruption("truncated unfinished transaction table");
    }
  }
  if (record.type == LogRecordType::kCheckpoint &&
      (!reader.Get(&record.redo_floor) || !reader.Get(&record.next_txn))) {
    return Status::Corruption("truncated checkpoint record");
  }
  if (!reader.Get(&record.chain_head) || !reader.Done()) {
    return Status::Corruption("malformed log record tail");
  }
  return record;
}

}  // namespace rda
