#include "recovery/checkpointer.h"

#include <utility>

#include "wal/log_record.h"

namespace rda {

void Checkpointer::AttachObs(obs::ObsHub* hub) {
  trace_ = obs::TraceOf(hub);
  checkpoints_taken_.Bind(obs::GetCounter(hub, "recovery.checkpoints"));
}

Status Checkpointer::TakeCheckpoint() {
  const auto step = [this](Step next) {
    return before_step_ ? before_step_(next) : Status::Ok();
  };
  LogRecord record;
  record.type = LogRecordType::kCheckpoint;
  record.redo_floor = log_->next_lsn();
  RDA_RETURN_IF_ERROR(txn_manager_->pool()->PropagateAllDirty());
  RDA_RETURN_IF_ERROR(step(Step::kLogRecord));
  record.unfinished_txns =
      txn_manager_->UnfinishedTxns(record.redo_floor, &record.next_txn);
  const size_t unfinished = record.unfinished_txns.size();
  RDA_ASSIGN_OR_RETURN(const Lsn lsn, log_->Append(std::move(record)));
  RDA_RETURN_IF_ERROR(log_->Flush());
  RDA_RETURN_IF_ERROR(step(Step::kWriteMaster));
  if (!txn_manager_->config().force) {
    RDA_RETURN_IF_ERROR(log_->WriteMaster(lsn));
  }
  Lsn last = last_checkpoint_lsn_.load(std::memory_order_relaxed);
  while ((last == kInvalidLsn || last < lsn) &&
         !last_checkpoint_lsn_.compare_exchange_weak(
             last, lsn, std::memory_order_relaxed)) {
  }
  checkpoints_taken_.Add();
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.subsystem = obs::Subsystem::kRecovery;
    event.kind = obs::EventKind::kCheckpoint;
    event.detail = static_cast<int64_t>(unfinished);
    event.value = static_cast<int64_t>(lsn);
    obs::Emit(trace_, event);
  }
  return Status::Ok();
}

}  // namespace rda
