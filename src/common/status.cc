#include "common/status.h"

namespace rda {
namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Status::Code::kNotFound:
      return "NOT_FOUND";
    case Status::Code::kIoError:
      return "IO_ERROR";
    case Status::Code::kCorruption:
      return "CORRUPTION";
    case Status::Code::kDataLoss:
      return "DATA_LOSS";
    case Status::Code::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case Status::Code::kAborted:
      return "ABORTED";
    case Status::Code::kBusy:
      return "BUSY";
  }
  return "UNKNOWN";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace rda
