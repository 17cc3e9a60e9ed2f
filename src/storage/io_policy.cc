#include "storage/io_policy.h"

#include "common/status.h"

namespace rda {

bool RetryableIoError(const Status& status, bool disk_failed) {
  return status.IsIoError() && !disk_failed;
}

double RetryBackoffMs(uint32_t attempt) {
  return kRetryBackoffMs * static_cast<double>(attempt);
}

}  // namespace rda
