#ifndef RDA_COMMON_STATUS_H_
#define RDA_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace rda {

// Error model of the library. No exceptions are used anywhere (following the
// project style guide); every fallible operation returns a Status or a
// Result<T>.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIoError,
    kCorruption,
    kDataLoss,
    kFailedPrecondition,
    kAborted,
    kBusy,
  };

  Status() : code_(Code::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(Code::kDataLoss, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(Code::kBusy, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsDataLoss() const { return code_ == Code::kDataLoss; }
  bool IsFailedPrecondition() const {
    return code_ == Code::kFailedPrecondition;
  }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsBusy() const { return code_ == Code::kBusy; }

  // Human-readable "CODE: message" string for logs and test diagnostics.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

// Value-or-error return type. `status()` is Ok iff a value is present.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`
  // like absl::StatusOr.
  Result(T value) : value_or_status_(std::move(value)) {}  // NOLINT
  Result(Status status) : value_or_status_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(value_or_status_); }

  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(value_or_status_);
  }

  // Precondition: ok().
  const T& value() const& { return std::get<T>(value_or_status_); }
  T& value() & { return std::get<T>(value_or_status_); }
  T&& value() && { return std::get<T>(std::move(value_or_status_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_or_status_;
};

// Propagates a non-Ok Status out of the current function.
#define RDA_RETURN_IF_ERROR(expr)               \
  do {                                          \
    ::rda::Status rda_return_status_ = (expr);  \
    if (!rda_return_status_.ok()) {             \
      return rda_return_status_;                \
    }                                           \
  } while (false)

// Unwraps a Result<T> into `lhs` or propagates its error status. The
// two-level concat forces __LINE__ to expand, so several uses can share a
// scope.
#define RDA_CONCAT_INNER_(a, b) a##b
#define RDA_CONCAT_(a, b) RDA_CONCAT_INNER_(a, b)
#define RDA_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                               \
  if (!result.ok()) {                                 \
    return result.status();                           \
  }                                                   \
  lhs = std::move(result).value()
#define RDA_ASSIGN_OR_RETURN(lhs, expr) \
  RDA_ASSIGN_OR_RETURN_IMPL_(RDA_CONCAT_(rda_result_, __LINE__), lhs, expr)

}  // namespace rda

#endif  // RDA_COMMON_STATUS_H_
