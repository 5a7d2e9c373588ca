// Status: the error-handling currency of the library. No exceptions are
// thrown by library code; every fallible operation returns a Status or a
// Result<T> (see result.h).

#ifndef ENCOMPASS_COMMON_STATUS_H_
#define ENCOMPASS_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace encompass {

/// Outcome of a fallible operation.
///
/// Modeled on the RocksDB/LevelDB Status idiom: a small value type carrying a
/// code plus an optional human-readable message. The default-constructed
/// Status is OK. Statuses are cheap to copy and compare.
class Status {
 public:
  /// Error taxonomy. Codes are stable and serializable (messages are not);
  /// retired values (12, 16) are never reused.
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,         ///< record / file / process does not exist
    kAlreadyExists = 2,    ///< duplicate key or name
    kInvalidArgument = 3,  ///< malformed request
    kTimeout = 4,          ///< lock wait or message reply timed out
    kAborted = 5,          ///< transaction was (or must be) aborted
    kBusy = 6,             ///< resource held; retry may succeed
    kIoError = 7,          ///< disc or device failure
    kCorruption = 8,       ///< checksum mismatch or invalid on-disc structure
    kNotSupported = 9,     ///< operation not implemented for this file type
    kUnavailable = 10,     ///< process, cpu, or node is down / unreachable
    kPartitioned = 11,     ///< network partition prevents communication
    kRestartRequested = 13,///< server asked the terminal to restart the txn
    kInDoubt = 14,         ///< distributed txn outcome unknown at this node
    kEndOfFile = 15,       ///< cursor or scan exhausted
    kPlanViolation = 17,   ///< queue-lane txn touched data outside its declared set
  };

  Status() = default;

  /// Builds a Status with the given code and optional message.
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") { return {Code::kNotFound, std::move(m)}; }
  static Status AlreadyExists(std::string m = "") {
    return {Code::kAlreadyExists, std::move(m)};
  }
  static Status InvalidArgument(std::string m = "") {
    return {Code::kInvalidArgument, std::move(m)};
  }
  static Status Timeout(std::string m = "") { return {Code::kTimeout, std::move(m)}; }
  static Status Aborted(std::string m = "") { return {Code::kAborted, std::move(m)}; }
  static Status Busy(std::string m = "") { return {Code::kBusy, std::move(m)}; }
  static Status IoError(std::string m = "") { return {Code::kIoError, std::move(m)}; }
  static Status Corruption(std::string m = "") {
    return {Code::kCorruption, std::move(m)};
  }
  static Status NotSupported(std::string m = "") {
    return {Code::kNotSupported, std::move(m)};
  }
  static Status Unavailable(std::string m = "") {
    return {Code::kUnavailable, std::move(m)};
  }
  static Status Partitioned(std::string m = "") {
    return {Code::kPartitioned, std::move(m)};
  }
  static Status RestartRequested(std::string m = "") {
    return {Code::kRestartRequested, std::move(m)};
  }
  static Status InDoubt(std::string m = "") { return {Code::kInDoubt, std::move(m)}; }
  static Status EndOfFile(std::string m = "") { return {Code::kEndOfFile, std::move(m)}; }
  static Status PlanViolation(std::string m = "") {
    return {Code::kPlanViolation, std::move(m)};
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsTimeout() const { return code_ == Code::kTimeout; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsPartitioned() const { return code_ == Code::kPartitioned; }
  bool IsRestartRequested() const { return code_ == Code::kRestartRequested; }
  bool IsInDoubt() const { return code_ == Code::kInDoubt; }
  bool IsEndOfFile() const { return code_ == Code::kEndOfFile; }
  bool IsPlanViolation() const { return code_ == Code::kPlanViolation; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  Code code_ = Code::kOk;
  std::string msg_;
};

/// Returns the canonical name of a status code ("NotFound", "Timeout", ...).
const char* StatusCodeName(Status::Code code);

}  // namespace encompass

/// Early-returns the enclosing function with the error if `expr` is not OK.
#define ENCOMPASS_RETURN_IF_ERROR(expr)                    \
  do {                                                     \
    ::encompass::Status _st = (expr);                      \
    if (!_st.ok()) return _st;                             \
  } while (0)

#endif  // ENCOMPASS_COMMON_STATUS_H_
