#include "common/status.h"

namespace encompass {

const char* StatusCodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kNotFound: return "NotFound";
    case Status::Code::kAlreadyExists: return "AlreadyExists";
    case Status::Code::kInvalidArgument: return "InvalidArgument";
    case Status::Code::kTimeout: return "Timeout";
    case Status::Code::kAborted: return "Aborted";
    case Status::Code::kBusy: return "Busy";
    case Status::Code::kIoError: return "IoError";
    case Status::Code::kCorruption: return "Corruption";
    case Status::Code::kNotSupported: return "NotSupported";
    case Status::Code::kUnavailable: return "Unavailable";
    case Status::Code::kPartitioned: return "Partitioned";
    case Status::Code::kRestartRequested: return "RestartRequested";
    case Status::Code::kInDoubt: return "InDoubt";
    case Status::Code::kEndOfFile: return "EndOfFile";
    case Status::Code::kPlanViolation: return "PlanViolation";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeName(code_);
  if (!msg_.empty()) {
    s += ": ";
    s += msg_;
  }
  return s;
}

}  // namespace encompass
