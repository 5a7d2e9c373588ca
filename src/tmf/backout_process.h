// BackoutProcess: the process-pair that performs transaction backout "using
// the transaction's before-images recorded in the audit trails". On request
// from the TMP it fetches the transaction's audit records from every local
// AUDITPROCESS and applies compensating updates (newest first) through the
// owning DISCPROCESSes. All steps are idempotent, so a takeover or retry
// can safely replay the backout.

#ifndef ENCOMPASS_TMF_BACKOUT_PROCESS_H_
#define ENCOMPASS_TMF_BACKOUT_PROCESS_H_

#include <string>
#include <vector>

#include "os/process_pair.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

/// Configuration of one node's BACKOUTPROCESS.
struct BackoutConfig {
  std::vector<std::string> audit_processes;  ///< local AUDITPROCESS names
};

/// The BACKOUTPROCESS pair.
class BackoutProcess : public os::PairedProcess {
 public:
  explicit BackoutProcess(BackoutConfig config) : config_(std::move(config)) {}

  std::string DebugName() const override { return pair_name() + "/backout"; }

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;

 private:
  void RunBackout(const net::Message& request, const Transid& transid);

  BackoutConfig config_;
  sim::MetricId m_requests_, m_undos_;
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_BACKOUT_PROCESS_H_
