// AuditProcess: the process-pair that writes audit trails. "All audited
// discs on a given controller share an AUDITPROCESS and an audit trail." It
// accepts appended images from DISCPROCESSes (unforced), forces the trail to
// disc on request (phase one of commit), and serves per-transaction image
// fetches for the BACKOUTPROCESS and for ROLLFORWARD.
//
// It also manages the purging of its trail. Each append that seals an audit
// file applies AuditTrail::PurgeFinished with the limits the node gives at
// that instant (PurgeLimits): a file goes once it is durable, lies at or
// below the volume's archive LSN, and holds no record of a transaction live
// on the node. The check is a set of plain same-node calls inside the append
// event: no message, no event of its own.

#ifndef ENCOMPASS_AUDIT_AUDIT_PROCESS_H_
#define ENCOMPASS_AUDIT_AUDIT_PROCESS_H_

#include <functional>
#include <string>
#include <vector>

#include "audit/audit_trail.h"
#include "audit/group_commit.h"
#include "os/process_pair.h"

namespace encompass::audit {

/// Audit protocol tags.
enum AuditTag : uint32_t {
  kAuditAppend = net::kTagAudit + 1,   ///< one-way: batch of AuditRecords
  kAuditForce = net::kTagAudit + 2,    ///< request: force trail to disc
  kAuditFetchTxn = net::kTagAudit + 3, ///< request: all images of a transid
};

/// Encodes a batch of audit records for a kAuditAppend payload.
Bytes EncodeAuditBatch(const std::vector<AuditRecord>& records);
/// Frames one already-encoded AuditRecord as a one-record kAuditAppend
/// batch: the bytes EncodeAuditBatch produces for the decoded record.
Bytes FrameAuditRecord(const Slice& encoded);
/// Decodes a batch; Corruption on malformed input.
Result<std::vector<AuditRecord>> DecodeAuditBatch(const Slice& payload);

/// Behaviour knobs for the audit process.
struct AuditProcessConfig {
  AuditTrail* trail = nullptr;          ///< shared durable trail (disc state)
  /// Group commit (GroupCommit's `window`): how long the first force of a
  /// batch waits for company before the write starts; 0 starts it at once.
  SimDuration group_commit_window = 0;
  /// The node's purge limits, supplied by the deployment: the TMP and the
  /// DISCPROCESS that know which transactions are live sit above this
  /// layer. When they cannot be known now (say, during a takeover) it
  /// returns limits that purge nothing. Unset: the trail is never purged.
  std::function<PurgeLimits()> purge_limits;
};

/// The AUDITPROCESS pair.
class AuditProcess : public os::PairedProcess {
 public:
  explicit AuditProcess(AuditProcessConfig config);

  std::string DebugName() const override { return pair_name() + "/audit"; }

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;

 private:
  void HandleAppend(const net::Message& msg);
  void HandleForce(const net::Message& msg);
  void HandleFetch(const net::Message& msg);
  /// Applies the purge rule; called when an append has sealed a file.
  void PurgeFinished();

  struct Metrics {
    sim::MetricId appended, forces, forced_records, files_purged;
    sim::MetricId group_commit_size;  // histogram
  };

  AuditProcessConfig config_;
  Metrics m_;
  GroupCommit force_;  ///< the trail's physical force writes
};

}  // namespace encompass::audit

#endif  // ENCOMPASS_AUDIT_AUDIT_PROCESS_H_
