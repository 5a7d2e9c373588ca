// NodeRecoveryProcess: the operational ROLLFORWARD driver run on a freshly
// reloaded node, before its TMF services restart. It plans each volume's
// rollforward against the durable trails and local MAT, then *negotiates*
// the still-unknown ("ending at failure time") transactions with the
// surviving TMPs of the network as real protocol messages (kTmfResolveTxn
// with the recovering flag), and finally executes the rollforward and
// reports. This is the paper's negotiation: "ROLLFORWARD negotiates with
// other nodes of the network about transactions which were in 'ending'
// state at the time of the node failure."
//
// Negotiation rules (safety argued from MAT durability):
//   * a transaction whose home is THIS node and that has no durable MAT
//     completion record can never have committed (the forced home MAT
//     record IS the commit point) — presumed abort, recorded durably so
//     later queries from in-doubt children answer instantly;
//   * a transaction homed elsewhere is asked at its home TMP, retried with
//     capped exponential backoff until the home is reachable; with the
//     recovering flag the home always answers definitely (its MAT, or it
//     aborts the transaction — our volatile phase-1 promise died with the
//     node);
//   * under Paxos Commit (acceptor_endpoints configured) an unreachable
//     home no longer blocks: any live acceptor majority reveals the
//     decision, and own-home unresolved transactions are sealed there
//     (abort proposed at a usurping ballot; any majority-accepted commit is
//     adopted instead).

#ifndef ENCOMPASS_TMF_RECOVERY_H_
#define ENCOMPASS_TMF_RECOVERY_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_trail.h"
#include "os/process.h"
#include "tmf/rollforward.h"

namespace encompass::tmf {

/// ROLLFORWARD's negotiation with a home: per-attempt deadline, base pacing
/// between attempts, and the cap of the per-transid exponential backoff.
constexpr SimDuration kNegotiationTimeout = Seconds(2);
constexpr SimDuration kNegotiationRetryInterval = Millis(500);
constexpr SimDuration kNegotiationBackoffCap = Seconds(8);

struct NodeRecoveryConfig {
  std::vector<VolumeRecoveryTask> tasks;
  audit::MonitorAuditTrail* monitor_trail = nullptr;  ///< local durable MAT
  /// Seed of the deterministic per-(transid, attempt) retry jitter.
  /// Deployments derive it from the simulation seed and node id, so the
  /// schedule de-synchronises across recovering nodes yet replays
  /// bit-identically for a given campaign seed.
  uint64_t jitter_seed = 1;
  /// Paxos Commit: when a home TMP is unreachable, learn the disposition
  /// from any live majority of these `$ACCEPT.<k>` pairs (settling the
  /// home's voter instance first — it names the participants — then
  /// theirs) instead of waiting for the home to return. Empty (default) =
  /// negotiate with homes only (2PC).
  std::vector<std::pair<net::NodeId, std::string>> acceptor_endpoints;
  /// Fired once with the per-volume reports when every volume is rebuilt.
  /// May tear down this process.
  std::function<void(const std::vector<RollforwardReport>&)> on_done;
};

/// Runs the recovery asynchronously in simulated time, then fires on_done.
class NodeRecoveryProcess : public os::Process {
 public:
  explicit NodeRecoveryProcess(NodeRecoveryConfig config)
      : config_(std::move(config)) {}

  std::string DebugName() const override { return "$RECOVER"; }

  /// Exposes the backoff schedule for tests (determinism, growth, cap).
  SimDuration BackoffDelayForTest(const Transid& t, uint32_t attempts) const {
    return BackoffDelay(t, attempts);
  }

 protected:
  void OnAttach() override;
  void OnStart() override;

 private:
  struct PlannedVolume {
    VolumeRecoveryTask task;
    RollforwardPlan plan;
  };

  /// Per-transid negotiation state. Every pending transid negotiates
  /// concurrently — one unreachable home must not head-of-line block the
  /// transids that other (live) homes can answer immediately.
  struct Negotiation {
    uint32_t attempts = 0;       ///< completed unsuccessful attempts
    uint32_t paxos_attempt = 1;  ///< next recovery ballot attempt
    bool in_flight = false;
    /// Homed at this (recovering) node: under Paxos Commit its outcome must
    /// be sealed at the acceptors (presumed abort alone could contradict a
    /// majority-accepted commit the crash interrupted).
    bool own_home = false;
  };

  void NegotiateAll();
  void Negotiate(const Transid& t);
  bool PaxosAvailable() const { return !config_.acceptor_endpoints.empty(); }
  void ResolvePaxos(const Transid& t);
  void Settle(const Transid& t, Disposition d);
  void RetryLater(const Transid& t);
  SimDuration BackoffDelay(const Transid& t, uint32_t attempts) const;
  void Finish();

  NodeRecoveryConfig config_;
  std::vector<PlannedVolume> planned_;
  std::map<Transid, Negotiation> pending_;    ///< awaiting a definite answer
  std::map<Transid, Disposition> negotiated_; ///< definite remote answers
  uint32_t reported_max_attempts_ = 0;
  sim::MetricId m_runs_, m_negotiations_, m_negotiation_retries_;
  sim::MetricId m_presumed_aborts_, m_max_retry_attempts_, m_paxos_resolves_;
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_RECOVERY_H_
