// Tcp: the Terminal Control Process — a process-pair that supervises "the
// interleaved execution of Screen COBOL programs, each associated with one
// of the terminals under control of the TCP". It implements the TMF verbs
// (BEGIN-/END-/ABORT-/RESTART-TRANSACTION), SEND with automatic transid
// propagation and remote-transaction-begin, automatic restart at
// BEGIN-TRANSACTION (bounded by the transaction restart limit), and
// checkpointing of screen input so a restart "may not require re-entering
// the input screen(s)".

#ifndef ENCOMPASS_ENCOMPASS_TCP_H_
#define ENCOMPASS_ENCOMPASS_TCP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "encompass/screen_program.h"
#include "os/process_pair.h"
#include "tmf/tmf_protocol.h"

namespace encompass::app {

/// TCP configuration.
struct TcpConfig {
  /// Programs this TCP can run, by name (the checkpointed terminal context
  /// references programs by name, never by pointer).
  std::map<std::string, const ScreenProgram*> programs;
  int restart_limit = 3;          ///< configurable transaction restart limit
  SimDuration send_timeout = Seconds(10);
  SimDuration think_time = 0;     ///< pause between program iterations
  size_t max_terminals = 32;      ///< per the paper
};

/// The Terminal Control Process pair.
class Tcp : public os::PairedProcess {
 public:
  explicit Tcp(TcpConfig config) : config_(std::move(config)) {}

  std::string DebugName() const override { return pair_name() + "/tcp"; }

  /// Attaches a terminal that runs `program_name` `iterations` times
  /// (UINT64_MAX = until the simulation stops). Returns false if the TCP is
  /// full or the program is unknown. Call on the primary after spawn.
  bool AttachTerminal(const std::string& terminal_name,
                      const std::string& program_name, uint64_t iterations);

  // Aggregate statistics (valid on the current primary).
  uint64_t transactions_committed() const { return committed_; }
  uint64_t transactions_restarted() const { return restarts_; }
  uint64_t programs_completed() const { return programs_completed_; }
  uint64_t programs_failed() const { return programs_failed_; }
  size_t terminal_count() const { return terminals_.size(); }
  /// Terminals that have finished all iterations.
  size_t idle_terminals() const;

 protected:
  void OnPairAttach() override;
  void OnCheckpoint(const Slice& delta) override;
  void OnTakeover() override;
  void OnBackupAttached() override;

 private:
  struct Terminal {
    std::string name;
    std::string program_name;
    const ScreenProgram* program = nullptr;
    uint64_t remaining = 0;
    Fields fields;
    Fields begin_snapshot;   ///< screen input checkpointed at BEGIN
    size_t pc = 0;
    size_t begin_pc = 0;
    int restarts = 0;
    uint64_t transid = 0;
    bool done = false;
    bool waiting = false;    ///< an async verb is outstanding
  };

  void Step(size_t idx);
  void RunBegin(size_t idx);
  void RunSend(size_t idx, const ScreenProgram::Verb& verb);
  void RunEnd(size_t idx);
  void RunAbort(size_t idx, bool then_restart, bool voluntary);
  /// Back out (if needed) and resume at BEGIN with the snapshotted input,
  /// or fail the program when the restart limit is exceeded.
  void RestartTransaction(size_t idx);
  void FinishIteration(size_t idx, bool success);
  void ApplyDirective(size_t idx, SendDirective directive);
  void CheckpointTerminal(const Terminal& term);
  void CheckpointCounters();
  net::Address Tmp() const { return net::Address(node()->id(), "$TMP"); }

  struct Metrics {
    sim::MetricId terminals_attached, commits, voluntary_aborts, failed_aborts;
    sim::MetricId restart_limit_exceeded, txn_restarts;
    sim::MetricId programs_completed, programs_failed, terminals_done;
    sim::MetricId takeover_restarts;
  };

  TcpConfig config_;
  Metrics m_;
  std::vector<Terminal> terminals_;
  uint64_t committed_ = 0;
  uint64_t restarts_ = 0;
  uint64_t programs_completed_ = 0;
  uint64_t programs_failed_ = 0;
};

}  // namespace encompass::app

#endif  // ENCOMPASS_ENCOMPASS_TCP_H_
