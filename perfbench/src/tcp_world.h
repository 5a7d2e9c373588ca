// TcpWorld: a banking deployment driven the way ENCOMPASS users drive it —
// terminals under a TCP run Screen COBOL programs that SEND to a bank server
// class, which reaches the DISCPROCESS through the file system under TMF.
// The benchmark's own Compute verbs stamp simulated time before and after
// each verb, giving terminal-observed response times and per-verb spans
// without touching the library.
//
// Terminals are closed loops with no think time: each runs `iterations`
// programs back to back, waiting for every reply.

#ifndef PERFBENCH_TCP_WORLD_H_
#define PERFBENCH_TCP_WORLD_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "encompass/deployment.h"
#include "encompass/screen_program.h"
#include "encompass/tcp.h"
#include "metrics.h"
#include "sim/simulation.h"

namespace perfbench {

namespace sim = encompass::sim;

struct TcpWorldConfig {
  uint64_t seed = 1;
  int nodes = 1;
  int cpus = 8;                     ///< per node
  int accounts_per_node = 100000;
  int transfer_terminals = 16;      ///< per node
  int inquiry_terminals = 16;       ///< per node
  bool credit_next_node = false;    ///< transfers credit node (n % nodes) + 1
  int workers = 1;                  ///< Simulation parallel_workers (>= 1)
  uint64_t iterations = 100;        ///< programs per transfer terminal
  uint64_t inquiry_iterations = 60; ///< programs per inquiry terminal
  bool trace = false;               ///< TraceLog on or off
};

/// Wall seconds of the three set-up steps; they sum to the set-up time.
struct SetupTimes {
  double add_node_s = 0;  ///< simulation, deployment, nodes, services, TCPs
  double seed_s = 0;      ///< account records written to the volumes
  double settle_s = 0;    ///< process pairs started and idle
  double total() const { return add_node_s + seed_s + settle_s; }
};

/// Samples one node's terminals produce. Written only by that node's event
/// loop; read between runs.
struct TerminalProbe {
  bool recording = false;           ///< off during warm-up
  uint64_t next_iteration = 0;
  std::unordered_set<uint64_t> begun;  ///< iterations past their first BEGIN
  Samples transfer_rt_us, inquiry_rt_us;
  Samples begin_us, send_us, end_us;
};

class TcpWorld {
 public:
  explicit TcpWorld(const TcpWorldConfig& config);
  TcpWorld(const TcpWorld&) = delete;
  TcpWorld& operator=(const TcpWorld&) = delete;

  const SetupTimes& setup() const { return setup_; }
  sim::Simulation& sim() { return *sim_; }

  /// Attaches every terminal; programs start at the next event.
  void Start();
  /// Starts or stops sample recording on every node.
  void SetRecording(bool on);

  uint64_t Committed() const;
  uint64_t ProgramsCompleted() const;
  uint64_t ProgramsFailed() const;
  /// True once any terminal has run all its iterations.
  bool AnyTerminalDone() const;
  bool AllTerminalsDone() const;

  /// No active transaction, pending safe delivery or held lock anywhere.
  bool Quiesced() const;
  /// Sum of every account balance on every volume.
  int64_t BalanceSum() const;
  int64_t ExpectedSum() const;
  /// Order-sensitive hash of every (account, balance) pair.
  uint64_t BalanceChecksum() const;
  /// Audit-trail records retained across all nodes.
  uint64_t TrailRecords() const;

  /// Terminal samples merged across nodes.
  TerminalProbe MergedProbe() const;

 private:
  encompass::app::Tcp* TcpOn(int node) const;
  encompass::app::ScreenProgram MakeTransfer(int node, TerminalProbe* probe);
  encompass::app::ScreenProgram MakeInquiry(int node, TerminalProbe* probe);

  TcpWorldConfig config_;
  SetupTimes setup_;
  std::unique_ptr<sim::Simulation> sim_;
  std::vector<std::unique_ptr<TerminalProbe>> probes_;  // [node-1]
  std::vector<std::unique_ptr<encompass::app::ScreenProgram>> programs_;
  std::vector<encompass::os::PairHandles<encompass::app::Tcp>> tcps_;
  // Declared last so processes referencing the programs and probes are
  // destroyed first.
  std::unique_ptr<encompass::app::Deployment> deploy_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TCP_WORLD_H_
