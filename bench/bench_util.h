// Shared helpers for the experiment/benchmark binaries. Each binary takes no
// arguments, prints the experiment tables that reproduce a figure or claim
// of the paper (simulated-time metrics, deterministic seeds), and writes its
// headline numbers to BENCH_<name>.json. Wall-clock numbers go in the same
// JSON; OpsPerSec below times a repeatable loop.

#ifndef ENCOMPASS_BENCH_BENCH_UTIL_H_
#define ENCOMPASS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "apps/banking/banking.h"
#include "encompass/deployment.h"
#include "encompass/tcp.h"
#include "net/network.h"
#include "sim/stats.h"
#include "tmf/tmf_protocol.h"

#ifndef ENCOMPASS_BUILD_TYPE
#define ENCOMPASS_BUILD_TYPE ""
#endif

namespace encompass::bench {

/// Headline numbers of one benchmark binary, written as BENCH_<name>.json in
/// the working directory. Keys are emitted in sorted order and the simulated
/// metrics are deterministic, so two runs of the same build diff cleanly; the
/// only host-timing fields are "wall_ms" (total main() runtime) and "cpu_ms"
/// (process CPU time, all threads).
class JsonReport {
 public:
  /// Schema version of the emitted JSON. Bump when the envelope changes;
  /// version 2 added the mandatory "seed" / "parallel_workers" fields,
  /// version 3 the "hardware_threads" / "git_rev" host context (perf numbers
  /// without the host and the exact source state are unreviewable),
  /// version 4 the "commit_protocol" knob (protocol sweeps must be
  /// self-describing) next to a fast-path flag, which version 5 dropped
  /// when "paxos" came to name the one Paxos Commit protocol. Version 6
  /// added "build_type" (a RelWithDebInfo number next to a Release one is
  /// not a comparison), version 7 "cpu_ms" (CPU/wall shows whether a
  /// parallel run used its cores).
  static constexpr int kSchemaVersion = 7;

  /// CMAKE_BUILD_TYPE this binary was compiled under, or "unspecified".
  static const char* BuildType() {
    const char* type = ENCOMPASS_BUILD_TYPE;
    return type[0] != '\0' ? type : "unspecified";
  }

  /// Short revision of the sources this binary was run from, resolved at
  /// runtime (the build tree lives inside the repo); "unknown" outside git.
  static std::string GitRev() {
    std::string rev;
    if (FILE* p = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
      char buf[64];
      if (fgets(buf, sizeof(buf), p) != nullptr) rev.assign(buf);
      pclose(p);
    }
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
      rev.pop_back();
    }
    return rev.empty() ? "unknown" : rev;
  }

  explicit JsonReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void Add(const std::string& key, double value) { values_[key] = value; }

  /// Records the run's primary simulation seed and engine worker count.
  /// Every report carries both (seed 0, one worker until set), so tooling can
  /// reproduce any BENCH_*.json without reading the bench source.
  void SetMeta(uint64_t seed, int parallel_workers) {
    seed_ = seed;
    parallel_workers_ = parallel_workers;
  }

  /// Names the commit protocol this bench's headline numbers ran under.
  /// Every envelope carries the field — benches that never touch the TMF
  /// keep the default, protocol sweeps overwrite it per run.
  void SetCommitConfig(std::string protocol) {
    commit_protocol_ = std::move(protocol);
  }

  /// Snapshots a simulation's Stats registry: every nonzero counter, and
  /// n/p50/p95/p99 for every non-empty histogram, prefixed with `prefix.`.
  void AddSimStats(const std::string& prefix, const sim::Stats& stats) {
    for (const auto& [name, value] : stats.counters()) {
      values_[prefix + "." + name] = static_cast<double>(value);
    }
    for (const auto& [name, hist] : stats.histograms()) {
      const std::string base = prefix + "." + name;
      values_[base + ".n"] = static_cast<double>(hist->count());
      values_[base + ".p50"] = static_cast<double>(hist->Percentile(50));
      values_[base + ".p95"] = static_cast<double>(hist->Percentile(95));
      values_[base + ".p99"] = static_cast<double>(hist->Percentile(99));
    }
  }

  /// Writes BENCH_<name>.json. Call once at the end of main().
  void Write() {
    double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_).count();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double cpu_ms = TimevalMs(usage.ru_utime) + TimevalMs(usage.ru_stime);
    std::string path = "BENCH_" + name_ + ".json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    fprintf(f,
            "{\n  \"bench\": \"%s\",\n  \"version\": %d,\n  \"seed\": %llu,\n"
            "  \"parallel_workers\": %d,\n  \"hardware_threads\": %u,\n"
            "  \"git_rev\": \"%s\",\n  \"build_type\": \"%s\",\n"
            "  \"commit_protocol\": \"%s\",\n  \"wall_ms\": %.3f,\n"
            "  \"cpu_ms\": %.3f",
            name_.c_str(), kSchemaVersion,
            static_cast<unsigned long long>(seed_), parallel_workers_,
            std::thread::hardware_concurrency(), GitRev().c_str(),
            BuildType(), commit_protocol_.c_str(), wall_ms, cpu_ms);
    for (const auto& [key, value] : values_) {
      if (std::fabs(value - std::llround(value)) < 1e-9) {
        fprintf(f, ",\n  \"%s\": %lld", key.c_str(),
                static_cast<long long>(std::llround(value)));
      } else {
        fprintf(f, ",\n  \"%s\": %.3f", key.c_str(), value);
      }
    }
    fprintf(f, "\n}\n");
    fclose(f);
    printf("wrote %s (wall_ms=%.1f)\n", path.c_str(), wall_ms);
  }

 private:
  static double TimevalMs(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  uint64_t seed_ = 0;
  int parallel_workers_ = 1;
  std::string commit_protocol_ = "2pc";
  std::map<std::string, double> values_;
};

/// Process-wide report, so table functions deep inside a benchmark can attach
/// their rig's stats without threading a JsonReport parameter through.
inline JsonReport*& GlobalReport() {
  static JsonReport* report = nullptr;
  return report;
}

/// Creates the process-wide report. Call first in main().
inline void InitReport(const std::string& name) {
  static JsonReport report{name};
  GlobalReport() = &report;
}

inline void ReportValue(const std::string& key, double value) {
  if (GlobalReport() != nullptr) GlobalReport()->Add(key, value);
}

/// Stamps the report's reproducibility envelope (seed, engine workers).
/// Call once per bench main(), right after InitReport.
inline void ReportMeta(uint64_t seed, int parallel_workers = 1) {
  if (GlobalReport() != nullptr) GlobalReport()->SetMeta(seed, parallel_workers);
}

inline void ReportSimStats(const std::string& prefix, const sim::Stats& stats) {
  if (GlobalReport() != nullptr) GlobalReport()->AddSimStats(prefix, stats);
}

/// Stamps the commit-protocol envelope field ("2pc" or "paxos"). Benches
/// that sweep protocols call this per headline run.
inline void ReportCommitConfig(tmf::CommitProtocol protocol) {
  if (GlobalReport() == nullptr) return;
  GlobalReport()->SetCommitConfig(
      protocol == tmf::CommitProtocol::kPaxos ? "paxos" : "2pc");
}

/// Human name of a network message tag for the per-verb breakdown; falls
/// back to the raw tag number for verbs this table doesn't know.
inline std::string NetTagName(uint32_t tag) {
  switch (tag) {
    case tmf::kTmfBegin: return "tmf.begin";
    case tmf::kTmfEnd: return "tmf.end";
    case tmf::kTmfAbort: return "tmf.abort";
    case tmf::kTmfEnsureRemote: return "tmf.ensure_remote";
    case tmf::kTmfRemoteBegin: return "tmf.remote_begin";
    case tmf::kTmfPhase1: return "tmf.phase1";
    case tmf::kTmfPhase2: return "tmf.phase2";
    case tmf::kTmfAbortTxn: return "tmf.abort_txn";
    case tmf::kTmfStatus: return "tmf.status";
    case tmf::kTmfResolveTxn: return "tmf.resolve_txn";
    case tmf::kTmfPaxosPrepare: return "tmf.paxos_prepare";
    case tmf::kTmfPaxosAccept: return "tmf.paxos_accept";
    case tmf::kTmfPaxosVote: return "tmf.paxos_vote";
    case tmf::kTmfPaxosVoteAck: return "tmf.paxos_vote_ack";
    case tmf::kTmfPaxosReclaim: return "tmf.paxos_reclaim";
    default: return "tag" + std::to_string(tag);
  }
}

/// Per-transaction / per-verb message accounting of a tracked network
/// (NetworkConfig::track_messages): emits `<prefix>.net.msgs_per_txn` plus
/// a per-verb breakdown of every cross-node send.
inline void ReportNetMessages(const std::string& prefix,
                              const net::Network& network,
                              uint64_t committed_txns) {
  uint64_t tracked = 0;
  for (const auto& [transid, count] : network.PerTxnMessages()) {
    (void)transid;
    tracked += count;
  }
  ReportValue(prefix + ".net.msgs_tracked", static_cast<double>(tracked));
  if (committed_txns > 0) {
    ReportValue(prefix + ".net.msgs_per_txn",
                static_cast<double>(tracked) /
                    static_cast<double>(committed_txns));
  }
  for (const auto& [tag, count] : network.PerTagMessages()) {
    ReportValue(prefix + ".net.msgs." + NetTagName(tag),
                static_cast<double>(count));
  }
}

/// Writes the report. Call last in main().
inline void WriteReport() {
  if (GlobalReport() != nullptr) GlobalReport()->Write();
}

/// A single-node banking world: deployment, accounts seeded, bank server
/// class up. The standard substrate for throughput experiments.
struct BankRig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<app::Deployment> deploy;
  app::NodeDeployment* node = nullptr;
  storage::Volume* volume = nullptr;
  std::unique_ptr<app::ScreenProgram> program;
  app::TcpConfig tcp_config;  ///< what $TCP1's primary and backup run

  /// The live $TCP1 primary, found through the node: a failed CPU destroys
  /// its processes, and a takeover re-binds the name to the survivor
  /// (nullptr while the takeover is pending).
  app::Tcp* Primary() {
    os::Node* n = node->node();
    return static_cast<app::Tcp*>(n->Find(n->LookupName("$TCP1")));
  }
};

/// Builds a BankRig with `cpus` processors, `accounts` accounts, and
/// `terminals` transfer terminals each running `iterations` programs
/// (UINT64_MAX = until stopped). Contention is set by `skew`.
inline BankRig MakeBankRig(uint64_t seed, int cpus, int accounts, int terminals,
                           uint64_t iterations, double skew = 0.0,
                           SimDuration lock_timeout = Millis(500),
                           int restart_limit = 100,
                           SimDuration cpu_service = Micros(50)) {
  BankRig rig;
  rig.sim = std::make_unique<sim::Simulation>(seed);
  rig.deploy = std::make_unique<app::Deployment>(rig.sim.get());
  app::NodeSpec spec;
  spec.id = 1;
  spec.node_config.num_cpus = cpus;
  spec.node_config.cpu_service_time = cpu_service;
  spec.disc_config.default_lock_timeout = lock_timeout;
  spec.volumes = {app::VolumeSpec{"$DATA1", {app::FileSpec{"acct"}}, {}}};
  rig.node = rig.deploy->AddNode(spec);
  rig.deploy->DefineFile("acct", 1, "$DATA1");
  rig.volume = rig.node->storage().volumes.at("$DATA1").get();
  apps::banking::SeedAccounts(rig.volume, "acct", accounts, 1000);
  app::ServerClassConfig sc;
  sc.max_servers = cpus * 2;
  apps::banking::AddBankServerClass(rig.deploy.get(), 1, "$SC.BANK", "acct", sc);

  rig.program = std::make_unique<app::ScreenProgram>(
      apps::banking::MakeTransferProgram(1, "$SC.BANK", accounts, 100, skew));
  rig.tcp_config.programs = {{"transfer", rig.program.get()}};
  rig.tcp_config.restart_limit = restart_limit;
  os::SpawnPair<app::Tcp>(rig.node->node(), "$TCP1", cpus - 2, cpus - 1,
                          rig.tcp_config);
  rig.sim->Run();
  for (int t = 0; t < terminals; ++t) {
    rig.Primary()->AttachTerminal("term" + std::to_string(t), "transfer",
                                  iterations);
  }
  return rig;
}

/// Runs the rig until `target` programs finished (completed + failed) or
/// the cap elapses; returns the makespan in simulated microseconds.
inline SimTime RunUntilProgramsDone(BankRig& rig, uint64_t target,
                                    SimDuration cap = Seconds(3600)) {
  SimTime deadline = rig.sim->Now() + cap;
  while (rig.sim->Now() < deadline) {
    app::Tcp* tcp = rig.Primary();
    if (tcp->programs_completed() + tcp->programs_failed() >= target) break;
    rig.sim->RunFor(Millis(100));
  }
  return rig.sim->Now();
}

/// Keeps `value` observable, so the optimizer cannot delete the work that
/// computed it from a timed loop.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Best-of-`rounds` wall-clock ops/s of `run`, which performs `ops`
/// operations and returns a checksum (best-of damps scheduler noise).
inline double OpsPerSec(const std::function<int64_t()>& run, int64_t ops,
                        int rounds = 3) {
  double best = 0;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    int64_t acc = run();
    DoNotOptimize(acc);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    if (secs > 0) best = std::max(best, static_cast<double>(ops) / secs);
  }
  return best;
}

inline void Header(const std::string& title) {
  printf("\n=== %s ===\n", title.c_str());
}

inline double TxnPerSec(uint64_t committed, SimTime elapsed_us) {
  if (elapsed_us <= 0) return 0;
  return static_cast<double>(committed) * 1e6 / static_cast<double>(elapsed_us);
}

/// Percentile of a sample of simulated durations, in milliseconds.
/// Partially sorts `v` in place (nth_element).
inline double PercentileMs(std::vector<SimDuration>& v, double p) {
  if (v.empty()) return 0;
  size_t idx = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) / 1e3;
}

}  // namespace encompass::bench

#endif  // ENCOMPASS_BENCH_BENCH_UTIL_H_
