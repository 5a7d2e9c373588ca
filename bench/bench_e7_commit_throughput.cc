// E7 — the commit hot path under concurrency. N driver processes each run
// back-to-back distributed transactions (a write on every one of 3 nodes,
// then END-TRANSACTION), so at any instant many transactions sit in phase 1
// / at the commit point together. Measures what the group-commit overhaul
// buys: physical audit/MAT forces per committed transaction (< 1 once
// committers coalesce), the route-cache hit rate of the network layer, and
// commit-latency percentiles. Also sweeps the batching window to show the
// latency/throughput trade.

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "tmf/file_system.h"
#include "tmf/tmf_protocol.h"

namespace encompass::bench {
namespace {

/// One concurrent transaction source: begins a transaction, inserts one
/// record per file, commits, and immediately starts the next — keeping the
/// commit pipeline saturated for the whole measurement.
class TxnDriver : public os::Process {
 public:
  struct Config {
    const storage::Catalog* catalog = nullptr;
    std::vector<std::string> files;  ///< one insert per file, per txn
    int id = 0;                      ///< key namespace (avoids lock conflicts)
    int txns = 0;                    ///< transactions to run, back to back
  };

  explicit TxnDriver(Config config) : config_(std::move(config)) {}

  int committed() const { return committed_; }
  int finished() const { return finished_; }
  bool done() const { return finished_ >= config_.txns; }
  const std::vector<SimDuration>& commit_latencies() const {
    return commit_latencies_;
  }

  void OnStart() override {
    fs_ = std::make_unique<tmf::FileSystem>(this, config_.catalog);
    BeginNext();
  }

 private:
  void BeginNext() {
    if (done()) return;
    Call(net::Address(1, "$TMP"), tmf::kTmfBegin, {},
         [this](const Status& s, const net::Message& m) {
           if (!s.ok()) {
             FinishTxn(false);
             return;
           }
           auto transid = tmf::DecodeTransidPayload(Slice(m.payload));
           if (!transid.ok()) {
             FinishTxn(false);
             return;
           }
           transid_ = *transid;
           set_current_transid(transid_.Pack());
           Insert(0);
         });
  }

  void Insert(size_t file_index) {
    if (file_index >= config_.files.size()) {
      Commit();
      return;
    }
    std::string key = "d" + std::to_string(config_.id) + "k" +
                      std::to_string(finished_);
    fs_->Insert(config_.files[file_index], Slice(key), Slice("v"),
                [this, file_index](const Status& s, const Bytes&) {
                  if (!s.ok()) {
                    Abort();
                    return;
                  }
                  Insert(file_index + 1);
                });
  }

  void Commit() {
    SimTime start = sim()->Now();
    Call(net::Address(1, "$TMP"), tmf::kTmfEnd,
         tmf::EncodeTransidPayload(transid_),
         [this, start](const Status& s, const net::Message&) {
           if (s.ok()) commit_latencies_.push_back(sim()->Now() - start);
           FinishTxn(s.ok());
         },
         {.timeout = Seconds(30)});
  }

  void Abort() {
    Call(net::Address(1, "$TMP"), tmf::kTmfAbort,
         tmf::EncodeTransidPayload(transid_),
         [this](const Status&, const net::Message&) { FinishTxn(false); });
  }

  void FinishTxn(bool ok) {
    set_current_transid(0);
    if (ok) ++committed_;
    ++finished_;
    BeginNext();
  }

  Config config_;
  std::unique_ptr<tmf::FileSystem> fs_;
  Transid transid_;
  int committed_ = 0;
  int finished_ = 0;
  std::vector<SimDuration> commit_latencies_;
};

struct E7Rig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<app::Deployment> deploy;
  std::vector<TxnDriver*> drivers;
};

constexpr int kNodes = 3;

/// 3 nodes, one audited file each; `drivers` concurrent transaction sources
/// spread over node 1's CPUs, each running `txns` distributed transactions.
E7Rig MakeE7Rig(uint64_t seed, int drivers, int txns,
                SimDuration group_commit_window = 0) {
  E7Rig rig;
  rig.sim = std::make_unique<sim::Simulation>(seed);
  rig.deploy = std::make_unique<app::Deployment>(rig.sim.get());
  for (int n = 1; n <= kNodes; ++n) {
    app::NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{
        "$DATA" + std::to_string(n),
        {app::FileSpec{"f" + std::to_string(n)}},
        {}}};
    spec.audit_config.group_commit_window = group_commit_window;
    spec.tmp_config.mat_group_commit_window = group_commit_window;
    rig.deploy->AddNode(spec);
  }
  rig.deploy->LinkAll();
  for (int n = 1; n <= kNodes; ++n) {
    rig.deploy->DefineFile("f" + std::to_string(n), static_cast<net::NodeId>(n),
                           "$DATA" + std::to_string(n));
  }
  rig.sim->Run();  // services settle before the drivers start

  TxnDriver::Config base;
  base.catalog = &rig.deploy->catalog();
  for (int n = 1; n <= kNodes; ++n) base.files.push_back("f" + std::to_string(n));
  base.txns = txns;
  os::Node* home = rig.deploy->GetNode(1)->node();
  for (int d = 0; d < drivers; ++d) {
    TxnDriver::Config cfg = base;
    cfg.id = d;
    rig.drivers.push_back(
        home->Spawn<TxnDriver>(d % home->config().num_cpus, cfg));
  }
  return rig;
}

struct E7Result {
  int committed = 0;
  int finished = 0;
  double elapsed_s = 0;
  double txns_per_sec = 0;
  double audit_forces_per_txn = 0;
  double mat_forces_per_txn = 0;
  double route_cache_hit_rate = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

E7Result RunE7(E7Rig& rig) {
  sim::Stats& stats = rig.sim->GetStats();
  int64_t forces0 = stats.Counter("audit.forces");
  int64_t mat0 = stats.Counter("tmf.mat_forces");
  int64_t hits0 = stats.Counter("net.route_cache_hits");
  int64_t misses0 = stats.Counter("net.route_cache_misses");
  SimTime start = rig.sim->Now();

  auto all_done = [&rig]() {
    for (const auto* d : rig.drivers) {
      if (!d->done()) return false;
    }
    return true;
  };
  SimTime deadline = start + Seconds(3600);
  while (!all_done() && rig.sim->Now() < deadline) rig.sim->RunFor(Millis(50));
  rig.sim->Run();  // drain trailing phase-2 deliveries

  E7Result r;
  std::vector<SimDuration> latencies;
  for (const auto* d : rig.drivers) {
    r.committed += d->committed();
    r.finished += d->finished();
    latencies.insert(latencies.end(), d->commit_latencies().begin(),
                     d->commit_latencies().end());
  }
  r.elapsed_s = static_cast<double>(rig.sim->Now() - start) / 1e6;
  r.txns_per_sec = TxnPerSec(static_cast<uint64_t>(r.committed),
                             rig.sim->Now() - start);
  if (r.committed > 0) {
    r.audit_forces_per_txn =
        static_cast<double>(stats.Counter("audit.forces") - forces0) /
        static_cast<double>(r.committed);
    r.mat_forces_per_txn =
        static_cast<double>(stats.Counter("tmf.mat_forces") - mat0) /
        static_cast<double>(r.committed);
  }
  int64_t hits = stats.Counter("net.route_cache_hits") - hits0;
  int64_t misses = stats.Counter("net.route_cache_misses") - misses0;
  if (hits + misses > 0) {
    r.route_cache_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  r.p50_ms = PercentileMs(latencies, 50);
  r.p95_ms = PercentileMs(latencies, 95);
  r.p99_ms = PercentileMs(latencies, 99);
  return r;
}

void TableThroughputVsConcurrency() {
  Header("E7.a commit throughput vs concurrent transactions (3 nodes)");
  printf("%8s %10s %10s %12s %12s %10s %9s %9s %9s\n", "drivers", "committed",
         "txns/s", "forces/txn", "matfrc/txn", "rthit", "p50ms", "p95ms",
         "p99ms");
  for (int drivers : {1, 2, 4, 8, 16}) {
    E7Rig rig = MakeE7Rig(701, drivers, /*txns=*/25);
    E7Result r = RunE7(rig);
    printf("%8d %10d %10.1f %12.3f %12.3f %10.3f %9.2f %9.2f %9.2f\n", drivers,
           r.committed, r.txns_per_sec, r.audit_forces_per_txn,
           r.mat_forces_per_txn, r.route_cache_hit_rate, r.p50_ms, r.p95_ms,
           r.p99_ms);
    if (drivers == 8) {
      ReportValue("e7.window0.audit_forces_per_txn", r.audit_forces_per_txn);
      ReportValue("e7.window0.mat_forces_per_txn", r.mat_forces_per_txn);
      ReportValue("e7.window0.txns_per_sec", r.txns_per_sec);
    }
  }
  printf("(forces/txn = physical audit-trail forces per committed txn;\n"
         " group commit drives it below 1 once committers overlap)\n");
}

void TableAcceptance() {
  // Headline numbers: 8 concurrent committers with the 2 ms gathering window
  // — the configuration the group-commit knobs exist for. Three audited
  // participant nodes mean three phase-1 forces per commit without
  // coalescing; < 1 per committed transaction is the engaged signature.
  Header("E7.c acceptance configuration (8 drivers, 2 ms window)");
  E7Rig rig = MakeE7Rig(701, /*drivers=*/8, /*txns=*/25, Millis(2));
  E7Result r = RunE7(rig);
  printf("committed=%d txns/s=%.1f audit-forces/txn=%.3f mat-forces/txn=%.3f\n"
         "route-cache-hit-rate=%.3f p50=%.2fms p95=%.2fms p99=%.2fms\n",
         r.committed, r.txns_per_sec, r.audit_forces_per_txn,
         r.mat_forces_per_txn, r.route_cache_hit_rate, r.p50_ms, r.p95_ms,
         r.p99_ms);
  ReportValue("e7.committed", r.committed);
  ReportValue("e7.txns_per_sec", r.txns_per_sec);
  ReportValue("e7.audit_forces_per_txn", r.audit_forces_per_txn);
  ReportValue("e7.mat_forces_per_txn", r.mat_forces_per_txn);
  ReportValue("e7.route_cache_hit_rate", r.route_cache_hit_rate);
  ReportValue("e7.commit_latency_ms.p50", r.p50_ms);
  ReportValue("e7.commit_latency_ms.p95", r.p95_ms);
  ReportValue("e7.commit_latency_ms.p99", r.p99_ms);
  ReportSimStats("e7sim", rig.sim->GetStats());
}

void TableWindowSweep() {
  Header("E7.b batching-window sweep (8 drivers)");
  printf("%12s %10s %12s %12s %9s %9s\n", "window(ms)", "txns/s", "forces/txn",
         "matfrc/txn", "p50ms", "p99ms");
  for (SimDuration window : {SimDuration(0), Millis(1), Millis(2), Millis(4)}) {
    E7Rig rig = MakeE7Rig(709, /*drivers=*/8, /*txns=*/25, window);
    E7Result r = RunE7(rig);
    printf("%12.1f %10.1f %12.3f %12.3f %9.2f %9.2f\n",
           static_cast<double>(window) / 1e3, r.txns_per_sec,
           r.audit_forces_per_txn, r.mat_forces_per_txn, r.p50_ms, r.p99_ms);
    if (window == Millis(2)) {
      ReportValue("e7.window2ms.txns_per_sec", r.txns_per_sec);
      ReportValue("e7.window2ms.audit_forces_per_txn", r.audit_forces_per_txn);
    }
  }
  printf("(a small window trades commit latency for fewer physical writes)\n");
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e7_commit_throughput");
  encompass::bench::ReportMeta(/*seed=*/701);
  printf("E7: commit hot path — group commit, route cache, concurrency\n");
  encompass::bench::TableThroughputVsConcurrency();
  encompass::bench::TableWindowSweep();
  encompass::bench::TableAcceptance();
  encompass::bench::WriteReport();
  return 0;
}
