// E11 — hotspot contention: lock lane vs queue lane. The queue execution
// lane (QueuePlanner, after the QueCC paradigm) batches predeclared
// transactions into epochs and executes them lock-free in plan order, so a
// hot-record transaction cannot abort on lock conflict or deadlock timeout.
// This binary drives the same skewed transfer workloads against both lanes
// of an identical two-node deployment and reports abort rate, p50/p99
// client latency (simulated), and committed transactions/second:
//   * uniform      — uniform picks over the node's accounts (the control:
//                    both lanes should be within noise of each other);
//   * zipf         — both ends Zipfian (theta 1.1) over the accounts;
//   * hot          — 50% of debits hit one hot account;
//   * tpcb         — uniform transfer plus a delta on the node's single
//                    branch record (TPC-B idiom: every transaction crosses
//                    one ultra-hot row).
// A determinism sweep re-runs the hot shape on both lanes at engine worker
// counts {1,2,4} and refuses to report a "divergence"-free JSON unless
// commits, aborts, and the balance checksum are identical everywhere.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "encompass/deployment.h"
#include "storage/record.h"
#include "tmf/file_system.h"
#include "tmf/queue_lane.h"
#include "tmf/tmf_protocol.h"

namespace encompass::bench {
namespace {

constexpr uint64_t kSeed = 42;
constexpr int kNodes = 2;
constexpr int kAccountsPerNode = 32;
constexpr int kDriversPerNode = 6;
constexpr double kZipfTheta = 1.1;

enum class Shape { kUniform, kZipf, kHot, kTpcb };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform: return "uniform";
    case Shape::kZipf: return "zipf";
    case Shape::kHot: return "hot";
    case Shape::kTpcb: return "tpcb";
  }
  return "?";
}

std::string AcctKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "acct%05d", i);
  return buf;
}

std::string BranchFile(int n) { return "branch" + std::to_string(n); }

int64_t ParseBalance(const Bytes& image) {
  auto rec = storage::Record::Decode(Slice(image));
  if (!rec.ok()) return 0;
  return strtoll(rec->Get("balance").c_str(), nullptr, 10);
}

/// Run-wide tally shared by every driver. Drivers on different nodes report
/// from different engine loops when the run is parallel, hence the mutex.
struct Tally {
  std::mutex mu;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  std::vector<SimDuration> latencies;
};

struct DriverConfig {
  const storage::Catalog* catalog = nullptr;
  Tally* tally = nullptr;
  uint64_t seed = 1;
  bool queue = false;
  Shape shape = Shape::kUniform;
  int accounts_per_node = kAccountsPerNode;
  SimTime stop_at = 0;
};

/// One closed-loop terminal: transfer transactions back to back against its
/// own node (the queue lane is node-local; the lock lane gets the same
/// node-local picks so the comparison is apples to apples).
class Driver : public os::Process {
 public:
  explicit Driver(DriverConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}
  std::string DebugName() const override { return "e11-driver"; }

 protected:
  void OnStart() override {
    fs_ = std::make_unique<tmf::FileSystem>(this, cfg_.catalog);
    SetTimer(Micros(rng_.Uniform(200)), [this]() { Next(); });
  }

 private:
  int PickAccount() {
    const uint64_t n = static_cast<uint64_t>(cfg_.accounts_per_node);
    switch (cfg_.shape) {
      case Shape::kUniform:
      case Shape::kTpcb:
        return static_cast<int>(rng_.Uniform(n));
      case Shape::kZipf:
        return static_cast<int>(rng_.Skewed(n, kZipfTheta));
      case Shape::kHot:
        return rng_.Bernoulli(0.5) ? 0 : static_cast<int>(rng_.Uniform(n));
    }
    return 0;
  }

  void Next() {
    set_current_transid(0);
    if (sim()->Now() >= cfg_.stop_at) return;
    const int base =
        (static_cast<int>(node()->id()) - 1) * cfg_.accounts_per_node;
    int f = PickAccount();
    int t = PickAccount();
    for (int guard = 0; t == f && guard < 64; ++guard) {
      t = static_cast<int>(
          rng_.Uniform(static_cast<uint64_t>(cfg_.accounts_per_node)));
    }
    from_ = base + f;
    to_ = base + t;
    amount_ = 1 + static_cast<int64_t>(rng_.Uniform(100));
    start_ = sim()->Now();
    if (cfg_.queue) {
      SubmitQueue();
    } else {
      BeginLock();
    }
  }

  void Finish(bool committed) {
    {
      std::lock_guard<std::mutex> lk(cfg_.tally->mu);
      if (committed) {
        ++cfg_.tally->commits;
      } else {
        ++cfg_.tally->aborts;
      }
      cfg_.tally->latencies.push_back(sim()->Now() - start_);
    }
    set_current_transid(0);
    SetTimer(Micros(10 + rng_.Uniform(40)), [this]() { Next(); });
  }

  // -- queue lane -------------------------------------------------------------

  void SubmitQueue() {
    tmf::QueueTxn txn;
    txn.declared = {"acct"};
    discprocess::PlannedOp debit;
    debit.kind = discprocess::PlannedOp::Kind::kDelta;
    debit.file = "acct";
    debit.key = ToBytes(AcctKey(from_));
    debit.field = "balance";
    debit.delta = -amount_;
    discprocess::PlannedOp credit = debit;
    credit.key = ToBytes(AcctKey(to_));
    credit.delta = amount_;
    txn.ops = {debit, credit};
    if (cfg_.shape == Shape::kTpcb) {
      const std::string branch = BranchFile(static_cast<int>(node()->id()));
      txn.declared.push_back(branch);
      discprocess::PlannedOp b = debit;
      b.file = branch;
      b.key = ToBytes(std::string("b"));
      b.delta = amount_;
      txn.ops.push_back(b);
    }
    os::CallOptions opt;
    opt.timeout = Seconds(8);
    opt.retries = 0;
    Call(net::Address(node()->id(), "$QPLAN"), tmf::kTmfQueueSubmit,
         txn.Encode(),
         [this](const Status& s, const net::Message&) { Finish(s.ok()); },
         opt);
  }

  // -- lock lane --------------------------------------------------------------

  void BeginLock() {
    os::CallOptions opt;
    opt.timeout = Seconds(2);
    opt.retries = 2;
    Call(net::Address(node()->id(), "$TMP"), tmf::kTmfBegin, {},
         [this](const Status& s, const net::Message& m) {
           if (!s.ok()) {
             // No transaction existed: nothing committed or aborted; retry.
             SetTimer(Millis(1), [this]() { Next(); });
             return;
           }
           auto t = tmf::DecodeTransidPayload(Slice(m.payload));
           if (!t.ok()) {
             SetTimer(Millis(1), [this]() { Next(); });
             return;
           }
           txn_ = t->Pack();
           set_current_transid(txn_);
           // Lock in account order so deadlocks (resolved by timeout) do not
           // dominate the measurement; the transfer direction is preserved.
           lo_ = from_ < to_ ? from_ : to_;
           hi_ = from_ < to_ ? to_ : from_;
           fs_->Read("acct", Slice(AcctKey(lo_)), /*lock=*/true,
                     [this](const Status& s1, const Bytes& v1) {
                       if (!s1.ok()) return AbortLock();
                       bal_lo_ = ParseBalance(v1);
                       ReadHi();
                     });
         },
         opt);
  }

  void ReadHi() {
    fs_->Read("acct", Slice(AcctKey(hi_)), /*lock=*/true,
              [this](const Status& s, const Bytes& v) {
                if (!s.ok()) return AbortLock();
                bal_hi_ = ParseBalance(v);
                storage::Record r;
                r.Set("balance",
                      std::to_string(bal_lo_ +
                                     (lo_ == from_ ? -amount_ : amount_)));
                fs_->Update("acct", Slice(AcctKey(lo_)), Slice(r.Encode()),
                            [this](const Status& s2, const Bytes&) {
                              if (!s2.ok()) return AbortLock();
                              UpdateHi();
                            });
              });
  }

  void UpdateHi() {
    storage::Record r;
    r.Set("balance",
          std::to_string(bal_hi_ + (hi_ == to_ ? amount_ : -amount_)));
    fs_->Update("acct", Slice(AcctKey(hi_)), Slice(r.Encode()),
                [this](const Status& s, const Bytes&) {
                  if (!s.ok()) return AbortLock();
                  if (cfg_.shape == Shape::kTpcb) {
                    TouchBranch();
                  } else {
                    EndLock();
                  }
                });
  }

  void TouchBranch() {
    const std::string branch = BranchFile(static_cast<int>(node()->id()));
    fs_->Read(branch, Slice(std::string("b")), /*lock=*/true,
              [this, branch](const Status& s, const Bytes& v) {
                if (!s.ok()) return AbortLock();
                storage::Record r;
                r.Set("balance", std::to_string(ParseBalance(v) + amount_));
                fs_->Update(branch, Slice(std::string("b")), Slice(r.Encode()),
                            [this](const Status& s2, const Bytes&) {
                              if (!s2.ok()) return AbortLock();
                              EndLock();
                            });
              });
  }

  void EndLock() {
    os::CallOptions opt;
    opt.timeout = Seconds(8);
    Call(net::Address(node()->id(), "$TMP"), tmf::kTmfEnd,
         tmf::EncodeTransidPayload(Transid::Unpack(txn_)),
         [this](const Status& s, const net::Message&) { Finish(s.ok()); },
         opt);
  }

  void AbortLock() {
    os::CallOptions opt;
    opt.timeout = Seconds(8);
    Call(net::Address(node()->id(), "$TMP"), tmf::kTmfAbort,
         tmf::EncodeTransidPayload(Transid::Unpack(txn_)),
         [this](const Status&, const net::Message&) { Finish(false); },
         opt);
  }

  DriverConfig cfg_;
  Random rng_;
  std::unique_ptr<tmf::FileSystem> fs_;
  uint64_t txn_ = 0;
  int from_ = 0, to_ = 0, lo_ = 0, hi_ = 0;
  int64_t amount_ = 0, bal_lo_ = 0, bal_hi_ = 0;
  SimTime start_ = 0;
};

struct LaneRun {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  double abort_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double tps = 0;             ///< committed txns / simulated second
  double events_per_sec = 0;  ///< engine events / simulated second
  uint64_t checksum = 0;      ///< FNV over final balances + counts
  int64_t lock_timeout_aborts = 0;
  int64_t lock_conflict_aborts = 0;
  int64_t queue_commits = 0;
  int64_t queue_aborts = 0;
};

uint64_t Fnv64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xFF)) * 1099511628211ULL;
  }
  return h;
}

LaneRun RunLane(Shape shape, bool queue, int workers, SimDuration span) {
  sim::Simulation sim(kSeed, workers);
  app::Deployment deploy(&sim);
  for (int n = 1; n <= kNodes; ++n) {
    app::NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.node_config.num_cpus = 4;
    // Tight enough that queueing behind a hot-row lock chain times out (the
    // real-world admission-control setting), long enough that an isolated
    // wait on a uniform collision still succeeds.
    spec.disc_config.default_lock_timeout = Millis(60);
    spec.exec_lane = queue ? app::ExecLane::kQueue : app::ExecLane::kLocks;
    spec.volumes = {app::VolumeSpec{
        "$DATA" + std::to_string(n),
        {app::FileSpec{"acct"}, app::FileSpec{BranchFile(n)}},
        {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  storage::FileDefinition def;
  def.name = "acct";
  def.partitions.AddPartition(ToBytes(AcctKey(kAccountsPerNode)), 1, "$DATA1");
  def.partitions.AddPartition({}, 2, "$DATA2");
  deploy.DefinePartitionedFile(def);
  for (int n = 1; n <= kNodes; ++n) {
    deploy.DefineFile(BranchFile(n), static_cast<net::NodeId>(n),
                      "$DATA" + std::to_string(n));
    auto* vol = deploy.GetNode(static_cast<net::NodeId>(n))
                    ->storage().volumes.at("$DATA" + std::to_string(n))
                    .get();
    for (int i = (n - 1) * kAccountsPerNode; i < n * kAccountsPerNode; ++i) {
      storage::Record rec;
      rec.Set("balance", "1000");
      vol->Mutate("acct", storage::MutationOp::kInsert, Slice(AcctKey(i)),
                  Slice(rec.Encode()));
    }
    storage::Record rec;
    rec.Set("balance", "0");
    vol->Mutate(BranchFile(n), storage::MutationOp::kInsert,
                Slice(std::string("b")), Slice(rec.Encode()));
    vol->Flush();
  }
  sim.RunFor(Millis(10));  // service pairs settle

  Tally tally;
  const SimTime stop_at = sim.Now() + span;
  for (int n = 1; n <= kNodes; ++n) {
    for (int c = 0; c < kDriversPerNode; ++c) {
      DriverConfig dcfg;
      dcfg.catalog = &deploy.catalog();
      dcfg.tally = &tally;
      dcfg.seed = kSeed * 1000003 + static_cast<uint64_t>(n) * 101 +
                  static_cast<uint64_t>(c) * 17;
      dcfg.queue = queue;
      dcfg.shape = shape;
      dcfg.stop_at = stop_at;
      deploy.GetNode(static_cast<net::NodeId>(n))
          ->node()
          ->Spawn<Driver>(1 + c % 3, dcfg);
    }
  }

  sim.RunUntil(stop_at);
  sim.RunFor(Seconds(10));  // drain in-flight transactions and lock waits

  LaneRun r;
  r.commits = tally.commits;
  r.aborts = tally.aborts;
  const uint64_t total = r.commits + r.aborts;
  r.abort_rate = total > 0 ? static_cast<double>(r.aborts) /
                                 static_cast<double>(total)
                           : 0;
  r.p50_ms = PercentileMs(tally.latencies, 50);
  r.p99_ms = PercentileMs(tally.latencies, 99);
  r.tps = TxnPerSec(r.commits, span);
  const double sim_secs =
      static_cast<double>(span) / static_cast<double>(Seconds(1));
  if (sim_secs > 0) {
    r.events_per_sec = static_cast<double>(sim.ExecutedEvents()) / sim_secs;
  }
  uint64_t h = 14695981039346656037ULL;
  for (int n = 1; n <= kNodes; ++n) {
    auto* vol = deploy.GetNode(static_cast<net::NodeId>(n))
                    ->storage().volumes.at("$DATA" + std::to_string(n))
                    .get();
    for (int i = (n - 1) * kAccountsPerNode; i < n * kAccountsPerNode; ++i) {
      auto rd = vol->ReadRecord("acct", Slice(AcctKey(i)));
      h = Fnv64(h, rd.status.ok()
                       ? static_cast<uint64_t>(ParseBalance(rd.value))
                       : 0xDEAD);
    }
    auto rd = vol->ReadRecord(BranchFile(n), Slice(std::string("b")));
    h = Fnv64(h, rd.status.ok()
                     ? static_cast<uint64_t>(ParseBalance(rd.value))
                     : 0xDEAD);
  }
  h = Fnv64(h, r.commits);
  h = Fnv64(h, r.aborts);
  r.checksum = h;
  r.lock_timeout_aborts = sim.GetStats().Counter("lock.timeout_aborts");
  r.lock_conflict_aborts = sim.GetStats().Counter("lock.conflict_aborts");
  r.queue_commits = sim.GetStats().Counter("queue.commits");
  r.queue_aborts = sim.GetStats().Counter("queue.aborts");
  return r;
}

void TableHotspot() {
  Header("E11.a abort rate and latency by workload shape and lane "
         "(seed 42, 2 nodes, 3 sim-sec)");
  printf("%8s %6s %9s %8s %8s %9s %9s %10s\n", "shape", "lane", "commits",
         "aborts", "abort%", "p50 ms", "p99 ms", "txn/s");
  for (Shape shape :
       {Shape::kUniform, Shape::kZipf, Shape::kHot, Shape::kTpcb}) {
    for (bool queue : {false, true}) {
      LaneRun r = RunLane(shape, queue, 1, Seconds(3));
      const char* lane = queue ? "queue" : "locks";
      printf("%8s %6s %9llu %8llu %7.2f%% %9.2f %9.2f %10.1f\n",
             ShapeName(shape), lane, (unsigned long long)r.commits,
             (unsigned long long)r.aborts, 100.0 * r.abort_rate, r.p50_ms,
             r.p99_ms, r.tps);
      const std::string k = std::string(ShapeName(shape)) + "." + lane;
      ReportValue(k + ".commits", static_cast<double>(r.commits));
      ReportValue(k + ".aborts", static_cast<double>(r.aborts));
      ReportValue(k + ".abort_rate", r.abort_rate);
      ReportValue(k + ".p50_ms", r.p50_ms);
      ReportValue(k + ".p99_ms", r.p99_ms);
      ReportValue(k + ".tps", r.tps);
      ReportValue(k + ".events_per_sec", r.events_per_sec);
      if (queue) {
        ReportValue(k + ".queue_commits",
                    static_cast<double>(r.queue_commits));
        ReportValue(k + ".queue_aborts", static_cast<double>(r.queue_aborts));
      } else {
        ReportValue(k + ".lock_timeout_aborts",
                    static_cast<double>(r.lock_timeout_aborts));
        ReportValue(k + ".lock_conflict_aborts",
                    static_cast<double>(r.lock_conflict_aborts));
      }
    }
  }
}

void TableDeterminism() {
  Header("E11.b determinism: hot shape, both lanes, engine workers "
         "{1,2,4} (2 sim-sec)");
  printf("%6s %9s %9s %8s %18s %6s\n", "lane", "workers", "commits", "aborts",
         "checksum", "match");
  int divergence = 0;
  for (bool queue : {false, true}) {
    LaneRun base;
    for (int workers : {1, 2, 4}) {
      LaneRun r = RunLane(Shape::kHot, queue, workers, Seconds(2));
      bool match = true;
      if (workers == 1) {
        base = r;
      } else {
        match = r.commits == base.commits && r.aborts == base.aborts &&
                r.checksum == base.checksum;
        if (!match) divergence = 1;
      }
      printf("%6s %9d %9llu %8llu %18llx %6s\n", queue ? "queue" : "locks",
             workers, (unsigned long long)r.commits,
             (unsigned long long)r.aborts, (unsigned long long)r.checksum,
             match ? "yes" : "NO");
    }
  }
  if (divergence != 0) {
    printf("ENGINE DIVERGENCE: same-seed runs differ across worker counts\n");
  }
  ReportValue("divergence", divergence);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ReportValue("hw_threads", static_cast<double>(hw));
  ReportValue("hw_limited", hw < 4 ? 1 : 0);
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e11_hotspot");
  encompass::bench::ReportMeta(/*seed=*/42);
  printf("E11: queue-oriented execution lane vs record locks under hotspot "
         "contention\n");
  encompass::bench::TableHotspot();
  encompass::bench::TableDeterminism();
  encompass::bench::WriteReport();
  return 0;
}
