#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "encompass/chaos.h"
#include "sim/stats.h"
#include "tcp_world.h"
#include "trace_spans.h"

namespace perfbench {

namespace {

namespace app = encompass::app;
using encompass::Millis;
using encompass::Seconds;
using encompass::SimDuration;
using encompass::SimTime;

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Hist(const sim::Stats& stats, const char* name, double p,
            double divisor = 1.0) {
  const sim::Histogram* h = stats.FindHistogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->Percentile(p)) / divisor;
}

double Count(const sim::Stats& stats, const char* name) {
  return static_cast<double>(stats.Counter(name));
}

/// Sum of every `storage.<volume>.<suffix>` counter.
double StorageSum(const sim::Stats& stats, const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, value] : stats.counters()) {
    if (name.rfind("storage.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

void AddGate(RunResult* r, std::string name, bool ok, std::string detail = "") {
  r->gates.push_back(Gate{std::move(name), ok, std::move(detail)});
}

// ---- TCP workloads (local-tp, dist-2pc) ------------------------------------

/// One TCP workload's shape. `iterations_per_second` is the number of
/// programs each terminal runs per requested wall second; it was sized on
/// a 4-core x86 host so that one untraced run takes roughly --seconds.
struct TcpShape {
  TcpWorldConfig world;
  double iterations_per_second = 10;
  /// Inquiry programs per transfer program, so both kinds of terminal
  /// finish together and the steady window covers the whole mix.
  double inquiry_ratio = 0;
  SimDuration warmup = Seconds(2);
  SimDuration slice = Seconds(1);  ///< untraced wall-rate sample
  int setup_reps = 9;
  bool pool_gate = false;  ///< compare workers=1 with the pool
};

TcpShape LocalTpShape(const RunOptions& o) {
  TcpShape s;
  s.world.seed = o.seed;
  s.world.nodes = 1;
  s.world.cpus = 8;
  s.world.accounts_per_node = o.tiny ? 2000 : 100000;
  s.world.transfer_terminals = o.tiny ? 4 : 16;
  s.world.inquiry_terminals = o.tiny ? 4 : 16;
  s.world.workers = 1;
  s.iterations_per_second = 530;
  s.inquiry_ratio = 0.58;
  s.slice = Seconds(4);
  return s;
}

/// Worker-pool size of dist-2pc: never more engine threads than cores.
int PoolWorkers() { return std::min(Nproc(), 4); }

TcpShape Dist2pcShape(const RunOptions& o) {
  TcpShape s;
  s.world.seed = o.seed;
  s.world.nodes = 4;
  s.world.cpus = 4;
  s.world.accounts_per_node = o.tiny ? 500 : 2000;
  s.world.transfer_terminals = o.tiny ? 4 : 16;
  s.world.inquiry_terminals = 0;
  s.world.credit_next_node = true;
  s.world.workers = PoolWorkers();
  s.iterations_per_second = 145;
  s.slice = Seconds(2);
  s.setup_reps = 21;  // a 5 ms set-up: more repetitions for a steady median
  s.pool_gate = true;
  return s;
}

/// One world through warm-up and its steady window: from the end of warm-up
/// to the end of the last slice in which every terminal was still busy. It
/// steps one slice at a time, so a traced world and its untraced twin can
/// alternate slices and host-speed drift stays out of the tracing overhead.
class TcpRun {
 public:
  TcpRun(TcpWorld& world, const TcpShape& shape, SimDuration slice,
         TraceSpans* spans)
      : world_(world), sim_(world.sim()), slice_(slice), spans_(spans) {
    world_.Start();
    sim_.RunFor(shape.warmup);
    if (spans_ != nullptr) sim_.GetTrace().Clear();
    sim_.GetStats().Clear();
    world_.SetRecording(true);
    committed0_ = world_.Committed();
    events0_ = sim_.ExecutedEvents();
    sim0_ = sim_.Now();
  }

  bool steady() const { return steady_; }
  double wall_s() const { return w_.wall_s; }
  uint64_t committed() const { return w_.committed; }

  /// Runs one slice of the steady window; closes the window when a
  /// terminal has finished all its programs.
  void Step() {
    const uint64_t c = world_.Committed();
    const double t = WallSeconds();
    const double cpu = CpuSeconds();
    sim_.RunFor(slice_);
    if (spans_ != nullptr) spans_->Drain(sim_.GetTrace());
    const double dt = WallSeconds() - t;
    w_.wall_s += dt;
    w_.cpu_s += CpuSeconds() - cpu;
    if (!world_.AnyTerminalDone()) {
      if (dt > 0) {
        w_.slice_rates.push_back(static_cast<double>(world_.Committed() - c) / dt);
      }
      return;
    }
    steady_ = false;
    w_.sim_s = static_cast<double>(sim_.Now() - sim0_) / 1e6;
    w_.committed = world_.Committed() - committed0_;
    w_.events = sim_.ExecutedEvents() - events0_;
    world_.SetRecording(false);
    sim_.PublishEngineMetrics();
  }

  /// The window's metrics; call once the window has closed.
  MetricMap Metrics() const;

  /// Runs every terminal to the end of its programs and lets phase 2
  /// settle, so the gates see a quiet system.
  void Drain() {
    while (!world_.AllTerminalsDone()) {
      sim_.RunFor(Seconds(1));
      if (spans_ != nullptr) spans_->Drain(sim_.GetTrace());
    }
    sim_.RunFor(Seconds(3));
    if (spans_ != nullptr) spans_->Drain(sim_.GetTrace());
  }

 private:
  struct Window {
    double wall_s = 0;
    double cpu_s = 0;
    double sim_s = 0;
    uint64_t committed = 0;
    uint64_t events = 0;
    std::vector<double> slice_rates;  ///< committed txns per wall second
  };

  TcpWorld& world_;
  sim::Simulation& sim_;
  const SimDuration slice_;
  TraceSpans* spans_;
  bool steady_ = true;
  uint64_t committed0_ = 0;
  uint64_t events0_ = 0;
  SimTime sim0_ = 0;
  Window w_;
};

MetricMap TcpRun::Metrics() const {
  const sim::Stats& stats = sim_.GetStats();
  const double txns = static_cast<double>(w_.committed);
  const uint64_t n = w_.committed;
  const TerminalProbe probe = world_.MergedProbe();
  MetricMap mm;
  mm["window.sim_s"] = w_.sim_s;
  mm["window.wall_s"] = w_.wall_s;
  // User-facing. commit_p99_ms is END-TRANSACTION as the terminal sees it,
  // from raw samples; the home TMP's histogram is bucketed, and its p50
  // sits on one bucket for every seed.
  mm["commit_p50_ms"] = Hist(stats, "tmf.commit_latency_us", 50, 1e3);
  mm["commit.home_p99_ms"] = Hist(stats, "tmf.commit_latency_us", 99, 1e3);
  mm["commit_p99_ms"] = probe.end_us.P(99) / 1e3;
  mm["commit.samples"] = static_cast<double>(probe.end_us.count());
  mm["transfer_p50_ms"] = probe.transfer_rt_us.P(50) / 1e3;
  mm["transfer_p99_ms"] = probe.transfer_rt_us.P(99) / 1e3;
  mm["transfer.samples"] = static_cast<double>(probe.transfer_rt_us.count());
  mm["inquiry_p50_ms"] = probe.inquiry_rt_us.P(50) / 1e3;
  mm["inquiry_p99_ms"] = probe.inquiry_rt_us.P(99) / 1e3;
  mm["inquiry.samples"] = static_cast<double>(probe.inquiry_rt_us.count());
  mm["committed_tps"] = w_.sim_s > 0 ? txns / w_.sim_s : 0;
  mm["msgs_per_txn"] = PerTxn(Count(stats, "net.sent"), n);
  mm["indoubt_at_recovery"] = 0;  // no failures on the TCP workloads
  mm["txns_per_wall_s"] = Median(w_.slice_rates);
  // encompass
  mm["tcp.begin_ms.p50"] = probe.begin_us.P(50) / 1e3;
  mm["tcp.send_ms.p50"] = probe.send_us.P(50) / 1e3;
  mm["tcp.send_ms.p99"] = probe.send_us.P(99) / 1e3;
  mm["tcp.end_ms.p50"] = probe.end_us.P(50) / 1e3;
  mm["tcp.end_ms.p99"] = probe.end_us.P(99) / 1e3;
  mm["tcp.restarts_per_txn"] = PerTxn(Count(stats, "tcp.txn_restarts"), n);
  mm["serverclass.queue_depth.p99"] = Hist(stats, "serverclass.queue_depth", 99);
  // tmf
  if (spans_ != nullptr) {
    mm["tmf.phase1_ms.p50"] = spans_->phase1_us.P(50) / 1e3;
    mm["tmf.phase1_ms.p99"] = spans_->phase1_us.P(99) / 1e3;
    mm["tmf.commit_force_ms.p50"] = spans_->commit_force_us.P(50) / 1e3;
    mm["tmf.phase2_lag_ms.p50"] = spans_->phase2_lag_us.P(50) / 1e3;
    mm["tmf.phase2_lag_ms.p99"] = spans_->phase2_lag_us.P(99) / 1e3;
    mm["net.flight_ms.p50"] = spans_->flight_us.P(50) / 1e3;
  }
  mm["tmf.mat_forces_per_txn"] = PerTxn(Count(stats, "tmf.mat_forces"), n);
  mm["tmf.indoubt_hold_ms.p99"] = Hist(stats, "tmf.indoubt_hold_us", 99, 1e3);
  mm["tmf.indoubt_blocked_on_home"] = Count(stats, "tmf.indoubt_blocked_on_home");
  // audit
  mm["audit.forces_per_txn"] = PerTxn(Count(stats, "audit.forces"), n);
  mm["audit.group_commit_size.p50"] = Hist(stats, "audit.group_commit_size", 50);
  mm["audit.trail_records_per_txn"] =
      PerTxn(static_cast<double>(world_.TrailRecords()), world_.Committed());
  // discprocess
  const double disc_ops = Count(stats, "disc.ops");
  mm["disc.op_latency_us.p50"] = Hist(stats, "disc.op_latency", 50);
  mm["disc.op_latency_us.p99"] = Hist(stats, "disc.op_latency", 99);
  mm["disc.queue_depth.p99"] = Hist(stats, "disc.queue_depth", 99);
  mm["disc.ops_per_txn"] = PerTxn(disc_ops, n);
  mm["disc.ckpt_messages_per_op"] =
      disc_ops > 0 ? Count(stats, "disc.ckpt_messages") / disc_ops : 0;
  mm["lock.wait_ms.p50"] = Hist(stats, "lock.wait_time", 50, 1e3);
  mm["lock.wait_ms.p99"] = Hist(stats, "lock.wait_time", 99, 1e3);
  mm["lock.aborts_per_txn"] = PerTxn(
      Count(stats, "lock.conflict_aborts") + Count(stats, "lock.timeout_aborts"), n);
  // storage
  mm["storage.cache_hit_rate"] =
      HitRate(StorageSum(stats, ".cache_hits"), StorageSum(stats, ".cache_misses"));
  mm["storage.ios_per_op"] =
      disc_ops > 0 ? StorageSum(stats, ".physical_reads") / disc_ops : 0;
  // net
  mm["net.sent_per_txn"] = PerTxn(Count(stats, "net.sent"), n);
  mm["net.retransmits"] = Count(stats, "net.retransmits");
  mm["net.route_cache_hit_rate"] = HitRate(Count(stats, "net.route_cache_hits"),
                                           Count(stats, "net.route_cache_misses"));
  // os
  mm["os.checkpoints_per_txn"] = PerTxn(Count(stats, "os.checkpoints_sent"), n);
  mm["os.bus_msgs_per_txn"] =
      PerTxn(Count(stats, "os.bus_x_msgs") + Count(stats, "os.bus_y_msgs"), n);
  mm["os.takeovers"] = Count(stats, "os.takeovers");
  mm["os.call_retries"] = Count(stats, "os.call_retries");
  // sim
  mm["sim.events_per_txn"] = PerTxn(static_cast<double>(w_.events), n);
  mm["sim.events_per_wall_s"] =
      w_.wall_s > 0 ? static_cast<double>(w_.events) / w_.wall_s : 0;
  mm["sim.cpu_utilization"] = w_.wall_s > 0 ? w_.cpu_s / w_.wall_s : 0;
  mm["sim.rounds"] = Count(stats, "sim.rounds");
  mm["sim.ready_loops_per_round"] =
      Count(stats, "sim.rounds") > 0
          ? Count(stats, "sim.ready_loops") / Count(stats, "sim.rounds")
          : 0;
  mm["sim.horizon_us.p50"] = Hist(stats, "sim.horizon_width", 50);
  // recovery (nothing fails here, so these read 0)
  mm["recovery.negotiations"] = Count(stats, "recovery.negotiations");
  mm["recovery.presumed_aborts"] = Count(stats, "recovery.presumed_aborts");
  mm["rollforward.redo_applied"] = 0;
  mm["backout.undos"] = Count(stats, "backout.undos");
  mm["recovery.indoubt_via_home"] = Count(stats, "tmf.indoubt_resolved_commits") +
                                    Count(stats, "tmf.indoubt_resolved_aborts");
  return mm;
}

/// Correctness gates shared by the TCP workloads.
void TcpGates(TcpWorld& world, RunResult* r) {
  AddGate(r, "quiesced", world.Quiesced(),
          "no active txn, pending safe delivery or held lock");
  const int64_t sum = world.BalanceSum();
  AddGate(r, "balance_conserved", sum == world.ExpectedSum(),
          std::to_string(sum) + " vs seeded " + std::to_string(world.ExpectedSum()));
  const int64_t illegal =
      world.sim().GetStats().Counter("tmf.illegal_transitions");
  AddGate(r, "no_illegal_transitions", illegal == 0, std::to_string(illegal));
  AddGate(r, "no_failed_programs", world.ProgramsFailed() == 0,
          std::to_string(world.ProgramsFailed()) + " failed");
}

TcpWorldConfig WithIterations(const TcpShape& shape, uint64_t iterations) {
  TcpWorldConfig c = shape.world;
  c.iterations = iterations;
  c.inquiry_iterations = static_cast<uint64_t>(
      std::llround(shape.inquiry_ratio * static_cast<double>(iterations)));
  return c;
}

RunResult RunTcpWorkload(const RunOptions& o, TcpShape shape) {
  RunResult r;
  // A traced run measures half the work twice: traced, then untraced.
  const double work = shape.iterations_per_second * o.seconds * (o.trace ? 0.5 : 1);
  const uint64_t iterations =
      std::max<uint64_t>(40, static_cast<uint64_t>(std::llround(work)));
  if (o.tiny) shape.warmup = Millis(500);
  const int setup_reps = o.tiny ? 1 : shape.setup_reps;
  TcpWorldConfig cfg = WithIterations(shape, iterations);
  cfg.trace = o.trace;

  // Set up several times, half before the run (keeping the last world for
  // it) and half after, so the median samples the host across the run.
  std::vector<double> total, add_node, seed, settle;
  auto record = [&](const SetupTimes& t) {
    total.push_back(t.total());
    add_node.push_back(t.add_node_s);
    seed.push_back(t.seed_s);
    settle.push_back(t.settle_s);
  };
  const int setup_before = (setup_reps + 1) / 2;
  std::unique_ptr<TcpWorld> world;
  for (int i = 0; i < setup_before; ++i) {
    world.reset();
    world = std::make_unique<TcpWorld>(cfg);
    record(world->setup());
  }

  // Traced runs drain the log every 100 ms of simulated time, far below
  // the point where one shard's ring could wrap. Their untraced twin runs
  // the same slices in alternation, giving the tracing overhead and the
  // tracing-off simulator speed.
  TraceSpans spans;
  const SimDuration slice = o.trace ? Millis(100) : shape.slice;
  TcpRun run(*world, shape, slice, o.trace ? &spans : nullptr);
  std::unique_ptr<TcpWorld> twin;
  std::unique_ptr<TcpRun> twin_run;
  if (o.trace) {
    TcpWorldConfig plain = cfg;
    plain.trace = false;
    twin = std::make_unique<TcpWorld>(plain);
    twin_run = std::make_unique<TcpRun>(*twin, shape, slice, nullptr);
  }
  while (run.steady() || (twin_run && twin_run->steady())) {
    if (run.steady()) run.Step();
    if (twin_run && twin_run->steady()) twin_run->Step();
  }
  r.metrics = run.Metrics();
  MetricMap& m = r.metrics;
  if (o.trace) {
    const MetricMap untraced = twin_run->Metrics();
    m["sim.trace_overhead"] = run.wall_s() / twin_run->wall_s() - 1;
    for (const char* k : {"txns_per_wall_s", "sim.events_per_wall_s",
                          "sim.cpu_utilization"}) {
      m[k] = untraced.at(k);
    }
    AddGate(&r, "traced_equals_untraced", twin_run->committed() == run.committed(),
            std::to_string(run.committed()) + " vs " +
                std::to_string(twin_run->committed()));
    twin_run.reset();
    twin.reset();
  }
  run.Drain();
  TcpGates(*world, &r);
  r.attempted = world->ProgramsCompleted() + world->ProgramsFailed();
  r.failed = world->ProgramsFailed();
  world.reset();
  for (int i = setup_before; i < setup_reps; ++i) record(TcpWorld(cfg).setup());
  m["failed_share"] = FailedShare(r.failed, r.attempted);
  m["setup_s"] = Median(total);
  m["setup.add_node_s"] = Median(add_node);
  m["setup.seed_s"] = Median(seed);
  m["setup.settle_s"] = Median(settle);
  m["trace.dropped"] = static_cast<double>(spans.dropped());
  if (o.trace) {
    m["trace.events"] = static_cast<double>(spans.events());
    AddGate(&r, "trace_complete", spans.dropped() == 0,
            std::to_string(spans.dropped()) + " events dropped");
  } else {
    m["sim.trace_overhead"] = 0;
  }
  m["peak_rss_mb"] = PeakRssMb();

  // dist-2pc: the worker pool must reproduce the single-loop engine.
  if (shape.pool_gate) {
    TcpWorldConfig gate = WithIterations(shape, o.tiny ? 10 : 30);
    gate.trace = false;
    gate.workers = 1;
    TcpWorld one(gate);
    gate.workers = shape.world.workers;
    TcpWorld pool(gate);
    for (TcpWorld* g : {&one, &pool}) {
      g->Start();
      while (!g->AllTerminalsDone()) g->sim().RunFor(Seconds(1));
      g->sim().RunFor(Seconds(3));
    }
    const bool same = one.Committed() == pool.Committed() &&
                      one.BalanceChecksum() == pool.BalanceChecksum();
    AddGate(&r, "pool_matches_single_loop", same,
            "workers=1 committed " + std::to_string(one.Committed()) +
                ", workers=" + std::to_string(gate.workers) + " committed " +
                std::to_string(pool.Committed()));
  }

  r.stamp["engine_workers"] = std::to_string(shape.world.workers);
  r.stamp["programs_per_terminal"] = std::to_string(iterations);
  return r;
}

// ---- storm -----------------------------------------------------------------

app::ChaosCampaignConfig StormConfig(uint64_t campaign_seed, bool tiny) {
  app::ChaosCampaignConfig c;
  c.seed = campaign_seed;
  c.nodes = 4;
  c.clients_per_node = 4;
  c.accounts_per_node = 200;
  c.client_think = 0;  // closed loop
  c.schedule.faults = tiny ? 4 : 12;
  c.schedule.min_node_crashes = tiny ? 1 : 2;
  c.schedule.w_crash = 1.5;
  c.schedule.window = tiny ? Seconds(10) : Seconds(60);
  c.schedule.min_heal = Seconds(2);
  c.schedule.max_heal = Seconds(4);
  c.schedule.crash_recovery_pad = Seconds(4);
  c.indoubt_resolve_interval = Millis(250);
  c.track_messages = true;
  c.commit_protocol = encompass::tmf::CommitProtocol::kTwoPhase;
  c.parallel_workers = 1;
  return c;
}

/// Campaigns per requested second: 30 at the benchmark's 10 s, enough for
/// campaign averages that hold within a few percent across seeds. One
/// campaign takes 0.5-1 s on a 4-core x86 host.
constexpr double kStormCampaignsPerSecond = 3.0;

RunResult RunStorm(const RunOptions& o) {
  RunResult r;
  const int campaigns =
      o.tiny ? 2
             : std::max(8, static_cast<int>(std::lround(kStormCampaignsPerSecond *
                                                         o.seconds)));

  // Set-up: the campaign's fixed cost (deploy, seed, archive, settle,
  // drain), measured as a campaign with no clients and no faults before
  // every real campaign.
  std::vector<double> setup;
  app::ChaosCampaignConfig idle = StormConfig(o.seed, o.tiny);
  idle.clients_per_node = 0;

  std::vector<double> p50, p99, hold_p99, wall_rates, rss;
  RssSampler sampler;
  uint64_t started = 0, committed = 0, aborted = 0, unknown = 0;
  uint64_t messages = 0;
  double sim_s = 0, wall_s = 0, cpu_s = 0;
  size_t indoubt = 0, negotiated = 0, redo = 0, violations = 0;
  int64_t via_home = 0, blocked = 0;
  bool all_ok = true;
  std::string first_bad;
  for (int i = 0; i < campaigns; ++i) {
    const uint64_t cseed = o.seed * 1000 + static_cast<uint64_t>(i) + 1;
    // Each campaign builds and frees its own world: hand the last one's
    // memory back so every campaign's peak starts from the same floor.
    malloc_trim(0);
    const double s0 = WallSeconds();
    app::ReplayChaosCampaign(idle, encompass::sim::FaultSchedule{});
    setup.push_back(WallSeconds() - s0);
    sampler.Reset();
    const double t = WallSeconds();
    const double cpu = CpuSeconds();
    app::ChaosCampaignResult res = app::RunChaosCampaign(StormConfig(cseed, o.tiny));
    const double dt = WallSeconds() - t;
    cpu_s += CpuSeconds() - cpu;
    rss.push_back(sampler.PeakMb());
    wall_s += dt;
    const bool ok = res.quiesced && res.violations.empty() &&
                    res.balance_sum == res.expected_sum && res.leaked_locks == 0 &&
                    res.illegal_transitions == 0;
    if (!ok && all_ok) {
      first_bad = "campaign seed " + std::to_string(cseed) +
                  ": quiesced=" + std::to_string(res.quiesced) +
                  " violations=" + std::to_string(res.violations.size()) +
                  " balance=" + std::to_string(res.balance_sum) + "/" +
                  std::to_string(res.expected_sum) +
                  " leaked_locks=" + std::to_string(res.leaked_locks);
    }
    all_ok = all_ok && ok;
    violations += res.violations.size();
    started += res.txns_started;
    committed += res.txns_committed;
    aborted += res.txns_aborted;
    unknown += res.txns_unknown;
    messages += res.tracked_messages;
    // Clients run from just after set-up until 2 s past the last heal.
    const double load_s =
        static_cast<double>(res.schedule.EndTime() + Seconds(2)) / 1e6;
    sim_s += load_s;
    indoubt += res.indoubt_at_recovery;
    negotiated += res.rollforward_negotiated;
    redo += res.rollforward_redo_applied;
    via_home += res.indoubt_resolved_via_home;
    blocked += res.indoubt_blocked_on_home;
    p50.push_back(res.commit_latency_p50_ms);
    p99.push_back(res.commit_latency_p99_ms);
    hold_p99.push_back(res.indoubt_hold_p99_ms);
    if (dt > 0) wall_rates.push_back(static_cast<double>(res.txns_committed) / dt);
  }

  AddGate(&r, "campaigns_pass_oracle", all_ok,
          all_ok ? std::to_string(campaigns) + " campaigns quiesced, 0 violations, "
                                               "balances conserved, 0 leaked locks"
                 : first_bad);
  r.attempted = started;
  r.failed = violations;

  MetricMap& m = r.metrics;
  // Per campaign the home TMP's p99 is a histogram bucket; averaging the
  // campaigns' p99s gives a figure that moves with the storm.
  double p99_sum = 0;
  for (double v : p99) p99_sum += v;
  m["commit_p50_ms"] = Median(p50);
  m["commit_p99_ms"] = p99.empty() ? 0 : p99_sum / static_cast<double>(p99.size());
  m["commit.samples"] = static_cast<double>(committed);
  m["committed_tps"] = sim_s > 0 ? static_cast<double>(committed) / sim_s : 0;
  m["failed_share"] = FailedShare(aborted + unknown, started);
  m["msgs_per_txn"] = PerTxn(static_cast<double>(messages), committed);
  m["indoubt_at_recovery"] = static_cast<double>(indoubt);
  m["txns_per_wall_s"] = Median(wall_rates);
  m["setup_s"] = Median(setup);
  // The process peak is the largest campaign's; the median campaign's peak
  // is the storm's typical footprint and varies far less between seeds.
  m["peak_rss_mb"] = Median(rss);
  m["storm.process_peak_rss_mb"] = PeakRssMb();
  m["net.sent_per_txn"] = m["msgs_per_txn"];
  m["tmf.indoubt_hold_ms.p99"] = Median(hold_p99);
  m["tmf.indoubt_blocked_on_home"] = static_cast<double>(blocked);
  m["recovery.negotiations"] = static_cast<double>(negotiated);
  m["rollforward.redo_applied"] = static_cast<double>(redo);
  m["recovery.indoubt_via_home"] = static_cast<double>(via_home);
  m["sim.cpu_utilization"] = wall_s > 0 ? cpu_s / wall_s : 0;
  m["storm.campaigns"] = campaigns;
  m["window.sim_s"] = sim_s;
  m["window.wall_s"] = wall_s;
  r.stamp["engine_workers"] = "1";
  r.stamp["campaigns"] = std::to_string(campaigns);
  return r;
}

}  // namespace

bool RunResult::correct() const {
  if (gates.empty()) return false;
  for (const Gate& g : gates) {
    if (!g.ok) return false;
  }
  return true;
}

RunResult RunWorkload(const RunOptions& o) {
  RunResult r;
  if (o.workload == "local-tp") {
    r = RunTcpWorkload(o, LocalTpShape(o));
  } else if (o.workload == "dist-2pc") {
    r = RunTcpWorkload(o, Dist2pcShape(o));
  } else if (o.workload == "storm") {
    r = RunStorm(o);
  } else {
    AddGate(&r, "known_workload", false, "unknown workload " + o.workload);
    return r;
  }
  r.stamp["workload"] = o.workload;
  r.stamp["seed"] = std::to_string(o.seed);
  r.stamp["trace"] = o.trace ? "on" : "off";
  r.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  r.stamp["nproc"] = std::to_string(Nproc());
  return r;
}

}  // namespace perfbench
