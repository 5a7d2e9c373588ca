#include "encompass/chaos.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "storage/record.h"
#include "tmf/queue_lane.h"
#include "tmf/tmf_protocol.h"

namespace encompass::app {

namespace {

constexpr int64_t kInitialBalance = 1000;  // every account's opening balance
// Max quiesce time after the storm for transactions, safe deliveries, and
// recoveries to drain.
constexpr SimDuration kMaxDrain = Seconds(120);

std::string VolName(int n) { return "$DATA" + std::to_string(n); }
std::string MarkerFile(int n) { return "mark" + std::to_string(n); }

std::string AcctKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "acct%05d", i);
  return buf;
}

int64_t ParseBalance(const Bytes& image) {
  auto rec = storage::Record::Decode(Slice(image));
  if (!rec.ok()) return 0;
  return strtoll(rec->Get("balance").c_str(), nullptr, 10);
}

net::NetworkConfig CampaignNetwork(const ChaosCampaignConfig& config) {
  net::NetworkConfig net_config;
  net_config.track_messages = config.track_messages;
  return net_config;
}

}  // namespace

// ---- AtomicityOracle --------------------------------------------------------

void AtomicityOracle::RegisterIntent(uint64_t transid, std::string marker_key,
                                     std::vector<IntentTarget> targets) {
  std::lock_guard<std::mutex> lk(mu_);
  Intent& in = intents_[transid];
  in.marker_key = std::move(marker_key);
  in.targets = std::move(targets);
}

void AtomicityOracle::RecordTransfer(uint64_t transid, int from_acct,
                                     int to_acct, int64_t amount) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = intents_.find(transid);
  if (it == intents_.end()) return;
  it->second.from_acct = from_acct;
  it->second.to_acct = to_acct;
  it->second.amount = amount;
}

void AtomicityOracle::RecordOutcome(uint64_t transid, Outcome outcome) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = intents_.find(transid);
  if (it != intents_.end()) it->second.outcome = outcome;
}

uint64_t AtomicityOracle::count(Outcome o) const {
  uint64_t n = 0;
  for (const auto& [id, in] : intents_) {
    if (in.outcome == o) ++n;
  }
  return n;
}

std::vector<AtomicityOracle::Violation> AtomicityOracle::Check(
    Deployment* deploy) const {
  std::vector<Violation> out;
  for (const auto& [transid, in] : intents_) {
    std::string present_on, absent_on;
    size_t present = 0;
    for (const auto& tgt : in.targets) {
      NodeDeployment* nd = deploy->GetNode(tgt.node);
      auto& vol = nd->storage().volumes.at(tgt.volume);
      bool here =
          vol->ReadRecord(tgt.marker_file, Slice(in.marker_key)).status.ok();
      (here ? present_on : absent_on) += " " + tgt.volume;
      if (here) ++present;
    }
    switch (in.outcome) {
      case Outcome::kCommitted:
        if (present != in.targets.size()) {
          out.push_back({transid, "lost committed update: marker " +
                                      in.marker_key + " missing on" +
                                      absent_on});
        }
        break;
      case Outcome::kAborted:
        if (present != 0) {
          out.push_back({transid, "resurrected aborted update: marker " +
                                      in.marker_key + " present on" +
                                      present_on});
        }
        break;
      case Outcome::kUnknown:
        if (present != 0 && present != in.targets.size()) {
          out.push_back({transid, "atomicity violation: marker " +
                                      in.marker_key + " present on" +
                                      present_on + " but missing on" +
                                      absent_on});
        }
        break;
    }
  }
  return out;
}

// ---- ChaosClient ------------------------------------------------------------

net::Address ChaosClient::LocalTmp() const {
  return net::Address(node()->id(), "$TMP");
}

void ChaosClient::OnStart() {
  fs_ = std::make_unique<tmf::FileSystem>(this, config_.catalog);
  ScheduleNext();
}

void ChaosClient::ScheduleNext() {
  set_current_transid(0);
  txn_ = 0;
  SimDuration jitter = static_cast<SimDuration>(
      rng_.Uniform(static_cast<uint64_t>(config_.think_time) + 1));
  SetTimer(config_.think_time + jitter, [this]() { StartTxn(); });
}

void ChaosClient::StartTxn() {
  if (sim()->Now() >= config_.stop_at) return;  // storm over: go quiet
  if (config_.queue_lane) {
    StartQueueTxn();
    return;
  }
  int total = config_.nodes * config_.accounts_per_node;
  from_ = static_cast<int>(rng_.Uniform(total));
  to_ = static_cast<int>(rng_.Uniform(total - 1));
  if (to_ >= from_) ++to_;
  // Acquire locks in account order to keep deadlocks (resolved by lock
  // timeout + abort) from dominating the workload.
  if (from_ > to_) std::swap(from_, to_);
  amount_ = 1 + static_cast<int64_t>(
                    rng_.Uniform(static_cast<uint64_t>(config_.max_amount)));
  os::CallOptions opt;
  opt.timeout = Seconds(2);
  opt.retries = 2;  // BEGIN is idempotent from the oracle's view
  Call(
      LocalTmp(), tmf::kTmfBegin, {},
      [this](const Status& s, const net::Message& m) { OnBegun(s, m); }, opt);
}

void ChaosClient::OnBegun(const Status& s, const net::Message& reply) {
  if (!s.ok()) {
    ScheduleNext();
    return;
  }
  auto t = tmf::DecodeTransidPayload(Slice(reply.payload));
  if (!t.ok()) {
    ScheduleNext();
    return;
  }
  txn_ = t->Pack();
  ++started_;
  marker_key_ = "t" + std::to_string(txn_);
  targets_.clear();
  int na = 1 + from_ / config_.accounts_per_node;
  int nb = 1 + to_ / config_.accounts_per_node;
  targets_.push_back({static_cast<net::NodeId>(na), VolName(na), MarkerFile(na)});
  if (nb != na) {
    targets_.push_back(
        {static_cast<net::NodeId>(nb), VolName(nb), MarkerFile(nb)});
  }
  // Intent is on record BEFORE the first write leaves this process: if the
  // client dies mid-transaction the oracle still audits it (as unknown).
  config_.oracle->RegisterIntent(txn_, marker_key_, targets_);
  config_.oracle->RecordTransfer(txn_, from_, to_, amount_);
  set_current_transid(txn_);
  RunOps();
}

void ChaosClient::RunOps() {
  fs_->Read("acct", Slice(AcctKey(from_)), /*lock=*/true,
            [this](const Status& s, const Bytes& v) {
              if (!s.ok()) return AbortTxn();
              bal_from_ = ParseBalance(v);
              fs_->Read("acct", Slice(AcctKey(to_)), /*lock=*/true,
                        [this](const Status& s2, const Bytes& v2) {
                          if (!s2.ok()) return AbortTxn();
                          bal_to_ = ParseBalance(v2);
                          storage::Record r1;
                          r1.Set("balance", std::to_string(bal_from_ - amount_));
                          fs_->Update(
                              "acct", Slice(AcctKey(from_)), Slice(r1.Encode()),
                              [this](const Status& s3, const Bytes&) {
                                if (!s3.ok()) return AbortTxn();
                                storage::Record r2;
                                r2.Set("balance",
                                       std::to_string(bal_to_ + amount_));
                                fs_->Update(
                                    "acct", Slice(AcctKey(to_)),
                                    Slice(r2.Encode()),
                                    [this](const Status& s4, const Bytes&) {
                                      if (!s4.ok()) return AbortTxn();
                                      marker_idx_ = 0;
                                      InsertNextMarker();
                                    });
                              });
                        });
            });
}

void ChaosClient::InsertNextMarker() {
  if (marker_idx_ >= targets_.size()) {
    EndTxn();
    return;
  }
  const AtomicityOracle::IntentTarget& tgt = targets_[marker_idx_++];
  storage::Record rec;
  rec.Set("txn", marker_key_);
  fs_->Insert(tgt.marker_file, Slice(marker_key_), Slice(rec.Encode()),
              [this](const Status& s, const Bytes&) {
                if (!s.ok()) return AbortTxn();
                InsertNextMarker();
              });
}

void ChaosClient::EndTxn() {
  // No transparent retries on END: if the first reply is lost, a resend can
  // find the transaction already forgotten and read back presumed-abort for
  // a commit that actually happened. A timeout stays "unknown" instead and
  // the oracle holds it to the all-or-nothing standard.
  os::CallOptions opt;
  opt.timeout = Seconds(8);
  uint64_t transid = txn_;
  Call(LocalTmp(), tmf::kTmfEnd,
       tmf::EncodeTransidPayload(Transid::Unpack(transid)),
       [this, transid](const Status& s, const net::Message&) {
         AtomicityOracle::Outcome o =
             s.ok() ? AtomicityOracle::Outcome::kCommitted
                    : (s.IsAborted() ? AtomicityOracle::Outcome::kAborted
                                     : AtomicityOracle::Outcome::kUnknown);
         config_.oracle->RecordOutcome(transid, o);
         ScheduleNext();
       },
       opt);
}

void ChaosClient::StartQueueTxn() {
  // The queue lane is node-local, so the transfer stays between two accounts
  // of this client's own node (the marker too). The oracle does not care
  // which key identifies an intent, only that it is unique: a TMF transid
  // does not exist yet at submit time, so the client mints a synthetic id
  // with 0xFF in the cpu byte — no TMP-issued transid can collide with it.
  int n = static_cast<int>(node()->id());
  int base = (n - 1) * config_.accounts_per_node;
  from_ = base + static_cast<int>(
                     rng_.Uniform(static_cast<uint64_t>(config_.accounts_per_node)));
  to_ = base + static_cast<int>(rng_.Uniform(
                  static_cast<uint64_t>(config_.accounts_per_node - 1)));
  if (to_ >= from_) ++to_;
  amount_ = 1 + static_cast<int64_t>(
                    rng_.Uniform(static_cast<uint64_t>(config_.max_amount)));
  uint64_t oid = (static_cast<uint64_t>(n) << 48) | (0xFFull << 40) |
                 (static_cast<uint64_t>(id().pid) << 20) |
                 (++queue_seq_ & 0xFFFFF);
  ++started_;
  marker_key_ = "q" + std::to_string(oid);
  targets_.clear();
  targets_.push_back({static_cast<net::NodeId>(n), VolName(n), MarkerFile(n)});
  // Intent on record BEFORE the submit leaves this process: if the client
  // dies with its node the oracle still audits the transaction (unknown).
  config_.oracle->RegisterIntent(oid, marker_key_, targets_);
  config_.oracle->RecordTransfer(oid, from_, to_, amount_);

  tmf::QueueTxn txn;
  txn.declared = {"acct", MarkerFile(n)};
  discprocess::PlannedOp debit;
  debit.kind = discprocess::PlannedOp::Kind::kDelta;
  debit.file = "acct";
  debit.key = ToBytes(AcctKey(from_));
  debit.field = "balance";
  debit.delta = -amount_;
  discprocess::PlannedOp credit = debit;
  credit.key = ToBytes(AcctKey(to_));
  credit.delta = amount_;
  discprocess::PlannedOp marker;
  marker.kind = discprocess::PlannedOp::Kind::kInsert;
  marker.file = MarkerFile(n);
  marker.key = ToBytes(marker_key_);
  storage::Record rec;
  rec.Set("txn", marker_key_);
  marker.record = rec.Encode();
  txn.ops = {debit, credit, marker};

  os::CallOptions opt;
  opt.timeout = Seconds(8);
  // No transparent retries, same reasoning as EndTxn: a resend could find
  // the planner's reply cache gone after a takeover and misread the
  // outcome. A timeout stays "unknown".
  opt.retries = 0;
  Call(net::Address(node()->id(), "$QPLAN"), tmf::kTmfQueueSubmit,
       txn.Encode(),
       [this, oid](const Status& s, const net::Message&) {
         AtomicityOracle::Outcome o =
             s.ok() ? AtomicityOracle::Outcome::kCommitted
                    : ((s.IsAborted() || s.IsPlanViolation())
                           ? AtomicityOracle::Outcome::kAborted
                           : AtomicityOracle::Outcome::kUnknown);
         config_.oracle->RecordOutcome(oid, o);
         ScheduleNext();
       },
       opt);
}

void ChaosClient::AbortTxn() {
  os::CallOptions opt;
  opt.timeout = Seconds(8);
  uint64_t transid = txn_;
  Call(LocalTmp(), tmf::kTmfAbort,
       tmf::EncodeTransidPayload(Transid::Unpack(transid)),
       [this, transid](const Status& s, const net::Message&) {
         // An ok or Aborted reply means backout finished: no commit can
         // follow. Anything else (timeout, takeover) leaves it unknown.
         AtomicityOracle::Outcome o =
             (s.ok() || s.IsAborted()) ? AtomicityOracle::Outcome::kAborted
                                       : AtomicityOracle::Outcome::kUnknown;
         config_.oracle->RecordOutcome(transid, o);
         ScheduleNext();
       },
       opt);
}

// ---- Campaign ---------------------------------------------------------------

ChaosCampaign::ChaosCampaign(const ChaosCampaignConfig& config,
                             const sim::FaultSchedule& schedule)
    : config_(config),
      stop_at_(schedule.EndTime() + Seconds(2)),
      sim_(config.seed, config.parallel_workers),
      deploy_(&sim_, CampaignNetwork(config)),
      injector_(&sim_),
      client_gen_(config.nodes + 1, 0) {
  res_.schedule = schedule;
  res_.schedule_dump = schedule.Dump();
  res_.node_crashes = schedule.CountOf(sim::FaultClass::kNodeCrash);
  res_.expected_sum = static_cast<long long>(config.nodes) *
                      config.accounts_per_node * kInitialBalance;

  for (int n = 1; n <= config.nodes; ++n) {
    NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.node_config.num_cpus = 4;
    spec.disc_config.default_lock_timeout = Millis(300);
    spec.tmp_config.auto_abort_timeout = Seconds(10);
    // In-doubt participants of a dead home must resolve themselves, or
    // their locks wedge the drain.
    spec.tmp_config.indoubt_resolve_interval = config.indoubt_resolve_interval;
    spec.tmp_config.commit_protocol = config.commit_protocol;
    spec.tmp_config.track_indoubt_hold = true;
    spec.tmp_config.track_commit_latency = true;
    if (config.commit_protocol == tmf::CommitProtocol::kPaxos) {
      // `$ACCEPT.<k>` pairs round-robined over the nodes, so a 3-node
      // cluster still fields 2F+1 = 5 acceptors when asked. The endpoint
      // order defines the vote-ack tally bit of each acceptor.
      for (int k = 0; k < config.commit_replication; ++k) {
        spec.tmp_config.acceptor_endpoints.emplace_back(
            static_cast<net::NodeId>(k % config.nodes + 1),
            "$ACCEPT." + std::to_string(k));
      }
    }
    spec.exec_lane = config.queue_lane ? ExecLane::kQueue : ExecLane::kLocks;
    spec.volumes = {VolumeSpec{
        VolName(n), {FileSpec{"acct"}, FileSpec{MarkerFile(n)}}, {}}};
    deploy_.AddNode(spec);
  }
  deploy_.LinkAll();

  storage::FileDefinition def;
  def.name = "acct";
  for (int n = 1; n < config.nodes; ++n) {
    def.partitions.AddPartition(
        ToBytes(AcctKey(n * config.accounts_per_node)),
        static_cast<net::NodeId>(n), VolName(n));
  }
  def.partitions.AddPartition({}, static_cast<net::NodeId>(config.nodes),
                              VolName(config.nodes));
  deploy_.DefinePartitionedFile(def);
  for (int n = 1; n <= config.nodes; ++n) {
    deploy_.DefineFile(MarkerFile(n), static_cast<net::NodeId>(n), VolName(n));
  }

  for (int n = 1; n <= config.nodes; ++n) {
    storage::Volume* vol = DataVolume(static_cast<net::NodeId>(n));
    for (int i = (n - 1) * config.accounts_per_node;
         i < n * config.accounts_per_node; ++i) {
      storage::Record rec;
      rec.Set("balance", std::to_string(kInitialBalance));
      vol->Mutate("acct", storage::MutationOp::kInsert, Slice(AcctKey(i)),
                  Slice(rec.Encode()));
    }
    vol->Flush();
  }
}

ChaosCampaignResult ChaosCampaign::Run(const Advance& advance) {
  advance(sim_, sim_.Now() + Millis(10));  // let the service pairs settle
  // Archive every volume at this transaction-consistent point: the base
  // ROLLFORWARD rebuilds a crashed node from.
  for (int n = 1; n <= config_.nodes; ++n) {
    deploy_.GetNode(static_cast<net::NodeId>(n))->ArchiveVolumes();
  }
  for (int n = 1; n <= config_.nodes; ++n) {
    SpawnClients(static_cast<net::NodeId>(n));
  }
  BindFaults();

  // ---- the storm, then the drain -------------------------------------------
  advance(sim_, stop_at_);
  const int max_spins = static_cast<int>(kMaxDrain / Seconds(1)) + 1;
  for (int spin = 0; spin < max_spins && !res_.quiesced; ++spin) {
    advance(sim_, sim_.Now() + Seconds(1));
    res_.quiesced = Quiet();
  }
  advance(sim_, sim_.Now() + Seconds(2));  // settle any last timer pops
  Census();
  return std::move(res_);
}

storage::Volume* ChaosCampaign::DataVolume(net::NodeId n) {
  return deploy_.GetNode(n)->storage().volumes.at(VolName(n)).get();
}

void ChaosCampaign::SpawnClients(net::NodeId n) {
  for (int c = 0; c < config_.clients_per_node; ++c) {
    ChaosClientConfig ccfg;
    ccfg.catalog = &deploy_.catalog();
    ccfg.oracle = &oracle_;
    ccfg.seed = config_.seed * 1000003 + static_cast<uint64_t>(n) * 101 +
                static_cast<uint64_t>(c) * 17 + client_gen_[n] * 7919;
    ccfg.nodes = config_.nodes;
    ccfg.accounts_per_node = config_.accounts_per_node;
    ccfg.think_time = config_.client_think;
    ccfg.stop_at = stop_at_;
    ccfg.queue_lane = config_.queue_lane;
    // Spread clients over CPUs 1..3, away from CPU 0 where recovery runs.
    deploy_.GetNode(n)->node()->Spawn<ChaosClient>(1 + c % 3, ccfg);
  }
  ++client_gen_[n];
}

bool ChaosCampaign::Suppressed(net::NodeId n, const std::string& what) {
  if (crashed_.count(n) == 0) return false;
  injector_.Note("suppressed " + what + ": node crashed");
  return true;
}

void ChaosCampaign::SetPartition(uint32_t mask, bool up) {
  for (int a = 1; a <= config_.nodes; ++a) {
    for (int b = a + 1; b <= config_.nodes; ++b) {
      if (((mask >> a) & 1u) == ((mask >> b) & 1u)) continue;
      const auto na = static_cast<net::NodeId>(a);
      const auto nb = static_cast<net::NodeId>(b);
      if (crashed_.count(na) || crashed_.count(nb)) continue;
      if (up) {
        deploy_.cluster().RestoreLink(na, nb);
      } else {
        deploy_.cluster().CutLink(na, nb);
      }
    }
  }
}

// Binds the schedule to concrete cluster actions. They run on the global
// loop, so they may read crashed_ without the campaign mutex.
void ChaosCampaign::BindFaults() {
  for (const sim::FaultSpec& f : res_.schedule.faults) {
    const std::string node = std::to_string(f.node);
    const std::string unit = std::to_string(f.unit);
    const std::string tag =
        std::string(sim::FaultClassName(f.fault)) + " node " + node;
    const SimTime heal = f.at + f.heal_after;
    switch (f.fault) {
      case sim::FaultClass::kCpuFail:
        injector_.InjectAt(f.at, tag + " cpu " + unit, [this, f]() {
          if (Suppressed(f.node, "cpu fail")) return;
          deploy_.GetNode(f.node)->node()->FailCpu(f.unit);
        });
        injector_.InjectAt(heal, "reload node " + node + " cpu " + unit,
                           [this, f]() {
                             if (Suppressed(f.node, "cpu reload")) return;
                             os::Node* n = deploy_.GetNode(f.node)->node();
                             if (!n->CpuUp(f.unit)) n->ReloadCpu(f.unit);
                           });
        break;
      case sim::FaultClass::kBusCut:
        injector_.InjectAt(f.at, tag + " bus " + unit, [this, f]() {
          if (Suppressed(f.node, "bus cut")) return;
          deploy_.GetNode(f.node)->node()->SetBusUp(f.unit, false);
        });
        injector_.InjectAt(
            heal, "restore node " + node + " bus " + unit, [this, f]() {
              if (crashed_.count(f.node)) return;  // reload did it
              deploy_.GetNode(f.node)->node()->SetBusUp(f.unit, true);
            });
        break;
      case sim::FaultClass::kDriveDrop:
        injector_.InjectAt(f.at, tag + " drive " + unit, [this, f]() {
          DataVolume(f.node)->FailDrive(f.unit);
        });
        injector_.InjectAt(heal, "revive node " + node + " drive " + unit,
                           [this, f]() {
                             (void)DataVolume(f.node)->ReviveDrive(f.unit);
                           });
        break;
      case sim::FaultClass::kLinkFlap: {
        const std::string link = node + "-" + std::to_string(f.peer);
        injector_.InjectAt(f.at, "cut link " + link, [this, f]() {
          if (crashed_.count(f.node) || crashed_.count(f.peer)) {
            injector_.Note("suppressed link cut: endpoint crashed");
            return;
          }
          deploy_.cluster().CutLink(f.node, f.peer);
        });
        injector_.InjectAt(heal, "restore link " + link, [this, f]() {
          if (crashed_.count(f.node) || crashed_.count(f.peer)) {
            return;  // ReconnectNode restores it
          }
          deploy_.cluster().RestoreLink(f.node, f.peer);
        });
        break;
      }
      case sim::FaultClass::kPartition: {
        const std::string mask = std::to_string(f.mask);
        injector_.InjectAt(f.at, "partition mask=" + mask,
                           [this, f]() { SetPartition(f.mask, false); });
        injector_.InjectAt(heal, "heal partition mask=" + mask,
                           [this, f]() { SetPartition(f.mask, true); });
        break;
      }
      case sim::FaultClass::kNodeCrash:
        injector_.InjectAt(f.at, "crash node " + node, [this, f]() {
          crashed_.insert(f.node);
          deploy_.CrashNode(f.node);
        });
        injector_.InjectAt(heal, "recover node " + node,
                           [this, f]() { Recover(f.node); });
        break;
    }
  }
}

void ChaosCampaign::Recover(net::NodeId node) {
  // In-doubt census at the instant the dead home returns: every
  // participant still blocked on it waited out the whole outage.
  for (int n = 1; n <= config_.nodes; ++n) {
    if (n == node) continue;
    if (tmf::TmpProcess* tmp =
            deploy_.GetNode(static_cast<net::NodeId>(n))->tmp()) {
      res_.indoubt_at_recovery += tmp->IndoubtParticipantsOf(node);
    }
  }
  ++recovering_;
  deploy_.RecoverNode(
      node, [this, node](const std::vector<tmf::RollforwardReport>& reports) {
        std::lock_guard<std::mutex> lk(campaign_mu_);
        crashed_.erase(node);
        --recovering_;
        ++res_.recoveries_completed;
        for (const auto& r : reports) {
          res_.rollforward_negotiated += r.negotiated;
          res_.rollforward_redo_applied += r.redo_applied;
        }
        injector_.Note("node " + std::to_string(node) +
                       " recovered and back in service");
        if (sim_.Now() < stop_at_) SpawnClients(node);
      });
}

bool ChaosCampaign::Quiet() {
  if (!crashed_.empty() || recovering_ > 0) return false;
  for (int n = 1; n <= config_.nodes; ++n) {
    NodeDeployment* nd = deploy_.GetNode(static_cast<net::NodeId>(n));
    tmf::TmpProcess* tmp = nd->tmp();
    if (tmp == nullptr || tmp->ActiveTransactionCount() != 0 ||
        tmp->PendingSafeDeliveries() != 0) {
      return false;
    }
    auto* disc = nd->disc(VolName(n));
    if (disc == nullptr || disc->locks().held_count() != 0) return false;
  }
  return true;
}

// ---- verdicts ---------------------------------------------------------------

void ChaosCampaign::Census() {
  res_.faults_fired = injector_.fired();
  for (const sim::FaultEvent& e : injector_.journal()) {
    res_.journal.push_back("t=" + std::to_string(e.when) + " " +
                           e.description);
  }
  if (!res_.quiesced) JournalLeftovers();
  res_.violations = oracle_.Check(&deploy_);
  res_.txns_started = oracle_.intents();
  res_.txns_committed = oracle_.count(AtomicityOracle::Outcome::kCommitted);
  res_.txns_aborted = oracle_.count(AtomicityOracle::Outcome::kAborted);
  res_.txns_unknown = oracle_.count(AtomicityOracle::Outcome::kUnknown);
  const sim::Stats& stats = sim_.GetStats();
  res_.illegal_transitions = stats.Counter("tmf.illegal_transitions");
  res_.indoubt_resolved_via_home =
      stats.Counter("tmf.indoubt_resolved_commits") +
      stats.Counter("tmf.indoubt_resolved_aborts");
  res_.indoubt_blocked_on_home = stats.Counter("tmf.indoubt_blocked_on_home");
  res_.indoubt_resolved_via_acceptors =
      stats.Counter("tmf.paxos_resolved_commits") +
      stats.Counter("tmf.paxos_resolved_aborts") +
      stats.Counter("recovery.paxos_resolves");
  res_.acceptor_duplicate_votes = stats.Counter("tmf.acceptor_duplicate_votes");
  if (const sim::Histogram* h = stats.FindHistogram("tmf.indoubt_hold_us")) {
    res_.indoubt_hold_p99_ms = static_cast<double>(h->Percentile(99)) / 1e3;
    res_.indoubt_hold_max_ms = static_cast<double>(h->Max()) / 1e3;
  }
  if (const sim::Histogram* h = stats.FindHistogram("tmf.commit_latency_us")) {
    res_.commit_latency_p50_ms = static_cast<double>(h->Percentile(50)) / 1e3;
    res_.commit_latency_p99_ms = static_cast<double>(h->Percentile(99)) / 1e3;
  }
  for (int n = 1; n <= config_.nodes; ++n) {
    NodeDeployment* nd = deploy_.GetNode(static_cast<net::NodeId>(n));
    if (tmf::TmpProcess* tmp = nd->tmp()) {
      res_.leaked_txns += tmp->ActiveTransactionCount();
      res_.pending_safe += tmp->PendingSafeDeliveries();
    }
    if (auto* disc = nd->disc(VolName(n))) {
      res_.leaked_locks += disc->locks().held_count();
    }
    for (const auto& [name, log] : nd->storage().acceptor_logs) {
      (void)name;
      res_.acceptor_log_peak =
          std::max(res_.acceptor_log_peak, log.peak_instances);
      res_.acceptor_log_final += log.entries.size();
    }
    storage::Volume* vol = DataVolume(static_cast<net::NodeId>(n));
    for (int i = (n - 1) * config_.accounts_per_node;
         i < n * config_.accounts_per_node; ++i) {
      auto r = vol->ReadRecord("acct", Slice(AcctKey(i)));
      if (r.status.ok()) res_.balance_sum += ParseBalance(r.value);
    }
  }
  if (config_.track_messages) {
    const net::Network& network = deploy_.cluster().network();
    for (const auto& [transid, count] : network.PerTxnMessages()) {
      (void)transid;
      res_.tracked_messages += count;
    }
    if (res_.txns_committed > 0) {
      res_.msgs_per_committed_txn =
          static_cast<double>(res_.tracked_messages) /
          static_cast<double>(res_.txns_committed);
    }
    res_.msgs_per_tag = network.PerTagMessages();
  }
  if (res_.balance_sum != res_.expected_sum) JournalDrift();
}

// Names what failed to drain: these lines ride along in the journal a
// failing test prints, next to the fault sequence that caused them.
void ChaosCampaign::JournalLeftovers() {
  for (int n = 1; n <= config_.nodes; ++n) {
    const std::string node = "leftover: node " + std::to_string(n);
    NodeDeployment* nd = deploy_.GetNode(static_cast<net::NodeId>(n));
    tmf::TmpProcess* tmp = nd->tmp();
    if (tmp == nullptr) {
      res_.journal.push_back(node + " has no TMP");
      continue;
    }
    for (const auto& e : tmp->ListTransactions()) {
      res_.journal.push_back(
          node + " " + e.transid.ToString() + " state=" +
          tmf::TxnStateName(static_cast<tmf::TxnState>(e.state)) +
          (e.is_home ? " home"
                     : " participant of " + std::to_string(e.parent)));
    }
    if (tmp->PendingSafeDeliveries() != 0) {
      res_.journal.push_back(node + " pending_safe=" +
                             std::to_string(tmp->PendingSafeDeliveries()));
    }
    auto* disc = nd->disc(VolName(n));
    if (disc != nullptr && disc->locks().held_count() != 0) {
      res_.journal.push_back(node + " held_locks=" +
                             std::to_string(disc->locks().held_count()));
    }
  }
}

// Attributes a balance drift: recomputes each account from the committed
// transfers and names the transactions touching every account that
// disagrees with the durable value. Unknown-outcome transactions make an
// account legitimately ambiguous; they are listed so the reader can tell
// ambiguity from corruption.
void ChaosCampaign::JournalDrift() {
  const int total = config_.nodes * config_.accounts_per_node;
  std::vector<long long> expect(total, kInitialBalance);
  for (const auto& [id, in] : oracle_.all()) {
    if (in.outcome != AtomicityOracle::Outcome::kCommitted) continue;
    if (in.from_acct < 0) continue;
    expect[in.from_acct] -= in.amount;
    expect[in.to_acct] += in.amount;
  }
  for (int i = 0; i < total; ++i) {
    const auto n = static_cast<net::NodeId>(1 + i / config_.accounts_per_node);
    auto r = DataVolume(n)->ReadRecord("acct", Slice(AcctKey(i)));
    const long long actual = r.status.ok() ? ParseBalance(r.value) : 0;
    if (actual == expect[i]) continue;
    res_.journal.push_back("drift: acct " + std::to_string(i) + " actual=" +
                           std::to_string(actual) + " committed-expected=" +
                           std::to_string(expect[i]));
    for (const auto& [id, in] : oracle_.all()) {
      if (in.from_acct != i && in.to_acct != i) continue;
      const char* o = in.outcome == AtomicityOracle::Outcome::kCommitted
                          ? "committed"
                          : (in.outcome == AtomicityOracle::Outcome::kAborted
                                 ? "aborted"
                                 : "unknown");
      res_.journal.push_back(
          "drift:   " + Transid::Unpack(id).ToString() + " " + o +
          (in.from_acct == i ? " debit " : " credit ") +
          std::to_string(in.amount));
    }
  }
}

sim::FaultSchedule ChaosSchedule(const ChaosCampaignConfig& config) {
  sim::FaultScheduleConfig scfg = config.schedule;
  scfg.nodes = config.nodes;
  scfg.cpus_per_node = 4;
  return sim::FaultScheduleGenerator(scfg).Generate(config.seed);
}

ChaosCampaignResult RunChaosCampaign(const ChaosCampaignConfig& config) {
  return ReplayChaosCampaign(config, ChaosSchedule(config));
}

ChaosCampaignResult ReplayChaosCampaign(const ChaosCampaignConfig& config,
                                        const sim::FaultSchedule& schedule) {
  return ChaosCampaign(config, schedule).Run();
}

}  // namespace encompass::app
