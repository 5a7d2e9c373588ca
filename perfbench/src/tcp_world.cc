#include "tcp_world.h"

#include <cstdlib>
#include <functional>
#include <string>

#include "apps/banking/banking.h"
#include "storage/record.h"

namespace perfbench {

namespace app = encompass::app;
namespace banking = encompass::apps::banking;
using encompass::Random;
using encompass::Slice;

namespace {

constexpr int kInquiryReads = 4;  // SEND `read` verbs per inquiry
constexpr int64_t kInitialBalance = 1000;

std::string VolName(int node) { return "$DATA" + std::to_string(node); }

int64_t ParseBalance(const Slice& image) {
  auto rec = encompass::storage::Record::Decode(image);
  return rec.ok() ? std::strtoll(rec->Get("balance").c_str(), nullptr, 10) : 0;
}

// Screen-field helpers: the stamps ride in the terminal's fields, so a
// restart (which resumes at BEGIN with the fields snapshotted there) keeps
// the program's start time.
int64_t Field(const app::Fields& f, const char* key) {
  return std::strtoll(f.at(key).c_str(), nullptr, 10);
}
void SetField(app::Fields& f, const char* key, int64_t v) {
  f[key] = std::to_string(v);
}

int64_t IterationId(int node, TerminalProbe* probe) {
  return (static_cast<int64_t>(node) << 40) |
         static_cast<int64_t>(probe->next_iteration++);
}

// The benchmark's verb spans. "t0" is the program's start and "mk" the end
// of the previous verb; every Compute below closes one verb's span.
using ComputeFn = std::function<void(app::Fields&)>;

ComputeFn StampStart(sim::Simulation* sim) {
  return [sim](app::Fields& f) {
    SetField(f, "t0", sim->Now());
    SetField(f, "mk", sim->Now());
  };
}

ComputeFn AfterBegin(sim::Simulation* sim, TerminalProbe* probe) {
  return [sim, probe](app::Fields& f) {
    // Only a first BEGIN is a clean span: a restarted one resumes with the
    // stamp taken before the failed attempt.
    const int64_t now = sim->Now();
    const bool first =
        probe->begun.insert(static_cast<uint64_t>(Field(f, "it"))).second;
    if (first && probe->recording) {
      probe->begin_us.Add(static_cast<double>(now - Field(f, "mk")));
    }
    SetField(f, "mk", now);
  };
}

ComputeFn AfterVerb(sim::Simulation* sim, TerminalProbe* probe,
                    Samples TerminalProbe::*sink) {
  return [sim, probe, sink](app::Fields& f) {
    const int64_t now = sim->Now();
    if (probe->recording) {
      (probe->*sink).Add(static_cast<double>(now - Field(f, "mk")));
    }
    SetField(f, "mk", now);
  };
}

// Closes END's span and the whole program's response time, restarts
// included.
ComputeFn AfterEnd(sim::Simulation* sim, TerminalProbe* probe,
                   Samples TerminalProbe::*response) {
  return [sim, probe, response](app::Fields& f) {
    const int64_t now = sim->Now();
    if (probe->recording) {
      probe->end_us.Add(static_cast<double>(now - Field(f, "mk")));
      (probe->*response).Add(static_cast<double>(now - Field(f, "t0")));
    }
    probe->begun.erase(static_cast<uint64_t>(Field(f, "it")));
  };
}

}  // namespace

TcpWorld::TcpWorld(const TcpWorldConfig& config) : config_(config) {
  double t0 = WallSeconds();
  sim_ = std::make_unique<sim::Simulation>(config_.seed, config_.workers);
  sim_->GetTrace().set_enabled(config_.trace);
  deploy_ = std::make_unique<app::Deployment>(sim_.get());
  for (int n = 1; n <= config_.nodes; ++n) {
    app::NodeSpec spec;
    spec.id = static_cast<encompass::net::NodeId>(n);
    spec.node_config.num_cpus = config_.cpus;
    spec.tmp_config.track_commit_latency = true;
    spec.tmp_config.track_indoubt_hold = true;
    app::FileSpec acct;
    acct.name = "acct";
    spec.volumes = {app::VolumeSpec{VolName(n), {acct}, {}}};
    deploy_->AddNode(spec);
  }
  deploy_->LinkAll();
  if (config_.nodes == 1) {
    deploy_->DefineFile("acct", 1, VolName(1));
  } else {
    encompass::storage::FileDefinition def;
    def.name = "acct";
    for (int n = 1; n < config_.nodes; ++n) {
      def.partitions.AddPartition(
          encompass::ToBytes(banking::AccountKey(n * config_.accounts_per_node)),
          static_cast<encompass::net::NodeId>(n), VolName(n));
    }
    def.partitions.AddPartition(
        {}, static_cast<encompass::net::NodeId>(config_.nodes),
        VolName(config_.nodes));
    deploy_->DefinePartitionedFile(def);
  }

  app::TcpConfig tcp_base;
  tcp_base.restart_limit = 100;
  tcp_base.max_terminals =
      static_cast<size_t>(config_.transfer_terminals + config_.inquiry_terminals);
  for (int n = 1; n <= config_.nodes; ++n) {
    app::ServerClassConfig sc;
    sc.max_servers = config_.cpus * 2;
    banking::AddBankServerClass(deploy_.get(),
                                static_cast<encompass::net::NodeId>(n),
                                "$SC.BANK", "acct", sc);
    probes_.push_back(std::make_unique<TerminalProbe>());
    TerminalProbe* probe = probes_.back().get();
    app::TcpConfig tcfg = tcp_base;
    programs_.push_back(
        std::make_unique<app::ScreenProgram>(MakeTransfer(n, probe)));
    tcfg.programs["transfer"] = programs_.back().get();
    programs_.push_back(
        std::make_unique<app::ScreenProgram>(MakeInquiry(n, probe)));
    tcfg.programs["inquiry"] = programs_.back().get();
    tcps_.push_back(encompass::os::SpawnPair<app::Tcp>(
        deploy_->GetNode(static_cast<encompass::net::NodeId>(n))->node(),
        "$TCP", config_.cpus - 2, config_.cpus - 1, tcfg));
  }
  double t1 = WallSeconds();

  for (int n = 1; n <= config_.nodes; ++n) {
    auto* vol = deploy_->GetNode(static_cast<encompass::net::NodeId>(n))
                    ->storage().volumes.at(VolName(n)).get();
    encompass::storage::Record rec;
    rec.Set("balance", std::to_string(kInitialBalance));
    const encompass::Bytes image = rec.Encode();
    for (int i = (n - 1) * config_.accounts_per_node;
         i < n * config_.accounts_per_node; ++i) {
      vol->Mutate("acct", encompass::storage::MutationOp::kInsert,
                  Slice(banking::AccountKey(i)), Slice(image));
    }
    vol->Flush();
  }
  double t2 = WallSeconds();

  sim_->Run();
  double t3 = WallSeconds();
  setup_.add_node_s = t1 - t0;
  setup_.seed_s = t2 - t1;
  setup_.settle_s = t3 - t2;
}

app::ScreenProgram TcpWorld::MakeTransfer(int node, TerminalProbe* probe) {
  const int per = config_.accounts_per_node;
  const int home_base = (node - 1) * per;
  const int credit_node =
      config_.credit_next_node ? node % config_.nodes + 1 : node;
  const int credit_base = (credit_node - 1) * per;
  sim::Simulation* sim = sim_.get();

  app::ScreenProgram p("transfer");
  p.Accept([probe, per, home_base, credit_base, node](app::Fields& f,
                                                      Random& rng) {
     const int from = home_base + static_cast<int>(rng.Uniform(per));
     int to = credit_base + static_cast<int>(rng.Uniform(per));
     if (to == from) to = credit_base + (to - credit_base + 1) % per;
     f["from"] = banking::AccountKey(from);
     f["to"] = banking::AccountKey(to);
     f["amount"] = std::to_string(1 + rng.Uniform(100));
     SetField(f, "it", IterationId(node, probe));
   })
      .Compute(StampStart(sim))
      .BeginTransaction()
      .Compute(AfterBegin(sim, probe))
      .Send(static_cast<encompass::net::NodeId>(node), "$SC.BANK",
            [](const app::Fields& f) {
              return banking::BankRequest("debit", f.at("from"),
                                          Field(f, "amount"));
            })
      .Compute(AfterVerb(sim, probe, &TerminalProbe::send_us))
      .Send(static_cast<encompass::net::NodeId>(credit_node), "$SC.BANK",
            [](const app::Fields& f) {
              return banking::BankRequest("credit", f.at("to"),
                                          Field(f, "amount"));
            })
      .Compute(AfterVerb(sim, probe, &TerminalProbe::send_us))
      .EndTransaction()
      .Compute(AfterEnd(sim, probe, &TerminalProbe::transfer_rt_us));
  return p;
}

app::ScreenProgram TcpWorld::MakeInquiry(int node, TerminalProbe* probe) {
  const int per = config_.accounts_per_node;
  const int base = (node - 1) * per;
  const int reads = kInquiryReads;
  sim::Simulation* sim = sim_.get();

  app::ScreenProgram p("inquiry");
  p.Accept([probe, per, base, reads, node](app::Fields& f, Random& rng) {
     for (int r = 0; r < reads; ++r) {
       f["a" + std::to_string(r)] =
           banking::AccountKey(base + static_cast<int>(rng.Uniform(per)));
     }
     SetField(f, "it", IterationId(node, probe));
   })
      .Compute(StampStart(sim))
      .BeginTransaction()
      .Compute(AfterBegin(sim, probe));
  for (int r = 0; r < reads; ++r) {
    const std::string field = "a" + std::to_string(r);
    p.Send(static_cast<encompass::net::NodeId>(node), "$SC.BANK",
           [field](const app::Fields& f) {
             return banking::BankRequest("read", f.at(field));
           })
        .Compute(AfterVerb(sim, probe, &TerminalProbe::send_us));
  }
  p.EndTransaction().Compute(
      AfterEnd(sim, probe, &TerminalProbe::inquiry_rt_us));
  return p;
}

void TcpWorld::Start() {
  for (int n = 1; n <= config_.nodes; ++n) {
    app::Tcp* tcp = TcpOn(n);
    for (int t = 0; t < config_.transfer_terminals; ++t) {
      tcp->AttachTerminal("xfer" + std::to_string(t), "transfer",
                          config_.iterations);
    }
    for (int t = 0; t < config_.inquiry_terminals; ++t) {
      tcp->AttachTerminal("inq" + std::to_string(t), "inquiry",
                          config_.inquiry_iterations);
    }
  }
}

void TcpWorld::SetRecording(bool on) {
  for (auto& p : probes_) p->recording = on;
}

app::Tcp* TcpWorld::TcpOn(int node) const {
  const auto& h = tcps_[static_cast<size_t>(node - 1)];
  return h.primary->IsPrimary() ? h.primary : h.backup;
}

uint64_t TcpWorld::Committed() const {
  uint64_t n = 0;
  for (int i = 1; i <= config_.nodes; ++i) n += TcpOn(i)->transactions_committed();
  return n;
}

uint64_t TcpWorld::ProgramsCompleted() const {
  uint64_t n = 0;
  for (int i = 1; i <= config_.nodes; ++i) n += TcpOn(i)->programs_completed();
  return n;
}

uint64_t TcpWorld::ProgramsFailed() const {
  uint64_t n = 0;
  for (int i = 1; i <= config_.nodes; ++i) n += TcpOn(i)->programs_failed();
  return n;
}

bool TcpWorld::AnyTerminalDone() const {
  for (int i = 1; i <= config_.nodes; ++i) {
    if (TcpOn(i)->idle_terminals() > 0) return true;
  }
  return false;
}

bool TcpWorld::AllTerminalsDone() const {
  for (int i = 1; i <= config_.nodes; ++i) {
    const app::Tcp* tcp = TcpOn(i);
    if (tcp->idle_terminals() != tcp->terminal_count()) return false;
  }
  return true;
}

bool TcpWorld::Quiesced() const {
  for (int n = 1; n <= config_.nodes; ++n) {
    app::NodeDeployment* nd =
        deploy_->GetNode(static_cast<encompass::net::NodeId>(n));
    encompass::tmf::TmpProcess* tmp = nd->tmp();
    if (tmp == nullptr || tmp->ActiveTransactionCount() != 0 ||
        tmp->PendingSafeDeliveries() != 0) {
      return false;
    }
    auto* disc = nd->disc(VolName(n));
    if (disc == nullptr || disc->locks().held_count() != 0) return false;
  }
  return true;
}

int64_t TcpWorld::BalanceSum() const {
  int64_t sum = 0;
  for (int n = 1; n <= config_.nodes; ++n) {
    auto* vol = deploy_->GetNode(static_cast<encompass::net::NodeId>(n))
                    ->storage().volumes.at(VolName(n)).get();
    sum += banking::SumBalances(vol, "acct");
  }
  return sum;
}

int64_t TcpWorld::ExpectedSum() const {
  return static_cast<int64_t>(config_.nodes) * config_.accounts_per_node *
         kInitialBalance;
}

uint64_t TcpWorld::BalanceChecksum() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over (key, balance) pairs
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (int n = 1; n <= config_.nodes; ++n) {
    auto* vol = deploy_->GetNode(static_cast<encompass::net::NodeId>(n))
                    ->storage().volumes.at(VolName(n)).get();
    encompass::storage::StructuredFile* f = vol->Find("acct");
    if (f == nullptr) continue;
    f->ForEach([&mix](const Slice& key, const Slice& value) {
      mix(key.data(), key.size());
      const int64_t b = ParseBalance(value);
      mix(&b, sizeof(b));
    });
  }
  return h;
}

uint64_t TcpWorld::TrailRecords() const {
  uint64_t n = 0;
  for (int i = 1; i <= config_.nodes; ++i) {
    for (const auto& [name, trail] :
         deploy_->GetNode(static_cast<encompass::net::NodeId>(i))->storage().trails) {
      (void)name;
      n += trail->record_count();
    }
  }
  return n;
}

TerminalProbe TcpWorld::MergedProbe() const {
  TerminalProbe out;
  for (const auto& p : probes_) {
    out.transfer_rt_us.Append(p->transfer_rt_us);
    out.inquiry_rt_us.Append(p->inquiry_rt_us);
    out.begin_us.Append(p->begin_us);
    out.send_us.Append(p->send_us);
    out.end_us.Append(p->end_us);
  }
  return out;
}

}  // namespace perfbench
