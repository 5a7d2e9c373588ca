// Tests for the OS layer: processes, messaging, timers, name service, CPU
// failure/regroup, process pairs, takeover, and inter-node routing —
// including the network-layer behaviours of the paper's architecture
// section (rerouting, partitions, reachability events).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "net/network.h"
#include "os/cluster.h"
#include "os/node.h"
#include "os/process.h"
#include "os/process_pair.h"
#include "sim/simulation.h"

namespace encompass::os {
namespace {

constexpr uint32_t kEchoTag = net::kTagApp + 1;
constexpr uint32_t kNoteTag = net::kTagApp + 2;

/// Replies to every request with the same payload.
class EchoProcess : public Process {
 public:
  void OnMessage(const net::Message& msg) override {
    ++requests_seen;
    last_transid = msg.transid;
    Reply(msg, Status::Ok(), msg.payload);
  }
  int requests_seen = 0;
  uint64_t last_transid = 0;
};

/// Records one-way notes and failure events.
class ObserverProcess : public Process {
 public:
  void OnMessage(const net::Message& msg) override {
    notes.push_back(ToString(msg.payload));
  }
  void OnCpuDown(int cpu) override { cpu_down.push_back(cpu); }
  void OnCpuUp(int cpu) override { cpu_up.push_back(cpu); }
  void OnNodeDown(net::NodeId n) override { node_down.push_back(n); }
  void OnNodeUp(net::NodeId n) override { node_up.push_back(n); }

  std::vector<std::string> notes;
  std::vector<int> cpu_down, cpu_up;
  std::vector<net::NodeId> node_down, node_up;
};

class OsTest : public ::testing::Test {
 protected:
  OsTest() : sim_(1234), cluster_(&sim_) {}
  sim::Simulation sim_;
  Cluster cluster_;
};

TEST_F(OsTest, SpawnAssignsIdentity) {
  Node* n = cluster_.AddNode(1);
  auto* p = n->Spawn<EchoProcess>(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id().node, 1);
  EXPECT_NE(p->id().pid, 0u);
  EXPECT_EQ(p->cpu(), 0);
  EXPECT_EQ(n->Find(p->id().pid), p);
}

TEST_F(OsTest, SpawnOnDownCpuFails) {
  Node* n = cluster_.AddNode(1);
  n->FailCpu(2);
  sim_.Run();
  EXPECT_EQ(n->Spawn<EchoProcess>(2), nullptr);
}

TEST_F(OsTest, OneWaySendSameNode) {
  Node* n = cluster_.AddNode(1);
  auto* obs = n->Spawn<ObserverProcess>(0);
  auto* src = n->Spawn<EchoProcess>(1);
  sim_.Run();
  src->Send(net::Address(obs->id()), kNoteTag, ToBytes("hi"));
  sim_.Run();
  ASSERT_EQ(obs->notes.size(), 1u);
  EXPECT_EQ(obs->notes[0], "hi");
}

TEST_F(OsTest, CallReplyRoundTrip) {
  Node* n = cluster_.AddNode(1);
  auto* echo = n->Spawn<EchoProcess>(0);
  auto* client = n->Spawn<EchoProcess>(1);
  sim_.Run();
  Status got;
  std::string body;
  client->Call(net::Address(echo->id()), kEchoTag, ToBytes("ping"),
               [&](const Status& s, const net::Message& m) {
                 got = s;
                 body = ToString(m.payload);
               });
  sim_.Run();
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(body, "ping");
  EXPECT_EQ(echo->requests_seen, 1);
}

TEST_F(OsTest, TransidStampedOnMessages) {
  Node* n = cluster_.AddNode(1);
  auto* echo = n->Spawn<EchoProcess>(0);
  auto* client = n->Spawn<EchoProcess>(1);
  sim_.Run();
  client->set_current_transid(0xabcdef);
  client->Call(net::Address(echo->id()), kEchoTag, {},
               [](const Status&, const net::Message&) {});
  sim_.Run();
  EXPECT_EQ(echo->last_transid, 0xabcdefu);
}

TEST_F(OsTest, CallToDeadPidFailsFast) {
  Node* n = cluster_.AddNode(1);
  auto* client = n->Spawn<EchoProcess>(0);
  sim_.Run();
  Status got;
  client->Call(net::Address(net::ProcessId{1, 999}), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; });
  sim_.Run();
  EXPECT_TRUE(got.IsUnavailable());
}

TEST_F(OsTest, CallTimesOutWhenNoReply) {
  // A process that never replies.
  class Silent : public Process {
    void OnMessage(const net::Message&) override {}
  };
  Node* n = cluster_.AddNode(1);
  auto* silent = n->Spawn<Silent>(0);
  auto* client = n->Spawn<EchoProcess>(1);
  sim_.Run();
  Status got;
  CallOptions opt;
  opt.timeout = Millis(100);
  client->Call(net::Address(silent->id()), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; }, opt);
  sim_.Run();
  EXPECT_TRUE(got.IsTimeout());
}

TEST_F(OsTest, TimersFireAndCancel) {
  Node* n = cluster_.AddNode(1);
  auto* p = n->Spawn<EchoProcess>(0);
  sim_.Run();
  int fired = 0;
  p->SetTimer(Millis(1), [&] { ++fired; });
  uint64_t t2 = p->SetTimer(Millis(2), [&] { ++fired; });
  p->CancelTimer(t2);
  sim_.Run();
  EXPECT_EQ(fired, 1);
}

TEST_F(OsTest, TimerOfDeadProcessDoesNotFire) {
  Node* n = cluster_.AddNode(1);
  auto* p = n->Spawn<EchoProcess>(2);
  sim_.Run();
  int fired = 0;
  p->SetTimer(Millis(10), [&] { ++fired; });
  n->FailCpu(2);  // destroys p before the timer fires
  sim_.Run();
  EXPECT_EQ(fired, 0);
}

TEST_F(OsTest, NameResolutionAndReRegistration) {
  Node* n = cluster_.AddNode(1);
  auto* a = n->Spawn<ObserverProcess>(0);
  auto* b = n->Spawn<ObserverProcess>(1);
  auto* src = n->Spawn<EchoProcess>(2);
  sim_.Run();
  n->RegisterName("$SVC", a->id().pid);
  src->Send(net::Address(1, "$SVC"), kNoteTag, ToBytes("one"));
  sim_.Run();
  n->RegisterName("$SVC", b->id().pid);
  src->Send(net::Address(1, "$SVC"), kNoteTag, ToBytes("two"));
  sim_.Run();
  ASSERT_EQ(a->notes.size(), 1u);
  ASSERT_EQ(b->notes.size(), 1u);
  EXPECT_EQ(a->notes[0], "one");
  EXPECT_EQ(b->notes[0], "two");
}

TEST_F(OsTest, UnboundNameFailsRequest) {
  Node* n = cluster_.AddNode(1);
  auto* client = n->Spawn<EchoProcess>(0);
  sim_.Run();
  Status got;
  client->Call(net::Address(1, "$NOSUCH"), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; });
  sim_.Run();
  EXPECT_TRUE(got.IsUnavailable());
}

TEST_F(OsTest, CpuFailureKillsProcessesAndNotifiesSurvivors) {
  Node* n = cluster_.AddNode(1);
  auto* victim = n->Spawn<EchoProcess>(2);
  auto* obs = n->Spawn<ObserverProcess>(0);
  sim_.Run();
  net::Pid vpid = victim->id().pid;
  n->FailCpu(2);
  EXPECT_EQ(n->Find(vpid), nullptr);  // immediate
  sim_.Run();
  ASSERT_EQ(obs->cpu_down.size(), 1u);
  EXPECT_EQ(obs->cpu_down[0], 2);
  EXPECT_EQ(n->AliveCpuCount(), 3);
}

TEST_F(OsTest, CpuReloadNotifies) {
  Node* n = cluster_.AddNode(1);
  auto* obs = n->Spawn<ObserverProcess>(0);
  sim_.Run();
  n->FailCpu(1);
  sim_.Run();
  n->ReloadCpu(1);
  sim_.Run();
  ASSERT_EQ(obs->cpu_up.size(), 1u);
  EXPECT_EQ(obs->cpu_up[0], 1);
  EXPECT_TRUE(n->CpuUp(1));
}

TEST_F(OsTest, NodeDeadWhenAllCpusFail) {
  NodeConfig cfg;
  cfg.num_cpus = 2;
  Node* n = cluster_.AddNode(1, cfg);
  EXPECT_FALSE(n->Dead());
  n->FailCpu(0);
  n->FailCpu(1);
  EXPECT_TRUE(n->Dead());
}

TEST_F(OsTest, DualBusSurvivesSingleBusFailure) {
  Node* n = cluster_.AddNode(1);
  auto* echo = n->Spawn<EchoProcess>(0);
  auto* client = n->Spawn<EchoProcess>(1);
  sim_.Run();
  n->SetBusUp(0, false);  // X bus down; Y carries traffic
  Status got = Status::Timeout();
  client->Call(net::Address(echo->id()), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; });
  sim_.Run();
  EXPECT_TRUE(got.ok());
  EXPECT_GT(sim_.GetStats().Counter("os.bus_y_msgs"), 0);
}

TEST_F(OsTest, BothBusesDownBlocksCrossCpuTraffic) {
  Node* n = cluster_.AddNode(1);
  auto* echo = n->Spawn<EchoProcess>(0);
  auto* client = n->Spawn<EchoProcess>(1);
  auto* local = n->Spawn<EchoProcess>(1);
  sim_.Run();
  n->SetBusUp(0, false);
  n->SetBusUp(1, false);
  Status cross = Status::Ok(), same = Status::Timeout();
  client->Call(net::Address(echo->id()), kEchoTag, {},
               [&](const Status& s, const net::Message&) { cross = s; });
  client->Call(net::Address(local->id()), kEchoTag, {},
               [&](const Status& s, const net::Message&) { same = s; });
  sim_.Run();
  EXPECT_TRUE(cross.IsUnavailable());
  EXPECT_TRUE(same.ok());  // same-CPU traffic does not need the bus
}

// ---------------------------------------------------------------------------
// Inter-node messaging and the network
// ---------------------------------------------------------------------------

TEST_F(OsTest, CrossNodeCall) {
  Node* n1 = cluster_.AddNode(1);
  Node* n2 = cluster_.AddNode(2);
  cluster_.Link(1, 2);
  auto* echo = n2->Spawn<EchoProcess>(0);
  auto* client = n1->Spawn<EchoProcess>(0);
  sim_.Run();
  Status got;
  std::string body;
  client->Call(net::Address(echo->id()), kEchoTag, ToBytes("remote"),
               [&](const Status& s, const net::Message& m) {
                 got = s;
                 body = ToString(m.payload);
               });
  sim_.Run();
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(body, "remote");
}

TEST_F(OsTest, MultiHopRoutingAndReroute) {
  // Triangle 1-2, 2-3 and 1-3; cut 1-3 and traffic reroutes via 2.
  Node* n1 = cluster_.AddNode(1);
  cluster_.AddNode(2);
  Node* n3 = cluster_.AddNode(3);
  cluster_.Link(1, 2);
  cluster_.Link(2, 3);
  cluster_.Link(1, 3);
  auto* echo = n3->Spawn<EchoProcess>(0);
  auto* client = n1->Spawn<EchoProcess>(0);
  sim_.Run();
  EXPECT_EQ(cluster_.network().Route(1, 3).size(), 2u);  // direct
  cluster_.CutLink(1, 3);
  EXPECT_EQ(cluster_.network().Route(1, 3).size(), 3u);  // via node 2
  Status got;
  client->Call(net::Address(echo->id()), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; });
  sim_.Run();
  EXPECT_TRUE(got.ok());
}

TEST_F(OsTest, PartitionFailsCallWithPartitioned) {
  Node* n1 = cluster_.AddNode(1);
  Node* n2 = cluster_.AddNode(2);
  cluster_.Link(1, 2);
  auto* echo = n2->Spawn<EchoProcess>(0);
  auto* client = n1->Spawn<EchoProcess>(0);
  sim_.Run();
  cluster_.CutLink(1, 2);
  Status got;
  CallOptions opt;
  opt.timeout = Seconds(10);
  client->Call(net::Address(echo->id()), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; }, opt);
  sim_.Run();
  EXPECT_TRUE(got.IsPartitioned());
  EXPECT_EQ(echo->requests_seen, 0);
}

TEST_F(OsTest, ReachabilityEventsOnPartitionAndHeal) {
  Node* n1 = cluster_.AddNode(1);
  cluster_.AddNode(2);
  cluster_.Link(1, 2);
  auto* obs = n1->Spawn<ObserverProcess>(0);
  sim_.Run();
  cluster_.CutLink(1, 2);
  sim_.Run();
  ASSERT_EQ(obs->node_down.size(), 1u);
  EXPECT_EQ(obs->node_down[0], 2);
  cluster_.RestoreLink(1, 2);
  sim_.Run();
  ASSERT_EQ(obs->node_up.size(), 1u);
  EXPECT_EQ(obs->node_up[0], 2);
}

TEST_F(OsTest, TransientGlitchHealedByEndToEndRetry) {
  Node* n1 = cluster_.AddNode(1);
  Node* n2 = cluster_.AddNode(2);
  cluster_.Link(1, 2);
  auto* echo = n2->Spawn<EchoProcess>(0);
  auto* client = n1->Spawn<EchoProcess>(0);
  sim_.Run();
  cluster_.CutLink(1, 2);
  // Restore the link before the end-to-end protocol exhausts its retries.
  sim_.After(Millis(80), [&] { cluster_.RestoreLink(1, 2); });
  Status got = Status::Timeout();
  CallOptions opt;
  opt.timeout = Seconds(10);
  client->Call(net::Address(echo->id()), kEchoTag, ToBytes("x"),
               [&](const Status& s, const net::Message&) { got = s; }, opt);
  sim_.Run();
  EXPECT_TRUE(got.ok());
}

TEST_F(OsTest, LossyLinkStillDeliversViaRetransmit) {
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.3;
  sim::Simulation sim(77);
  Cluster cluster(&sim, ncfg);
  Node* n1 = cluster.AddNode(1);
  Node* n2 = cluster.AddNode(2);
  cluster.Link(1, 2);
  auto* echo = n2->Spawn<EchoProcess>(0);
  auto* client = n1->Spawn<EchoProcess>(0);
  sim.Run();
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    CallOptions opt;
    opt.timeout = Seconds(30);
    opt.retries = 3;
    client->Call(net::Address(echo->id()), kEchoTag, {},
                 [&](const Status& s, const net::Message&) { ok += s.ok(); },
                 opt);
  }
  sim.Run();
  EXPECT_EQ(ok, 20);
}

// ---------------------------------------------------------------------------
// Process pairs
// ---------------------------------------------------------------------------

/// A pair that counts requests; the count is checkpointed to the backup so
/// it survives takeover.
class CounterPair : public PairedProcess {
 public:
  void OnRequest(const net::Message& msg) override {
    ++count;
    Bytes ckpt;
    PutFixed64(&ckpt, count);
    SendCheckpoint(std::move(ckpt));
    Reply(msg, Status::Ok(), ToBytes(std::to_string(count)));
  }
  void OnCheckpoint(const Slice& delta) override {
    Slice in = delta;
    GetFixed64(&in, &count);
  }
  void OnTakeover() override { ++takeovers; }
  void OnBackupAttached() override {
    Bytes ckpt;
    PutFixed64(&ckpt, count);
    SendCheckpoint(std::move(ckpt));
  }
  uint64_t count = 0;
  int takeovers = 0;
};

TEST_F(OsTest, PairNameResolvesToPrimary) {
  Node* n = cluster_.AddNode(1);
  auto pair = SpawnPair<CounterPair>(n, "$CTR", 0, 1);
  auto* client = n->Spawn<EchoProcess>(2);
  sim_.Run();
  EXPECT_TRUE(pair.primary->IsPrimary());
  EXPECT_FALSE(pair.backup->IsPrimary());
  std::string body;
  client->Call(net::Address(1, "$CTR"), kEchoTag, {},
               [&](const Status&, const net::Message& m) {
                 body = ToString(m.payload);
               });
  sim_.Run();
  EXPECT_EQ(body, "1");
  EXPECT_EQ(pair.primary->count, 1u);
  EXPECT_EQ(pair.backup->count, 1u);  // checkpoint applied
}

TEST_F(OsTest, TakeoverPreservesCheckpointedState) {
  Node* n = cluster_.AddNode(1);
  auto pair = SpawnPair<CounterPair>(n, "$CTR", 0, 1);
  auto* client = n->Spawn<EchoProcess>(2);
  sim_.Run();
  for (int i = 0; i < 5; ++i) {
    client->Call(net::Address(1, "$CTR"), kEchoTag, {},
                 [](const Status&, const net::Message&) {});
    sim_.Run();
  }
  n->FailCpu(0);  // primary dies
  sim_.Run();
  EXPECT_EQ(pair.backup->takeovers, 1);
  EXPECT_TRUE(pair.backup->IsPrimary());
  // The name now routes to the survivor, with checkpointed count intact.
  std::string body;
  client->Call(net::Address(1, "$CTR"), kEchoTag, {},
               [&](const Status&, const net::Message& m) {
                 body = ToString(m.payload);
               });
  sim_.Run();
  EXPECT_EQ(body, "6");
}

TEST_F(OsTest, RetriedCallSurvivesTakeoverWindow) {
  Node* n = cluster_.AddNode(1);
  auto pair = SpawnPair<CounterPair>(n, "$CTR", 0, 1);
  auto* client = n->Spawn<EchoProcess>(2);
  sim_.Run();
  // Fail the primary, then immediately call (before regroup completes the
  // name may briefly point at the dead pid) — the transparent retry makes
  // the request land on the new primary.
  n->FailCpu(0);
  Status got = Status::Timeout();
  CallOptions opt;
  opt.timeout = Millis(20);
  opt.retries = 3;
  client->Call(net::Address(1, "$CTR"), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; }, opt);
  sim_.Run();
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(pair.backup->IsPrimary());
}

TEST_F(OsTest, BackupLostLeavesPrimaryExposed) {
  Node* n = cluster_.AddNode(1);
  auto pair = SpawnPair<CounterPair>(n, "$CTR", 0, 1);
  sim_.Run();
  n->FailCpu(1);  // backup dies
  sim_.Run();
  EXPECT_TRUE(pair.primary->IsPrimary());
  EXPECT_FALSE(pair.primary->HasBackup());
  EXPECT_EQ(sim_.GetStats().Counter("os.backup_lost"), 1);
}

TEST_F(OsTest, AttachBackupResynchronizesState) {
  Node* n = cluster_.AddNode(1);
  auto pair = SpawnPair<CounterPair>(n, "$CTR", 0, 1);
  auto* client = n->Spawn<EchoProcess>(2);
  sim_.Run();
  for (int i = 0; i < 3; ++i) {
    client->Call(net::Address(1, "$CTR"), kEchoTag, {},
                 [](const Status&, const net::Message&) {});
  }
  sim_.Run();
  n->FailCpu(1);  // lose backup
  sim_.Run();
  CounterPair* fresh = AttachBackup<CounterPair>(n, pair.primary, 3);
  ASSERT_NE(fresh, nullptr);
  sim_.Run();
  EXPECT_EQ(fresh->count, 3u);  // full-state checkpoint arrived
  EXPECT_TRUE(pair.primary->HasBackup());
  // And the refreshed pair survives another takeover.
  n->FailCpu(0);
  sim_.Run();
  EXPECT_TRUE(fresh->IsPrimary());
  EXPECT_EQ(fresh->count, 3u);
}

/// A pair member that keeps the constructor argument it was built from.
class LabelPair : public PairedProcess {
 public:
  explicit LabelPair(std::vector<std::string> labels)
      : labels(std::move(labels)) {}
  std::vector<std::string> labels;
};

TEST_F(OsTest, PairMembersBothGetAnRvalueArgument) {
  Node* n = cluster_.AddNode(1);
  const std::vector<std::string> labels{"alpha", "beta"};
  auto pair = SpawnPair<LabelPair>(n, "$LBL", 0, 1,
                                   std::vector<std::string>(labels));
  sim_.Run();
  ASSERT_NE(pair.primary, nullptr);
  ASSERT_NE(pair.backup, nullptr);
  EXPECT_EQ(pair.primary->labels, labels);
  EXPECT_EQ(pair.backup->labels, labels);  // not a moved-from copy

  n->FailCpu(1);
  sim_.Run();
  LabelPair* fresh = AttachBackup<LabelPair>(n, pair.primary, 2,
                                             std::vector<std::string>(labels));
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->labels, labels);
}

TEST_F(OsTest, DoubleFailureKillsPairService) {
  Node* n = cluster_.AddNode(1);
  SpawnPair<CounterPair>(n, "$CTR", 0, 1);
  auto* client = n->Spawn<EchoProcess>(2);
  sim_.Run();
  n->FailCpu(0);
  n->FailCpu(1);  // simultaneous double module failure
  sim_.Run();
  Status got;
  client->Call(net::Address(1, "$CTR"), kEchoTag, {},
               [&](const Status& s, const net::Message&) { got = s; });
  sim_.Run();
  EXPECT_TRUE(got.IsUnavailable());
}

}  // namespace
}  // namespace encompass::os
