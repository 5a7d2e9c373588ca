// The engine oracle: one curated 3-node commit/abort + fault-flap scenario
// whose complete observable output — per-transaction trace dumps, the fault
// journal, and the metric dump — is pinned in a golden file.
//
// The golden file was generated after the deterministic-attribution prep
// (per-node span ids, per-node PRNG streams, source-attributed network
// randomness). The Step() reference and the round loop at parallel_workers
// 1, 2, 4 and 8 must all reproduce it byte-for-byte.
//
// Regenerate with:  ENCOMPASS_REGOLDEN=1 ./pdes_oracle_test
// then inspect the diff before committing the new golden.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "encompass/deployment.h"
#include "sim/fault_injector.h"
#include "step_reference.h"
#include "test_util.h"
#include "tmf/file_system.h"
#include "tmf/tmf_protocol.h"

#ifndef ENCOMPASS_GOLDEN_DIR
#define ENCOMPASS_GOLDEN_DIR "."
#endif

namespace encompass {
namespace {

using app::Deployment;
using testutil::TestClient;

constexpr uint64_t kSeed = 20260808;

const char* GoldenPath() {
  return ENCOMPASS_GOLDEN_DIR "/pdes_oracle_3node.golden";
}

struct Rig {
  int workers = 1;  // round-loop threads, or sim::testing::kStepReference
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<Deployment> deploy;
  std::unique_ptr<sim::FaultInjector> injector;
  TestClient* client1 = nullptr;  // node 1
  TestClient* client2 = nullptr;  // node 2
  std::unique_ptr<tmf::FileSystem> fs1;
  std::unique_ptr<tmf::FileSystem> fs2;

  void RunUntil(SimTime deadline) {
    sim::testing::AdvanceTo(*sim, workers, deadline);
  }
};

Rig MakeRig(int workers) {
  Rig rig;
  rig.workers = workers;
  rig.sim = std::make_unique<sim::Simulation>(kSeed, workers);
  rig.sim->GetTrace().set_enabled(true);  // the golden holds every dump
  rig.deploy = std::make_unique<Deployment>(rig.sim.get());
  rig.injector = std::make_unique<sim::FaultInjector>(rig.sim.get());
  for (int n = 1; n <= 3; ++n) {
    app::NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{"$DATA" + std::to_string(n),
                                    {app::FileSpec{"f" + std::to_string(n)}},
                                    {}}};
    rig.deploy->AddNode(spec);
  }
  rig.deploy->LinkAll();
  for (int n = 1; n <= 3; ++n) {
    rig.deploy->DefineFile("f" + std::to_string(n), static_cast<net::NodeId>(n),
                           "$DATA" + std::to_string(n));
  }
  rig.client1 = rig.deploy->GetNode(1)->node()->Spawn<TestClient>(2);
  rig.client2 = rig.deploy->GetNode(2)->node()->Spawn<TestClient>(2);
  rig.fs1 = std::make_unique<tmf::FileSystem>(rig.client1, &rig.deploy->catalog());
  rig.fs2 = std::make_unique<tmf::FileSystem>(rig.client2, &rig.deploy->catalog());
  rig.RunUntil(Millis(100));
  return rig;
}

uint64_t Begin(Rig& rig, TestClient* client, net::NodeId home, SimTime until) {
  auto* o = client->CallRaw(net::Address(home, "$TMP"), tmf::kTmfBegin, {});
  rig.RunUntil(until);
  EXPECT_TRUE(o->status.ok());
  auto t = tmf::DecodeTransidPayload(Slice(o->payload));
  EXPECT_TRUE(t.ok());
  return t.ok() ? t->Pack() : 0;
}

Status Insert(Rig& rig, tmf::FileSystem* fs, TestClient* client,
              uint64_t transid, const std::string& file, const std::string& key,
              const std::string& value, SimTime until) {
  Status result = Status::Unavailable("no reply");
  client->set_current_transid(transid);
  fs->Insert(file, Slice(key), Slice(value),
             [&result](const Status& s, const Bytes&) { result = s; });
  client->set_current_transid(0);
  rig.RunUntil(until);
  return result;
}

Status Finish(Rig& rig, TestClient* client, net::NodeId home, uint64_t transid,
              uint32_t tag, SimTime until) {
  auto* o = client->CallRaw(net::Address(home, "$TMP"), tag,
                            tmf::EncodeTransidPayload(Transid::Unpack(transid)),
                            transid);
  rig.RunUntil(until);
  return o->status;
}

/// Runs the scenario and renders everything observable into one string.
std::string RunScenario(int workers) {
  Rig rig = MakeRig(workers);
  std::ostringstream out;
  std::vector<std::pair<std::string, uint64_t>> txns;

  // --- A: plain distributed commit touching all three nodes --------------
  uint64_t a = Begin(rig, rig.client1, 1, Millis(200));
  Insert(rig, rig.fs1.get(), rig.client1, a, "f1", "ka", "va1", Millis(300));
  Insert(rig, rig.fs1.get(), rig.client1, a, "f2", "ka", "va2", Millis(400));
  Insert(rig, rig.fs1.get(), rig.client1, a, "f3", "ka", "va3", Millis(500));
  EXPECT_TRUE(Finish(rig, rig.client1, 1, a, tmf::kTmfEnd, Millis(700)).ok());
  txns.emplace_back("A commit 3-node", a);

  // --- B: commit across a link flap; traffic reroutes via node 2 ---------
  uint64_t b = Begin(rig, rig.client1, 1, Millis(800));
  Insert(rig, rig.fs1.get(), rig.client1, b, "f1", "kb", "vb1", Millis(900));
  Insert(rig, rig.fs1.get(), rig.client1, b, "f3", "kb", "vb3", Seconds(1));
  rig.injector->InjectAt(Seconds(1) + Millis(5), "cut link 1-3", [&rig]() {
    rig.deploy->cluster().CutLink(1, 3);
  });
  rig.injector->InjectAt(Seconds(1) + Millis(405), "restore link 1-3", [&rig]() {
    rig.deploy->cluster().RestoreLink(1, 3);
  });
  EXPECT_TRUE(
      Finish(rig, rig.client1, 1, b, tmf::kTmfEnd, Seconds(2)).ok());
  txns.emplace_back("B commit across link flap", b);

  // --- C: commit through a CPU failure + process-pair takeover ------------
  rig.injector->InjectAt(Seconds(2) + Millis(7), "fail node 2 cpu 0", [&rig]() {
    rig.deploy->GetNode(2)->node()->FailCpu(0);
  });
  rig.RunUntil(Seconds(2) + Millis(500));
  uint64_t c = Begin(rig, rig.client1, 1, Seconds(2) + Millis(600));
  Insert(rig, rig.fs1.get(), rig.client1, c, "f2", "kc", "vc2",
         Seconds(2) + Millis(800));
  EXPECT_TRUE(
      Finish(rig, rig.client1, 1, c, tmf::kTmfEnd, Seconds(3)).ok());
  rig.injector->InjectAt(Seconds(3) + Millis(11), "reload node 2 cpu 0",
                         [&rig]() { rig.deploy->GetNode(2)->node()->ReloadCpu(0); });
  rig.RunUntil(Seconds(3) + Millis(500));
  txns.emplace_back("C commit through cpu takeover", c);

  // --- D: voluntary abort after writes on two nodes -----------------------
  uint64_t d = Begin(rig, rig.client1, 1, Seconds(3) + Millis(600));
  Insert(rig, rig.fs1.get(), rig.client1, d, "f1", "kd", "vd1",
         Seconds(3) + Millis(700));
  Insert(rig, rig.fs1.get(), rig.client1, d, "f2", "kd", "vd2",
         Seconds(3) + Millis(800));
  EXPECT_TRUE(
      Finish(rig, rig.client1, 1, d, tmf::kTmfAbort, Seconds(4)).ok());
  txns.emplace_back("D voluntary abort", d);

  // --- E/F: two concurrent commits from different home nodes --------------
  auto* oe = rig.client1->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  rig.RunUntil(Seconds(4) + Millis(3));
  auto* of = rig.client2->CallRaw(net::Address(2, "$TMP"), tmf::kTmfBegin, {});
  rig.RunUntil(Seconds(4) + Millis(200));
  EXPECT_TRUE(oe->status.ok());
  EXPECT_TRUE(of->status.ok());
  auto te = tmf::DecodeTransidPayload(Slice(oe->payload));
  auto tf = tmf::DecodeTransidPayload(Slice(of->payload));
  uint64_t e = te.ok() ? te->Pack() : 0;
  uint64_t f = tf.ok() ? tf->Pack() : 0;
  rig.client1->set_current_transid(e);
  rig.fs1->Insert("f1", Slice("ke"), Slice("ve1"), [](const Status&, const Bytes&) {});
  rig.fs1->Insert("f2", Slice("ke"), Slice("ve2"), [](const Status&, const Bytes&) {});
  rig.client1->set_current_transid(0);
  rig.client2->set_current_transid(f);
  rig.fs2->Insert("f2", Slice("kf"), Slice("vf2"), [](const Status&, const Bytes&) {});
  rig.fs2->Insert("f3", Slice("kf"), Slice("vf3"), [](const Status&, const Bytes&) {});
  rig.client2->set_current_transid(0);
  rig.RunUntil(Seconds(4) + Millis(500));
  auto* oe2 = rig.client1->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                   tmf::EncodeTransidPayload(Transid::Unpack(e)), e);
  auto* of2 = rig.client2->CallRaw(net::Address(2, "$TMP"), tmf::kTmfEnd,
                                   tmf::EncodeTransidPayload(Transid::Unpack(f)), f);
  rig.RunUntil(Seconds(5));
  EXPECT_TRUE(oe2->status.ok());
  EXPECT_TRUE(of2->status.ok());
  txns.emplace_back("E concurrent commit from node 1", e);
  txns.emplace_back("F concurrent commit from node 2", f);

  // --- G: crash node 3, recover it, then commit there again ---------------
  rig.injector->InjectAt(Seconds(5) + Millis(13), "crash node 3",
                         [&rig]() { rig.deploy->CrashNode(3); });
  rig.injector->InjectAt(Seconds(6), "recover node 3", [&rig]() {
    rig.deploy->RecoverNode(3, [&rig](const std::vector<tmf::RollforwardReport>&) {
      rig.injector->Note("node 3 recovered");
    });
  });
  rig.RunUntil(Seconds(8));
  uint64_t g = Begin(rig, rig.client1, 1, Seconds(8) + Millis(100));
  Insert(rig, rig.fs1.get(), rig.client1, g, "f3", "kg", "vg3",
         Seconds(8) + Millis(300));
  EXPECT_TRUE(
      Finish(rig, rig.client1, 1, g, tmf::kTmfEnd, Seconds(9)).ok());
  txns.emplace_back("G commit after node 3 recovery", g);

  rig.RunUntil(Seconds(10));

  // --- render everything observable ---------------------------------------
  for (const auto& [label, transid] : txns) {
    out << "== txn " << label << " ==\n";
    out << rig.sim->GetTrace().Dump(transid);
  }
  out << "== fault journal ==\n";
  for (const auto& ev : rig.injector->journal()) {
    out << "t=" << ev.when << " " << ev.description << "\n";
  }
  out << "== metrics ==\n";
  out << rig.sim->GetStats().ToString();
  return out.str();
}

std::string ReadGolden() {
  std::ifstream in(GoldenPath(), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(PdesOracle, ByteIdenticalAcrossEngines) {
  if (std::getenv("ENCOMPASS_REGOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    out << RunScenario(sim::testing::kStepReference);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << GoldenPath()
      << " (regenerate with ENCOMPASS_REGOLDEN=1)";
  for (int workers : {sim::testing::kStepReference, 1, 2, 4, 8}) {
    const std::string actual = RunScenario(workers);
    if (actual != golden) {
      // Dump the divergent output next to the golden for inspection.
      std::string path =
          "pdes_oracle_actual_w" + std::to_string(workers) + ".txt";
      std::ofstream out(path, std::ios::binary);
      out << actual;
    }
    EXPECT_EQ(actual, golden)
        << "parallel_workers=" << workers
        << " (0 = Step() reference) diverged from the golden output";
  }
}

}  // namespace
}  // namespace encompass
