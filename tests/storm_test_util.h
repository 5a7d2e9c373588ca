// Shared scaffolding for the chaos-storm and Paxos Commit tests: the storm
// floor every campaign test runs, the survival invariants, the Step()-
// reference identity check, and a hand-built cluster rig for driving one
// transaction into a crash window.

#ifndef ENCOMPASS_TESTS_STORM_TEST_UTIL_H_
#define ENCOMPASS_TESTS_STORM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "encompass/chaos.h"
#include "step_reference.h"
#include "test_util.h"
#include "tmf/tmf_protocol.h"

namespace encompass::testutil {

/// The storm floor: three nodes, >= 8 faults, at least one total node
/// crash, on the paper's 2PC.
inline app::ChaosCampaignConfig StormConfig(uint64_t seed) {
  app::ChaosCampaignConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.accounts_per_node = 20;
  cfg.clients_per_node = 2;
  cfg.schedule.faults = 8;
  cfg.schedule.min_node_crashes = 1;
  return cfg;
}

/// The same storm with every TMP on Paxos Commit and `replication` = 2F+1
/// `$ACCEPT.<k>` pairs round-robined over the nodes.
inline app::ChaosCampaignConfig PaxosStormConfig(uint64_t seed,
                                                 int replication = 3) {
  app::ChaosCampaignConfig cfg = StormConfig(seed);
  cfg.commit_protocol = tmf::CommitProtocol::kPaxos;
  cfg.commit_replication = replication;
  return cfg;
}

/// Asserts every survival invariant. On any failure, writes the schedule
/// dump to `<prefix><seed>.schedule` next to the test binary, where CI
/// archives it for a reader; the seed alone replays the storm.
inline void ExpectSurvived(const app::ChaosCampaignResult& r, uint64_t seed,
                           const std::string& prefix) {
  bool clean = r.quiesced && r.violations.empty() &&
               r.balance_sum == r.expected_sum && r.leaked_locks == 0 &&
               r.leaked_txns == 0 && r.pending_safe == 0 &&
               r.illegal_transitions == 0 &&
               r.recoveries_completed == r.node_crashes;
  if (!clean) {
    std::ofstream out(prefix + std::to_string(seed) + ".schedule");
    out << r.schedule_dump;
    out.close();
    for (const auto& line : r.journal) {
      ADD_FAILURE() << "journal: " << line;
    }
  }
  EXPECT_TRUE(r.quiesced) << "seed " << seed << " did not quiesce";
  for (const auto& v : r.violations) {
    ADD_FAILURE() << "seed " << seed << " txn " << v.transid << ": "
                  << v.detail;
  }
  EXPECT_EQ(r.balance_sum, r.expected_sum) << "seed " << seed;
  EXPECT_EQ(r.leaked_locks, 0u) << "seed " << seed;
  EXPECT_EQ(r.leaked_txns, 0u) << "seed " << seed;
  EXPECT_EQ(r.pending_safe, 0u) << "seed " << seed;
  EXPECT_EQ(r.illegal_transitions, 0) << "seed " << seed;
  EXPECT_EQ(r.recoveries_completed, r.node_crashes) << "seed " << seed;
}

/// Runs one seed's storm and checks it met the campaign floor (at least 5
/// faults, all fired, at least one node crash, so ROLLFORWARD and
/// negotiation run), did real work, and survived.
inline app::ChaosCampaignResult ExpectStormSurvives(
    const app::ChaosCampaignConfig& cfg, const std::string& prefix) {
  const uint64_t seed = cfg.seed;
  app::ChaosCampaignResult r = app::RunChaosCampaign(cfg);
  EXPECT_GE(r.schedule.faults.size(), 5u) << "seed " << seed;
  EXPECT_GE(r.node_crashes, 1u) << "seed " << seed;
  EXPECT_GE(r.faults_fired, r.schedule.faults.size()) << "seed " << seed;
  EXPECT_GT(r.txns_started, 0u) << "seed " << seed;
  EXPECT_GT(r.txns_committed, 0u) << "seed " << seed;
  ExpectSurvived(r, seed, prefix);
  return r;
}

/// Runs `cfg`'s storm once through the Step() reference, then on the round
/// loop at workers {1, 2, 4}. Every run must reproduce the reference's
/// journal, client-observed outcomes, balances, acceptor-log residue, and
/// full stats registry. Returns the reference run's result.
inline app::ChaosCampaignResult ExpectSameStormAsStepReference(
    app::ChaosCampaignConfig cfg) {
  const sim::FaultSchedule schedule = app::ChaosSchedule(cfg);
  auto run = [&](int workers, std::string* digest) {
    cfg.parallel_workers = workers;
    app::ChaosCampaign campaign(cfg, schedule);
    app::ChaosCampaignResult r =
        campaign.Run([workers](sim::Simulation& sim, SimTime deadline) {
          sim::testing::AdvanceTo(sim, workers, deadline);
        });
    *digest = campaign.stats().ToString();
    return r;
  };
  std::string ref_digest;
  app::ChaosCampaignResult ref =
      run(sim::testing::kStepReference, &ref_digest);
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::string digest;
    app::ChaosCampaignResult r = run(workers, &digest);
    EXPECT_EQ(r.journal, ref.journal);
    EXPECT_EQ(digest, ref_digest);
    EXPECT_EQ(r.txns_started, ref.txns_started);
    EXPECT_EQ(r.txns_committed, ref.txns_committed);
    EXPECT_EQ(r.txns_aborted, ref.txns_aborted);
    EXPECT_EQ(r.txns_unknown, ref.txns_unknown);
    EXPECT_EQ(r.balance_sum, ref.balance_sum);
    EXPECT_EQ(r.acceptor_log_final, ref.acceptor_log_final);
  }
  return ref;
}

/// A hand-built cluster: `nodes` nodes, each with one volume `$DATA<n>`
/// holding one marker file `mark<n>`, archived for ROLLFORWARD, and one
/// scripted client that drives a transaction verb by verb.
struct Rig {
  sim::Simulation sim;
  app::Deployment deploy;
  TestClient* client = nullptr;
  std::unique_ptr<tmf::FileSystem> fs;

  // `workers` is a thread count or sim::testing::kStepReference.
  Rig(uint64_t seed, int nodes, bool paxos, SimDuration resolve_interval = 0,
      int replication = 3, int workers = 1)
      // The acceptors' periodic orphan sweep keeps the event queue alive
      // forever, so paxos rigs must settle with bounded runs too.
      : sim(seed, workers), deploy(&sim), workers_(workers),
        bounded_(resolve_interval > 0 || paxos) {
    for (int n = 1; n <= nodes; ++n) {
      app::NodeSpec spec;
      spec.id = static_cast<net::NodeId>(n);
      std::string vol = "$DATA" + std::to_string(n);
      spec.volumes = {app::VolumeSpec{
          vol, {app::FileSpec{"mark" + std::to_string(n)}}, {}}};
      spec.tmp_config.indoubt_resolve_interval = resolve_interval;
      if (paxos) {
        spec.tmp_config.commit_protocol = tmf::CommitProtocol::kPaxos;
        for (int k = 0; k < replication; ++k) {
          spec.tmp_config.acceptor_endpoints.emplace_back(
              static_cast<net::NodeId>(k % nodes + 1),
              "$ACCEPT." + std::to_string(k));
        }
      }
      deploy.AddNode(spec);
    }
    deploy.LinkAll();
    for (int n = 1; n <= nodes; ++n) {
      std::string mark = "mark" + std::to_string(n);
      std::string vol = "$DATA" + std::to_string(n);
      EXPECT_TRUE(
          deploy.DefineFile(mark, static_cast<net::NodeId>(n), vol).ok());
      deploy.GetNode(static_cast<net::NodeId>(n))->ArchiveVolumes();
    }
  }

  /// Runs until the sim settles — bounded when a periodic resolve timer
  /// keeps the event queue alive forever.
  void Settle() {
    if (bounded_) {
      RunFor(Millis(250));
    } else {
      sim::testing::Drain(sim, workers_);
    }
  }

  void RunFor(SimDuration d) {
    sim::testing::AdvanceTo(sim, workers_, sim.Now() + d);
  }

  /// Spawns the client on `node` and runs the sim until it settles.
  void SpawnClient(net::NodeId node) {
    client = deploy.GetNode(node)->node()->Spawn<TestClient>(2);
    fs = std::make_unique<tmf::FileSystem>(client, &deploy.catalog());
    Settle();
  }

  /// BEGINs a transaction at `home` and returns its packed transid.
  uint64_t Begin(net::NodeId home) {
    auto* b = client->CallRaw(net::Address(home, "$TMP"), tmf::kTmfBegin, {});
    Settle();
    EXPECT_TRUE(b->done && b->status.ok());
    return tmf::DecodeTransidPayload(Slice(b->payload))->Pack();
  }

  /// Inserts `key` into `file` under transaction `t`.
  void Insert(uint64_t t, const std::string& file, const std::string& key) {
    bool done = false;
    Status st;
    client->set_current_transid(t);
    fs->Insert(file, Slice(key), Slice(std::string("x")),
               [&](const Status& s, const Bytes&) {
                 st = s;
                 done = true;
               });
    client->set_current_transid(0);
    Settle();
    EXPECT_TRUE(done && st.ok()) << st.ToString();
  }

  /// Sends END for `t` to `home`'s TMP; the sim does not advance.
  TestClient::Outcome* End(net::NodeId home, uint64_t t) {
    return client->CallRaw(net::Address(home, "$TMP"), tmf::kTmfEnd,
                           tmf::EncodeTransidPayload(Transid::Unpack(t)), t);
  }

  /// Advances in 500µs steps, for at most one second, until `home`'s MAT
  /// holds t's commit record: after phase 1, before phase 2 lands.
  void RunToCommitRecord(net::NodeId home, uint64_t t) {
    for (int i = 0; i < 2000 && MatLookup(home, t) != 1; ++i) {
      RunFor(Micros(500));
    }
  }

  int64_t MatLookup(net::NodeId node, uint64_t t) {
    return deploy.GetNode(node)->storage().monitor_trail.Lookup(
        Transid::Unpack(t));
  }

 private:
  int workers_;
  bool bounded_ = false;
};

}  // namespace encompass::testutil

#endif  // ENCOMPASS_TESTS_STORM_TEST_UTIL_H_
