// The whole trace stream of a traced multi-transaction run is one canonical
// sequence: the Step() reference and the round loop at workers {1, 2, 4}
// record the same events in the same order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storm_test_util.h"

namespace encompass {
namespace {

// Three nodes, one client on node 1. Four distributed transactions write two
// nodes each; three commit and one aborts, all ended together so their
// protocols interleave across the node loops. Returns every recorded event.
std::vector<std::string> TracedStream(int workers) {
  testutil::Rig rig(/*seed=*/23, /*nodes=*/3, /*paxos=*/false,
                    /*resolve_interval=*/0, /*replication=*/3, workers);
  rig.sim.GetTrace().set_enabled(true);
  rig.SpawnClient(1);
  std::vector<uint64_t> txns;
  for (int i = 0; i < 4; ++i) {
    const uint64_t t = rig.Begin(1);
    const std::string key = "k" + std::to_string(i);
    rig.Insert(t, "mark" + std::to_string(1 + i % 3), key);
    rig.Insert(t, "mark" + std::to_string(1 + (i + 1) % 3), key);
    txns.push_back(t);
  }
  std::vector<testutil::TestClient::Outcome*> outcomes;
  for (size_t i = 0; i < txns.size(); ++i) {
    const uint32_t verb = i == 2 ? tmf::kTmfAbort : tmf::kTmfEnd;
    outcomes.push_back(rig.client->CallRaw(
        net::Address(1, "$TMP"), verb,
        tmf::EncodeTransidPayload(Transid::Unpack(txns[i])), txns[i]));
  }
  rig.Settle();
  for (const auto* o : outcomes) EXPECT_TRUE(o->done && o->status.ok());

  const sim::TraceLog& log = rig.sim.GetTrace();
  std::vector<std::string> out;
  for (const sim::TraceEvent& e : log.AllEvents()) {
    out.push_back(std::to_string(e.transid) + " " + e.ToString());
  }
  for (uint64_t t : txns) EXPECT_FALSE(log.Events(t).empty()) << t;
  return out;
}

TEST(TraceStreamTest, SameStreamUnderStepAndAtAnyWorkerCount) {
  const std::vector<std::string> ref = TracedStream(sim::testing::kStepReference);
  ASSERT_FALSE(ref.empty());
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(TracedStream(workers), ref);
  }
}

}  // namespace
}  // namespace encompass
