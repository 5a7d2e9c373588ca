// Randomized differential test: the production EventQueue (EventFn callbacks,
// generation-stamped slot cancellation) against ReferenceEventQueue (the old
// std::function + hash-set implementation). Both are driven with identical
// operation sequences — schedules, keyed inserts, pops, and cancels aimed at
// live, fired, cancelled, and never-issued ids — and must agree on firing
// order, event keys, live-size accounting, and whether each
// cancel took effect. A cancellation-heavy phase drives the production
// queue's heap compaction (dead entries dropped once they outnumber the
// live ones) many times over.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "reference_event_queue.h"
#include "sim/event_queue.h"

namespace encompass::sim {
namespace {

struct IdPair {
  EventId prod;
  testing::ReferenceEventQueue::EventId ref;
};

TEST(EventQueueDiffTest, RandomizedOperationSequences) {
  for (uint32_t trial = 0; trial < 24; ++trial) {
    std::mt19937_64 rng(0xD1FF0000 + trial);
    EventQueue prod(/*origin=*/3);
    testing::ReferenceEventQueue ref(/*origin=*/3);

    std::vector<IdPair> issued;   // every locally scheduled pair, ever
    std::vector<std::string> prod_fired, ref_fired;
    uint64_t keyed_seq = 1;
    int label = 0;

    const int ops = 400;
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 5) {
        case 0:
        case 1: {  // local schedule, occasionally at a tied time
          const SimTime when = 50 + rng() % 40;
          const std::string tag = "L" + std::to_string(label++);
          issued.push_back(IdPair{
              prod.Schedule(when,
                            [&prod_fired, tag]() { prod_fired.push_back(tag); }),
              ref.Schedule(when,
                           [&ref_fired, tag]() { ref_fired.push_back(tag); })});
          break;
        }
        case 2: {  // keyed insert from a foreign origin
          const EventKey key{static_cast<SimTime>(50 + rng() % 40),
                             static_cast<uint16_t>(7 + rng() % 2), keyed_seq++};
          const std::string tag = "K" + std::to_string(label++);
          prod.ScheduleKeyed(key,
                             [&prod_fired, tag]() { prod_fired.push_back(tag); });
          ref.ScheduleKeyed(key,
                            [&ref_fired, tag]() { ref_fired.push_back(tag); });
          break;
        }
        case 3: {  // cancel: a previously issued pair (any state) or garbage
          const size_t before_p = prod.size();
          bool ref_effect;
          if (!issued.empty() && rng() % 4 != 0) {
            const IdPair& p = issued[rng() % issued.size()];
            prod.Cancel(p.prod);
            ref_effect = ref.Cancel(p.ref);
          } else {
            // Ids no queue ever issued: 0 and large garbage. Both must be
            // exact no-ops.
            const EventId junk = (rng() % 2 == 0) ? 0 : (rng() | (1ull << 47));
            prod.Cancel(junk);
            ref_effect = false;
          }
          const bool prod_effect = prod.size() != before_p;
          ASSERT_EQ(prod_effect, ref_effect) << "trial " << trial << " op " << op;
          break;
        }
        case 4: {  // pop one (if any): identical key and payload
          ASSERT_EQ(prod.empty(), ref.empty());
          if (prod.empty()) break;
          EventKey pk, rk;
          prod.PopNext(&pk)();
          ref.PopNext(&rk)();
          ASSERT_EQ(pk.time, rk.time);
          ASSERT_EQ(pk.origin, rk.origin);
          ASSERT_EQ(pk.seq, rk.seq);
          break;
        }
      }
      ASSERT_EQ(prod.size(), ref.size()) << "trial " << trial << " op " << op;
      ASSERT_EQ(prod.NextTime(), ref.NextTime());
    }

    // Drain completely; firing sequences must be identical.
    while (!prod.empty()) {
      ASSERT_FALSE(ref.empty());
      EventKey pk, rk;
      prod.PopNext(&pk)();
      ref.PopNext(&rk)();
      ASSERT_EQ(pk.seq, rk.seq);
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(prod_fired, ref_fired) << "trial " << trial;
  }
}

// Timer-shaped churn: most scheduled events are timeouts that get cancelled
// long before their deadline, as every Process::Call's 5 s timeout is. With
// ~90% of thousands of timers cancelled while the rest stay pending, dead
// entries repeatedly outnumber 2 * live + 64 and the production heap is
// compacted many times; keyed inserts and pops interleave throughout. The
// firing order, keys and live size must still match the reference exactly.
TEST(EventQueueDiffTest, CancellationHeavyChurnMatchesReference) {
  for (uint32_t trial = 0; trial < 4; ++trial) {
    std::mt19937_64 rng(0xC0FFEE00 + trial);
    EventQueue prod(/*origin=*/2);
    testing::ReferenceEventQueue ref(/*origin=*/2);
    std::vector<IdPair> pending;  // scheduled, not yet cancelled by the test
    std::vector<uint64_t> prod_fired, ref_fired;
    uint64_t keyed_seq = 1;
    uint64_t label = 0;
    SimTime now = 0;

    auto pop_one = [&] {
      ASSERT_EQ(prod.empty(), ref.empty());
      if (prod.empty()) return;
      EventKey pk, rk;
      prod.PopNext(&pk)();
      ref.PopNext(&rk)();
      ASSERT_EQ(pk.time, rk.time);
      ASSERT_EQ(pk.origin, rk.origin);
      ASSERT_EQ(pk.seq, rk.seq);
      now = pk.time;
    };

    for (int op = 0; op < 20000; ++op) {
      const uint64_t dice = rng() % 100;
      if (dice < 46) {  // arm a timer, far out or (sometimes) soon
        const SimTime when =
            now + 1 + ((rng() % 4 == 0) ? rng() % 50 : 5000 + rng() % 5000);
        const uint64_t tag = label++;
        pending.push_back(IdPair{
            prod.Schedule(when, [&prod_fired, tag] { prod_fired.push_back(tag); }),
            ref.Schedule(when, [&ref_fired, tag] { ref_fired.push_back(tag); })});
      } else if (dice < 88) {  // a reply arrives: cancel a pending timer
        if (pending.empty()) continue;
        const size_t i = rng() % pending.size();
        const size_t before = prod.size();
        prod.Cancel(pending[i].prod);
        const bool ref_effect = ref.Cancel(pending[i].ref);
        ASSERT_EQ(prod.size() != before, ref_effect) << "op " << op;
        pending[i] = pending.back();
        pending.pop_back();
      } else if (dice < 94) {  // a cross-node post
        const EventKey key{now + 1 + static_cast<SimTime>(rng() % 200),
                           static_cast<uint16_t>(5 + rng() % 3), keyed_seq++};
        const uint64_t tag = label++;
        prod.ScheduleKeyed(key, [&prod_fired, tag] { prod_fired.push_back(tag); });
        ref.ScheduleKeyed(key, [&ref_fired, tag] { ref_fired.push_back(tag); });
      } else {
        pop_one();
      }
      ASSERT_EQ(prod.size(), ref.size()) << "trial " << trial << " op " << op;
      ASSERT_EQ(prod.NextTime(), ref.NextTime()) << "op " << op;
    }
    // Cancel what is left: live timers die, fired ones are stale no-ops.
    for (const IdPair& p : pending) {
      const size_t before = prod.size();
      prod.Cancel(p.prod);
      ASSERT_EQ(prod.size() != before, ref.Cancel(p.ref));
    }
    while (!prod.empty()) pop_one();
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(prod_fired, ref_fired) << "trial " << trial;
    EXPECT_FALSE(prod_fired.empty());
  }
}

// Slot reuse stress: schedule/cancel/fire churn far past the initial slot
// population, then verify stale ids from every earlier round stay no-ops.
TEST(EventQueueDiffTest, SlotReuseKeepsStaleIdsDead) {
  EventQueue q(1);
  std::vector<EventId> stale;
  int fired = 0;
  for (int round = 0; round < 200; ++round) {
    EventId keep = q.Schedule(10 + round, [&fired]() { ++fired; });
    EventId dead = q.Schedule(10 + round, [&fired]() { fired += 1000; });
    q.Cancel(dead);
    stale.push_back(dead);
    stale.push_back(keep);  // becomes stale once fired below
    SimTime when;
    q.PopNext(&when)();
  }
  EXPECT_EQ(fired, 200);
  EXPECT_TRUE(q.empty());
  const size_t size_before = q.size();
  for (EventId id : stale) q.Cancel(id);
  EXPECT_EQ(q.size(), size_before);
  // The queue still works after the churn.
  q.Schedule(1, [&fired]() { ++fired; });
  SimTime when;
  q.PopNext(&when)();
  EXPECT_EQ(fired, 201);
}

}  // namespace
}  // namespace encompass::sim
