// Randomized differential test: the production LockManager (interned file
// ids, per-file hash tables, O(1) grant checks) against the original
// map-scan implementation kept in reference_lock_manager.h. Both receive
// identical operation streams from fixed seeds; every step must agree on
// acquire results, grant sequences (order included — grant order feeds the
// simulation's deterministic traces), held/waiter counts, Holds answers,
// and the full AllHeld table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "discprocess/lock_manager.h"
#include "reference_lock_manager.h"

namespace encompass::discprocess {
namespace {

using AR = LockManager::AcquireResult;

Transid T(uint64_t seq) { return Transid{1, 0, seq}; }

std::string KeyName(const LockKey& key) {
  return key.file + "/" + (key.file_level() ? "*" : ToString(key.record));
}

std::string DumpGrants(const std::vector<LockGrant>& grants) {
  std::string out;
  for (const auto& g : grants) {
    out += g.owner.ToString() + ":" + KeyName(g.key) + ";";
  }
  return out;
}

std::string DumpHeld(const std::vector<LockGrant>& held) {
  // AllHeld order: production emits (file, record)-sorted; the reference's
  // std::map iteration is the same order by construction.
  return DumpGrants(held);
}

class Harness {
 public:
  explicit Harness(uint64_t seed) : rng_(seed) {}

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) Step();
    // Drain: release everything and confirm the endgame agrees too.
    for (uint64_t t = 1; t <= kTxns; ++t) {
      auto got = lm_.ReleaseAll(T(t));
      auto want = ref_.ReleaseAll(T(t));
      ASSERT_EQ(DumpGrants(got), DumpGrants(want)) << "drain txn " << t;
    }
    EXPECT_EQ(lm_.held_count(), 0u);
    EXPECT_EQ(lm_.waiter_count(), 0u);
  }

 private:
  static constexpr uint64_t kTxns = 8;
  static constexpr int kFiles = 3;
  static constexpr int kRecords = 6;

  LockKey RandomKey() {
    std::string file = "f" + std::to_string(rng_.Uniform(kFiles));
    if (rng_.Uniform(5) == 0) return LockKey{file, {}};  // file-level
    return LockKey{file, ToBytes("r" + std::to_string(rng_.Uniform(kRecords)))};
  }

  void Step() {
    const Transid owner = T(1 + rng_.Uniform(kTxns));
    const uint64_t dice = rng_.Uniform(100);
    if (dice < 55) {
      LockKey key = RandomKey();
      AR got = lm_.Acquire(owner, key);
      AR want = ref_.Acquire(owner, key);
      ASSERT_EQ(got, want) << owner.ToString() << " acquire " << KeyName(key);
    } else if (dice < 75) {
      auto got = lm_.ReleaseAll(owner);
      auto want = ref_.ReleaseAll(owner);
      ASSERT_EQ(DumpGrants(got), DumpGrants(want))
          << "release " << owner.ToString();
    } else if (dice < 85) {
      LockKey key = RandomKey();
      bool got = lm_.CancelWait(owner, key);
      bool want = ref_.CancelWait(owner, key);
      ASSERT_EQ(got, want) << "cancel " << KeyName(key);
    } else if (dice < 92) {
      // Backup-style unconditional grant on a fresh or own unit. Restrict to
      // unheld keys: the reference overwrites blindly and leaks the old
      // holder's accounting, which a primary never does (ForceGrant mirrors
      // grants the primary actually made).
      LockKey key = RandomKey();
      if (!lm_.Holds(owner, key) && lm_.Acquire(owner, key) == AR::kGranted) {
        // Production path granted; mirror it in the reference.
        AR want = ref_.Acquire(owner, key);
        ASSERT_EQ(want, AR::kGranted) << "mirror " << KeyName(key);
      } else {
        lm_.CancelWait(owner, key);
        ref_.CancelWait(owner, key);
      }
    } else {
      // Read-only probes.
      LockKey key = RandomKey();
      ASSERT_EQ(lm_.Holds(owner, key), ref_.Holds(owner, key));
    }
    ASSERT_EQ(lm_.held_count(), ref_.held_count());
    ASSERT_EQ(lm_.waiter_count(), ref_.waiter_count());
    if (rng_.Uniform(10) == 0) {
      ASSERT_EQ(DumpHeld(lm_.AllHeld()), DumpHeld(ref_.AllHeld()));
    }
  }

  Random rng_;
  LockManager lm_;
  ReferenceLockManager ref_;
};

TEST(LockManagerDiffTest, Seed1) { Harness(1).Run(4000); }
TEST(LockManagerDiffTest, Seed42) { Harness(42).Run(4000); }
TEST(LockManagerDiffTest, Seed1981) { Harness(1981).Run(4000); }
TEST(LockManagerDiffTest, Seed7777) { Harness(7777).Run(4000); }

// Wider key space: fewer collisions, exercises interning and table growth.
class WideHarness {
 public:
  static void Run(uint64_t seed) {
    Random rng(seed);
    LockManager lm;
    ReferenceLockManager ref;
    for (int i = 0; i < 2000; ++i) {
      Transid owner = T(1 + rng.Uniform(16));
      std::string file = "file" + std::to_string(rng.Uniform(20));
      LockKey key =
          rng.Uniform(8) == 0
              ? LockKey{file, {}}
              : LockKey{file, ToBytes("k" + std::to_string(rng.Uniform(50)))};
      if (rng.Uniform(10) < 7) {
        ASSERT_EQ(lm.Acquire(owner, key), ref.Acquire(owner, key));
      } else {
        ASSERT_EQ(DumpGrants(lm.ReleaseAll(owner)),
                  DumpGrants(ref.ReleaseAll(owner)));
      }
    }
    ASSERT_EQ(DumpGrants(lm.AllHeld()), DumpGrants(ref.AllHeld()));
    ASSERT_EQ(lm.held_count(), ref.held_count());
    ASSERT_EQ(lm.waiter_count(), ref.waiter_count());
  }
};

TEST(LockManagerDiffTest, WideKeySpaceSeed5) { WideHarness::Run(5); }
TEST(LockManagerDiffTest, WideKeySpaceSeed97) { WideHarness::Run(97); }

}  // namespace
}  // namespace encompass::discprocess
