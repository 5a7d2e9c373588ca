// FaultScheduleGenerator: draws a randomized-but-deterministic sequence of
// fault specifications (CPU kill, bus cut, disc-path drop, link flap,
// network partition, total node crash) for a chaos campaign. The generator
// is pure planning: it emits FaultSpecs — *what* breaks *when* and when it
// heals — and the campaign driver binds each spec to concrete cluster
// actions through a FaultInjector.
//
// Determinism contract: the same (config, seed) always yields the same
// schedule, so any failing campaign seed replays by regenerating its
// schedule. Dump() prints a schedule for a reader.
//
// Structural guarantees (what makes a generated schedule *recoverable* by
// design, mirroring the single-module-failure discipline of the paper):
//   * node crashes and network partitions occupy pairwise-disjoint global
//     windows — at most one such heavy fault is open at any time, so a
//     crashed node always has reachable survivors to negotiate with;
//   * per-node light faults (CPU, bus, drive, link) never overlap each
//     other or a crash window on the same node — one broken module per
//     node at a time;
//   * every fault with a heal action heals: the final state of the
//     schedule is all modules up.

#ifndef ENCOMPASS_SIM_FAULT_SCHEDULE_H_
#define ENCOMPASS_SIM_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace encompass::sim {

enum class FaultClass : uint8_t {
  kCpuFail = 0,   ///< kill one CPU; heal reloads it and re-pairs services
  kBusCut = 1,    ///< cut one of the two interprocessor buses
  kDriveDrop = 2, ///< fail one drive of the node's mirrored volume
  kLinkFlap = 3,  ///< cut the node<->peer network link, restore on heal
  kPartition = 4, ///< split the cluster into mask / ~mask, heal rejoins
  kNodeCrash = 5, ///< total node failure; heal reloads + ROLLFORWARD
};

/// Printable lowercase tag ("cpu", "bus", "drive", "link", "part", "crash").
const char* FaultClassName(FaultClass c);

/// One planned fault: fire at `at`, undo it `heal_after` later.
struct FaultSpec {
  SimTime at = 0;
  SimDuration heal_after = 0;  ///< 0 = no heal action
  FaultClass fault = FaultClass::kCpuFail;
  uint16_t node = 0;   ///< primary node acted on
  uint16_t peer = 0;   ///< link peer / lowest node outside a partition mask
  uint32_t mask = 0;   ///< kPartition: bitmask of node ids on side A
  int unit = 0;        ///< CPU index, bus index, or drive index

  bool operator==(const FaultSpec& o) const {
    return at == o.at && heal_after == o.heal_after && fault == o.fault &&
           node == o.node && peer == o.peer && mask == o.mask && unit == o.unit;
  }
};

/// A complete campaign schedule, ordered by firing time.
struct FaultSchedule {
  uint64_t seed = 0;  ///< generator seed (informational in replays)
  std::vector<FaultSpec> faults;

  size_t CountOf(FaultClass c) const;
  /// Simulated time by which every fault has fired and healed.
  SimTime EndTime() const;

  /// Compact line-oriented text form, one fault per line:
  ///   # fault-schedule v1 seed=<n>
  ///   crash at=2000000 heal=900000 node=2
  ///   cpu at=3100000 heal=400000 node=1 unit=3
  std::string Dump() const;
};

/// Per-fault-class rate knobs and world geometry for the generator.
struct FaultScheduleConfig {
  int nodes = 3;          ///< node ids are 1..nodes
  int cpus_per_node = 4;

  int faults = 8;               ///< total faults to draw
  int min_node_crashes = 1;     ///< floor on kNodeCrash draws
  SimTime start = 1'000'000;    ///< campaign storm begins here
  SimDuration window = 20'000'000;  ///< light faults land in [start, start+window]
  SimDuration min_heal = 300'000;
  SimDuration max_heal = 1'500'000;
  /// Dead time reserved after a node crash before the next heavy fault —
  /// covers reload + ROLLFORWARD negotiation with survivors.
  SimDuration crash_recovery_pad = 3'000'000;

  /// Relative draw weight of total node crashes; 0 never draws one. The
  /// other classes draw with the fixed weights in fault_schedule.cc.
  double w_crash = 0.6;
};

/// Deterministic schedule generator. Owns its own PRNG stream (seeded per
/// Generate call), so generating a schedule never perturbs the simulation
/// RNG that drives workloads — a campaign that regenerates its schedule to
/// replay it sees the same world.
class FaultScheduleGenerator {
 public:
  explicit FaultScheduleGenerator(FaultScheduleConfig config)
      : config_(config) {}

  const FaultScheduleConfig& config() const { return config_; }

  FaultSchedule Generate(uint64_t seed) const;

 private:
  FaultScheduleConfig config_;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_FAULT_SCHEDULE_H_
