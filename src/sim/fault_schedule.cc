#include "sim/fault_schedule.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/random.h"

namespace encompass::sim {

namespace {

constexpr int kNumClasses = 6;
// The dual X/Y interprocessor buses, and the mirrored pair of drives.
constexpr int kBusesPerNode = 2;
constexpr int kDrivesPerVolume = 2;
// Relative draw weights of the classes other than kNodeCrash.
constexpr double kCpuWeight = 1.0;
constexpr double kBusWeight = 0.5;
constexpr double kDriveWeight = 0.8;
constexpr double kLinkWeight = 1.0;
constexpr double kPartitionWeight = 0.6;

/// A closed interval of simulated time during which a module is unavailable.
struct Interval {
  SimTime begin;
  SimTime end;
};

bool Overlaps(const Interval& iv, SimTime at, SimTime until) {
  return at < iv.end && iv.begin < until;
}

/// Slides `at` forward past every blocked interval that [at, at+busy)
/// overlaps. Terminates: each pass either finds no overlap or moves `at`
/// strictly past one interval's end, and intervals are finite.
SimTime PlaceAvoiding(SimTime at, SimDuration busy,
                      const std::vector<const std::vector<Interval>*>& blocked,
                      Random* rng) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto* list : blocked) {
      for (const auto& iv : *list) {
        if (Overlaps(iv, at, at + busy)) {
          at = iv.end + static_cast<SimDuration>(rng->Range(10'000, 100'000));
          moved = true;
        }
      }
    }
  }
  return at;
}

}  // namespace

const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kCpuFail: return "cpu";
    case FaultClass::kBusCut: return "bus";
    case FaultClass::kDriveDrop: return "drive";
    case FaultClass::kLinkFlap: return "link";
    case FaultClass::kPartition: return "part";
    case FaultClass::kNodeCrash: return "crash";
  }
  return "?";
}

size_t FaultSchedule::CountOf(FaultClass c) const {
  size_t n = 0;
  for (const auto& f : faults) {
    if (f.fault == c) ++n;
  }
  return n;
}

SimTime FaultSchedule::EndTime() const {
  SimTime end = 0;
  for (const auto& f : faults) {
    end = std::max(end, f.at + f.heal_after);
  }
  return end;
}

std::string FaultSchedule::Dump() const {
  std::ostringstream out;
  out << "# fault-schedule v1 seed=" << seed << "\n";
  char line[160];
  for (const auto& f : faults) {
    snprintf(line, sizeof(line),
             "%s at=%lld heal=%lld node=%u peer=%u mask=%u unit=%d\n",
             FaultClassName(f.fault), static_cast<long long>(f.at),
             static_cast<long long>(f.heal_after), f.node, f.peer, f.mask,
             f.unit);
    out << line;
  }
  return out.str();
}

FaultSchedule FaultScheduleGenerator::Generate(uint64_t seed) const {
  // Private PRNG stream: schedule generation must not consume from the
  // simulation RNG, or regenerating a schedule to replay it would shift
  // every workload draw.
  Random rng(seed ^ 0xFA57'5CED'0000'0001ULL);
  FaultSchedule sched;
  sched.seed = seed;

  const int nodes = std::max(1, config_.nodes);
  double weights[kNumClasses] = {kCpuWeight,       kBusWeight,
                                 kDriveWeight,     kLinkWeight,
                                 kPartitionWeight, config_.w_crash};
  if (nodes < 2) {
    // Link and partition faults need a peer; crashes need a survivor to
    // negotiate ROLLFORWARD dispositions with.
    weights[static_cast<int>(FaultClass::kLinkFlap)] = 0;
    weights[static_cast<int>(FaultClass::kPartition)] = 0;
    weights[static_cast<int>(FaultClass::kNodeCrash)] = 0;
  }
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) return sched;

  // -- Draw the class multiset ------------------------------------------------
  std::vector<FaultClass> classes;
  classes.reserve(static_cast<size_t>(config_.faults));
  for (int i = 0; i < config_.faults; ++i) {
    double pick = rng.NextDouble() * total;
    int c = 0;
    for (; c < kNumClasses - 1; ++c) {
      pick -= weights[c];
      if (pick < 0) break;
    }
    classes.push_back(static_cast<FaultClass>(c));
  }
  if (nodes >= 2) {
    int crashes = static_cast<int>(
        std::count(classes.begin(), classes.end(), FaultClass::kNodeCrash));
    while (crashes < config_.min_node_crashes) {
      // Convert a deterministic-randomly chosen non-crash draw; append if
      // every draw is already a crash.
      bool converted = false;
      if (!classes.empty()) {
        size_t at = rng.Uniform(classes.size());
        for (size_t probe = 0; probe < classes.size(); ++probe) {
          size_t idx = (at + probe) % classes.size();
          if (classes[idx] != FaultClass::kNodeCrash) {
            classes[idx] = FaultClass::kNodeCrash;
            converted = true;
            break;
          }
        }
      }
      if (!converted) classes.push_back(FaultClass::kNodeCrash);
      ++crashes;
    }
  }

  // -- Place heavy faults (crash, partition) on a disjoint global chain -------
  // Sequential placement with randomized gaps guarantees at most one heavy
  // fault open at a time without rejection sampling.
  std::vector<std::vector<Interval>> crash_windows(
      static_cast<size_t>(nodes) + 1);
  std::vector<std::vector<Interval>> busy(static_cast<size_t>(nodes) + 1);
  SimTime heavy_cursor =
      config_.start + static_cast<SimDuration>(rng.Range(0, 500'000));
  for (auto c : classes) {
    if (c != FaultClass::kNodeCrash && c != FaultClass::kPartition) continue;
    FaultSpec spec;
    spec.fault = c;
    spec.at = heavy_cursor +
              static_cast<SimDuration>(rng.Range(300'000, 1'200'000));
    spec.heal_after = static_cast<SimDuration>(
        rng.Range(static_cast<uint64_t>(config_.min_heal),
                  static_cast<uint64_t>(config_.max_heal)));
    if (c == FaultClass::kNodeCrash) {
      spec.node = static_cast<uint16_t>(rng.Range(1, static_cast<uint64_t>(nodes)));
      Interval window{spec.at,
                      spec.at + spec.heal_after + config_.crash_recovery_pad};
      crash_windows[spec.node].push_back(window);
      heavy_cursor = window.end;
    } else {
      uint32_t mask = 0;
      for (int n = 1; n <= nodes; ++n) {
        if (rng.Bernoulli(0.5)) mask |= 1u << n;
      }
      const uint32_t all = ((1u << nodes) - 1u) << 1;
      if (mask == 0) mask = 2;            // side A at least node 1
      if (mask == all) mask &= ~(1u << nodes);  // side B nonempty
      spec.mask = mask;
      for (int n = 1; n <= nodes; ++n) {
        if (mask & (1u << n)) { spec.node = static_cast<uint16_t>(n); break; }
      }
      for (int n = 1; n <= nodes; ++n) {
        if (!(mask & (1u << n))) { spec.peer = static_cast<uint16_t>(n); break; }
      }
      heavy_cursor = spec.at + spec.heal_after +
                     static_cast<SimDuration>(rng.Range(300'000, 800'000));
    }
    sched.faults.push_back(spec);
  }

  // -- Place light faults avoiding same-node overlap and crash windows --------
  for (auto c : classes) {
    if (c == FaultClass::kNodeCrash || c == FaultClass::kPartition) continue;
    FaultSpec spec;
    spec.fault = c;
    spec.node = static_cast<uint16_t>(rng.Range(1, static_cast<uint64_t>(nodes)));
    spec.heal_after = static_cast<SimDuration>(
        rng.Range(static_cast<uint64_t>(config_.min_heal),
                  static_cast<uint64_t>(config_.max_heal)));
    SimTime at = config_.start +
                 static_cast<SimTime>(rng.Uniform(
                     static_cast<uint64_t>(std::max<SimDuration>(config_.window, 1))));
    std::vector<const std::vector<Interval>*> blocked = {
        &busy[spec.node], &crash_windows[spec.node]};
    switch (c) {
      case FaultClass::kCpuFail:
        spec.unit = static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(std::max(1, config_.cpus_per_node))));
        break;
      case FaultClass::kBusCut:
        spec.unit = static_cast<int>(rng.Uniform(kBusesPerNode));
        break;
      case FaultClass::kDriveDrop:
        spec.unit = static_cast<int>(rng.Uniform(kDrivesPerVolume));
        break;
      case FaultClass::kLinkFlap: {
        uint16_t peer = spec.node;
        while (peer == spec.node) {
          peer = static_cast<uint16_t>(rng.Range(1, static_cast<uint64_t>(nodes)));
        }
        spec.peer = peer;
        blocked.push_back(&busy[peer]);
        blocked.push_back(&crash_windows[peer]);
        break;
      }
      default:
        break;
    }
    // Reserve slack past the heal for repair (CPU reload/pair respawn,
    // drive revive copy) before the next fault hits the same module.
    const SimDuration repair_pad = 500'000;
    spec.at = PlaceAvoiding(at, spec.heal_after + repair_pad, blocked, &rng);
    Interval occupied{spec.at, spec.at + spec.heal_after + repair_pad};
    busy[spec.node].push_back(occupied);
    if (c == FaultClass::kLinkFlap) busy[spec.peer].push_back(occupied);
    sched.faults.push_back(spec);
  }

  std::stable_sort(sched.faults.begin(), sched.faults.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return sched;
}

}  // namespace encompass::sim
