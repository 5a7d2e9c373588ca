// Named counters and latency histograms collected during a simulation run.
// Benchmarks and EXPERIMENTS.md rows are generated from these.
//
// Every write interns its metric once (RegisterCounter / RegisterHistogram)
// and then updates through the returned MetricId, which indexes dense
// storage — no string hashing or map walk per event. Reads may look a metric
// up by name.
//
// Storage is sharded per event loop: each update lands in the shard of the
// loop executing the current event (shard 0 outside event execution), so
// parallel node loops never write the same cache line. Counter totals and
// merged histograms are only ever read between rounds (reporting, tests) and
// are exact regardless of how updates were interleaved, because sums and
// bucket merges are commutative. Registration is mutex-guarded: processes
// register metrics when they attach, which can happen on a worker thread
// during simulated recovery.

#ifndef ENCOMPASS_SIM_STATS_H_
#define ENCOMPASS_SIM_STATS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/exec_context.h"

namespace encompass::sim {

class Stats;

/// Opaque handle to one registered metric. Handles stay valid for the
/// lifetime of the Stats object that issued them, across Clear().
class MetricId {
 public:
  MetricId() = default;
  bool valid() const { return index_ != kInvalid; }

 private:
  friend class Stats;
  explicit constexpr MetricId(uint32_t index) : index_(index) {}
  static constexpr uint32_t kInvalid = 0xffffffffu;
  uint32_t index_ = kInvalid;
};

/// Fixed-size log-bucket histogram: 64 linear sub-buckets per power-of-two
/// octave, so values below 128 are represented exactly and larger values
/// with <0.8% relative error. Min, max, mean, and count are exact; only
/// percentiles are bucket-approximate. O(1) Add, O(buckets) Percentile.
class Histogram {
 public:
  Histogram();

  void Add(int64_t v);
  size_t count() const { return count_; }
  int64_t Min() const { return count_ ? min_ : 0; }
  int64_t Max() const { return count_ ? max_ : 0; }
  int64_t Sum() const { return sum_; }
  double Mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  /// p in [0, 100]. Returns 0 for an empty histogram; p<=0 yields Min and
  /// p>=100 yields Max, both exact.
  int64_t Percentile(double p) const;

  /// Adds every sample of `other` into this histogram. Exact for count, sum,
  /// min, and max; bucket-exact for percentiles. Commutative and
  /// associative, so shard merge order never matters.
  void Merge(const Histogram& other);

  void Clear();

 private:
  static constexpr int kSubBits = 6;          // 64 sub-buckets per octave
  static constexpr uint32_t kSub = 1u << kSubBits;
  // Values 0..63 land in the linear range; octaves 6..62 cover the rest of
  // the non-negative int64 domain (negatives clamp to bucket 0).
  static constexpr uint32_t kNumBuckets = kSub + (63 - kSubBits) * kSub;

  static uint32_t BucketFor(int64_t v);
  static int64_t BucketMidpoint(uint32_t b);

  std::vector<uint64_t> buckets_;  // sized kNumBuckets
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Registry of counters and histograms, keyed by dotted names
/// ("tmf.commits", "disc.op_ios", ...). Components register names once
/// (typically at attach/construction time) and update via MetricId.
class Stats {
 public:
  Stats();

  // --- Interned fast path -------------------------------------------------

  /// Registers (or finds) a counter; idempotent per name.
  MetricId RegisterCounter(const std::string& name);
  /// Registers (or finds) a histogram; idempotent per name.
  MetricId RegisterHistogram(const std::string& name);

  // Invalid handles (a process whose metrics were never registered) are
  // ignored: the guard is one well-predicted branch on the hot path.
  void Incr(MetricId id, int64_t delta = 1) {
    if (!id.valid()) return;
    std::vector<int64_t>& c = WriteShard().counters;
    if (id.index_ >= c.size()) c.resize(ResizeTo(c.size(), id.index_), 0);
    c[id.index_] += delta;
  }
  void Record(MetricId id, int64_t value) {
    if (id.valid()) WriteShard().histograms[id.index_].Add(value);
  }
  /// Merges a whole externally-accumulated histogram into `id` (used by the
  /// engine to publish metrics it keeps outside Stats during a run).
  void Merge(MetricId id, const Histogram& h) {
    if (id.valid() && h.count() > 0) WriteShard().histograms[id.index_].Merge(h);
  }
  /// Total across all shards.
  int64_t Counter(MetricId id) const;
  /// Merged view across all shards, rebuilt on each call; the reference is
  /// refreshed (not invalidated) by later calls.
  const Histogram& GetHistogram(MetricId id) const {
    return MergedAt(id.index_);
  }

  // --- Lookup by name -----------------------------------------------------

  int64_t Counter(const std::string& name) const;
  /// Returns nullptr if no histogram with that name was ever registered.
  /// The pointer stays valid across later registrations and Clear(); its
  /// contents are refreshed on each Find/Get/histograms call.
  const Histogram* FindHistogram(const std::string& name) const;

  // --- Reporting ----------------------------------------------------------

  /// Snapshot of all counters with a nonzero total, name-sorted.
  std::map<std::string, int64_t> counters() const;
  /// Snapshot of all non-empty histograms (merged across shards),
  /// name-sorted.
  std::map<std::string, const Histogram*> histograms() const;

  /// Zeroes all values. Registrations (and outstanding MetricIds) survive.
  void Clear();

  /// Multi-line human-readable dump: all nonzero counters, then all
  /// non-empty histograms with n/min/mean/p50/p95/p99/max.
  std::string ToString() const;

  /// Grows the shard set to `n`. Called by the engine as node loops are
  /// created; never shrinks. Must not race with updates (it runs during
  /// topology setup, between rounds).
  void EnsureShards(size_t n);

 private:
  struct Shard {
    std::vector<int64_t> counters;  // dense by MetricId, grown on demand
    // Sparse by MetricId: only histograms actually recorded in this shard
    // are materialized (a Histogram is ~30 KB of buckets).
    std::unordered_map<uint32_t, Histogram> histograms;
  };

  static size_t ResizeTo(size_t size, uint32_t index) {
    size_t n = size < 16 ? 16 : size * 2;
    return n > index ? n : static_cast<size_t>(index) + 1;
  }

  Shard& WriteShard() {
    const internal::ExecContext* ec = internal::Exec();
    return (ec != nullptr && ec->stats == this) ? *shards_[ec->shard]
                                                : *shards_[0];
  }

  const Histogram& MergedAt(uint32_t index) const;

  mutable std::mutex reg_mu_;  // guards the name->id maps and name vectors
  std::unordered_map<std::string, uint32_t> counter_ids_;
  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, uint32_t> histogram_ids_;
  std::vector<std::string> histogram_names_;

  std::vector<std::unique_ptr<Shard>> shards_;
  // Merge targets for reads; deque keeps FindHistogram pointers stable.
  mutable std::deque<Histogram> merged_;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_STATS_H_
