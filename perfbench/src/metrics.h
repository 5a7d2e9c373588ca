// Metric arithmetic shared by the workloads: percentiles of raw samples,
// per-transaction ratios, failure shares, and process-level wall/CPU/RSS
// probes. Kept free of simulator types so the math is testable on fixed
// samples.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Every metric a run reports, by name. Values are in the unit the name
/// implies (`_ms`, `_us`, `_s`, `_mb`, or a plain count/ratio).
using MetricMap = std::map<std::string, double>;

/// Percentile `p` (0..100) of `v` with linear interpolation between the two
/// closest ranks (rank = p/100 * (n-1)), the same rule as numpy's default.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// Percentile(v, 50).
double Median(std::vector<double> v);

/// `count / txns`, or 0 when no transaction committed.
double PerTxn(double count, uint64_t txns);

/// `hits / (hits + misses)`, or 0 when there was no access.
double HitRate(double hits, double misses);

/// Failed operations over attempted ones, or 0 when nothing was attempted.
double FailedShare(uint64_t failed, uint64_t attempted);

/// A growable sample of one duration or size; reports percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t count() const { return v_.size(); }
  double P(double p) const { return Percentile(v_, p); }

 private:
  std::vector<double> v_;
};

/// Seconds on a monotonic wall clock.
double WallSeconds();
/// User + system CPU seconds consumed by this process so far.
double CpuSeconds();
/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// Current resident set size of this process, in MiB.
double CurrentRssMb();

/// Samples the resident set every 2 ms on a background thread, so the peak
/// of one phase can be read without touching the kernel's high-water mark.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Starts a new phase: the peak restarts from the current size.
  void Reset();
  double PeakMb() const { return peak_mb_.load(); }

 private:
  void Raise(double mb);

  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0};
  std::thread thread_;  // last: starts after the members it reads
};

/// Renders `m` as one JSON object ({"name": value, ...}) with full
/// precision.
std::string ToJson(const MetricMap& m);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
