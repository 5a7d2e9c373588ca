#include "metrics.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double lo_v = v[lo];
  if (hi == lo) return lo_v;
  // The (lo+1)-th smallest is the minimum of the part nth_element left
  // above position lo.
  const double hi_v =
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  return lo_v + (hi_v - lo_v) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PerTxn(double count, uint64_t txns) {
  return txns == 0 ? 0.0 : count / static_cast<double>(txns);
}

double HitRate(double hits, double misses) {
  const double total = hits + misses;
  return total <= 0 ? 0.0 : hits / total;
}

double FailedShare(uint64_t failed, uint64_t attempted) {
  return attempted == 0
             ? 0.0
             : static_cast<double>(failed) / static_cast<double>(attempted);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

RssSampler::RssSampler()
    : peak_mb_(CurrentRssMb()), thread_([this] {
        while (!stop_.load()) {
          Raise(CurrentRssMb());
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

void RssSampler::Reset() { peak_mb_.store(CurrentRssMb()); }

void RssSampler::Raise(double mb) {
  double seen = peak_mb_.load();
  while (mb > seen && !peak_mb_.compare_exchange_weak(seen, mb)) {
  }
}

std::string ToJson(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": ";
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += buf;
    } else {
      out += "null";
    }
  }
  return out + "}";
}

}  // namespace perfbench
