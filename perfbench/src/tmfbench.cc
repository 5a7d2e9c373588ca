// tmfbench: runs one benchmark workload and prints one JSON line with the
// run's context stamp, correctness gates, operation counts and metrics.
//
//   tmfbench --workload local-tp|dist-2pc|storm --seed N --seconds S
//            --trace 0|1 [--rev REV]
//
// perfbench/run.py builds this binary and turns its line into the
// benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: tmfbench --workload local-tp|dist-2pc|storm --seed N "
               "--seconds S --trace 0|1 [--rev REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--rev" && has_value) {
      rev = argv[++i];
    } else {
      return Usage();
    }
  }
  if (o.workload.empty() || o.seconds <= 0) return Usage();

  perfbench::RunResult r = perfbench::RunWorkload(o);
  r.stamp["git_rev"] = rev;

  std::string stamp = "{";
  for (const auto& [k, v] : r.stamp) {
    if (stamp.size() > 1) stamp += ", ";
    stamp += Quote(k) + ": " + Quote(v);
  }
  stamp += "}";
  std::string gates = "[";
  for (const auto& g : r.gates) {
    if (gates.size() > 1) gates += ", ";
    gates += "{\"name\": " + Quote(g.name) + ", \"ok\": " +
             (g.ok ? "true" : "false") + ", \"detail\": " + Quote(g.detail) + "}";
  }
  gates += "]";
  std::printf(
      "{\"stamp\": %s, \"gates\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"metrics\": %s}\n",
      stamp.c_str(), gates.c_str(), r.correct() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      perfbench::ToJson(r.metrics).c_str());
  return r.correct() ? 0 : 1;
}
