// E8 — the data path under load. Three measurements back the overhaul:
//
//  (a) Wall-clock engine ops/s of the restructured hot path — the interned
//      O(1) lock table plus allocation-free cache probes — against the
//      pre-PR shapes: the map-scan lock table (kept verbatim as
//      tests/reference_lock_manager.h) and the old "file\0key" string-keyed
//      cache, whose probe concatenated a fresh heap string per lookup
//      (recovered from the original Volume). Both sides replay the identical
//      pre-generated operation stream; only the data structures differ.
//  (b) Simulated-time mirror scheduling: with overlap_mirror_reads on,
//      concurrent reads spread over both drives of the mirrored pair. The
//      overlap factor is the makespan ratio of the same read batch on one
//      drive (mirror failed) vs two.
//  (c) Checkpoint coalescing: messages vs entries per operation across a
//      ckpt_coalesce_window sweep — the same state deltas ride in far fewer
//      primary-to-backup messages.
//
// Headline numbers land in BENCH_e8_data_path.json; CI enforces the
// read-heavy speedup floor and the coalescing message-reduction floor.

#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "discprocess/disc_process.h"
#include "discprocess/disc_protocol.h"
#include "discprocess/lock_manager.h"
#include "os/cluster.h"
#include "os/process_pair.h"
#include "reference_lock_manager.h"
#include "storage/volume.h"
#include "test_util.h"

namespace encompass::bench {
namespace {

using discprocess::DiscProcess;
using discprocess::DiscProcessConfig;
using discprocess::DiscRequest;
using discprocess::DiscTxnState;
using discprocess::kDiscInsert;
using discprocess::kDiscRead;
using discprocess::kDiscTxnStateChange;
using discprocess::LockKey;
using discprocess::LockManager;
using discprocess::ReferenceLockManager;
using discprocess::TxnStateChange;
using testutil::TestClient;

Transid T(uint64_t seq) { return Transid{1, 0, seq}; }

// ---------------------------------------------------------------------------
// E8.a — wall-clock engine A/B: new data path vs pre-PR shapes
// ---------------------------------------------------------------------------

/// The pre-PR cache shape: an LRU of "file\0key" strings where every probe
/// builds a fresh key string (one heap allocation + copy) before the hash
/// lookup. This is the exact structure the Volume used before interning.
class LegacyCacheShape {
 public:
  void Insert(const std::string& file, const std::string& key) {
    std::string ck = Concat(file, key);
    auto it = map_.find(ck);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(ck);
    map_[std::move(ck)] = lru_.begin();
  }

  bool Probe(const std::string& file, const std::string& key) {
    auto it = map_.find(Concat(file, key));
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

 private:
  static std::string Concat(const std::string& file, const std::string& key) {
    std::string ck = file;
    ck.push_back('\0');
    ck.append(key);
    return ck;
  }

  std::list<std::string> lru_;
  std::unordered_map<std::string, std::list<std::string>::iterator> map_;
};

/// The production cache shape: records keyed by (interned file id, key
/// view); a probe hashes a string_view into the resident key — no
/// allocation, no copy. Mirrors storage::Volume's internal cache exactly
/// (the Volume's own is private; DriveScheduleTest and VolumeCacheTest cover
/// it end to end, this standalone copy isolates probe cost).
class InternedCacheShape {
 public:
  uint32_t Intern(const std::string& file) {
    auto [it, inserted] =
        ids_.try_emplace(file, static_cast<uint32_t>(ids_.size()));
    return it->second;
  }

  void Insert(uint32_t fid, const std::string& key) {
    if (Probe(fid, key)) return;
    lru_.push_front(Entry{fid, key});
    map_.emplace(Ref{fid, std::string_view(lru_.front().key)}, lru_.begin());
  }

  bool Probe(uint32_t fid, std::string_view key) {
    auto it = map_.find(Ref{fid, key});
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

 private:
  struct Entry {
    uint32_t fid;
    std::string key;
  };
  struct Ref {
    uint32_t fid;
    std::string_view key;
    bool operator==(const Ref& o) const {
      return fid == o.fid && key == o.key;
    }
  };
  struct RefHash {
    size_t operator()(const Ref& r) const {
      return std::hash<std::string_view>()(r.key) ^
             static_cast<size_t>(r.fid * 0x9e3779b97f4a7c15ULL);
    }
  };

  std::list<Entry> lru_;
  std::unordered_map<Ref, std::list<Entry>::iterator, RefHash> map_;
  std::unordered_map<std::string, uint32_t> ids_;
};

/// One data-path operation of the replayed stream. Lock keys are pre-built
/// so replay measures the engines, not request decoding (which is identical
/// on both sides).
struct DataPathOp {
  enum Kind : uint8_t { kCacheProbe, kLockAcquire, kReleaseAll } kind;
  uint32_t txn = 0;
  uint32_t file = 0;
  uint32_t key = 0;
  LockKey lock_key;
};

struct WorkloadSpec {
  const char* name;
  int probe_pct;      ///< cache probe (read hit path)
  int acquire_pct;    ///< record-lock acquire
  int file_lock_pct;  ///< file-granularity acquire
  // remainder: ReleaseAll (commit)
  int txns;
  int files;
  int keys_per_file;
};

constexpr WorkloadSpec kReadHeavy = {"read-heavy", 64, 31, 1, 48, 8, 768};
constexpr WorkloadSpec kWriteHeavy = {"write-heavy", 25, 55, 2, 32, 8, 512};
constexpr WorkloadSpec kHotFile = {"hot-file", 50, 38, 6, 24, 1, 256};

/// Shared string tables: both engines index into the same pre-built names,
/// as both pre- and post-PR servers held decoded request strings in hand.
struct StringTables {
  std::vector<std::string> files;
  std::vector<std::string> keys;
};

StringTables MakeTables(const WorkloadSpec& spec) {
  StringTables t;
  for (int f = 0; f < spec.files; ++f) t.files.push_back("f" + std::to_string(f));
  for (int k = 0; k < spec.keys_per_file; ++k) {
    t.keys.push_back("key" + std::to_string(k));
  }
  return t;
}

std::vector<DataPathOp> MakeStream(const WorkloadSpec& spec,
                                   const StringTables& tables, uint64_t seed,
                                   int ops) {
  Random rng(seed);
  std::vector<DataPathOp> stream;
  stream.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    DataPathOp op;
    op.txn = 1 + static_cast<uint32_t>(rng.Uniform(spec.txns));
    op.file = static_cast<uint32_t>(rng.Uniform(spec.files));
    op.key = static_cast<uint32_t>(rng.Uniform(spec.keys_per_file));
    const uint64_t dice = rng.Uniform(100);
    if (dice < static_cast<uint64_t>(spec.probe_pct)) {
      op.kind = DataPathOp::kCacheProbe;
    } else if (dice <
               static_cast<uint64_t>(spec.probe_pct + spec.acquire_pct)) {
      op.kind = DataPathOp::kLockAcquire;
      op.lock_key = LockKey{tables.files[op.file], ToBytes(tables.keys[op.key])};
    } else if (dice < static_cast<uint64_t>(spec.probe_pct + spec.acquire_pct +
                                            spec.file_lock_pct)) {
      op.kind = DataPathOp::kLockAcquire;
      op.lock_key = LockKey{tables.files[op.file], {}};
    } else {
      op.kind = DataPathOp::kReleaseAll;
    }
    stream.push_back(std::move(op));
  }
  return stream;
}

/// Replays the stream on the production engines. Returns a checksum so the
/// optimizer cannot drop the work.
int64_t ReplayNew(const StringTables& tables,
                  const std::vector<DataPathOp>& stream) {
  LockManager lm;
  InternedCacheShape cache;
  std::vector<uint32_t> fids;
  for (const auto& f : tables.files) fids.push_back(cache.Intern(f));
  for (uint32_t fid : fids) {
    for (const auto& k : tables.keys) cache.Insert(fid, k);
  }
  int64_t acc = 0;
  for (const auto& op : stream) {
    switch (op.kind) {
      case DataPathOp::kCacheProbe:
        acc += cache.Probe(fids[op.file], tables.keys[op.key]) ? 1 : 0;
        break;
      case DataPathOp::kLockAcquire:
        acc += lm.Acquire(T(op.txn), op.lock_key) ==
                       LockManager::AcquireResult::kGranted
                   ? 1
                   : 0;
        break;
      case DataPathOp::kReleaseAll:
        acc += static_cast<int64_t>(lm.ReleaseAll(T(op.txn)).size());
        break;
    }
  }
  return acc;
}

/// Replays the stream on the pre-PR shapes.
int64_t ReplayReference(const StringTables& tables,
                        const std::vector<DataPathOp>& stream) {
  ReferenceLockManager lm;
  LegacyCacheShape cache;
  for (const auto& f : tables.files) {
    for (const auto& k : tables.keys) cache.Insert(f, k);
  }
  int64_t acc = 0;
  for (const auto& op : stream) {
    switch (op.kind) {
      case DataPathOp::kCacheProbe:
        acc += cache.Probe(tables.files[op.file], tables.keys[op.key]) ? 1 : 0;
        break;
      case DataPathOp::kLockAcquire:
        acc += lm.Acquire(T(op.txn), op.lock_key) ==
                       ReferenceLockManager::AcquireResult::kGranted
                   ? 1
                   : 0;
        break;
      case DataPathOp::kReleaseAll:
        acc += static_cast<int64_t>(lm.ReleaseAll(T(op.txn)).size());
        break;
    }
  }
  return acc;
}

void TableEngineAB() {
  Header("E8.a engine ops/s — new data path vs pre-PR shapes (wall clock)");
  printf("%12s %8s %14s %14s %9s\n", "workload", "ops", "new ops/s",
         "pre-PR ops/s", "speedup");
  constexpr int kOps = 300000;
  for (const WorkloadSpec& spec : {kReadHeavy, kWriteHeavy, kHotFile}) {
    StringTables tables = MakeTables(spec);
    std::vector<DataPathOp> stream = MakeStream(spec, tables, 801, kOps);
    double new_ops =
        OpsPerSec([&] { return ReplayNew(tables, stream); }, kOps);
    double ref_ops =
        OpsPerSec([&] { return ReplayReference(tables, stream); }, kOps);
    // Same stream, both engines: the diff test proves behavior identical, so
    // verify the checksums agree here too (free end-to-end cross-check).
    if (ReplayNew(tables, stream) != ReplayReference(tables, stream)) {
      printf("!! %s: engines disagree on the replay checksum\n", spec.name);
    }
    double speedup = ref_ops > 0 ? new_ops / ref_ops : 0;
    printf("%12s %8d %14.0f %14.0f %8.2fx\n", spec.name, kOps, new_ops,
           ref_ops, speedup);
    std::string prefix = "e8." + std::string(spec.name);
    for (auto& c : prefix) {
      if (c == '-') c = '_';
    }
    ReportValue(prefix + ".new_ops_per_sec", new_ops);
    ReportValue(prefix + ".ref_ops_per_sec", ref_ops);
    ReportValue(prefix + ".speedup", speedup);
  }
  printf("(pre-PR = map-scan lock table + \"file\\0key\" string-alloc cache\n"
         " probes; both sides replay the identical operation stream)\n");
}

// ---------------------------------------------------------------------------
// E8.b — mirror read-either scheduling (simulated time)
// ---------------------------------------------------------------------------

/// A single-node DISCPROCESS rig whose volume is pre-seeded with records and
/// flushed, so reads are physical when the cache is sized to miss.
struct ReadRig {
  static constexpr int kRecords = 64;

  ReadRig(size_t cache_capacity, bool overlap, bool single_drive)
      : sim(11), cluster(&sim), volume("$DATA1", CacheCfg(cache_capacity)) {
    node = cluster.AddNode(1);
    EXPECT_OK(volume.CreateFile("acct",
                                storage::FileOrganization::kKeySequenced));
    for (int i = 0; i < kRecords; ++i) {
      volume.Mutate("acct", storage::MutationOp::kInsert, Slice(Key(i)),
                    Slice("balance"));
    }
    volume.Flush();
    if (single_drive) volume.FailDrive(1);
    DiscProcessConfig dcfg;
    dcfg.volume = &volume;
    dcfg.overlap_mirror_reads = overlap;
    disc = os::SpawnPair<DiscProcess>(node, "$DATA1", 0, 1, dcfg);
    client = node->Spawn<TestClient>(2);
    sim.Run();
  }

  static storage::VolumeConfig CacheCfg(size_t capacity) {
    storage::VolumeConfig cfg;
    cfg.cache_capacity = capacity;
    return cfg;
  }

  static std::string Key(int i) { return "r" + std::to_string(i); }

  static void EXPECT_OK(const Status& s) {
    if (!s.ok()) printf("!! rig setup: %s\n", s.ToString().c_str());
  }

  /// Issues the reads pipelined, runs to quiescence, returns the makespan.
  SimDuration RunReads(const std::vector<int>& key_indices) {
    SimTime start = sim.Now();
    std::vector<TestClient::Outcome*> outcomes;
    os::CallOptions opt;
    opt.timeout = Seconds(600);
    for (int idx : key_indices) {
      DiscRequest rd;
      rd.file = "acct";
      rd.key = ToBytes(Key(idx));
      outcomes.push_back(client->CallRaw(net::Address(1, "$DATA1"), kDiscRead,
                                         rd.Encode(), 0, opt));
    }
    sim.Run();
    for (auto* r : outcomes) {
      if (!r->done || !r->status.ok()) {
        printf("!! read failed: %s\n", r->status.ToString().c_str());
        break;
      }
    }
    return sim.Now() - start;
  }

  sim::Simulation sim;
  os::Cluster cluster;
  os::Node* node;
  storage::Volume volume;
  os::PairHandles<DiscProcess> disc;
  TestClient* client;
};

void TableMirrorScheduling() {
  Header("E8.b mirror read-either scheduling (128 pipelined physical reads)");
  std::vector<int> keys;
  for (int i = 0; i < 128; ++i) keys.push_back(i % ReadRig::kRecords);

  // Cache capacity 1: every read of the cycling key sequence is physical.
  ReadRig two_drives(1, /*overlap=*/true, /*single_drive=*/false);
  ReadRig one_drive(1, /*overlap=*/true, /*single_drive=*/true);
  ReadRig legacy(1, /*overlap=*/false, /*single_drive=*/false);

  double ms_two = static_cast<double>(two_drives.RunReads(keys)) / 1e3;
  double ms_one = static_cast<double>(one_drive.RunReads(keys)) / 1e3;
  double ms_legacy = static_cast<double>(legacy.RunReads(keys)) / 1e3;
  double overlap_factor = ms_two > 0 ? ms_one / ms_two : 0;

  printf("%28s %14s\n", "configuration", "makespan(ms)");
  printf("%28s %14.1f\n", "overlap on, both drives", ms_two);
  printf("%28s %14.1f\n", "overlap on, mirror failed", ms_one);
  printf("%28s %14.1f\n", "legacy flat charging", ms_legacy);
  printf("mirror read overlap factor (1-drive / 2-drive makespan): %.2fx\n",
         overlap_factor);
  printf("reads per drive (2-drive rig): drive0=%lld drive1=%lld\n",
         static_cast<long long>(two_drives.volume.drive_reads(0)),
         static_cast<long long>(two_drives.volume.drive_reads(1)));
  printf("(legacy charges a flat per-op latency — load-independent, so its\n"
         " makespan reflects infinite disc parallelism, not a faster disc)\n");

  ReportValue("e8.mirror.makespan_two_drives_ms", ms_two);
  ReportValue("e8.mirror.makespan_one_drive_ms", ms_one);
  ReportValue("e8.mirror.makespan_legacy_ms", ms_legacy);
  ReportValue("e8.mirror.overlap_factor", overlap_factor);
  ReportValue("e8.mirror.drive0_reads",
              static_cast<double>(two_drives.volume.drive_reads(0)));
  ReportValue("e8.mirror.drive1_reads",
              static_cast<double>(two_drives.volume.drive_reads(1)));
  ReportSimStats("e8sim_mirror", two_drives.sim.GetStats());
}

void TableCacheHitRate() {
  Header("E8.c volume cache hit rate (skewed read-heavy, cache 32 of 64)");
  ReadRig rig(32, /*overlap=*/false, /*single_drive=*/false);
  Random rng(97);
  std::vector<int> keys;
  for (int i = 0; i < 1500; ++i) {
    keys.push_back(static_cast<int>(rng.Skewed(ReadRig::kRecords, 0.9)));
  }
  rig.RunReads(keys);
  const double hits = static_cast<double>(rig.volume.cache_hits());
  const double misses = static_cast<double>(rig.volume.cache_misses());
  const double rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  printf("reads=%zu hits=%.0f misses=%.0f hit-rate=%.3f\n", keys.size(), hits,
         misses, rate);
  ReportValue("e8.cache.hits", hits);
  ReportValue("e8.cache.misses", misses);
  ReportValue("e8.cache.hit_rate", rate);
}

// ---------------------------------------------------------------------------
// E8.d — checkpoint coalescing (simulated time)
// ---------------------------------------------------------------------------

/// Self-contained primary/backup rig mirroring the one in
/// disc_process_test.cc, sized for a message-count sweep.
struct CoalesceRig {
  explicit CoalesceRig(SimDuration window)
      : sim(7), cluster(&sim), volume("$DATA9") {
    node = cluster.AddNode(1);
    ReadRig::EXPECT_OK(volume.CreateFile(
        "acct", storage::FileOrganization::kKeySequenced));
    DiscProcessConfig dcfg;
    dcfg.volume = &volume;
    dcfg.ckpt_coalesce_window = window;
    disc = os::SpawnPair<DiscProcess>(node, "$DATA9", 0, 1, dcfg);
    client = node->Spawn<TestClient>(2);
    sim.Run();
  }

  /// Runs `n` pipelined inserts under one transaction, then commits.
  void RunInserts(int n) {
    std::vector<TestClient::Outcome*> outcomes;
    os::CallOptions opt;
    opt.timeout = Seconds(600);
    for (int i = 0; i < n; ++i) {
      DiscRequest ins;
      ins.file = "acct";
      ins.key = ToBytes("k" + std::to_string(i));
      ins.record = ToBytes("v");
      outcomes.push_back(client->CallRaw(net::Address(1, "$DATA9"),
                                         kDiscInsert, ins.Encode(),
                                         Transid{1, 0, 9}.Pack(), opt));
    }
    sim.Run();
    for (auto* r : outcomes) {
      if (!r->done || !r->status.ok()) {
        printf("!! insert failed: %s\n", r->status.ToString().c_str());
        break;
      }
    }
    TxnStateChange change;
    change.transid = Transid{1, 0, 9};
    change.state = DiscTxnState::kEnded;
    client->SendRaw(net::Address(1, "$DATA9"), kDiscTxnStateChange,
                    change.Encode());
    sim.Run();
  }

  int64_t Messages() { return sim.GetStats().Counter("disc.ckpt_messages"); }
  int64_t Entries() { return sim.GetStats().Counter("disc.ckpt_entries"); }

  sim::Simulation sim;
  os::Cluster cluster;
  os::Node* node;
  storage::Volume volume;
  os::PairHandles<DiscProcess> disc;
  TestClient* client;
};

void TableCheckpointCoalescing() {
  Header("E8.d checkpoint coalescing window sweep (200 inserts + commit)");
  constexpr int kInserts = 200;
  printf("%12s %10s %10s %10s %10s\n", "window(ms)", "messages", "entries",
         "msgs/op", "entries/op");
  double msgs_window0 = 0, msgs_window5 = 0;
  int64_t entries_window0 = 0;
  for (SimDuration window : {SimDuration(0), Millis(1), Millis(5)}) {
    CoalesceRig rig(window);
    rig.RunInserts(kInserts);
    const double msgs_per_op =
        static_cast<double>(rig.Messages()) / kInserts;
    printf("%12.1f %10lld %10lld %10.2f %10.2f\n",
           static_cast<double>(window) / 1e3,
           static_cast<long long>(rig.Messages()),
           static_cast<long long>(rig.Entries()), msgs_per_op,
           static_cast<double>(rig.Entries()) / kInserts);
    if (window == 0) {
      msgs_window0 = static_cast<double>(rig.Messages());
      entries_window0 = rig.Entries();
      ReportValue("e8.ckpt.window0.messages", msgs_window0);
      ReportValue("e8.ckpt.window0.entries",
                  static_cast<double>(rig.Entries()));
      ReportValue("e8.ckpt.window0.msgs_per_op", msgs_per_op);
    } else if (window == Millis(5)) {
      msgs_window5 = static_cast<double>(rig.Messages());
      ReportValue("e8.ckpt.window5ms.messages", msgs_window5);
      ReportValue("e8.ckpt.window5ms.entries",
                  static_cast<double>(rig.Entries()));
      ReportValue("e8.ckpt.window5ms.msgs_per_op", msgs_per_op);
      if (rig.Entries() != entries_window0) {
        printf("!! entry counts differ across windows (%lld vs %lld)\n",
               static_cast<long long>(entries_window0),
               static_cast<long long>(rig.Entries()));
      }
    }
  }
  const double reduction =
      msgs_window5 > 0 ? msgs_window0 / msgs_window5 : 0;
  printf("message reduction (window 0 / window 5 ms): %.2fx\n", reduction);
  ReportValue("e8.ckpt.msg_reduction", reduction);
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e8_data_path");
  encompass::bench::ReportMeta(/*seed=*/97);
  printf("E8: data path — lock table, cache, mirror schedule, coalescing\n");
  encompass::bench::TableEngineAB();
  encompass::bench::TableMirrorScheduling();
  encompass::bench::TableCacheHitRate();
  encompass::bench::TableCheckpointCoalescing();
  encompass::bench::WriteReport();
  return 0;
}
