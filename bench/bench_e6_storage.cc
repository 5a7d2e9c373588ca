// E6 — the data-base manager's storage claims: three file organizations,
// multi-key access with automatic index maintenance, data and index
// (prefix) compression, the main-memory cache, key-range partitioning, and
// the heap cost of the volatile (unflushed-write) ledger.

#include <chrono>
#include <cinttypes>

#include "bench_util.h"
#include "storage/bplus_tree.h"
#include "storage/file.h"
#include "storage/partition.h"
#include "storage/volume.h"

namespace encompass::bench {
namespace {

using namespace encompass::storage;

void TableOrganizations() {
  Header("E6.a file organizations: 10k inserts + point reads + full scan");
  printf("%-18s %12s %12s %12s\n", "organization", "inserted", "read ok",
         "scanned");
  for (auto org : {FileOrganization::kKeySequenced, FileOrganization::kRelative,
                   FileOrganization::kEntrySequenced}) {
    auto file = MakeFile(org, "f", {});
    int inserted = 0;
    std::vector<Bytes> keys;
    for (int i = 0; i < 10000; ++i) {
      Bytes key = org == FileOrganization::kEntrySequenced
                      ? Bytes{}
                      : EncodeRecnum(static_cast<uint64_t>(i));
      Bytes assigned;
      if (file->Insert(Slice(key), Slice("record-" + std::to_string(i)),
                       &assigned)
              .ok()) {
        ++inserted;
        keys.push_back(assigned);
      }
    }
    int reads = 0;
    for (const auto& key : keys) {
      reads += file->Read(Slice(key)).ok() ? 1 : 0;
    }
    size_t scanned = 0;
    file->ForEach([&scanned](const Slice&, const Slice&) { ++scanned; });
    printf("%-18s %12d %12d %12zu\n", FileOrganizationName(org), inserted,
           reads, scanned);
  }
}

void TableCompression() {
  Header("E6.b prefix compression ratio by key pattern (5k records)");
  printf("%-34s %14s\n", "key pattern", "archive/raw");
  struct Pattern {
    const char* name;
    std::function<std::string(int)> make;
  };
  const Pattern patterns[] = {
      {"long shared prefix (\"order/2026/..\")",
       [](int i) { return "order/2026/region-west/item" + std::to_string(i); }},
      {"short keys, no prefix",
       [](int i) { return std::to_string((i * 2654435761u) % 100000); }},
      {"sequential numeric",
       [](int i) {
         char buf[16];
         snprintf(buf, sizeof(buf), "%010d", i);
         return std::string(buf);
       }},
  };
  for (const auto& p : patterns) {
    KeySequencedFile file("f", {});
    for (int i = 0; i < 5000; ++i) {
      file.Insert(Slice(p.make(i)), Slice("v"), nullptr);
    }
    printf("%-34s %14.2f\n", p.name, file.CompressionRatio());
  }
}

void TableCache() {
  Header("E6.c cache hit rate vs capacity (10k records, zipf reads)");
  printf("%12s %12s %14s\n", "capacity", "hit rate", "physical reads");
  for (size_t capacity : {64, 512, 4096, 16384}) {
    VolumeConfig cfg;
    cfg.cache_capacity = capacity;
    Volume vol("$V", cfg);
    vol.CreateFile("f", FileOrganization::kKeySequenced);
    for (int i = 0; i < 10000; ++i) {
      vol.Mutate("f", MutationOp::kInsert, Slice("k" + std::to_string(i)),
                 Slice("v"));
    }
    vol.Flush();
    // Cold cache, then skewed reads.
    Bytes image = vol.Archive();
    Volume cold("$V", cfg);
    cold.RestoreFromArchive(Slice(image));
    Random rng(97);
    for (int i = 0; i < 50000; ++i) {
      auto k = "k" + std::to_string(rng.Skewed(10000, 0.9));
      cold.ReadRecord("f", Slice(k));
    }
    double hits = static_cast<double>(cold.cache_hits());
    double total = hits + static_cast<double>(cold.cache_misses());
    printf("%12zu %11.1f%% %14lld\n", capacity, 100.0 * hits / total,
           (long long)cold.physical_reads());
  }
}

void TableIndexOverheadAndPartitioning() {
  Header("E6.d alternate keys and partitioning");
  // Index maintenance overhead (wall clock, relative).
  {
    auto t0 = std::chrono::steady_clock::now();
    KeySequencedFile plain("f", {});
    for (int i = 0; i < 20000; ++i) {
      plain.Insert(Slice("k" + std::to_string(i)),
                   Slice(Record().Set("site", "x").Encode()), nullptr);
    }
    auto t1 = std::chrono::steady_clock::now();
    FileOptions opt;
    opt.schema.alternate_keys = {"site"};
    KeySequencedFile indexed("f", opt);
    for (int i = 0; i < 20000; ++i) {
      indexed.Insert(
          Slice("k" + std::to_string(i)),
          Slice(Record().Set("site", "site" + std::to_string(i % 4)).Encode()),
          nullptr);
    }
    auto t2 = std::chrono::steady_clock::now();
    double base = std::chrono::duration<double>(t1 - t0).count();
    double with = std::chrono::duration<double>(t2 - t1).count();
    printf("insert overhead of 1 alternate key : %.2fx\n",
           base > 0 ? with / base : 0.0);
    printf("alternate-key lookup (site1)       : %zu records\n",
           indexed.LookupAlternate("site", "site1")->size());
  }
  // Partition routing.
  {
    PartitionMap map;
    map.AddPartition(ToBytes("h"), 1, "$DATA1");
    map.AddPartition(ToBytes("p"), 2, "$DATA2");
    map.AddPartition({}, 3, "$DATA3");
    int counts[3] = {0, 0, 0};
    Random rng(101);
    for (int i = 0; i < 10000; ++i) {
      std::string key(1, static_cast<char>('a' + rng.Uniform(26)));
      counts[map.LocateIndex(Slice(key))]++;
    }
    printf("partition routing of 10k uniform keys: %d / %d / %d\n", counts[0],
           counts[1], counts[2]);
  }
}

void TableVolatileLedger() {
  Header("E6.f volatile ledger: heap held per unflushed write");
  // Banking-shaped traffic: account records updated in place, never flushed
  // (nothing forces data blocks during normal processing).
  constexpr int kAccounts = 1000;
  constexpr int kWrites = 10000;
  Volume vol("$V");
  vol.CreateFile("acct", FileOrganization::kKeySequenced);
  apps::banking::SeedAccounts(&vol, "acct", kAccounts, /*initial=*/1000);
  Random rng(97);
  for (int i = 0; i < kWrites; ++i) {
    Record rec;
    rec.Set("balance", std::to_string(1000 + static_cast<int>(rng.Uniform(500))));
    vol.Mutate("acct", MutationOp::kUpdate,
               Slice(apps::banking::AccountKey(
                   static_cast<int>(rng.Uniform(kAccounts)))),
               Slice(rec.Encode()));
  }
  const double per_write = static_cast<double>(vol.ledger_bytes()) /
                           static_cast<double>(vol.VolatileCount());
  printf("unflushed writes              : %zu\n", vol.VolatileCount());
  printf("ledger heap bytes per write   : %.1f\n", per_write);
  ReportValue("e6.ledger.bytes_per_write", per_write);
}

/// Builds a 4 KB-block tree of `n` records "<prefix><i>" -> "value".
BPlusTree MakeTree(int n, const std::string& prefix = "key") {
  BPlusTree tree(4096);
  for (int i = 0; i < n; ++i) {
    tree.Insert(Slice(prefix + std::to_string(i)), Slice("value"));
  }
  return tree;
}

void TableBTreeWallClock() {
  Header("E6.e B+ tree throughput (wall clock, best of 3; not gated)");
  printf("%-26s %16s\n", "operation", "per second");
  auto row = [](const std::string& key, const char* unit, double rate) {
    printf("%-26s %16.0f %s\n", key.c_str(), rate, unit);
    ReportValue("wall.e6." + key + "." + unit + "_per_sec", rate);
  };
  for (int n : {1000, 10000, 100000}) {
    row("insert.n" + std::to_string(n), "ops", OpsPerSec([n] {
          return static_cast<int64_t>(MakeTree(n).size());
        }, n));
  }
  constexpr int kGets = 100000;
  for (int n : {10000, 100000}) {
    BPlusTree tree = MakeTree(n);
    row("get.n" + std::to_string(n), "ops", OpsPerSec([&tree, n] {
          Random rng(1);
          int64_t found = 0;
          for (int i = 0; i < kGets; ++i) {
            found += tree.Get(Slice("key" + std::to_string(rng.Uniform(n))))
                         .ok() ? 1 : 0;
          }
          return found;
        }, kGets));
  }
  {
    BPlusTree tree = MakeTree(100000);
    row("scan.n100000", "records", OpsPerSec([&tree] {
          int64_t n = 0;
          tree.ForEach([&n](const Slice&, const Slice&) { ++n; });
          return n;
        }, 100000));
  }
  {
    BPlusTree tree = MakeTree(50000, "shared/prefix/key");
    row("serialize.n50000", "bytes", OpsPerSec([&tree] {
          Bytes out;
          tree.SerializeTo(&out);
          return static_cast<int64_t>(out.size());
        }, static_cast<int64_t>(tree.UncompressedDataSize())));
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e6_storage");
  encompass::bench::ReportMeta(/*seed=*/97);
  printf("E6: storage — organizations, compression, cache, partitioning\n");
  encompass::bench::TableOrganizations();
  encompass::bench::TableCompression();
  encompass::bench::TableCache();
  encompass::bench::TableIndexOverheadAndPartitioning();
  encompass::bench::TableVolatileLedger();
  encompass::bench::TableBTreeWallClock();
  encompass::bench::WriteReport();
  return 0;
}
