// E6 — the data-base manager's storage claims: three file organizations,
// multi-key access with automatic index maintenance, data and index
// (prefix) compression, the main-memory cache, key-range partitioning, the
// heap cost of the durable image that backs unflushed writes and of a
// key-sequenced file's B+ tree, and every file path
// through a deployed DISCPROCESS, rebuilt by ROLLFORWARD after a total node
// failure.

#include <chrono>
#include <cinttypes>

#include "bench_util.h"
#include "discprocess/disc_protocol.h"
#include "storage/bplus_tree.h"
#include "storage/file.h"
#include "storage/partition.h"
#include "storage/volume.h"
#include "test_util.h"
#include "tmf/file_system.h"
#include "tmf/rollforward.h"

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

void TableDurableImage() {
  Header("E6.f durable image: heap held for unflushed writes");
  // Banking-shaped traffic: account records updated in place, never flushed
  // (nothing forces data blocks during normal processing). The first write
  // after the flush copies the file's durable image; later writes add
  // nothing, so the cost follows the live file, not the write history.
  constexpr int kAccounts = 1000;
  constexpr int kWrites = 10000;
  Volume vol("$V");
  vol.CreateFile("acct", FileOrganization::kKeySequenced);
  apps::banking::SeedAccounts(&vol, "acct", kAccounts, /*initial=*/1000);
  Random rng(97);
  auto write = [&vol, &rng](int n) {
    for (int i = 0; i < n; ++i) {
      Record rec;
      rec.Set("balance",
              std::to_string(1000 + static_cast<int>(rng.Uniform(500))));
      vol.Mutate("acct", MutationOp::kUpdate,
                 Slice(apps::banking::AccountKey(
                     static_cast<int>(rng.Uniform(kAccounts)))),
                 Slice(rec.Encode()));
    }
  };
  write(kWrites);
  const size_t at_10k = vol.durable_bytes();
  write(kWrites);
  const size_t at_20k = vol.durable_bytes();
  const double per_record =
      static_cast<double>(at_10k) / static_cast<double>(kAccounts);
  const double growth =
      static_cast<double>(at_20k) - static_cast<double>(at_10k);
  printf("unflushed writes                    : %zu\n", vol.VolatileCount());
  printf("durable image bytes per record      : %.1f\n", per_record);
  printf("image growth, writes 10,000..20,000 : %.0f bytes\n", growth);
  ReportValue("e6.durable.bytes_per_record", per_record);
  ReportValue("e6.durable.growth_per_write", growth / kWrites);
}

void TableTreeFootprint() {
  Header("E6.h key-sequenced file: heap held per record");
  // The banking file: 100,000 accounts, a 9-byte key and a 14-byte balance
  // record each, in 4 KB blocks. Leaves keep their entries in one byte
  // segment; bytes() sums node, segment and vector capacities.
  constexpr int kAccounts = 100000;
  BPlusTree tree(4096);
  Record rec;
  rec.Set("balance", "1000");
  const Bytes balance = rec.Encode();
  for (int i = 0; i < kAccounts; ++i) {
    tree.Insert(Slice(apps::banking::AccountKey(i)), Slice(balance));
  }
  const double per_record =
      static_cast<double>(tree.bytes()) / static_cast<double>(kAccounts);
  printf("records / height / nodes      : %zu / %d / %zu\n", tree.size(),
         tree.height(), tree.node_count());
  printf("tree heap bytes per record    : %.1f\n", per_record);
  ReportValue("e6.tree.bytes_per_record", per_record);
}

/// Drives one client process's FileSystem and transaction verbs one call at
/// a time: each call runs the simulation until its reply arrives.
class FileClient {
 public:
  FileClient(sim::Simulation* sim, app::Deployment* deploy)
      : sim_(sim),
        client_(deploy->GetNode(1)->node()->Spawn<testutil::TestClient>(2)),
        fs_(client_, &deploy->catalog()) {
    sim_->Run();
  }

  uint64_t Begin() {
    auto* o = client_->CallRaw(Tmp(), tmf::kTmfBegin, {});
    sim_->Run();
    auto t = tmf::DecodeTransidPayload(Slice(o->payload));
    return t.ok() ? t->Pack() : 0;
  }
  Status End(uint64_t transid) { return Verb(tmf::kTmfEnd, transid); }
  Status Abort(uint64_t transid) { return Verb(tmf::kTmfAbort, transid); }

  /// Runs one FileSystem call under `transid`; the reply payload lands in
  /// `payload` when given.
  Status Op(uint64_t transid,
            const std::function<void(tmf::FileSystem&, tmf::FileSystem::Callback)>& op,
            Bytes* payload = nullptr) {
    Status result = Status::Timeout("no reply");
    client_->set_current_transid(transid);
    op(fs_, [&](const Status& s, const Bytes& p) {
      result = s;
      if (payload != nullptr) *payload = p;
    });
    client_->set_current_transid(0);
    sim_->Run();
    return result;
  }

 private:
  static net::Address Tmp() { return net::Address(1, "$TMP"); }
  Status Verb(uint32_t tag, uint64_t transid) {
    auto* o = client_->CallRaw(
        Tmp(), tag, tmf::EncodeTransidPayload(Transid::Unpack(transid)),
        transid);
    sim_->Run();
    return o->status;
  }

  sim::Simulation* sim_;
  testutil::TestClient* client_;
  tmf::FileSystem fs_;
};

/// Every record of every file on a volume, and the primary keys behind each
/// alternate-key value of `sites`.
std::map<std::string, std::string> VolumeImage(
    Volume* vol, const std::vector<std::string>& sites) {
  std::map<std::string, std::string> image;
  for (const char* file : {"parts", "slots", "log"}) {
    vol->Find(file)->ForEach([&](const Slice& key, const Slice& value) {
      image[std::string(file) + "/" + key.ToString()] = value.ToString();
    });
  }
  for (const auto& site : sites) {
    auto keys = vol->Find("parts")->LookupAlternate("site", site);
    std::string joined;
    if (keys.ok()) {
      for (const auto& k : *keys) joined += ToString(k) + ",";
    }
    image["parts.site/" + site] = joined;
  }
  return image;
}

void TableDeployedFilePaths() {
  Header("E6.g file paths through a deployed DISCPROCESS, then ROLLFORWARD");
  // One node whose volume holds the three organizations: "parts"
  // (key-sequenced, alternate key "site"), "slots" (relative) and "log"
  // (entry-sequenced). Each verb runs as a TMF transaction through the
  // FileSystem; the node then fails and RecoverNode rebuilds the volume
  // from its archive plus the audit trail.
  sim::Simulation sim(97);
  app::Deployment deploy(&sim);
  app::NodeSpec spec;
  spec.id = 1;
  spec.node_config.num_cpus = 4;
  FileSchema by_site;
  by_site.alternate_keys = {"site"};
  spec.volumes = {app::VolumeSpec{
      "$DATA1",
      {app::FileSpec{"parts", FileOrganization::kKeySequenced, true, by_site},
       app::FileSpec{"slots", FileOrganization::kRelative},
       app::FileSpec{"log", FileOrganization::kEntrySequenced}},
      {}}};
  app::NodeDeployment* node = deploy.AddNode(spec);
  for (const char* file : {"parts", "slots", "log"}) {
    deploy.DefineFile(file, 1, "$DATA1");
  }
  Volume* vol = node->storage().volumes.at("$DATA1").get();
  FileClient d(&sim, &deploy);

  int checks = 0, mismatches = 0;
  auto check = [&](const char* what, bool ok, const std::string& seen) {
    ++checks;
    mismatches += ok ? 0 : 1;
    printf("%-44s %-22s %s\n", what, seen.c_str(), ok ? "ok" : "MISMATCH");
  };
  auto slot = [](uint64_t n) { return EncodeRecnum(n); };
  auto part = [](int i) {
    char key[16];
    snprintf(key, sizeof(key), "p%02d", i);
    return std::string(key);
  };
  auto insert = [&d](uint64_t t, const std::string& file, const Bytes& key,
                     const std::string& value, Bytes* assigned = nullptr) {
    return d.Op(t, [&](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
      fs.Insert(file, Slice(key), Slice(value), std::move(cb));
    }, assigned);
  };
  auto update = [&d](uint64_t t, const std::string& file, const Bytes& key,
                     const std::string& value) {
    return d.Op(t, [&](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
      fs.Update(file, Slice(key), Slice(value), std::move(cb));
    });
  };
  auto erase = [&d](uint64_t t, const std::string& file, const Bytes& key) {
    return d.Op(t, [&](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
      fs.Delete(file, Slice(key), std::move(cb));
    });
  };
  // The record a positioned read lands on: its key for "parts", its value
  // for the files keyed by record number.
  auto seek = [&d](uint64_t t, const std::string& file, const Bytes& key,
                   bool inclusive) {
    Bytes payload;
    Status s = d.Op(t, [&](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
      fs.Seek(file, Slice(key), inclusive, std::move(cb));
    }, &payload);
    auto rep = discprocess::SeekReply::Decode(Slice(payload));
    if (!s.ok() || !rep.ok()) return "<" + s.ToString() + ">";
    return ToString(file == "parts" ? rep->key : rep->value);
  };
  auto site_record = [](int i, const std::string& site) {
    return Record().Set("site", site).Set("qty", std::to_string(i)).Encode();
  };

  // T1: 20 parts over four sites, slots 1..8, six log entries.
  uint64_t t = d.Begin();
  bool ok = true;
  for (int i = 0; i < 20; ++i) {
    ok &= insert(t, "parts", ToBytes(part(i)),
                 ToString(site_record(i, "site" + std::to_string(i % 4))))
              .ok();
  }
  for (uint64_t n = 1; n <= 8; ++n) {
    ok &= insert(t, "slots", slot(n), "slot-" + std::to_string(n)).ok();
  }
  std::vector<Bytes> entries(6);
  for (int i = 0; i < 6; ++i) {
    ok &= insert(t, "log", {}, "entry-" + std::to_string(i), &entries[i]).ok();
  }
  check("insert 20 parts, 8 slots, 6 log entries", ok && d.End(t).ok(),
        "committed");

  // T2: the relative and entry-sequenced paths, an exclusive key-sequenced
  // seek, an alternate-key read, a file lock and a browse scan.
  t = d.Begin();
  check("relative update slot 3",
        update(t, "slots", slot(3), "slot-3b").ok(), "updated");
  check("relative delete slot 4", erase(t, "slots", slot(4)).ok(), "deleted");
  std::string at = seek(t, "slots", slot(4), true);
  check("relative seek >= slot 4", at == "slot-5", at);
  at = seek(t, "slots", slot(5), false);
  check("relative seek > slot 5", at == "slot-6", at);
  check("entry-sequenced update entry 1",
        update(t, "log", entries[1], "entry-1b").ok(), "updated");
  const Status refused = erase(t, "log", entries[2]);
  check("entry-sequenced delete entry 2", refused.IsNotSupported(),
        "refused");
  at = seek(t, "log", entries[0], false);
  check("entry-sequenced seek > entry 0", at == "entry-1b", at);
  at = seek(t, "parts", ToBytes(part(5)), false);
  check("key-sequenced seek > p05", at == part(6), at);
  Bytes alt;
  const Status alt_status =
      d.Op(t, [](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
        fs.ReadAlternate("parts", "site", "site1", Slice(), std::move(cb));
      }, &alt);
  int alt_keys = 0;
  Slice in(alt);
  Slice pk;
  while (GetLengthPrefixed(&in, &pk)) ++alt_keys;
  check("alternate-key read site = site1", alt_status.ok() && alt_keys == 5,
        std::to_string(alt_keys) + " parts");
  check("file lock on parts",
        d.Op(t, [](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
          fs.LockFile("parts", std::move(cb));
        }).ok(), "granted");
  int scanned = 0, batches = 0;
  Bytes from;
  bool inclusive = true, at_end = false;
  while (!at_end && batches < 100) {
    Bytes payload;
    const Status s = d.Op(t, [&](tmf::FileSystem& fs, tmf::FileSystem::Callback cb) {
      fs.Scan("parts", Slice(from), inclusive, /*max_records=*/8, std::move(cb));
    }, &payload);
    auto rep = discprocess::ScanReply::Decode(Slice(payload));
    if (!s.ok() || !rep.ok()) break;
    ++batches;
    scanned += static_cast<int>(rep->entries.size());
    at_end = rep->at_end || rep->entries.empty();
    if (!rep->entries.empty()) from = rep->entries.back().key;
    inclusive = false;
  }
  check("browse scan of parts, 8 per batch", scanned == 20 && at_end,
        std::to_string(scanned) + " in " + std::to_string(batches) + " batches");
  check("commit", d.End(t).ok(), "committed");

  // T3 aborts: backout removes its log entry and part, restores slot 5.
  const auto before_abort = VolumeImage(vol, {});
  t = d.Begin();
  ok = insert(t, "log", {}, "doomed").ok() &&
       update(t, "slots", slot(5), "doomed").ok() &&
       insert(t, "parts", ToBytes(part(99)), ToString(site_record(99, "site1"))).ok();
  check("aborted append, update and insert backed out",
        ok && d.Abort(t).ok() && VolumeImage(vol, {}) == before_abort,
        "backed out");

  // Archive, then T4 commits past the archive: ROLLFORWARD redoes it.
  node->ArchiveVolumes();
  t = d.Begin();
  ok = update(t, "slots", slot(6), "slot-6b").ok() &&
       insert(t, "slots", slot(9), "slot-9").ok() &&
       insert(t, "log", {}, "entry-after-archive").ok() &&
       update(t, "parts", ToBytes(part(1)), ToString(site_record(1, "site9"))).ok();
  check("commit past the archive", ok && d.End(t).ok(), "committed");

  const std::vector<std::string> sites = {"site0", "site1", "site2", "site3",
                                          "site9"};
  const auto committed = VolumeImage(vol, sites);
  deploy.CrashNode(1);
  sim.RunFor(Millis(100));
  bool recovered = false;
  deploy.RecoverNode(1, [&recovered](const std::vector<tmf::RollforwardReport>& r) {
    recovered = r.size() == 1;
  });
  sim.RunFor(Seconds(5));
  check("records + index entries after ROLLFORWARD",
        recovered && VolumeImage(vol, sites) == committed,
        std::to_string(committed.size()) + " compared");
  printf("%d of %d checks mismatched\n", mismatches, checks);
  ReportValue("e6.g.checks", checks);
  ReportValue("e6.g.records_compared", static_cast<double>(committed.size()));
  ReportValue("e6.g.mismatches", mismatches);
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
  encompass::bench::TableDurableImage();
  encompass::bench::TableTreeFootprint();
  encompass::bench::TableBTreeWallClock();
  encompass::bench::TableDeployedFilePaths();
  encompass::bench::WriteReport();
  return 0;
}
