// Tests for the storage substrate: records, B+tree, the three file
// organizations, secondary indices, volumes (cache, mirroring, durability
// boundary, archive), and partition maps.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "apps/banking/banking.h"
#include "common/random.h"
#include "storage/bplus_tree.h"
#include "storage/file.h"
#include "storage/partition.h"
#include "storage/record.h"
#include "storage/volume.h"

namespace encompass::storage {
namespace {

// ---------------------------------------------------------------------------
// Record
// ---------------------------------------------------------------------------

TEST(RecordTest, SetGetAndEncodeDecode) {
  Record r;
  r.Set("part", "X100").Set("qty", "25").Set("desc", "widget");
  EXPECT_EQ(r.Get("part"), "X100");
  EXPECT_EQ(r.Get("missing"), "");
  EXPECT_TRUE(r.Has("qty"));
  auto decoded = Record::Decode(Slice(r.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, r);
}

TEST(RecordTest, EncodeIsDeterministic) {
  Record a, b;
  a.Set("z", "1").Set("a", "2");
  b.Set("a", "2").Set("z", "1");
  EXPECT_EQ(a.Encode(), b.Encode());
}

TEST(RecordTest, DecodeRejectsGarbage) {
  Bytes garbage = ToBytes("\xff\xff\xff\xffnot-a-record");
  EXPECT_FALSE(Record::Decode(Slice(garbage)).ok());
}

TEST(RecordTest, EmptyRecordRoundTrip) {
  Record r;
  auto decoded = Record::Decode(Slice(r.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->field_count(), 0u);
}

// ---------------------------------------------------------------------------
// BPlusTree: basic semantics
// ---------------------------------------------------------------------------

TEST(BPlusTreeTest, InsertGetDelete) {
  BPlusTree t;
  EXPECT_TRUE(t.Insert(Slice("k1"), Slice("v1")).ok());
  EXPECT_TRUE(t.Insert(Slice("k2"), Slice("v2")).ok());
  EXPECT_TRUE(t.Insert(Slice("k1"), Slice("dup")).IsAlreadyExists());
  auto g = t.Get(Slice("k1"));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(ToString(*g), "v1");
  EXPECT_TRUE(t.Delete(Slice("k1")).ok());
  EXPECT_TRUE(t.Get(Slice("k1")).status().IsNotFound());
  EXPECT_TRUE(t.Delete(Slice("k1")).IsNotFound());
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTreeTest, UpdateSemantics) {
  BPlusTree t;
  EXPECT_TRUE(t.Update(Slice("k"), Slice("v")).IsNotFound());
  t.Insert(Slice("k"), Slice("v"));
  EXPECT_TRUE(t.Update(Slice("k"), Slice("v2")).ok());
  EXPECT_EQ(ToString(*t.Get(Slice("k"))), "v2");
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTreeTest, SeekSemantics) {
  BPlusTree t;
  for (const char* k : {"b", "d", "f"}) t.Insert(Slice(k), Slice(k));
  auto r = t.Seek(Slice("c"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(r->key), "d");
  r = t.Seek(Slice("d"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(r->key), "d");  // inclusive
  r = t.SeekAfter(Slice("d"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(r->key), "f");  // exclusive
  EXPECT_TRUE(t.Seek(Slice("g")).status().IsEndOfFile());
  r = t.Seek(Slice(""));  // the smallest entry
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(r->key), "b");
}

TEST(BPlusTreeTest, EmptyTreeBehaviour) {
  BPlusTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 1);
  EXPECT_TRUE(t.Get(Slice("x")).status().IsNotFound());
  EXPECT_TRUE(t.Seek(Slice("")).status().IsEndOfFile());
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree t(/*block_size=*/256);
  for (int i = 0; i < 500; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    ASSERT_TRUE(t.Insert(Slice(key, 8), Slice("value")).ok());
  }
  EXPECT_EQ(t.size(), 500u);
  EXPECT_GT(t.height(), 1);
  EXPECT_GT(t.node_count(), 1u);
  // All still retrievable and in order.
  std::string prev;
  size_t seen = 0;
  t.ForEach([&](const Slice& k, const Slice&) {
    EXPECT_LT(Slice(prev).Compare(k), 0);
    prev = k.ToString();
    ++seen;
  });
  EXPECT_EQ(seen, 500u);
}

TEST(BPlusTreeTest, SerializeDeserializeRoundTrip) {
  BPlusTree t(512);
  for (int i = 0; i < 200; ++i) {
    std::string k = "prefix/shared/key" + std::to_string(10000 + i);
    t.Insert(Slice(k), Slice("val" + std::to_string(i)));
  }
  Bytes image;
  t.SerializeTo(&image);
  // Shared prefixes compress well below the raw size.
  EXPECT_LT(image.size(), t.UncompressedDataSize());
  Slice in(image);
  auto restored = BPlusTree::Deserialize(&in, 512);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(in.empty());  // consumed exactly
  EXPECT_EQ((*restored)->size(), 200u);
  for (int i = 0; i < 200; ++i) {
    std::string k = "prefix/shared/key" + std::to_string(10000 + i);
    auto g = (*restored)->Get(Slice(k));
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(ToString(*g), "val" + std::to_string(i));
  }
}

TEST(BPlusTreeTest, DeserializeRejectsCorruption) {
  BPlusTree t;
  t.Insert(Slice("a"), Slice("1"));
  Bytes image;
  t.SerializeTo(&image);
  image.resize(image.size() / 2);  // truncate
  Slice in(image);
  EXPECT_FALSE(BPlusTree::Deserialize(&in, 4096).ok());
}

TEST(BPlusTreeTest, InPlaceEditsInAFullLeaf) {
  // One leaf just under its block: edits in the middle must move the
  // entries after them and leave every other entry intact.
  BPlusTree t(/*block_size=*/1024);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 40; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%03d", i);
    model[key] = "value" + std::to_string(i);
    ASSERT_TRUE(t.Insert(Slice(key), Slice(model[key])).ok());
  }
  ASSERT_EQ(t.node_count(), 1u);
  auto check = [&] {
    auto mit = model.begin();
    t.ForEach([&](const Slice& k, const Slice& v) {
      ASSERT_NE(mit, model.end());
      EXPECT_EQ(k.ToString(), mit->first);
      EXPECT_EQ(v.ToString(), mit->second);
      ++mit;
    });
    EXPECT_EQ(mit, model.end());
  };
  model["key020"] = std::string(300, 'g');  // grows past the block
  ASSERT_TRUE(t.Update(Slice("key020"), Slice(model["key020"])).ok());
  check();
  model["key020"] = "";  // shrinks to nothing
  ASSERT_TRUE(t.Update(Slice("key020"), Slice()).ok());
  check();
  EXPECT_EQ(ToString(*t.Get(Slice("key020"))), "");
  model["key021"] = "s";
  ASSERT_TRUE(t.Update(Slice("key021"), Slice("s")).ok());
  model.erase("key019");
  ASSERT_TRUE(t.Delete(Slice("key019")).ok());
  check();
  auto r = t.SeekAfter(Slice("key018"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(r->key), "key020");
  EXPECT_TRUE(r->value.empty());
  EXPECT_EQ(t.node_count(), 1u);  // updates and deletes never split
}

TEST(BPlusTreeTest, ShapeMatchesParent) {
  // The banking file: 100,000 accounts, each a 9-byte key and a 14-byte
  // balance record. The leaf layout must not move a split point: the shape
  // drives the disc-access model, and every simulated number with it.
  BPlusTree t(/*block_size=*/4096);
  Record rec;
  rec.Set("balance", "1000");
  const Bytes balance = rec.Encode();
  ASSERT_EQ(balance.size(), 14u);
  constexpr int kAccounts = 100000;
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(
        t.Insert(Slice(apps::banking::AccountKey(i)), Slice(balance)).ok());
  }
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.node_count(), 1534u);
  // The leaf segments hold the 23-byte records at well under 48 bytes each.
  EXPECT_LE(static_cast<double>(t.bytes()) / kAccounts, 48.0);
}

// Property sweep: random workloads against a std::map reference model, for
// several block sizes (small blocks force deep trees).
class BPlusTreePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BPlusTreePropertyTest, MatchesReferenceModel) {
  const size_t block_size = GetParam();
  BPlusTree tree(block_size);
  std::map<std::string, std::string> model;
  Random rng(block_size * 7919 + 13);

  // One key in five is 128 bytes or longer (a two-byte length varint in
  // the leaf segment); values are empty, short or long, so updates grow and
  // shrink entries in the middle of full leaves.
  auto make_key = [](uint64_t n) {
    std::string key = "k" + std::to_string(n);
    if (n % 5 == 0) key += std::string(128 + n % 40, 'p');
    return key;
  };
  auto make_value = [&rng] {
    switch (rng.Uniform(3)) {
      case 0: return std::string();
      case 1: return "v" + std::to_string(rng.Next() % 100000);
      default: return std::string(40 + rng.Uniform(80), 'w');
    }
  };
  for (int step = 0; step < 4000; ++step) {
    std::string key = make_key(rng.Uniform(800));
    std::string value = make_value();
    switch (rng.Uniform(4)) {
      case 0: {  // insert
        Status s = tree.Insert(Slice(key), Slice(value));
        if (model.count(key)) {
          EXPECT_TRUE(s.IsAlreadyExists());
        } else {
          EXPECT_TRUE(s.ok());
          model[key] = value;
        }
        break;
      }
      case 1: {  // update
        Status s = tree.Update(Slice(key), Slice(value));
        if (model.count(key)) {
          EXPECT_TRUE(s.ok());
          model[key] = value;
        } else {
          EXPECT_TRUE(s.IsNotFound());
        }
        break;
      }
      case 2: {  // delete
        Status s = tree.Delete(Slice(key));
        if (model.count(key)) {
          EXPECT_TRUE(s.ok());
          model.erase(key);
        } else {
          EXPECT_TRUE(s.IsNotFound());
        }
        break;
      }
      case 3: {  // point read
        auto g = tree.Get(Slice(key));
        if (model.count(key)) {
          ASSERT_TRUE(g.ok());
          EXPECT_EQ(ToString(*g), model[key]);
        } else {
          EXPECT_TRUE(g.status().IsNotFound());
        }
        break;
      }
    }
  }

  // Invariants: size, full in-order agreement, seek agreement.
  EXPECT_EQ(tree.size(), model.size());
  auto mit = model.begin();
  tree.ForEach([&](const Slice& k, const Slice& v) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(k.ToString(), mit->first);
    EXPECT_EQ(v.ToString(), mit->second);
    ++mit;
  });
  EXPECT_EQ(mit, model.end());
  for (int probe = 0; probe < 200; ++probe) {
    std::string key = make_key(rng.Uniform(900));
    auto s = tree.Seek(Slice(key));
    auto lb = model.lower_bound(key);
    if (lb == model.end()) {
      EXPECT_TRUE(s.status().IsEndOfFile());
    } else {
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(ToString(s->key), lb->first);
      EXPECT_EQ(ToString(s->value), lb->second);
    }
    auto a = tree.SeekAfter(Slice(key));
    auto ub = model.upper_bound(key);
    if (ub == model.end()) {
      EXPECT_TRUE(a.status().IsEndOfFile());
    } else {
      ASSERT_TRUE(a.ok());
      EXPECT_EQ(ToString(a->key), ub->first);
      EXPECT_EQ(ToString(a->value), ub->second);
    }
  }
  // Serialization survives the same workload.
  Bytes image;
  tree.SerializeTo(&image);
  Slice in(image);
  auto restored = BPlusTree::Deserialize(&in, block_size);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BPlusTreePropertyTest,
                         ::testing::Values(256, 512, 1024, 4096, 16384));

// ---------------------------------------------------------------------------
// File organizations
// ---------------------------------------------------------------------------

TEST(FileTest, RecnumKeyOrderPreserved) {
  EXPECT_LT(Slice(EncodeRecnum(1)), Slice(EncodeRecnum(2)));
  EXPECT_LT(Slice(EncodeRecnum(255)), Slice(EncodeRecnum(256)));
  uint64_t n;
  ASSERT_TRUE(DecodeRecnum(Slice(EncodeRecnum(123456789)), &n));
  EXPECT_EQ(n, 123456789u);
  EXPECT_FALSE(DecodeRecnum(Slice("short"), &n));
}

TEST(FileTest, KeySequencedBasics) {
  auto f = MakeFile(FileOrganization::kKeySequenced, "items", {});
  EXPECT_EQ(f->organization(), FileOrganization::kKeySequenced);
  Bytes assigned;
  EXPECT_TRUE(f->Insert(Slice("A1"), Slice("rec"), &assigned).ok());
  EXPECT_EQ(ToString(assigned), "A1");
  EXPECT_TRUE(f->Insert(Slice(""), Slice("r"), nullptr).IsInvalidArgument());
  EXPECT_EQ(f->record_count(), 1u);
}

TEST(FileTest, RelativeFileSlots) {
  auto f = MakeFile(FileOrganization::kRelative, "slots", {});
  Bytes k5 = EncodeRecnum(5);
  EXPECT_TRUE(f->Insert(Slice(k5), Slice("five"), nullptr).ok());
  EXPECT_TRUE(f->Insert(Slice(k5), Slice("again"), nullptr).IsAlreadyExists());
  EXPECT_EQ(ToString(*f->Read(Slice(k5))), "five");
  EXPECT_TRUE(f->Read(Slice(EncodeRecnum(6))).status().IsNotFound());
  EXPECT_TRUE(f->Insert(Slice("short"), Slice("x"), nullptr).IsInvalidArgument());
  EXPECT_TRUE(f->Update(Slice(k5), Slice("FIVE")).ok());
  EXPECT_TRUE(f->Delete(Slice(k5)).ok());
  EXPECT_EQ(f->record_count(), 0u);
}

TEST(FileTest, EntrySequencedAppendAssignsKeys) {
  auto f = MakeFile(FileOrganization::kEntrySequenced, "log", {});
  Bytes k1, k2;
  EXPECT_TRUE(f->Insert(Slice(), Slice("first"), &k1).ok());
  EXPECT_TRUE(f->Insert(Slice(), Slice("second"), &k2).ok());
  EXPECT_LT(Slice(k1), Slice(k2));
  EXPECT_EQ(ToString(*f->Read(Slice(k1))), "first");
  EXPECT_TRUE(f->Delete(Slice(k1)).IsNotSupported());
  auto* es = static_cast<EntrySequencedFile*>(f.get());
  EXPECT_TRUE(es->RemoveEntry(Slice(k2)).ok());
  EXPECT_EQ(f->record_count(), 1u);
  // Next append does not reuse the removed sequence number.
  Bytes k3;
  EXPECT_TRUE(f->Insert(Slice(), Slice("third"), &k3).ok());
  EXPECT_LT(Slice(k2), Slice(k3));
}

TEST(FileTest, SeekAcrossOrganizations) {
  for (auto org : {FileOrganization::kKeySequenced, FileOrganization::kRelative,
                   FileOrganization::kEntrySequenced}) {
    auto f = MakeFile(org, "f", {});
    for (int i = 1; i <= 5; ++i) {
      Bytes key = org == FileOrganization::kEntrySequenced ? Bytes{}
                                                           : EncodeRecnum(i * 10);
      ASSERT_TRUE(
          f->Insert(Slice(key), Slice("r" + std::to_string(i)), nullptr).ok())
          << FileOrganizationName(org);
    }
    auto first = f->Seek(Slice(), true);
    ASSERT_TRUE(first.ok()) << FileOrganizationName(org);
    auto after = f->Seek(Slice(first->key), false);
    ASSERT_TRUE(after.ok());
    EXPECT_LT(Slice(first->key), Slice(after->key));
    size_t n = 0;
    f->ForEach([&](const Slice&, const Slice&) { ++n; });
    EXPECT_EQ(n, 5u);
  }
}

TEST(FileTest, AlternateKeyMaintenance) {
  FileOptions opt;
  opt.schema.alternate_keys = {"color"};
  auto f = MakeFile(FileOrganization::kKeySequenced, "parts", opt);
  auto rec = [](const std::string& color) {
    return Record().Set("color", color).Encode();
  };
  f->Insert(Slice("p1"), Slice(rec("red")), nullptr);
  f->Insert(Slice("p2"), Slice(rec("blue")), nullptr);
  f->Insert(Slice("p3"), Slice(rec("red")), nullptr);

  auto reds = f->LookupAlternate("color", "red");
  ASSERT_TRUE(reds.ok());
  ASSERT_EQ(reds->size(), 2u);
  EXPECT_EQ(ToString((*reds)[0]), "p1");
  EXPECT_EQ(ToString((*reds)[1]), "p3");

  // Update moves p1 to blue.
  f->Update(Slice("p1"), Slice(rec("blue")));
  EXPECT_EQ(f->LookupAlternate("color", "red")->size(), 1u);
  EXPECT_EQ(f->LookupAlternate("color", "blue")->size(), 2u);

  // Delete removes from the index.
  f->Delete(Slice("p3"));
  EXPECT_EQ(f->LookupAlternate("color", "red")->size(), 0u);

  // Undeclared field rejected.
  EXPECT_TRUE(f->LookupAlternate("size", "L").status().IsInvalidArgument());
}

TEST(FileTest, ArchiveRestoreRebuildsIndices) {
  FileOptions opt;
  opt.schema.alternate_keys = {"site"};
  auto f = MakeFile(FileOrganization::kKeySequenced, "stock", opt);
  for (int i = 0; i < 50; ++i) {
    Record r;
    r.Set("site", i % 2 ? "cupertino" : "reston");
    f->Insert(Slice("item" + std::to_string(100 + i)), Slice(r.Encode()), nullptr);
  }
  Bytes image;
  f->ArchiveTo(&image);

  auto g = MakeFile(FileOrganization::kKeySequenced, "stock", opt);
  Slice in(image);
  ASSERT_TRUE(g->RestoreFrom(&in).ok());
  EXPECT_EQ(g->record_count(), 50u);
  EXPECT_EQ(g->LookupAlternate("site", "reston")->size(), 25u);
}

// ---------------------------------------------------------------------------
// Volume
// ---------------------------------------------------------------------------

class VolumeTest : public ::testing::Test {
 protected:
  VolumeTest() : vol_("$DATA1") {
    FileOptions opt;
    opt.audited = true;
    EXPECT_TRUE(vol_.CreateFile("acct", FileOrganization::kKeySequenced, opt).ok());
  }
  Volume vol_;
};

TEST_F(VolumeTest, MutateCapturesBeforeImages) {
  auto ins = vol_.Mutate("acct", MutationOp::kInsert, Slice("a"), Slice("100"));
  EXPECT_TRUE(ins.status.ok());
  EXPECT_FALSE(ins.existed);
  auto upd = vol_.Mutate("acct", MutationOp::kUpdate, Slice("a"), Slice("200"));
  EXPECT_TRUE(upd.status.ok());
  EXPECT_TRUE(upd.existed);
  EXPECT_EQ(ToString(upd.before), "100");
  auto del = vol_.Mutate("acct", MutationOp::kDelete, Slice("a"), Slice());
  EXPECT_TRUE(del.status.ok());
  EXPECT_EQ(ToString(del.before), "200");
}

TEST_F(VolumeTest, MutateUnknownFileFails) {
  auto r = vol_.Mutate("nope", MutationOp::kInsert, Slice("k"), Slice("v"));
  EXPECT_TRUE(r.status.IsNotFound());
}

TEST_F(VolumeTest, ReadThroughCacheCountsHitsAndMisses) {
  vol_.Mutate("acct", MutationOp::kInsert, Slice("a"), Slice("1"));
  // The insert warmed the cache.
  auto r1 = vol_.ReadRecord("acct", Slice("a"));
  EXPECT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.disc_ios, 0);
  EXPECT_EQ(vol_.cache_hits(), 1);
  // A cold key misses.
  vol_.Mutate("acct", MutationOp::kInsert, Slice("b"), Slice("2"));
  Volume cold("$COLD");
  cold.CreateFile("f", FileOrganization::kKeySequenced);
  cold.Mutate("f", MutationOp::kInsert, Slice("x"), Slice("v"));
  cold.DropVolatile();  // also clears the cache
  cold.Mutate("f", MutationOp::kInsert, Slice("x"), Slice("v"));
  cold.Flush();
  Volume fresh("$F");
  fresh.CreateFile("f", FileOrganization::kKeySequenced);
  fresh.Mutate("f", MutationOp::kInsert, Slice("x"), Slice("v"));
  fresh.Flush();
  // Force a miss by restoring from archive (cold cache).
  Bytes image = fresh.Archive();
  Volume restored("$F");
  ASSERT_TRUE(restored.RestoreFromArchive(Slice(image)).ok());
  auto miss = restored.ReadRecord("f", Slice("x"));
  EXPECT_TRUE(miss.status.ok());
  EXPECT_GT(miss.disc_ios, 0);
  EXPECT_EQ(restored.cache_misses(), 1);
  auto hit = restored.ReadRecord("f", Slice("x"));
  EXPECT_EQ(hit.disc_ios, 0);
}

TEST_F(VolumeTest, LruEvictsOldEntries) {
  VolumeConfig cfg;
  cfg.cache_capacity = 4;
  Volume v("$SMALL", cfg);
  v.CreateFile("f", FileOrganization::kKeySequenced);
  for (int i = 0; i < 10; ++i) {
    v.Mutate("f", MutationOp::kInsert, Slice("k" + std::to_string(i)), Slice("v"));
  }
  // Only the last 4 keys remain cached.
  auto r_old = v.ReadRecord("f", Slice("k0"));
  EXPECT_GT(r_old.disc_ios, 0);
  auto r_new = v.ReadRecord("f", Slice("k9"));
  EXPECT_EQ(r_new.disc_ios, 0);
}

TEST_F(VolumeTest, DropVolatileRevertsUnflushedUpdates) {
  vol_.Mutate("acct", MutationOp::kInsert, Slice("a"), Slice("100"));
  vol_.Flush();  // "a"=100 is durable
  vol_.Mutate("acct", MutationOp::kUpdate, Slice("a"), Slice("999"));
  vol_.Mutate("acct", MutationOp::kInsert, Slice("b"), Slice("50"));
  EXPECT_EQ(vol_.VolatileCount(), 2u);
  vol_.DropVolatile();  // total node failure
  EXPECT_EQ(vol_.VolatileCount(), 0u);
  EXPECT_EQ(ToString(vol_.ReadRecord("acct", Slice("a")).value), "100");
  EXPECT_TRUE(vol_.ReadRecord("acct", Slice("b")).status.IsNotFound());
}

TEST_F(VolumeTest, DropVolatileRevertsDeletes) {
  vol_.Mutate("acct", MutationOp::kInsert, Slice("a"), Slice("100"));
  vol_.Flush();
  vol_.Mutate("acct", MutationOp::kDelete, Slice("a"), Slice());
  vol_.DropVolatile();
  EXPECT_EQ(ToString(vol_.ReadRecord("acct", Slice("a")).value), "100");
}

TEST_F(VolumeTest, DropVolatileRevertsEntrySequencedAppends) {
  vol_.CreateFile("log", FileOrganization::kEntrySequenced);
  vol_.Mutate("log", MutationOp::kInsert, Slice(), Slice("committed"));
  vol_.Flush();
  vol_.Mutate("log", MutationOp::kInsert, Slice(), Slice("lost"));
  vol_.DropVolatile();
  EXPECT_EQ(vol_.Find("log")->record_count(), 1u);
}

TEST_F(VolumeTest, MirroredDriveFailureKeepsService) {
  EXPECT_EQ(vol_.UpDrives(), 2);
  vol_.FailDrive(0);
  EXPECT_TRUE(vol_.Usable());
  auto r = vol_.Mutate("acct", MutationOp::kInsert, Slice("a"), Slice("1"));
  EXPECT_TRUE(r.status.ok());
  vol_.FailDrive(1);
  EXPECT_FALSE(vol_.Usable());
  auto r2 = vol_.Mutate("acct", MutationOp::kInsert, Slice("b"), Slice("2"));
  EXPECT_TRUE(r2.status.IsIoError());
  EXPECT_TRUE(vol_.ReadRecord("acct", Slice("a")).status.IsIoError());
}

TEST_F(VolumeTest, ReviveCopiesStaleDrive) {
  vol_.FailDrive(1);
  for (int i = 0; i < 7; ++i) {
    vol_.Mutate("acct", MutationOp::kInsert, Slice("k" + std::to_string(i)),
                Slice("v"));
  }
  auto copied = vol_.ReviveDrive(1);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 7u);  // whole volume copied back
  EXPECT_EQ(vol_.UpDrives(), 2);
  // Reviving an up drive is a no-op.
  auto again = vol_.ReviveDrive(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST_F(VolumeTest, ArchiveRestoreRoundTrip) {
  FileOptions opt;
  opt.audited = true;
  opt.schema.alternate_keys = {"site"};
  vol_.CreateFile("stock", FileOrganization::kKeySequenced, opt);
  vol_.CreateFile("hist", FileOrganization::kEntrySequenced);
  for (int i = 0; i < 20; ++i) {
    Record r;
    r.Set("site", "cupertino");
    vol_.Mutate("stock", MutationOp::kInsert, Slice("s" + std::to_string(i)),
                Slice(r.Encode()));
    vol_.Mutate("hist", MutationOp::kInsert, Slice(), Slice("h" + std::to_string(i)));
  }
  vol_.Flush();
  Bytes image = vol_.Archive();

  Volume restored("$DATA1");
  ASSERT_TRUE(restored.RestoreFromArchive(Slice(image)).ok());
  for (const char* name : {"acct", "stock", "hist"}) {
    EXPECT_NE(restored.Find(name), nullptr) << name;
  }
  EXPECT_EQ(restored.Find("stock")->record_count(), 20u);
  EXPECT_EQ(restored.Find("hist")->record_count(), 20u);
  EXPECT_TRUE(restored.Find("stock")->audited());
  EXPECT_EQ(restored.Find("stock")->LookupAlternate("site", "cupertino")->size(),
            20u);
}

TEST_F(VolumeTest, RestoreRejectsCorruptArchive) {
  Bytes image = vol_.Archive();
  image.resize(image.size() - 1);
  Volume v("$X");
  EXPECT_FALSE(v.RestoreFromArchive(Slice(image)).ok());
}

TEST_F(VolumeTest, AlternateReadThroughVolume) {
  FileOptions opt;
  opt.schema.alternate_keys = {"site"};
  vol_.CreateFile("stock", FileOrganization::kKeySequenced, opt);
  Record r;
  r.Set("site", "neufahrn");
  vol_.Mutate("stock", MutationOp::kInsert, Slice("s1"), Slice(r.Encode()));
  auto res = vol_.ReadAlternate("stock", "site", "neufahrn");
  EXPECT_TRUE(res.status.ok());
  Slice in(res.value);
  Slice pk;
  ASSERT_TRUE(GetLengthPrefixed(&in, &pk));
  EXPECT_EQ(pk.ToString(), "s1");
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(PartitionTest, SinglePartitionCoversEverything) {
  PartitionMap map(1, "$DATA1");
  ASSERT_TRUE(map.Validate().ok());
  EXPECT_EQ(map.Locate(Slice("")).volume_process, "$DATA1");
  EXPECT_EQ(map.Locate(Slice("\xff\xff")).node, 1);
}

TEST(PartitionTest, RangeRouting) {
  PartitionMap map;
  map.AddPartition(ToBytes("h"), 1, "$DATA1");
  map.AddPartition(ToBytes("p"), 2, "$DATA2");
  map.AddPartition({}, 3, "$DATA3");
  ASSERT_TRUE(map.Validate().ok());
  EXPECT_EQ(map.Locate(Slice("apple")).node, 1);
  EXPECT_EQ(map.Locate(Slice("h")).node, 2);  // bound is exclusive
  EXPECT_EQ(map.Locate(Slice("mango")).node, 2);
  EXPECT_EQ(map.Locate(Slice("zebra")).node, 3);
  EXPECT_EQ(map.LocateIndex(Slice("apple")), 0u);
  EXPECT_EQ(map.LocateIndex(Slice("zzz")), 2u);
}

TEST(PartitionTest, ValidationCatchesBadMaps) {
  PartitionMap empty;
  EXPECT_FALSE(empty.Validate().ok());

  PartitionMap no_tail;
  no_tail.AddPartition(ToBytes("m"), 1, "$D");
  EXPECT_FALSE(no_tail.Validate().ok());

  PartitionMap unsorted;
  unsorted.AddPartition(ToBytes("p"), 1, "$D");
  unsorted.AddPartition(ToBytes("h"), 2, "$E");
  unsorted.AddPartition({}, 3, "$F");
  EXPECT_FALSE(unsorted.Validate().ok());
}

TEST(PartitionTest, CatalogDefinesAndFinds) {
  Catalog cat;
  FileDefinition def;
  def.name = "item-master";
  def.partitions = PartitionMap(1, "$DATA1");
  EXPECT_TRUE(cat.DefineFile(def).ok());
  EXPECT_TRUE(cat.DefineFile(def).IsAlreadyExists());
  ASSERT_NE(cat.Find("item-master"), nullptr);
  EXPECT_EQ(cat.Find("nope"), nullptr);

  FileDefinition bad;
  bad.name = "bad";
  EXPECT_FALSE(cat.DefineFile(bad).ok());  // empty partition map
}

}  // namespace
}  // namespace encompass::storage
