// Property tests for the Volume durability boundary: random workloads of
// mutations, backout compensations (ApplyUndo), flushes and simulated
// total-node failures (DropVolatile) are checked against a
// reference model that tracks both the live and the durable state of every
// file. Parameterized over file organizations and seeds.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "storage/record.h"
#include "storage/volume.h"

namespace encompass::storage {
namespace {

/// One file's reference state: what a reader sees now, what survives a
/// total node failure, and how many writes the volume has not flushed.
struct FileModel {
  std::map<std::string, std::string> live;
  std::map<std::string, std::string> durable;
  int pending = 0;
};

struct Model {
  std::map<std::string, FileModel> files;
  int Pending() const {
    int n = 0;
    for (const auto& [name, m] : files) n += m.pending;
    return n;
  }
  void Flush() {
    for (auto& [name, m] : files) {
      m.durable = m.live;
      m.pending = 0;
    }
  }
  void Crash() {
    for (auto& [name, m] : files) {
      m.live = m.durable;
      m.pending = 0;
    }
  }
};

using PropertyParam = std::tuple<FileOrganization, uint64_t>;

class VolumePropertyTest : public ::testing::TestWithParam<PropertyParam> {};

// Three files share the volume's durability boundary: "f" has the parameter's
// organization, "g" is key-sequenced, and "h" carries the alternate key
// "site".
TEST_P(VolumePropertyTest, MatchesDurabilityModel) {
  const FileOrganization org = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Volume vol("$V");
  ASSERT_TRUE(vol.CreateFile("f", org).ok());
  ASSERT_TRUE(vol.CreateFile("g", FileOrganization::kKeySequenced).ok());
  FileOptions with_site;
  with_site.schema.alternate_keys = {"site"};
  ASSERT_TRUE(
      vol.CreateFile("h", FileOrganization::kKeySequenced, with_site).ok());
  Model model;
  for (const char* name : {"f", "g", "h"}) model.files[name];
  Random rng(seed);

  // Relative/entry-sequenced files address by record number, so "f" does
  // for every organization.
  auto f_key = [&] { return ToString(EncodeRecnum(rng.Uniform(64))); };
  auto g_key = [&] { return "g" + std::to_string(rng.Uniform(32)); };
  auto h_key = [&] { return "h" + std::to_string(rng.Uniform(32)); };
  auto h_record = [&] {
    return ToString(Record()
                        .Set("site", "s" + std::to_string(rng.Uniform(4)))
                        .Set("n", std::to_string(rng.Uniform(1000)))
                        .Encode());
  };

  // Applies one mutation to the volume and to the model.
  auto write = [&](const std::string& fname, MutationOp op,
                   const std::string& key, const std::string& value) {
    FileModel& m = model.files[fname];
    const bool entry_sequenced =
        fname == "f" && org == FileOrganization::kEntrySequenced;
    auto it = m.live.find(key);
    // An explicit-key re-insert of an existing entry is rejected.
    if (op == MutationOp::kInsert && entry_sequenced && it != m.live.end()) {
      return;
    }
    auto r = vol.Mutate(fname, op, Slice(key), Slice(value));
    if (op == MutationOp::kDelete && entry_sequenced) {
      EXPECT_TRUE(r.status.IsNotSupported() || r.status.IsNotFound());
      return;
    }
    if (op == MutationOp::kInsert) {
      if (it != m.live.end()) {
        EXPECT_TRUE(r.status.IsAlreadyExists());
        return;
      }
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      m.live[key] = value;
      ++m.pending;
      return;
    }
    if (it == m.live.end()) {
      EXPECT_TRUE(r.status.IsNotFound());
      return;
    }
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(ToString(r.before), it->second);
    if (op == MutationOp::kUpdate) {
      it->second = value;
    } else {
      m.live.erase(it);
    }
    ++m.pending;
  };

  // Backs out a (hypothetical) `original` mutation of `key`: the
  // compensation writes only if it is not already in effect.
  auto undo = [&](const std::string& fname, MutationOp original,
                  const std::string& key, const std::string& before) {
    FileModel& m = model.files[fname];
    auto it = m.live.find(key);
    auto r = vol.ApplyUndo(fname, original, Slice(key), Slice(before));
    if (original == MutationOp::kUpdate && it == m.live.end()) {
      EXPECT_FALSE(r.status.ok());  // nothing to restore the image into
      return;
    }
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    switch (original) {
      case MutationOp::kInsert:  // remove the inserted record
        if (it == m.live.end()) return;
        m.live.erase(it);
        break;
      case MutationOp::kUpdate:  // restore the before-image
        if (it->second == before) return;
        it->second = before;
        break;
      case MutationOp::kDelete:  // re-insert the before-image
        if (it != m.live.end()) return;
        m.live[key] = before;
        break;
    }
    ++m.pending;
  };

  auto check_file = [&](const std::string& fname) {
    const auto& live = model.files[fname].live;
    size_t seen = 0;
    vol.Find(fname)->ForEach([&](const Slice& key, const Slice& value) {
      auto it = live.find(key.ToString());
      ASSERT_NE(it, live.end()) << fname << " holds an unexpected record";
      EXPECT_EQ(value.ToString(), it->second);
      ++seen;
    });
    EXPECT_EQ(seen, live.size()) << fname;
  };

  auto check_sites = [&] {
    std::map<std::string, std::set<std::string>> by_site;
    for (const auto& [key, value] : model.files["h"].live) {
      by_site[Record::Decode(Slice(value))->Get("site")].insert(key);
    }
    for (int s = 0; s < 4; ++s) {
      const std::string site = "s" + std::to_string(s);
      auto r = vol.ReadAlternate("h", "site", site);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      std::set<std::string> found;
      Slice in(r.value);
      Slice pk;
      while (GetLengthPrefixed(&in, &pk)) found.insert(pk.ToString());
      EXPECT_EQ(found, by_site[site]) << site;
    }
  };

  auto check_all = [&] {
    for (const char* name : {"f", "g", "h"}) check_file(name);
    check_sites();
  };

  for (int step = 0; step < 3000; ++step) {
    switch (rng.Uniform(11)) {
      case 0: {
        const std::string key = f_key();
        write("f", MutationOp::kInsert, key,
              "v" + std::to_string(rng.Next() % 1000));
        break;
      }
      case 1: {
        const std::string key = f_key();
        write("f", MutationOp::kUpdate, key,
              "u" + std::to_string(rng.Next() % 1000));
        break;
      }
      case 2:
        write("f", MutationOp::kDelete, f_key(), "");
        break;
      case 3: {  // read
        std::string key = f_key();
        auto r = vol.ReadRecord("f", Slice(key));
        const auto& live = model.files["f"].live;
        if (live.count(key)) {
          ASSERT_TRUE(r.status.ok());
          EXPECT_EQ(ToString(r.value), live.at(key));
        } else {
          EXPECT_TRUE(r.status.IsNotFound());
        }
        break;
      }
      case 4: {  // backout compensation on "f"
        const auto original = static_cast<MutationOp>(rng.Uniform(3));
        const std::string key = f_key();
        undo("f", original, key, "b" + std::to_string(rng.Next() % 1000));
        break;
      }
      case 5: {  // backout compensation on "h" (keeps its index in step)
        const auto original = static_cast<MutationOp>(rng.Uniform(3));
        const std::string key = h_key();
        undo("h", original, key, h_record());
        break;
      }
      case 6: {
        const auto op = static_cast<MutationOp>(rng.Uniform(3));
        const std::string key = g_key();
        write("g", op, key, "g" + std::to_string(rng.Next() % 1000));
        break;
      }
      case 7:
      case 8: {
        const auto op = static_cast<MutationOp>(rng.Uniform(3));
        const std::string key = h_key();
        write("h", op, key, h_record());
        break;
      }
      case 9:  // flush (rare)
        if (rng.Uniform(8) == 0) {
          EXPECT_EQ(vol.VolatileCount(), static_cast<size_t>(model.Pending()));
          EXPECT_EQ(vol.Flush(), model.Pending() * vol.UpDrives());
          model.Flush();
          EXPECT_EQ(vol.VolatileCount(), 0u);
          EXPECT_EQ(vol.durable_bytes(), 0u);
        }
        break;
      case 10:  // total node failure (rarer)
        if (rng.Uniform(16) == 0) {
          vol.DropVolatile();
          model.Crash();
          check_all();
        }
        break;
    }
  }

  // Full agreement with the live model at the end.
  check_all();

  // And after one final crash, full agreement with the durable model.
  vol.DropVolatile();
  model.Crash();
  check_all();
}

INSTANTIATE_TEST_SUITE_P(
    OrgsAndSeeds, VolumePropertyTest,
    ::testing::Combine(::testing::Values(FileOrganization::kKeySequenced,
                                         FileOrganization::kRelative,
                                         FileOrganization::kEntrySequenced),
                       ::testing::Values(101, 202, 303)));

// Archive/restore agrees with the live state at arbitrary points.
TEST(VolumeArchiveProperty, RestoreEqualsSnapshot) {
  Random rng(999);
  for (int round = 0; round < 5; ++round) {
    Volume vol("$V");
    vol.CreateFile("f", FileOrganization::kKeySequenced);
    std::map<std::string, std::string> model;
    int ops = 50 + static_cast<int>(rng.Uniform(400));
    for (int i = 0; i < ops; ++i) {
      std::string key = "k" + std::to_string(rng.Uniform(100));
      std::string value = "v" + std::to_string(rng.Next() % 1000);
      auto r = vol.Mutate("f", MutationOp::kInsert, Slice(key), Slice(value));
      if (r.status.ok()) model[key] = value;
    }
    vol.Flush();
    Bytes image = vol.Archive();
    Volume restored("$V");
    ASSERT_TRUE(restored.RestoreFromArchive(Slice(image)).ok());
    EXPECT_EQ(restored.Find("f")->record_count(), model.size());
    for (const auto& [key, value] : model) {
      auto r = restored.ReadRecord("f", Slice(key));
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(ToString(r.value), value);
    }
  }
}

}  // namespace
}  // namespace encompass::storage
