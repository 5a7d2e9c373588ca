// Regression tests for the Volume's interned-id LRU cache and the per-drive
// read-either/write-both schedule: eviction order, hit/miss accounting
// across Mutate/ApplyUndo/DropVolatile, and the drive scheduler's overlap
// behavior.

#include <gtest/gtest.h>

#include <string>

#include "common/sim_time.h"
#include "storage/volume.h"

namespace encompass::storage {
namespace {

Volume SmallCacheVolume(size_t capacity) {
  VolumeConfig cfg;
  cfg.cache_capacity = capacity;
  return Volume("$T", cfg);
}

void Put(Volume* v, const std::string& file, const std::string& key,
         const std::string& value) {
  auto r = v->Mutate(file, MutationOp::kInsert, Slice(key), Slice(value));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
}

TEST(VolumeCacheTest, HitAfterInsertMissAfterEviction) {
  Volume v = SmallCacheVolume(2);
  ASSERT_TRUE(v.CreateFile("f", FileOrganization::kKeySequenced).ok());
  Put(&v, "f", "a", "1");
  Put(&v, "f", "b", "2");

  // Both inserts are cached; reads hit without physical I/O.
  auto r = v.ReadRecord("f", Slice("a"));
  EXPECT_EQ(r.disc_ios, 0);
  EXPECT_EQ(v.cache_hits(), 1);
  EXPECT_EQ(v.cache_misses(), 0);

  // Inserting "c" evicts the LRU entry. "a" was just touched, so "b" goes.
  Put(&v, "f", "c", "3");
  EXPECT_EQ(v.ReadRecord("f", Slice("a")).disc_ios, 0);  // still resident
  EXPECT_GT(v.ReadRecord("f", Slice("b")).disc_ios, 0);  // evicted
  EXPECT_EQ(v.cache_misses(), 1);
}

TEST(VolumeCacheTest, LruEvictionFollowsTouchOrder) {
  Volume v = SmallCacheVolume(3);
  ASSERT_TRUE(v.CreateFile("f", FileOrganization::kKeySequenced).ok());
  Put(&v, "f", "a", "1");
  Put(&v, "f", "b", "2");
  Put(&v, "f", "c", "3");
  // Touch order now c > b > a; re-touch "a" so "b" is coldest.
  EXPECT_EQ(v.ReadRecord("f", Slice("a")).disc_ios, 0);
  Put(&v, "f", "d", "4");  // evicts "b"
  EXPECT_EQ(v.ReadRecord("f", Slice("c")).disc_ios, 0);
  EXPECT_EQ(v.ReadRecord("f", Slice("a")).disc_ios, 0);
  EXPECT_EQ(v.ReadRecord("f", Slice("d")).disc_ios, 0);
  EXPECT_GT(v.ReadRecord("f", Slice("b")).disc_ios, 0);
}

TEST(VolumeCacheTest, SameKeyDifferentFilesAreDistinctEntries) {
  Volume v = SmallCacheVolume(8);
  ASSERT_TRUE(v.CreateFile("f", FileOrganization::kKeySequenced).ok());
  ASSERT_TRUE(v.CreateFile("g", FileOrganization::kKeySequenced).ok());
  Put(&v, "f", "k", "from-f");
  // "g"'s record with the same key is NOT resident just because "f"'s is.
  Put(&v, "g", "other", "x");
  auto r = v.ReadRecord("g", Slice("k"));
  EXPECT_TRUE(r.status.IsNotFound());
  Put(&v, "g", "k", "from-g");
  EXPECT_EQ(v.ReadRecord("f", Slice("k")).disc_ios, 0);
  EXPECT_EQ(v.ReadRecord("g", Slice("k")).disc_ios, 0);
  EXPECT_EQ(ToString(v.ReadRecord("g", Slice("k")).value), "from-g");
}

TEST(VolumeCacheTest, DeleteAndUndoMaintainResidency) {
  Volume v = SmallCacheVolume(8);
  ASSERT_TRUE(v.CreateFile("f", FileOrganization::kKeySequenced).ok());
  Put(&v, "f", "a", "1");
  // Delete drops the cache entry along with the record.
  auto del = v.Mutate("f", MutationOp::kDelete, Slice("a"), Slice());
  ASSERT_TRUE(del.status.ok());
  // Undo of the delete re-inserts and re-caches the before-image.
  auto undo = v.ApplyUndo("f", MutationOp::kDelete, Slice("a"), Slice(del.before));
  ASSERT_TRUE(undo.status.ok());
  EXPECT_EQ(v.ReadRecord("f", Slice("a")).disc_ios, 0);
  EXPECT_EQ(ToString(v.ReadRecord("f", Slice("a")).value), "1");

  // Undo of an insert physically removes the record and evicts it.
  Put(&v, "f", "b", "2");
  ASSERT_TRUE(v.ApplyUndo("f", MutationOp::kInsert, Slice("b"), Slice()).status.ok());
  EXPECT_TRUE(v.ReadRecord("f", Slice("b")).status.IsNotFound());
}

TEST(VolumeCacheTest, DropVolatileColdCache) {
  Volume v = SmallCacheVolume(8);
  ASSERT_TRUE(v.CreateFile("f", FileOrganization::kKeySequenced).ok());
  Put(&v, "f", "a", "1");
  v.Flush();  // make the insert durable so DropVolatile keeps the record
  EXPECT_EQ(v.ReadRecord("f", Slice("a")).disc_ios, 0);
  const int64_t hits_before = v.cache_hits();

  v.DropVolatile();  // node failure: main memory (the cache) is gone

  auto r = v.ReadRecord("f", Slice("a"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.disc_ios, 0);  // cold cache: physical read required
  EXPECT_EQ(v.cache_hits(), hits_before);
  // And warm again after the miss.
  EXPECT_EQ(v.ReadRecord("f", Slice("a")).disc_ios, 0);
}

TEST(VolumeCacheTest, HitMissCountersMatchStatsAccess) {
  Volume v = SmallCacheVolume(2);
  ASSERT_TRUE(v.CreateFile("f", FileOrganization::kKeySequenced).ok());
  Put(&v, "f", "a", "1");
  Put(&v, "f", "b", "2");
  Put(&v, "f", "c", "3");  // evicts "a"
  v.ReadRecord("f", Slice("b"));  // hit
  v.ReadRecord("f", Slice("c"));  // hit
  v.ReadRecord("f", Slice("a"));  // miss (physical read)
  EXPECT_EQ(v.cache_hits(), 2);
  EXPECT_EQ(v.cache_misses(), 1);
  EXPECT_GT(v.physical_reads(), 0);
}

// ---------------------------------------------------------------------------
// Drive schedule: read-either
// ---------------------------------------------------------------------------

TEST(DriveScheduleTest, ConcurrentReadsAlternateAcrossMirror) {
  Volume v("$T", {});
  const SimDuration service = Millis(10);
  // Two reads issued at the same instant overlap: each lands on its own
  // drive and both complete one service time later.
  auto r1 = v.ScheduleRead(0, service);
  auto r2 = v.ScheduleRead(0, service);
  EXPECT_NE(r1.drive, r2.drive);
  EXPECT_EQ(r1.complete, service);
  EXPECT_EQ(r2.complete, service);
  // A third read queues behind the earlier of the two.
  auto r3 = v.ScheduleRead(0, service);
  EXPECT_EQ(r3.complete, 2 * service);
  EXPECT_EQ(r3.queue_depth, 1);
  EXPECT_EQ(v.drive_reads(0) + v.drive_reads(1), 3);
}

TEST(DriveScheduleTest, FailedDriveSerializesReads) {
  Volume v("$T", {});
  const SimDuration service = Millis(10);
  v.FailDrive(1);
  auto r1 = v.ScheduleRead(0, service);
  auto r2 = v.ScheduleRead(0, service);
  EXPECT_EQ(r1.drive, 0);
  EXPECT_EQ(r2.drive, 0);
  EXPECT_EQ(r2.complete, 2 * service);  // no mirror to overlap with
  EXPECT_EQ(v.drive_reads(1), 0);
}

TEST(DriveScheduleTest, IdleTimeIsNotAccumulated) {
  Volume v("$T", {});
  const SimDuration service = Millis(5);
  v.ScheduleRead(0, service);
  // Issued long after the first completes: starts immediately, queue empty.
  auto r = v.ScheduleRead(Millis(100), service);
  EXPECT_EQ(r.queue_depth, 0);
  EXPECT_EQ(r.complete, Millis(105));
}

}  // namespace
}  // namespace encompass::storage
