// Unit tests for the common module: Status/Result, Slice, coding, Random,
// Transid.

#include <gtest/gtest.h>

#include <limits>

#include "common/coding.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/transid.h"

namespace encompass {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryAndPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Timeout().IsTimeout());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Partitioned().IsPartitioned());
  EXPECT_TRUE(Status::InDoubt().IsInDoubt());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, MessagePreserved) {
  Status s = Status::IoError("disc 3 path down");
  EXPECT_EQ(s.message(), "disc 3 path down");
  EXPECT_EQ(s.ToString(), "IoError: disc 3 path down");
}

TEST(StatusTest, EqualityIgnoresMessage) {
  EXPECT_EQ(Status::Busy("a"), Status::Busy("b"));
  EXPECT_FALSE(Status::Busy() == Status::Timeout());
}

TEST(StatusTest, CodeNamesCoverAllCodes) {
  for (int c = 0; c <= 17; ++c) {
    const bool retired = c == 12 || c == 16;
    EXPECT_EQ(std::string(StatusCodeName(static_cast<Status::Code>(c))) ==
                  "Unknown",
              retired)
        << c;
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status {
    ENCOMPASS_RETURN_IF_ERROR(Status::NotFound("inner"));
    return Status::Ok();
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto passes = []() -> Status {
    ENCOMPASS_RETURN_IF_ERROR(Status::Ok());
    return Status::Aborted();
  };
  EXPECT_TRUE(passes().IsAborted());
}

// ---------------------------------------------------------------------------
// Result<T>
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Busy();
    return 7;
  };
  auto outer = [&](bool fail) -> Status {
    int v = 0;
    ENCOMPASS_ASSIGN_OR_RETURN(v, inner(fail));
    return v == 7 ? Status::Ok() : Status::Corruption();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_TRUE(outer(true).IsBusy());
}

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, BasicViewsAndCompare) {
  std::string s = "hello";
  Slice a(s);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_EQ(a.Compare(Slice("hello")), 0);
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);  // prefix sorts first
  EXPECT_GT(Slice("b").Compare(Slice("ab")), 0);
}

TEST(SliceTest, RemovePrefixAndStartsWith) {
  Slice a("transaction");
  EXPECT_TRUE(a.StartsWith(Slice("trans")));
  a.RemovePrefix(5);
  EXPECT_EQ(a.ToString(), "action");
  EXPECT_FALSE(a.StartsWith(Slice("trans")));
}

TEST(SliceTest, SharedPrefixLength) {
  EXPECT_EQ(SharedPrefixLength(Slice("abcde"), Slice("abcxy")), 3u);
  EXPECT_EQ(SharedPrefixLength(Slice(""), Slice("a")), 0u);
  EXPECT_EQ(SharedPrefixLength(Slice("same"), Slice("same")), 4u);
}

TEST(SliceTest, BytesRoundTrip) {
  Bytes b = ToBytes("payload");
  EXPECT_EQ(ToString(b), "payload");
  Slice s(b);
  EXPECT_EQ(s.ToBytes(), b);
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  Bytes buf;
  PutFixed8(&buf, 0xab);
  PutFixed16(&buf, 0x1234);
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice in(buf);
  uint8_t v8;
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed8(&in, &v8));
  ASSERT_TRUE(GetFixed16(&in, &v16));
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v8, 0xab);
  EXPECT_EQ(v16, 0x1234);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,    1,        127,        128,
                             300,  16383,    16384,      (1ULL << 32) - 1,
                             1ULL << 32, std::numeric_limits<uint64_t>::max()};
  Bytes buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&in, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsOverflow) {
  Bytes buf;
  PutVarint64(&buf, 1ULL << 33);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  PutLengthPrefixed(&buf, Slice("alpha"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice("gamma"));
  Slice in(buf);
  std::string a, b, c;
  ASSERT_TRUE(GetLengthPrefixedString(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedString(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedString(&in, &c));
  EXPECT_EQ(a, "alpha");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, "gamma");
}

TEST(CodingTest, DecodeUnderflowFails) {
  Bytes buf;
  PutFixed32(&buf, 7);
  Slice in(buf);
  uint64_t v64;
  EXPECT_FALSE(GetFixed64(&in, &v64));
  Bytes truncated;
  PutVarint64(&truncated, 1000000);
  truncated.pop_back();
  Slice in2(truncated);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in2, &v));
}

TEST(CodingTest, LengthPrefixTruncationFails) {
  Bytes buf;
  PutVarint64(&buf, 100);  // claims 100 bytes follow
  buf.push_back('x');
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RandomTest, SkewedFavorsSmallIndices) {
  Random r(9);
  int64_t low = 0, high = 0;
  const uint64_t n = 1000;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = r.Skewed(n, 0.99);
    EXPECT_LT(v, n);
    if (v < n / 10) ++low;
    if (v >= 9 * n / 10) ++high;
  }
  EXPECT_GT(low, high * 2);
}

TEST(RandomTest, SkewedDegenerateN) {
  Random r(3);
  EXPECT_EQ(r.Skewed(0, 0.5), 0u);
  EXPECT_EQ(r.Skewed(1, 0.5), 0u);
}

// ---------------------------------------------------------------------------
// Transid
// ---------------------------------------------------------------------------

TEST(TransidTest, PackUnpackRoundTrip) {
  Transid t{/*home_node=*/300, /*cpu=*/15, /*seq=*/(1ULL << 40) - 1};
  Transid u = Transid::Unpack(t.Pack());
  EXPECT_EQ(u.home_node, 300);
  EXPECT_EQ(u.cpu, 15);
  EXPECT_EQ(u.seq, (1ULL << 40) - 1);
  EXPECT_EQ(t, u);
}

TEST(TransidTest, InvalidHasSeqZero) {
  Transid t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.ToString(), "txn(none)");
  Transid v{1, 0, 5};
  EXPECT_TRUE(v.valid());
}

TEST(TransidTest, OrderingFollowsPack) {
  Transid a{1, 0, 5}, b{1, 0, 6}, c{2, 0, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(TransidTest, HashDistinct) {
  std::hash<Transid> h;
  EXPECT_NE(h(Transid{1, 0, 1}), h(Transid{1, 0, 2}));
}

}  // namespace
}  // namespace encompass
