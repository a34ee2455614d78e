// Unit tests for src/common: Status/Result, coding, UTF-8, strings, RNG,
// time, and the LZ block codec.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/compress.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/utf8.h"
#include "lz_corpus.h"
#include "lz_reference.h"

namespace unilog {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such category");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such category");
  EXPECT_EQ(s.ToString(), "NotFound: no such category");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseAssignOrReturn(int v, int* out) {
  UNILOG_ASSIGN_OR_RETURN(*out, HalveEven(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseAssignOrReturn(7, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Coding

TEST(CodingTest, VarintRoundTrip) {
  const uint64_t values[] = {0,       1,          127,        128,
                             300,     16383,      16384,      UINT32_MAX,
                             1ull << 40, UINT64_MAX};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    Decoder dec(buf);
    uint64_t got;
    ASSERT_TRUE(dec.GetVarint64(&got).ok()) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(CodingTest, VarintSizeGrowsWithMagnitude) {
  std::string small, big;
  PutVarint64(&small, 5);
  PutVarint64(&big, 1ull << 60);
  EXPECT_EQ(small.size(), 1u);
  EXPECT_GT(big.size(), 8u);
}

TEST(CodingTest, ZigZagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigZagEncode64(0), 0u);
  EXPECT_EQ(ZigZagEncode64(-1), 1u);
  EXPECT_EQ(ZigZagEncode64(1), 2u);
  EXPECT_EQ(ZigZagEncode64(-2), 3u);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, INT64_MIN, INT64_MAX,
                    int64_t{-123456789}}) {
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
  }
  for (int32_t v : {0, -1, 1, INT32_MIN, INT32_MAX, -9999}) {
    EXPECT_EQ(ZigZagDecode32(ZigZagEncode32(v)), v);
  }
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Decoder dec(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(dec.GetFixed32(&v32).ok());
  ASSERT_TRUE(dec.GetFixed64(&v64).ok());
  EXPECT_EQ(v32, 0xDEADBEEF);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder dec(buf);
  std::string_view a, b, c;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&b).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodingTest, TruncatedInputIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 100000);
  std::string truncated = buf.substr(0, 1);
  Decoder dec(truncated);
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());

  Decoder dec2("ab");
  uint32_t v32;
  EXPECT_TRUE(dec2.GetFixed32(&v32).IsCorruption());

  std::string lp;
  PutLengthPrefixed(&lp, "hello world");
  Decoder dec3(std::string_view(lp).substr(0, 4));
  std::string_view sv;
  EXPECT_TRUE(dec3.GetLengthPrefixed(&sv).IsCorruption());
}

TEST(CodingTest, OverlongVarintIsCorruption) {
  std::string buf(11, '\x80');
  Decoder dec(buf);
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

// ---------------------------------------------------------------------------
// UTF-8

TEST(Utf8Test, EncodedLengthBoundaries) {
  EXPECT_EQ(Utf8EncodedLength(0x00), 1);
  EXPECT_EQ(Utf8EncodedLength(0x7F), 1);
  EXPECT_EQ(Utf8EncodedLength(0x80), 2);
  EXPECT_EQ(Utf8EncodedLength(0x7FF), 2);
  EXPECT_EQ(Utf8EncodedLength(0x800), 3);
  EXPECT_EQ(Utf8EncodedLength(0xFFFF), 3);
  EXPECT_EQ(Utf8EncodedLength(0x10000), 4);
  EXPECT_EQ(Utf8EncodedLength(0x10FFFF), 4);
  EXPECT_EQ(Utf8EncodedLength(0x110000), 0);   // out of range
  EXPECT_EQ(Utf8EncodedLength(0xD800), 0);     // surrogate
}

TEST(Utf8Test, RoundTripRepresentativeCodePoints) {
  std::vector<uint32_t> cps = {0x00,   0x41,    0x7F,   0x80,    0x235,
                               0x7FF,  0x800,   0xD7FF, 0xE000,  0xFFFF,
                               0x10000, 0x10FFFF};
  auto encoded = EncodeUtf8(cps);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeUtf8(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, cps);
  EXPECT_EQ(Utf8Length(*encoded), cps.size());
}

TEST(Utf8Test, RejectsSurrogatesAndOutOfRange) {
  std::string out;
  EXPECT_TRUE(AppendUtf8(&out, 0xD800).IsInvalidArgument());
  EXPECT_TRUE(AppendUtf8(&out, 0xDFFF).IsInvalidArgument());
  EXPECT_TRUE(AppendUtf8(&out, 0x110000).IsInvalidArgument());
}

TEST(Utf8Test, RejectsMalformedInput) {
  // Truncated 2-byte sequence.
  EXPECT_TRUE(DecodeUtf8("\xC3").status().IsCorruption());
  // Bad continuation byte.
  EXPECT_TRUE(DecodeUtf8("\xC3\x41").status().IsCorruption());
  // Overlong encoding of '/' (0x2F as two bytes).
  EXPECT_TRUE(DecodeUtf8("\xC0\xAF").status().IsCorruption());
  // Bare continuation byte.
  EXPECT_TRUE(DecodeUtf8("\x80").status().IsCorruption());
  // Encoded surrogate (0xD800 in 3 bytes).
  EXPECT_TRUE(DecodeUtf8("\xED\xA0\x80").status().IsCorruption());
}

// Property-style sweep over the dictionary-relevant range: the first ~4096
// code points round-trip individually.
class Utf8SweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(Utf8SweepTest, SingleCodePointRoundTrip) {
  uint32_t base = GetParam();
  for (uint32_t cp = base; cp < base + 64; ++cp) {
    if (!IsValidCodePoint(cp)) continue;
    std::string buf;
    ASSERT_TRUE(AppendUtf8(&buf, cp).ok());
    size_t pos = 0;
    uint32_t got;
    ASSERT_TRUE(DecodeOneUtf8(buf, &pos, &got).ok()) << cp;
    EXPECT_EQ(got, cp);
    EXPECT_EQ(pos, buf.size());
  }
}

INSTANTIATE_TEST_SUITE_P(DictionaryRange, Utf8SweepTest,
                         ::testing::Values(0u, 64u, 128u, 0x700u, 0x7C0u,
                                           0x800u, 0xD780u, 0xE000u, 0xFFC0u,
                                           0x10000u, 0x10FFC0u));

// ---------------------------------------------------------------------------
// Strings

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a:b:c", ':'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a::b", ':'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ':'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ':'), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b", "c"}, ':'), "a:b:c");
  EXPECT_EQ(Join(std::vector<std::string>{}, ':'), "");
  EXPECT_EQ(Join(std::vector<std::string>{"x"}, ':'), "x");
}

TEST(StringsTest, SplitJoinInverse) {
  std::string s = "web:home:mentions:stream:avatar:profile_click";
  EXPECT_EQ(Join(Split(s, ':'), ':'), s);
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("web:home", "web"));
  EXPECT_FALSE(StartsWith("web", "web:home"));
  EXPECT_TRUE(EndsWith("profile_click", "click"));
  EXPECT_FALSE(EndsWith("click", "profile_click"));
}

TEST(StringsTest, ToLowerAndTrim) {
  EXPECT_EQ(ToLower("CamelCase_snake"), "camelcase_snake");
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, IsLowerSnake) {
  EXPECT_TRUE(IsLowerSnake("profile_click"));
  EXPECT_TRUE(IsLowerSnake("web2"));
  EXPECT_FALSE(IsLowerSnake(""));
  EXPECT_FALSE(IsLowerSnake("CamelCase"));
  EXPECT_FALSE(IsLowerSnake("has space"));
  EXPECT_FALSE(IsLowerSnake("has-dash"));
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("web", "web"));
  EXPECT_FALSE(GlobMatch("web", "webx"));
  EXPECT_TRUE(GlobMatch("web*", "web_client"));
  EXPECT_TRUE(GlobMatch("*click", "profile_click"));
  EXPECT_TRUE(GlobMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "aXXcYYb"));
  EXPECT_TRUE(GlobMatch("**", "x"));
  // A '*' in the text does not stop a pattern '*' from being a wildcard.
  EXPECT_TRUE(GlobMatch("web:*", "web:*x"));
  EXPECT_TRUE(GlobMatch("a*b", "a*xb"));
  EXPECT_TRUE(GlobMatch("*b", "*xb"));
  EXPECT_TRUE(GlobMatch("a*", "a*"));
  EXPECT_FALSE(GlobMatch("a*b", "a*x"));
}

TEST(StringsTest, HumanBytesAndCommas) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(100), "100");
  EXPECT_EQ(WithCommas(1000), "1,000");
}

// ---------------------------------------------------------------------------
// RNG

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(RngTest, PoissonMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.2);
  // Large-mean path (normal approximation).
  sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(RngTest, PickWeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.PickWeighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, ForkIndependent) {
  Rng a(5);
  Rng b = a.Fork();
  EXPECT_NE(a.Next64(), b.Next64());
}

TEST(ZipfianTest, RankZeroMostPopular) {
  Rng rng(23);
  ZipfianSampler zipf(100, 1.0);
  std::map<size_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfianTest, PmfSumsToOne) {
  ZipfianSampler zipf(50, 0.9);
  double sum = 0;
  for (size_t i = 0; i < 50; ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfianTest, SkewIncreasesHeadMass) {
  ZipfianSampler flat(100, 0.5), skewed(100, 1.5);
  EXPECT_GT(skewed.Pmf(0), flat.Pmf(0));
}

// ---------------------------------------------------------------------------
// Time

TEST(SimTimeTest, EpochIsCorrect) {
  CivilTime c = ToCivil(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
}

TEST(SimTimeTest, CivilRoundTrip) {
  TimeMs t = MakeDate(2012, 8, 21) + 13 * kMillisPerHour +
             45 * kMillisPerMinute + 30 * kMillisPerSecond + 123;
  CivilTime c = ToCivil(t);
  EXPECT_EQ(c.year, 2012);
  EXPECT_EQ(c.month, 8);
  EXPECT_EQ(c.day, 21);
  EXPECT_EQ(c.hour, 13);
  EXPECT_EQ(c.minute, 45);
  EXPECT_EQ(c.second, 30);
  EXPECT_EQ(c.millisecond, 123);
  EXPECT_EQ(FromCivil(c), t);
}

TEST(SimTimeTest, LeapYearHandled) {
  TimeMs t = MakeDate(2012, 2, 29);
  CivilTime c = ToCivil(t);
  EXPECT_EQ(c.month, 2);
  EXPECT_EQ(c.day, 29);
  EXPECT_EQ(ToCivil(t + kMillisPerDay).month, 3);
  EXPECT_EQ(ToCivil(t + kMillisPerDay).day, 1);
}

TEST(SimTimeTest, TruncationAndPaths) {
  TimeMs t = MakeDate(2012, 8, 21) + 13 * kMillisPerHour + 7 * kMillisPerMinute;
  EXPECT_EQ(TruncateToHour(t), MakeDate(2012, 8, 21) + 13 * kMillisPerHour);
  EXPECT_EQ(TruncateToDay(t), MakeDate(2012, 8, 21));
  EXPECT_EQ(HourPartitionPath(t), "2012/08/21/13");
  EXPECT_EQ(DateString(t), "2012-08-21");
  EXPECT_EQ(TimestampString(t), "2012-08-21 13:07:00.000");
}

TEST(SimTimeTest, SessionGapConstant) {
  EXPECT_EQ(kSessionInactivityGapMs, 30 * 60 * 1000);
}

// ---------------------------------------------------------------------------
// LZ codec

TEST(LzTest, EmptyInput) {
  std::string c = Lz::Compress("");
  auto d = Lz::Decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, "");
}

TEST(LzTest, IncompressibleRoundTrip) {
  Rng rng(29);
  std::string data;
  for (int i = 0; i < 10000; ++i) {
    data.push_back(static_cast<char>(rng.Next64() & 0xFF));
  }
  std::string c = Lz::Compress(data);
  auto d = Lz::Decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
}

TEST(LzTest, RepetitiveInputCompresses) {
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data += "web:home:mentions:stream:avatar:profile_click|";
  }
  std::string c = Lz::Compress(data);
  auto d = Lz::Decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
  EXPECT_LT(c.size(), data.size() / 10);
}

TEST(LzTest, OverlappingMatch) {
  // "aaaa..." forces self-overlapping copies.
  std::string data(5000, 'a');
  std::string c = Lz::Compress(data);
  auto d = Lz::Decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
  EXPECT_LT(c.size(), 100u);
}

TEST(LzTest, CorruptedBlockDetected) {
  std::string c = Lz::Compress("hello hello hello hello hello");
  // Truncate mid-stream.
  auto d = Lz::Decompress(std::string_view(c).substr(0, c.size() - 3));
  EXPECT_FALSE(d.ok());
  // Garbage tag.
  std::string bad = c;
  bad[1] = '\x7F';
  EXPECT_FALSE(Lz::Decompress(bad).ok());
}

TEST(LzTest, PooledCompressorMatchesReference) {
  // The pooled (state-reusing) compressor must emit the frozen reference's
  // bytes on every input shape: repetitive, random, runs, and empty.
  Rng rng(37);
  std::vector<std::string> inputs;
  inputs.emplace_back();
  inputs.emplace_back(5000, 'a');
  {
    std::string repetitive;
    for (int i = 0; i < 2000; ++i) repetitive += "home:timeline:tweet:click|";
    inputs.push_back(std::move(repetitive));
  }
  {
    std::string random;
    for (int i = 0; i < 100000; ++i) {
      random.push_back(static_cast<char>(rng.Next64() & 0xFF));
    }
    inputs.push_back(std::move(random));
  }
  Lz::Compressor compressor;
  std::string out;
  for (const std::string& data : inputs) {
    compressor.CompressTo(data, &out);
    EXPECT_EQ(out, lz_reference::Compress(data)) << "size=" << data.size();
    EXPECT_EQ(Lz::Compress(data), lz_reference::Compress(data));
  }
}

TEST(LzTest, WindowStraddlingMatchesRoundTrip) {
  // Matches whose source sits just inside / just outside the 64 KiB window
  // relative to the match position: phrase at offset 0, repeats placed at
  // distances straddling kWindow.
  std::string phrase = "straddle-the-window-boundary-phrase!";
  for (size_t gap : {Lz::kWindow - phrase.size() - 1, Lz::kWindow - 1,
                     Lz::kWindow, Lz::kWindow + 1, Lz::kWindow + 64}) {
    std::string data = phrase;
    data.append(gap, '\x00');
    data += phrase;
    data.append(17, 'z');
    data += phrase;
    std::string pooled = Lz::Compress(data);
    EXPECT_EQ(pooled, lz_reference::Compress(data)) << "gap=" << gap;
    auto back = Lz::Decompress(pooled);
    ASSERT_TRUE(back.ok()) << "gap=" << gap;
    EXPECT_EQ(*back, data) << "gap=" << gap;
  }
}

TEST(LzTest, CompressorReuseAcrossDecreasingSizes) {
  // A reused compressor must not leak hash-chain state from a big input
  // into a later small one (positions beyond the small input's size would
  // be read as matches → corrupt or non-reference output).
  Rng rng(41);
  Lz::Compressor compressor;
  std::string out;
  for (size_t size : {200000ul, 70000ul, 1000ul, 64ul, 5ul, 0ul}) {
    std::string data;
    data.reserve(size);
    while (data.size() < size) {
      if (rng.Bernoulli(0.5)) {
        data += "web:home:mentions:avatar|";
      } else {
        data.push_back(static_cast<char>(rng.Next64() & 0xFF));
      }
    }
    data.resize(size);
    compressor.CompressTo(data, &out);
    ASSERT_EQ(out, lz_reference::Compress(data)) << "size=" << size;
    auto back = Lz::Decompress(out);
    ASSERT_TRUE(back.ok()) << "size=" << size;
    EXPECT_EQ(*back, data) << "size=" << size;
  }
}

TEST(LzTest, CompressToReusesCapacity) {
  Lz::Compressor compressor;
  std::string out;
  Rng rng(43);
  std::string big;
  for (int i = 0; i < 100000; ++i) {
    big.push_back(static_cast<char>(rng.Next64() & 0xFF));
  }
  compressor.CompressTo(big, &out);
  const size_t cap = out.capacity();
  compressor.CompressTo("tiny tiny tiny tiny", &out);
  EXPECT_GE(out.capacity(), cap);  // capacity retained, not reallocated
  EXPECT_EQ(out, lz_reference::Compress("tiny tiny tiny tiny"));
}

// Decompress must reproduce `data` from `block`.
void ExpectDecodes(const std::string& block, const std::string& data) {
  auto whole = Lz::Decompress(block);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, data);
}

TEST(LzTest, FastCompressorMatchesReferenceOnGoldenCorpus) {
  // One reused FastCompressor over every shape of the golden corpus: the
  // frozen single-probe reference's bytes, decodable by Decompress.
  Lz::FastCompressor compressor;
  std::string out;
  for (const std::string& data : lz_corpus::GoldenCorpus()) {
    compressor.CompressTo(data, &out);
    ASSERT_EQ(out, lz_reference::FastCompress(data)) << "size=" << data.size();
    ExpectDecodes(out, data);
  }
}

TEST(LzTest, FastCompressorReuseAcrossDecreasingSizes) {
  // Table entries left by a big input must read as stale in every later
  // call: a reused compressor emits a fresh one's bytes.
  Rng rng(47);
  Lz::FastCompressor reused;
  std::string out;
  for (size_t size : {200000ul, 70000ul, 40000ul, 1000ul, 64ul, 5ul, 0ul}) {
    std::string data = lz_corpus::EventText(rng, size / 60 + 1);
    data.resize(size);
    reused.CompressTo(data, &out);
    Lz::FastCompressor fresh;
    ASSERT_EQ(out, fresh.Compress(data)) << "size=" << size;
    ASSERT_EQ(out, lz_reference::FastCompress(data)) << "size=" << size;
    ExpectDecodes(out, data);
  }
}

TEST(LzTest, FastCompressorSkimsIncompressibleInput) {
  // Random bytes find no match, so the growing skip leaves one literal
  // token: the block is the input plus a few bytes of framing.
  Rng rng(53);
  const std::string data = lz_corpus::RandomBytes(rng, 100000);
  const std::string block = Lz::FastCompressor().Compress(data);
  EXPECT_EQ(block, lz_reference::FastCompress(data));
  EXPECT_LE(block.size(), data.size() + 8);
  ExpectDecodes(block, data);
}

TEST(LzTest, FastCompressorExtendsMatchesBackward) {
  // After a long literal run the probe steps over many positions. The
  // second copy of a phrase starts 10 bytes before a probed position, so
  // the probe lands inside it; the match must still start where the copy
  // does, making the whole phrase one back-reference.
  Rng rng(59);
  size_t probe = 0;  // probed positions while no match is found
  while (probe < 3000) {
    probe += 1 + (probe >> lz_reference::kFastSkipShift);
  }
  const std::string phrase = lz_corpus::RandomBytes(rng, 200);
  const std::string noise =
      lz_corpus::RandomBytes(rng, probe - 10 - phrase.size());
  const std::string data = phrase + noise + phrase;
  const std::string block = Lz::FastCompressor().Compress(data);
  EXPECT_EQ(block, lz_reference::FastCompress(data));
  std::string expected;
  PutVarint64(&expected, data.size());
  expected.push_back('\x00');
  PutVarint64(&expected, phrase.size() + noise.size());
  expected += phrase + noise;
  expected.push_back('\x01');
  PutVarint64(&expected, phrase.size() + noise.size());
  PutVarint64(&expected, phrase.size());
  EXPECT_EQ(block, expected);
  ExpectDecodes(block, data);
}

// Decompress must fail on `block` with Corruption.
void ExpectRejected(const std::string& block) {
  auto whole = Lz::Decompress(block);
  ASSERT_FALSE(whole.ok());
  EXPECT_TRUE(whole.status().IsCorruption()) << whole.status().ToString();
}

TEST(LzTest, HostileDeclaredLengthIsCorruptionNotAllocation) {
  // A 7-byte block declaring 2^48 bytes with no tokens, and one declaring
  // 2^63 whose only token is an empty literal: reserving the declared
  // length threw before any token was read.
  std::string huge;
  PutVarint64(&huge, uint64_t{1} << 48);
  ASSERT_EQ(huge.size(), 7u);
  ExpectRejected(huge);
  std::string huger;
  PutVarint64(&huger, uint64_t{1} << 63);
  huger.push_back('\x00');  // literal of length 0
  huger.push_back('\x00');
  ExpectRejected(huger);
}

TEST(LzTest, HostileMatchLengthIsCorruptionNotAllocation) {
  // 13 bytes declaring 8: a 3-byte literal, then dist=1 len=2^34. Expanding
  // the match before checking it allocated until the process aborted.
  std::string block;
  PutVarint64(&block, 8);
  block.push_back('\x00');
  PutVarint64(&block, 3);
  block += "abc";
  block.push_back('\x01');
  PutVarint64(&block, 1);
  PutVarint64(&block, uint64_t{1} << 34);
  ASSERT_EQ(block.size(), 13u);
  ExpectRejected(block);
}

TEST(LzTest, TokenPastDeclaredLengthIsRejectedBeforeWriting) {
  // A literal one byte longer than the declared length fails the same way
  // as an oversized match.
  std::string block;
  PutVarint64(&block, 3);
  block.push_back('\x00');
  PutVarint64(&block, 4);
  block += "abcd";
  ExpectRejected(block);
}

TEST(LzTest, MixedContentRoundTrip) {
  Rng rng(31);
  std::string data;
  for (int block = 0; block < 50; ++block) {
    if (rng.Bernoulli(0.5)) {
      data += "the quick brown fox jumps over the lazy dog ";
    } else {
      for (int i = 0; i < 100; ++i) {
        data.push_back(static_cast<char>(rng.Next64() & 0xFF));
      }
    }
  }
  auto d = Lz::Decompress(Lz::Compress(data));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
}

}  // namespace
}  // namespace unilog
