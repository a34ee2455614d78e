// Property-based sweeps over the codecs and core invariants: randomized
// LZ round-trips, broker batch decodes against a whole-decode reference,
// random Thrift value round-trips, sessionizer partition invariants,
// glob-matching properties, and dictionary coding laws.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/compress.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/utf8.h"
#include "broker/partition_log.h"
#include "catalog/catalog.h"
#include "dataflow/mapreduce.h"
#include "columnar/rcfile.h"
#include "dataflow/plan_fingerprint.h"
#include "dataflow/relation.h"
#include "dataflow/relation_serde.h"
#include "dataflow/vector_engine.h"
#include "oink/artifact_cache.h"
#include "oink/workflow.h"
#include "events/client_event.h"
#include "events/event_name.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "landing_oracle.h"
#include "sessions/dictionary.h"
#include "sessions/histogram.h"
#include "sessions/sessionizer.h"
#include "lz_corpus.h"
#include "lz_reference.h"
#include "oink_oracle.h"
#include "relation_oracle.h"
#include "scan_oracle.h"
#include "thrift_oracle.h"
#include "workload/generator.h"

namespace unilog {
namespace {

// ---------------------------------------------------------------------------
// LZ codec: random inputs of varied structure always round-trip.

class LzPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::string RandomBuffer(Rng& rng) {
  std::string data;
  size_t segments = 1 + rng.Uniform(20);
  for (size_t s = 0; s < segments; ++s) {
    switch (rng.Uniform(4)) {
      case 0: {  // random bytes
        size_t n = rng.Uniform(500);
        for (size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<char>(rng.Next64() & 0xFF));
        }
        break;
      }
      case 1: {  // run of one byte
        data.append(rng.Uniform(300), static_cast<char>(rng.Uniform(256)));
        break;
      }
      case 2: {  // repeated phrase
        std::string phrase = "event" + std::to_string(rng.Uniform(10)) + ":";
        size_t reps = rng.Uniform(100);
        for (size_t i = 0; i < reps; ++i) data += phrase;
        break;
      }
      default: {  // copy of an earlier window (long-range match)
        if (!data.empty()) {
          size_t start = rng.Uniform(data.size());
          size_t len = std::min<size_t>(rng.Uniform(200),
                                        data.size() - start);
          data += data.substr(start, len);
        }
        break;
      }
    }
  }
  return data;
}

TEST_P(LzPropertyTest, RoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    std::string data = RandomBuffer(rng);
    std::string compressed = Lz::Compress(data);
    auto back = Lz::Decompress(compressed);
    ASSERT_TRUE(back.ok()) << "seed=" << GetParam() << " iter=" << iter;
    ASSERT_EQ(*back, data) << "seed=" << GetParam() << " iter=" << iter;
  }
}

// Generator biased toward the 64 KiB window boundary: phrases repeated at
// distances clustered around kWindow so matches straddle the cutoff, mixed
// with noise so the hash chains stay populated.
std::string WindowBoundaryBuffer(Rng& rng) {
  std::string phrase = "boundary" + std::to_string(rng.Uniform(16)) + "!";
  std::string data = phrase;
  size_t repeats = 1 + rng.Uniform(4);
  for (size_t r = 0; r < repeats; ++r) {
    // Distance in [kWindow - 128, kWindow + 128] from the last phrase.
    size_t gap = Lz::kWindow - 128 + rng.Uniform(257);
    size_t noise = std::min<size_t>(gap, 64 + rng.Uniform(64));
    for (size_t i = 0; i < noise; ++i) {
      data.push_back(static_cast<char>(rng.Next64() & 0xFF));
    }
    data.append(gap - noise, static_cast<char>(rng.Uniform(4)));
    data += phrase;
  }
  return data;
}

TEST_P(LzPropertyTest, PooledMatchesReferenceAndRoundTrips) {
  // One reused Compressor across every buffer in the sweep: pooled output
  // must equal the frozen reference's and round-trip, regardless of the
  // size sequence the compressor sees.
  Rng rng(GetParam() * 7919 + 1);
  Lz::Compressor compressor;
  std::string pooled;
  for (int iter = 0; iter < 12; ++iter) {
    std::string data =
        rng.Bernoulli(0.5) ? RandomBuffer(rng) : WindowBoundaryBuffer(rng);
    compressor.CompressTo(data, &pooled);
    ASSERT_EQ(pooled, lz_reference::Compress(data))
        << "seed=" << GetParam() << " iter=" << iter
        << " size=" << data.size();
    auto back = Lz::Decompress(pooled);
    ASSERT_TRUE(back.ok()) << "seed=" << GetParam() << " iter=" << iter;
    ASSERT_EQ(*back, data) << "seed=" << GetParam() << " iter=" << iter;
  }
}

// Compresses `data` with the pooled compressor, checks the block against
// the frozen reference, and round-trips it.
void ExpectReferenceBytes(const std::string& data, const std::string& what) {
  std::string block = Lz::Compress(data);
  ASSERT_EQ(block, lz_reference::Compress(data))
      << what << " size=" << data.size();
  auto back = Lz::Decompress(block);
  ASSERT_TRUE(back.ok()) << what;
  ASSERT_EQ(*back, data) << what;
}

TEST_P(LzPropertyTest, RunsOfOneByteMatchReference) {
  // Saturated chains: every candidate matches as far as the run goes. Runs
  // that end the input end their matches there; the others stop one byte
  // short of a different tail.
  Rng rng(GetParam() * 31 + 7);
  for (int iter = 0; iter < 16; ++iter) {
    std::string data = lz_corpus::RandomBytes(rng, rng.Uniform(8));
    data.append(1 + rng.Uniform(iter < 8 ? 100 : 6000),
                static_cast<char>(rng.Uniform(256)));
    if (iter % 2 == 1) data += lz_corpus::RandomBytes(rng, 1 + rng.Uniform(8));
    ExpectReferenceBytes(data, "iter=" + std::to_string(iter));
  }
}

TEST_P(LzPropertyTest, TinyInputsMatchReference) {
  // 0-16 bytes: every length the word-wise match loop leaves to its
  // byte-wise tail, over alphabets that force matches and ones that don't.
  Rng rng(GetParam() * 37 + 11);
  for (size_t n = 0; n <= 16; ++n) {
    for (uint64_t alphabet : {1, 2, 3, 256}) {
      ExpectReferenceBytes(lz_corpus::RandomBytes(rng, n, alphabet),
                           "n=" + std::to_string(n) +
                               " alphabet=" + std::to_string(alphabet));
    }
  }
}

TEST_P(LzPropertyTest, MatchesEndingAtInputEndMatchReference) {
  // The input ends with a copy (or a prefix of a copy) of an earlier
  // phrase, so the best match runs exactly to the end of the input.
  Rng rng(GetParam() * 41 + 13);
  for (int iter = 0; iter < 24; ++iter) {
    std::string phrase = lz_corpus::RandomBytes(rng, 4 + rng.Uniform(40),
                                                1 + rng.Uniform(4));
    std::string data = lz_corpus::RandomBytes(rng, rng.Uniform(30));
    for (uint64_t r = 1 + rng.Uniform(3); r > 0; --r) {
      data += phrase;
      data += lz_corpus::RandomBytes(rng, rng.Uniform(20), 8);
    }
    data += phrase.substr(0, 4 + rng.Uniform(phrase.size() - 3));
    ExpectReferenceBytes(data, "iter=" + std::to_string(iter));
  }
}

TEST_P(LzPropertyTest, WindowEdgeDistancesMatchReference) {
  // A phrase repeated at distances kWindow - 1, kWindow and kWindow + 1:
  // the first two are in reach, the last is not.
  Rng rng(GetParam() * 43 + 17);
  const std::string phrase = lz_corpus::RandomBytes(rng, 8 + rng.Uniform(24));
  for (size_t dist : {Lz::kWindow - 1, Lz::kWindow, Lz::kWindow + 1}) {
    std::string data = phrase;
    data += lz_corpus::RandomBytes(rng, dist - phrase.size(),
                                   1 + rng.Uniform(3));
    data += phrase;
    data += lz_corpus::RandomBytes(rng, rng.Uniform(16));
    ExpectReferenceBytes(data, "dist=" + std::to_string(dist));
  }
}

TEST_P(LzPropertyTest, AlphabetSweepMatchesReference) {
  // Alphabets of 1 to 256 symbols move the balance between chain length,
  // match length and literal runs.
  Rng rng(GetParam() * 47 + 19);
  for (uint64_t alphabet : {1, 2, 3, 4, 5, 8, 16, 32, 64, 128, 200, 255, 256}) {
    ExpectReferenceBytes(
        lz_corpus::RandomBytes(rng, 1000 + rng.Uniform(4000), alphabet),
        "alphabet=" + std::to_string(alphabet));
  }
}

// The compressed column blobs of every row group of an RCFile v2 body, in
// file order: magic, then per group the header (row count, zone map,
// dictionaries), its two checksums and kEventColumns length-prefixed blobs.
Status RcFileColumnBlobs(std::string_view body,
                         std::vector<std::string_view>* blobs) {
  Decoder dec(body);
  UNILOG_RETURN_NOT_OK(dec.Skip(4));  // "RCF2"
  while (!dec.AtEnd()) {
    uint64_t count = 0, value = 0;
    int64_t bound = 0;
    uint32_t checksum = 0;
    std::string_view bytes;
    UNILOG_RETURN_NOT_OK(dec.GetVarint64(&count));  // rows
    for (int k = 0; k < 4; ++k) {
      UNILOG_RETURN_NOT_OK(dec.GetSignedVarint64(&bound));
    }
    UNILOG_RETURN_NOT_OK(dec.GetVarint64(&count));  // event names
    for (uint64_t k = 0; k < count; ++k) {
      UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&bytes));
    }
    UNILOG_RETURN_NOT_OK(dec.GetVarint64(&count));  // initiators
    for (uint64_t k = 0; k < count; ++k) {
      UNILOG_RETURN_NOT_OK(dec.GetVarint64(&value));
    }
    UNILOG_RETURN_NOT_OK(dec.GetVarint32(&checksum));
    UNILOG_RETURN_NOT_OK(dec.GetVarint32(&checksum));
    for (int c = 0; c < columnar::kEventColumns; ++c) {
      UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&bytes));
      blobs->push_back(bytes);
    }
  }
  return Status::OK();
}

TEST_P(LzPropertyTest, WorkloadBlocksMatchReference) {
  // What the warehouse compresses: a framed hour of serialized client
  // events, and the Lz column blobs of those events as RCFile v2 (the
  // frozen v2 writer; v3 columns carry no Lz).
  const uint64_t seed = GetParam();
  ExpectReferenceBytes(lz_corpus::FramedHour(seed, 40), "framed hour");

  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_users = 40;
  options.start = MakeDate(2012, 8, 21);
  options.duration = kMillisPerHour;
  workload::WorkloadGenerator generator(options);
  std::string body;
  landing_oracle::RowWriter writer(&body, /*rows_per_group=*/256);
  ASSERT_TRUE(generator
                  .Generate([&](const events::ClientEvent& ev) {
                    writer.Add(ev);
                  })
                  .ok());
  writer.Finish();
  std::vector<std::string_view> blobs;
  ASSERT_TRUE(RcFileColumnBlobs(body, &blobs).ok());
  ASSERT_GE(blobs.size(), 2u * columnar::kEventColumns);
  for (size_t b = 0; b < blobs.size(); ++b) {
    auto column = Lz::Decompress(blobs[b]);
    ASSERT_TRUE(column.ok()) << "blob " << b;
    ASSERT_EQ(lz_reference::Compress(*column), blobs[b]) << "blob " << b;
  }
}

// A hand-built block of literals and matches, many of them overlapping
// their own output (dist 1, dist len - 1), with the expected output
// decoded one byte at a time.
std::string OverlappingMatchBlock(Rng& rng, std::string* expected) {
  std::string tokens;
  expected->clear();
  for (int t = 0; t < 40; ++t) {
    if (expected->empty() || rng.Bernoulli(0.25)) {
      std::string lit = lz_corpus::RandomBytes(rng, 1 + rng.Uniform(12));
      tokens.push_back('\x00');
      PutLengthPrefixed(&tokens, lit);
      *expected += lit;
      continue;
    }
    size_t len = 1 + rng.Uniform(300);
    size_t dist = 0;
    switch (rng.Uniform(3)) {
      case 0:
        dist = 1;
        break;
      case 1:  // overlaps all but one byte of its own source
        len = 2 + rng.Uniform(expected->size());
        dist = len - 1;
        break;
      default:
        dist = 1 + rng.Uniform(expected->size());
    }
    tokens.push_back('\x01');
    PutVarint64(&tokens, dist);
    PutVarint64(&tokens, len);
    for (size_t k = 0; k < len; ++k) {
      expected->push_back((*expected)[expected->size() - dist]);
    }
  }
  std::string block;
  PutVarint64(&block, expected->size());
  return block + tokens;
}

TEST_P(LzPropertyTest, OverlappingMatchesDecodeByteForByte) {
  // Matches at dist 1 and dist len - 1 repeat their own output; Decompress
  // must agree with the byte-at-a-time expansion.
  Rng rng(GetParam() * 53 + 23);
  for (int iter = 0; iter < 6; ++iter) {
    std::string expected;
    const std::string block = OverlappingMatchBlock(rng, &expected);
    auto whole = Lz::Decompress(block);
    ASSERT_TRUE(whole.ok()) << "iter=" << iter;
    ASSERT_EQ(*whole, expected) << "iter=" << iter;
  }
}

TEST_P(LzPropertyTest, FastParseMatchesReferenceAndRoundTrips) {
  // One reused FastCompressor over seeded random bytes, event text, the
  // structured and window-boundary buffers, 0-16-byte inputs and phrases
  // repeated at kWindow - 1, kWindow and kWindow + 1: every block is the
  // frozen single-probe reference's, and Decompress reproduces the input.
  Rng rng(GetParam() * 104729 + 7);
  std::vector<std::string> inputs;
  for (size_t n = 0; n <= 16; ++n) {
    inputs.push_back(lz_corpus::RandomBytes(rng, n, 1 + rng.Uniform(4)));
  }
  for (uint64_t alphabet : {2, 16, 256}) {
    inputs.push_back(
        lz_corpus::RandomBytes(rng, rng.Uniform(30000), alphabet));
  }
  inputs.push_back(lz_corpus::EventText(rng, 1 + rng.Uniform(700)));
  for (int k = 0; k < 4; ++k) inputs.push_back(RandomBuffer(rng));
  inputs.push_back(WindowBoundaryBuffer(rng));
  const std::string phrase = lz_corpus::RandomBytes(rng, 8 + rng.Uniform(24));
  for (size_t dist : {Lz::kWindow - 1, Lz::kWindow, Lz::kWindow + 1}) {
    std::string data = phrase;
    data += lz_corpus::RandomBytes(rng, dist - phrase.size(), 4);
    data += phrase;
    inputs.push_back(std::move(data));
  }

  Lz::FastCompressor compressor;
  std::string block;
  for (size_t k = 0; k < inputs.size(); ++k) {
    const std::string& data = inputs[k];
    compressor.CompressTo(data, &block);
    ASSERT_EQ(block, lz_reference::FastCompress(data))
        << "seed=" << GetParam() << " input=" << k << " size=" << data.size();
    auto whole = Lz::Decompress(block);
    ASSERT_TRUE(whole.ok()) << "input=" << k;
    ASSERT_EQ(*whole, data) << "input=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Broker batch decode: DecodeBatchFrames against a reference that
// decompresses the whole body with Lz::Decompress and walks its frames one
// byte at a time.

// One reference frame: its logged_at and the payload's position in the
// walked body.
struct RefFrame {
  TimeMs logged_at = 0;
  size_t pos = 0;
  size_t len = 0;
};

// Reads a LEB128 varint of at most ten bytes one byte at a time; false
// when truncated or longer.
bool RefVarint(std::string_view buf, size_t* pos, uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift <= 63 && *pos < buf.size(); shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(buf[(*pos)++]);
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

// The included frames of `b`, walked in *walked (the decompressed body, or
// the batch's own); false where DecodeBatchFrames must report Corruption.
bool ReferenceDecode(const broker::Batch& b, std::string* walked,
                     std::vector<RefFrame>* out) {
  if (b.body == nullptr) return b.count == 0;
  if (b.compressed) {
    auto whole = Lz::Decompress(*b.body);
    if (!whole.ok()) return false;
    *walked = std::move(*whole);
  } else {
    *walked = *b.body;
  }
  size_t pos = 0;
  for (uint64_t f = 0; f < uint64_t{b.skip_frames} + b.count; ++f) {
    uint64_t logged_at = 0;
    uint64_t len = 0;
    if (!RefVarint(*walked, &pos, &logged_at) ||
        !RefVarint(*walked, &pos, &len) || len > walked->size() - pos) {
      return false;
    }
    if (f >= b.skip_frames) {
      const uint64_t i = f - b.skip_frames;
      if (i < b.record_sizes.size() && b.record_sizes[i] != len) return false;
      out->push_back(RefFrame{static_cast<TimeMs>(logged_at), pos, len});
    }
    pos += len;
  }
  return true;
}

// A seeded batch: up to nine frames, a random included slice, sometimes a
// wrong size index, and compressed about half the time.
broker::Batch RandomBatch(Rng& rng) {
  broker::Batch b;
  const uint32_t frames = static_cast<uint32_t>(rng.Uniform(10));
  std::string body;
  std::vector<uint32_t> sizes;
  for (uint32_t f = 0; f < frames; ++f) {
    const size_t len = rng.Bernoulli(0.2) ? rng.Uniform(400) : rng.Uniform(24);
    const std::string payload =
        lz_corpus::RandomBytes(rng, len, 1 + rng.Uniform(8));
    broker::AppendBatchFrame(&body, static_cast<TimeMs>(rng.Next64() >> 20),
                             payload);
    sizes.push_back(static_cast<uint32_t>(len));
  }
  b.skip_frames = static_cast<uint32_t>(rng.Uniform(frames + 1));
  b.count = static_cast<uint32_t>(rng.Uniform(frames - b.skip_frames + 1));
  if (rng.Bernoulli(0.1)) ++b.count;  // claims a frame the body lacks
  for (uint32_t i = 0; i < b.count && b.skip_frames + i < frames; ++i) {
    b.record_sizes.push_back(sizes[b.skip_frames + i]);
  }
  if (!b.record_sizes.empty() && rng.Bernoulli(0.1)) {
    b.record_sizes[rng.Uniform(b.record_sizes.size())] += 1;
  }
  b.compressed = rng.Bernoulli(0.5);
  b.body = std::make_shared<const std::string>(
      b.compressed ? Lz::Compress(body) : body);
  return b;
}

// Flips a bit of one byte and/or cuts the body short.
void DamageBody(Rng& rng, broker::Batch* b) {
  std::string damaged = *b->body;
  if (!damaged.empty() && rng.Bernoulli(0.5)) {
    damaged[rng.Uniform(damaged.size())] ^=
        static_cast<char>(1u << rng.Uniform(8));
  }
  if (rng.Bernoulli(0.5)) damaged.resize(rng.Uniform(damaged.size() + 1));
  b->body = std::make_shared<const std::string>(std::move(damaged));
}

class BatchDecodePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDecodePropertyTest, DecodeBatchFramesMatchesWholeDecodeAndWalk) {
  // The same views as the reference, or Corruption with *frames left as
  // it was.
  Rng rng(GetParam() * 7919 + 11);
  int ok = 0;
  int corrupt = 0;
  for (int iter = 0; iter < 400; ++iter) {
    broker::Batch b = RandomBatch(rng);
    if (rng.Bernoulli(0.4)) DamageBody(rng, &b);
    if (rng.Bernoulli(0.02)) b.body = nullptr;

    std::string walked;
    std::vector<RefFrame> want;
    const bool want_ok = ReferenceDecode(b, &walked, &want);

    std::string body;
    const broker::FrameView sentinel{-7, "kept"};
    std::vector<broker::FrameView> got{sentinel};
    Status st = broker::DecodeBatchFrames(b, &body, &got);
    const std::string where = "seed=" + std::to_string(GetParam()) +
                              " iter=" + std::to_string(iter);
    ASSERT_EQ(st.ok(), want_ok) << where << " " << st.ToString();
    ASSERT_GE(got.size(), 1u) << where;
    EXPECT_EQ(got[0].logged_at, sentinel.logged_at) << where;
    EXPECT_EQ(got[0].payload.data(), sentinel.payload.data()) << where;
    if (!st.ok()) {
      ASSERT_TRUE(st.IsCorruption()) << where << " " << st.ToString();
      ASSERT_EQ(got.size(), 1u) << where;
      ++corrupt;
      continue;
    }
    ++ok;
    if (b.body == nullptr) {  // an empty batch needs no body
      ASSERT_EQ(got.size(), 1u) << where;
      continue;
    }
    // Views point into the decompressed body, or into the batch's own.
    const char* base = b.compressed ? body.data() : b.body->data();
    if (b.compressed) {
      ASSERT_EQ(body, walked) << where;
    }
    ASSERT_EQ(got.size(), want.size() + 1) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i + 1].logged_at, want[i].logged_at) << where;
      EXPECT_EQ(got[i + 1].payload.data(), base + want[i].pos) << where;
      EXPECT_EQ(got[i + 1].payload.size(), want[i].len) << where;
    }
  }
  // Both outcomes are exercised at every seed.
  EXPECT_GT(ok, 50);
  EXPECT_GT(corrupt, 50);
}

TEST_P(BatchDecodePropertyTest, CorruptTokenPastIncludedFramesIsCorruption) {
  // The body is decompressed whole, so a bad Lz token past the last
  // included frame fails the decode even though no included frame needs
  // it (an incremental decoder never read that token).
  Rng rng(GetParam() * 31 + 5);
  std::string body;
  // At least 20 payload bytes: the frame header's varint headroom then
  // lies inside the first token.
  const std::string head = lz_corpus::RandomBytes(rng, 20 + rng.Uniform(40));
  const std::string tail = lz_corpus::RandomBytes(rng, 1 + rng.Uniform(40));
  broker::AppendBatchFrame(&body, 1, head);
  const size_t head_size = body.size();
  broker::AppendBatchFrame(&body, 2, tail);
  // One literal token covering the head frame, then a bad tag.
  std::string block;
  PutVarint64(&block, body.size());
  block.push_back('\x00');
  PutLengthPrefixed(&block, std::string_view(body).substr(0, head_size));
  block.push_back('\x07');
  broker::Batch b;
  b.count = 1;
  b.record_sizes = {static_cast<uint32_t>(head.size())};
  b.compressed = true;
  b.body = std::make_shared<const std::string>(block);
  std::string decoded;
  std::vector<broker::FrameView> frames;
  EXPECT_TRUE(broker::DecodeBatchFrames(b, &decoded, &frames).IsCorruption());
  EXPECT_TRUE(frames.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDecodePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Thrift: randomly generated values round-trip through the oracle's
// compact writer and parser.

using thrift_oracle::ThriftValue;

ThriftValue RandomValue(Rng& rng, int depth);

ThriftValue RandomScalar(Rng& rng) {
  switch (rng.Uniform(7)) {
    case 0:
      return ThriftValue::Bool(rng.Bernoulli(0.5));
    case 1:
      return ThriftValue::Byte(static_cast<int8_t>(rng.Next64()));
    case 2:
      return ThriftValue::I16(static_cast<int16_t>(rng.Next64()));
    case 3:
      return ThriftValue::I32(static_cast<int32_t>(rng.Next64()));
    case 4:
      return ThriftValue::I64(static_cast<int64_t>(rng.Next64()));
    case 5:
      return ThriftValue::Double(rng.NextDouble() * 1e6 - 5e5);
    default: {
      std::string s;
      size_t n = rng.Uniform(30);
      for (size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(rng.Next64() & 0xFF));
      }
      return ThriftValue::String(std::move(s));
    }
  }
}

ThriftValue RandomStruct(Rng& rng, int depth) {
  ThriftValue s = ThriftValue::Struct();
  size_t fields = rng.Uniform(6);
  int16_t id = 0;
  for (size_t f = 0; f < fields; ++f) {
    id = static_cast<int16_t>(id + 1 + rng.Uniform(30));
    s.SetField(id, RandomValue(rng, depth - 1));
  }
  return s;
}

ThriftValue RandomValue(Rng& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.5)) return RandomScalar(rng);
  switch (rng.Uniform(3)) {
    case 0:
      return RandomStruct(rng, depth);
    case 1: {
      thrift_oracle::ListData l;
      // Homogeneous element type required: sample one exemplar.
      ThriftValue exemplar = RandomScalar(rng);
      l.elem_type = exemplar.type();
      l.is_set = rng.Bernoulli(0.3);
      size_t n = rng.Uniform(5);
      for (size_t i = 0; i < n; ++i) {
        // Re-draw until the type matches the exemplar.
        ThriftValue v = RandomScalar(rng);
        while (v.type() != l.elem_type) v = RandomScalar(rng);
        l.elems.push_back(std::move(v));
      }
      return ThriftValue::List(std::move(l));
    }
    default: {
      thrift_oracle::MapData m;
      ThriftValue kx = RandomScalar(rng);
      ThriftValue vx = RandomScalar(rng);
      m.key_type = kx.type();
      m.value_type = vx.type();
      size_t n = rng.Uniform(4);
      for (size_t i = 0; i < n; ++i) {
        ThriftValue k = RandomScalar(rng);
        while (k.type() != m.key_type) k = RandomScalar(rng);
        ThriftValue v = RandomScalar(rng);
        while (v.type() != m.value_type) v = RandomScalar(rng);
        m.entries.emplace_back(std::move(k), std::move(v));
      }
      return ThriftValue::Map(std::move(m));
    }
  }
}

class ThriftPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThriftPropertyTest, RandomStructsRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    ThriftValue s = RandomStruct(rng, 3);
    std::string buf;
    ASSERT_TRUE(thrift_oracle::SerializeStruct(s, &buf).ok());
    auto parsed = thrift_oracle::ParseStruct(buf);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->Equals(s)) << "seed=" << GetParam()
                                   << " iter=" << iter << "\nvalue "
                                   << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThriftPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// ---------------------------------------------------------------------------
// The typed client-event codec against the oracle: catalog samples render
// as the oracle's parse of the payload, and production's reader skips
// oracle-written unknown fields of every shape.

class ClientEventOraclePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

// Letters mixed with the bytes a renderer could mangle: quotes, NULs,
// backslashes and bytes that are not UTF-8.
std::string HostileString(Rng& rng) {
  static constexpr char kSpecial[] = {'"', '\0', '\\', '\xff', '\xc3', '\x80'};
  std::string s;
  for (size_t n = rng.Uniform(12); n > 0; --n) {
    s.push_back(rng.Bernoulli(0.3)
                    ? kSpecial[rng.Uniform(std::size(kSpecial))]
                    : static_cast<char>('a' + rng.Uniform(26)));
  }
  return s;
}

// Event `i` of a sweep: the four initiators in turn, user ids and
// timestamps of both signs, and zero to three details entries.
events::ClientEvent RandomClientEvent(Rng& rng, size_t i) {
  events::ClientEvent ev;
  ev.initiator = static_cast<events::EventInitiator>(i % 4);
  ev.event_name = HostileString(rng);
  ev.user_id = static_cast<int64_t>(rng.Next64() >> rng.Uniform(63));
  if (i % 2 == 1) ev.user_id = -ev.user_id;
  ev.session_id = HostileString(rng);
  ev.ip = HostileString(rng);
  ev.timestamp = static_cast<int64_t>(rng.Next64() >> 20);
  if (i % 3 == 1) ev.timestamp = -ev.timestamp;
  for (size_t n = rng.Uniform(4); n > 0; --n) {
    ev.details.emplace_back(HostileString(rng), HostileString(rng));
  }
  return ev;
}

bool ReaderAccepts(std::string_view m) {
  events::ClientEventView view;
  std::vector<events::DetailView> details;
  return events::ReadClientEventBody(m, &view, &details).ok();
}

TEST_P(ClientEventOraclePropertyTest, CatalogSamplesRenderAsOracleParse) {
  Rng rng(GetParam());
  constexpr size_t kEvents = 40;
  constexpr size_t kGarbage = 10;
  std::vector<std::string> payloads;
  while (payloads.size() < kEvents) {
    payloads.push_back(RandomClientEvent(rng, payloads.size()).Serialize());
  }
  while (payloads.size() < kEvents + kGarbage) {
    std::string g(rng.Uniform(40), '\0');
    for (char& c : g) c = static_cast<char>(rng.Uniform(256));
    if (!ReaderAccepts(g)) payloads.push_back(std::move(g));
  }
  sessions::EventHistogram hist;
  for (size_t i = 0; i < payloads.size(); ++i) {
    hist.Add("e" + std::to_string(i), &payloads[i]);
  }
  auto dict = sessions::EventDictionary::FromSortedCounts(
      hist.SortedByFrequency());
  ASSERT_TRUE(dict.ok());
  const catalog::EventCatalog catalog =
      catalog::EventCatalog::Build(hist, *dict);
  for (size_t i = 0; i < payloads.size(); ++i) {
    const catalog::CatalogEntry* entry =
        catalog.Find("e" + std::to_string(i));
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->samples.size(), 1u);
    std::string expected;
    if (i < kEvents) {
      auto parsed = thrift_oracle::ParseStruct(payloads[i]);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      expected = parsed->ToString();
    } else {
      expected = "<raw:";
      for (size_t b = 0; b < std::min<size_t>(payloads[i].size(), 16); ++b) {
        char hex[3];
        std::snprintf(hex, sizeof(hex), "%02x",
                      static_cast<unsigned char>(payloads[i][b]));
        expected += hex;
      }
      expected += ">";
    }
    EXPECT_EQ(entry->samples[0], expected)
        << "seed=" << GetParam() << " payload " << i;
  }
}

TEST_P(ClientEventOraclePropertyTest, ReaderSkipsOracleUnknownFields) {
  Rng rng(GetParam());
  // An unknown id: short-form after a small delta, or one that needs the
  // long form (far ahead, negative); the known id after it takes the long
  // form too.
  auto unknown_id = [&rng] {
    switch (rng.Uniform(3)) {
      case 0:
        return static_cast<int16_t>(8 + rng.Uniform(8));
      case 1:
        return static_cast<int16_t>(100 + rng.Uniform(30000));
      default:
        return static_cast<int16_t>(-1 - static_cast<int>(rng.Uniform(500)));
    }
  };
  for (size_t i = 0; i < 30; ++i) {
    const events::ClientEvent ev = RandomClientEvent(rng, i);
    const std::string plain = ev.Serialize();
    auto fields = thrift_oracle::ParseStruct(plain);
    ASSERT_TRUE(fields.ok()) << fields.status().ToString();
    std::string mixed;
    thrift_oracle::Writer w(&mixed);
    w.BeginStruct();
    for (const auto& [id, value] : fields->struct_value().fields) {
      for (uint64_t u = rng.Uniform(3); u > 0; --u) {
        w.WriteField(unknown_id(), RandomValue(rng, 3));
      }
      w.WriteField(id, value);
    }
    for (uint64_t u = rng.Uniform(3); u > 0; --u) {
      w.WriteField(unknown_id(), RandomStruct(rng, 3));
    }
    w.EndStruct();

    std::vector<events::DetailView> plain_details, mixed_details;
    events::ClientEventView pv, mv;
    ASSERT_TRUE(events::ReadClientEventBody(plain, &pv, &plain_details).ok());
    Status st = events::ReadClientEventBody(mixed, &mv, &mixed_details);
    ASSERT_TRUE(st.ok()) << st.ToString() << " seed=" << GetParam()
                         << " event " << i;
    EXPECT_EQ(mv.initiator, pv.initiator);
    EXPECT_EQ(mv.event_name, pv.event_name);
    EXPECT_EQ(mv.user_id, pv.user_id);
    EXPECT_EQ(mv.session_id, pv.session_id);
    EXPECT_EQ(mv.ip, pv.ip);
    EXPECT_EQ(mv.timestamp, pv.timestamp);
    EXPECT_EQ(mv.details_begin, pv.details_begin);
    EXPECT_EQ(mv.details_end, pv.details_end);
    EXPECT_EQ(mixed_details, plain_details);
    EXPECT_EQ(events::ClientEvent::Materialize(mv, mv.details(mixed_details)),
              ev);

    // Seeded byte flips and truncations: OK or Corruption, and a failed
    // parse leaves the arena as it was.
    const std::vector<events::DetailView> kept = {{"kept", "entry"}};
    for (int k = 0; k < 20; ++k) {
      std::string m = mixed;
      if (rng.Bernoulli(0.5)) {
        m.resize(rng.Uniform(m.size()));
      } else {
        m[rng.Uniform(m.size())] ^= static_cast<char>(1 + rng.Uniform(255));
      }
      std::vector<events::DetailView> arena = kept;
      events::ClientEventView v;
      Status mst = events::ReadClientEventBody(m, &v, &arena);
      if (mst.ok()) continue;
      EXPECT_TRUE(mst.IsCorruption()) << mst.ToString();
      EXPECT_EQ(arena, kept);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientEventOraclePropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

// ---------------------------------------------------------------------------
// Sessionizer invariants under random event streams.

class SessionizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionizerPropertyTest, PartitionInvariants) {
  Rng rng(GetParam());
  sessions::Sessionizer sessionizer;
  uint64_t total_events = 200 + rng.Uniform(300);
  TimeMs base = 1345507200000;
  for (uint64_t i = 0; i < total_events; ++i) {
    events::ClientEvent ev;
    ev.user_id = static_cast<int64_t>(rng.Uniform(10));
    ev.session_id = "s" + std::to_string(rng.Uniform(3));
    ev.event_name = "e" + std::to_string(rng.Uniform(5));
    ev.ip = "10.0.0.1";
    ev.timestamp = base + static_cast<TimeMs>(
                              rng.Uniform(6 * kMillisPerHour));
    sessionizer.Add(ev);
  }
  auto sessions = sessionizer.Build();

  // (1) Every event lands in exactly one session.
  uint64_t reconstructed = 0;
  for (const auto& s : sessions) reconstructed += s.event_names.size();
  EXPECT_EQ(reconstructed, total_events);

  // (2) Within a session: duration >= 0 and end - start <= events * gap.
  // (3) Sessions of the same (user, session id) are separated by > gap.
  std::map<std::pair<int64_t, std::string>, std::vector<const sessions::Session*>>
      by_group;
  for (const auto& s : sessions) {
    EXPECT_GE(s.end, s.start);
    by_group[{s.user_id, s.session_id}].push_back(&s);
  }
  for (auto& [key, group] : by_group) {
    std::sort(group.begin(), group.end(),
              [](const sessions::Session* a, const sessions::Session* b) {
                return a->start < b->start;
              });
    for (size_t i = 1; i < group.size(); ++i) {
      EXPECT_GT(group[i]->start - group[i - 1]->end, kSessionInactivityGapMs)
          << "sessions for the same key must be gap-separated";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionizerPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Glob matching: agreement with a simple recursive reference.

bool ReferenceGlob(std::string_view p, std::string_view t) {
  if (p.empty()) return t.empty();
  if (p[0] == '*') {
    for (size_t skip = 0; skip <= t.size(); ++skip) {
      if (ReferenceGlob(p.substr(1), t.substr(skip))) return true;
    }
    return false;
  }
  if (t.empty() || p[0] != t[0]) return false;
  return ReferenceGlob(p.substr(1), t.substr(1));
}

class GlobPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlobPropertyTest, AgreesWithReference) {
  Rng rng(GetParam());
  const char alphabet[] = "ab:*";
  for (int iter = 0; iter < 500; ++iter) {
    std::string pattern, text;
    size_t pn = rng.Uniform(8), tn = rng.Uniform(10);
    for (size_t i = 0; i < pn; ++i) {
      pattern.push_back(alphabet[rng.Uniform(4)]);
    }
    for (size_t i = 0; i < tn; ++i) {
      text.push_back(alphabet[rng.Uniform(3)]);  // no '*' in text
    }
    EXPECT_EQ(GlobMatch(pattern, text), ReferenceGlob(pattern, text))
        << "pattern='" << pattern << "' text='" << text << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobPropertyTest,
                         ::testing::Values(7u, 77u, 777u));

// ---------------------------------------------------------------------------
// Dictionary coding laws.

class DictionaryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictionaryPropertyTest, EncodingIsBijectiveAndMonotone) {
  Rng rng(GetParam());
  // Random alphabet with random frequencies.
  std::vector<std::pair<std::string, uint64_t>> counts;
  size_t n = 50 + rng.Uniform(400);
  for (size_t i = 0; i < n; ++i) {
    counts.emplace_back("event_" + std::to_string(i), 1 + rng.Uniform(10000));
  }
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  auto dict = sessions::EventDictionary::FromSortedCounts(counts);
  ASSERT_TRUE(dict.ok());

  // Monotonicity: higher frequency rank → strictly smaller code point,
  // and every code point encodes to at most as many bytes as later ones.
  uint32_t prev_cp = 0;
  for (const auto& [name, count] : counts) {
    uint32_t cp = dict->CodePointFor(name).value();
    EXPECT_GT(cp, prev_cp);
    prev_cp = cp;
  }

  // Round trip random sessions.
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<std::string> names;
    size_t len = rng.Uniform(60);
    for (size_t i = 0; i < len; ++i) {
      names.push_back(counts[rng.Uniform(counts.size())].first);
    }
    auto encoded = dict->EncodeNames(names);
    ASSERT_TRUE(encoded.ok());
    auto decoded = dict->DecodeToNames(*encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, names);
    EXPECT_EQ(Utf8Length(*encoded), names.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryPropertyTest,
                         ::testing::Values(9u, 99u, 999u));

// ---------------------------------------------------------------------------
// StableShuffle: the frozen shuffle oracle (relation_oracle.h) must equal
// a concatenate-then-group reference on random emitter sets, and per-key
// value order must be (task index, emission order) — the order the
// MapReduce sweeps below hold every thread count to.

class StableShufflePropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<dataflow::Emitter> RandomEmitters(Rng& rng) {
  std::vector<dataflow::Emitter> tasks(1 + rng.Uniform(8));
  for (size_t t = 0; t < tasks.size(); ++t) {
    size_t pairs = rng.Uniform(50);
    for (size_t p = 0; p < pairs; ++p) {
      // Few distinct keys so values from different tasks really collide.
      std::string key = "k" + std::to_string(rng.Uniform(6));
      std::string value =
          "t" + std::to_string(t) + "#" + std::to_string(p);
      tasks[t].Emit(std::move(key), std::move(value));
    }
  }
  return tasks;
}

TEST_P(StableShufflePropertyTest, MatchesSerialReferenceAndPreservesOrder) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<dataflow::Emitter> tasks = RandomEmitters(rng);

    // Reference: concatenate all task pairs in task order, group into an
    // ordered map.
    std::map<std::string, std::vector<std::string>> reference;
    uint64_t reference_bytes = 0;
    for (const auto& task : tasks) {
      for (const auto& [key, value] : task.pairs()) {
        reference_bytes += key.size() + value.size();
        reference[key].push_back(value);
      }
    }

    std::vector<dataflow::Emitter> consumed = tasks;  // StableShuffle consumes
    uint64_t bytes = 0;
    auto groups = relation_oracle::StableShuffle(&consumed, &bytes);

    EXPECT_EQ(groups, reference) << "seed=" << GetParam() << " iter=" << iter;
    EXPECT_EQ(bytes, reference_bytes);

    // Per-key value order is (task index, emission order): the embedded
    // "t<task>#<seq>" tags must be non-decreasing in task and strictly
    // increasing in seq within a task.
    for (const auto& [key, values] : groups) {
      long prev_task = -1, prev_seq = -1;
      for (const auto& v : values) {
        size_t hash_pos = v.find('#');
        long task = std::stol(v.substr(1, hash_pos - 1));
        long seq = std::stol(v.substr(hash_pos + 1));
        if (task == prev_task) {
          EXPECT_GT(seq, prev_seq) << "key=" << key;
        } else {
          EXPECT_GT(task, prev_task) << "key=" << key;
        }
        prev_task = task;
        prev_seq = seq;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StableShufflePropertyTest,
                         ::testing::Values(4u, 44u, 444u, 4444u));

// ---------------------------------------------------------------------------
// Emitter isolation under the pool: each map task's emitter must contain
// exactly its own emissions in emission order — pairs never interleave
// across tasks, whatever the scheduling.

class EmitterIsolationPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmitterIsolationPropertyTest, TaskEmittersNeverInterleave) {
  Rng rng(GetParam());
  exec::ExecOptions opts;
  opts.threads = 8;
  exec::Executor executor(opts);
  for (int iter = 0; iter < 10; ++iter) {
    size_t num_tasks = 1 + rng.Uniform(32);
    std::vector<size_t> emissions(num_tasks);
    for (auto& e : emissions) e = rng.Uniform(64);
    std::vector<dataflow::Emitter> task_out(num_tasks);
    executor.ParallelFor("emit", num_tasks, [&](size_t t) {
      for (size_t p = 0; p < emissions[t]; ++p) {
        task_out[t].Emit("task" + std::to_string(t),
                         std::to_string(p));
      }
    });
    for (size_t t = 0; t < num_tasks; ++t) {
      const auto& pairs = task_out[t].pairs();
      ASSERT_EQ(pairs.size(), emissions[t]) << "task=" << t;
      for (size_t p = 0; p < pairs.size(); ++p) {
        EXPECT_EQ(pairs[p].first, "task" + std::to_string(t));
        EXPECT_EQ(pairs[p].second, std::to_string(p));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmitterIsolationPropertyTest,
                         ::testing::Values(7u, 77u, 777u));

// ---------------------------------------------------------------------------
// MapReduce: on random warehouses and random-ish jobs, runs at 2 and 5
// threads must reproduce the inline (no executor) run byte for byte.

class MapReducePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MapReducePropertyTest, ParallelMatchesSerialOnRandomWarehouses) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 4; ++iter) {
    hdfs::MiniHdfs fs;
    size_t num_files = 1 + rng.Uniform(7);
    uint64_t key_space = 1 + rng.Uniform(12);
    for (size_t f = 0; f < num_files; ++f) {
      std::string body;
      size_t records = rng.Uniform(60);
      for (size_t r = 0; r < records; ++r) {
        std::string record = "k" + std::to_string(rng.Uniform(key_space)) +
                             " v" + std::to_string(rng.Next64() % 1000);
        PutVarint64(&body, record.size());
        body += record;
      }
      ASSERT_TRUE(
          fs.WriteFile("/in/f" + std::to_string(f), body).ok());
    }
    bool with_reduce = rng.Bernoulli(0.5);
    auto run = [&](exec::Executor* executor) {
      dataflow::MapReduceJob job(&fs, dataflow::JobCostModel{});
      job.set_executor(executor);
      job.set_input_format(dataflow::InputFormat::Framed());
      EXPECT_TRUE(job.AddInputDir("/in").ok());
      job.set_map([](const std::string& record,
                     dataflow::Emitter* emitter) -> Status {
        size_t space = record.find(' ');
        emitter->Emit(record.substr(0, space), record.substr(space + 1));
        return Status::OK();
      });
      if (with_reduce) {
        job.set_reduce([](const std::string& key,
                          const std::vector<std::string>& values,
                          dataflow::Emitter* emitter) -> Status {
          std::string joined = key + "=";
          for (const auto& v : values) joined += v + "|";
          emitter->Emit(key, joined);
          return Status::OK();
        });
      }
      auto result = job.Run();
      EXPECT_TRUE(result.ok());
      return *result;
    };
    auto serial = run(nullptr);
    for (int threads : {2, 5}) {
      exec::ExecOptions opts;
      opts.threads = threads;
      exec::Executor executor(opts);
      EXPECT_EQ(run(&executor), serial)
          << "seed=" << GetParam() << " iter=" << iter
          << " threads=" << threads << " reduce=" << with_reduce;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapReducePropertyTest,
                         ::testing::Values(5u, 55u, 555u));

// ---------------------------------------------------------------------------
// Relation operators: serial and parallel runs must agree on random
// relations — including the floating-point SUM aggregate, which the
// hash-partitioned GroupBy keeps bit-identical by never reassociating
// per-group accumulation.

class RelationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

dataflow::Relation RandomRelation(Rng& rng, size_t rows) {
  dataflow::Relation rel({"id", "grp", "score", "tag"});
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(rel.AddRow({dataflow::Value::Int(static_cast<int64_t>(i)),
                            dataflow::Value::Int(static_cast<int64_t>(
                                rng.Uniform(9))),
                            dataflow::Value::Real(rng.NextDouble() * 100),
                            dataflow::Value::Str(
                                "t" + std::to_string(rng.Uniform(4)))})
                    .ok());
  }
  return rel;
}

// GroupBy and Join are the Relation operators that take an executor
// (they run the batch kernels); the row operators run inline.
TEST_P(RelationPropertyTest, OperatorsMatchSerialAtAnyThreadCount) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    dataflow::Relation rel = RandomRelation(rng, 50 + rng.Uniform(300));
    dataflow::Relation right = RandomRelation(rng, 30);

    std::vector<dataflow::Aggregate> aggs{
        {dataflow::Aggregate::Op::kCount, "", "n"},
        {dataflow::Aggregate::Op::kSum, "score", "total"},
        {dataflow::Aggregate::Op::kMin, "id", "first"},
        {dataflow::Aggregate::Op::kMax, "id", "last"},
        {dataflow::Aggregate::Op::kCountDistinct, "tag", "tags"}};
    auto serial_group = rel.GroupBy({"grp"}, aggs).value();
    auto serial_join = rel.Join(right, "grp", "grp").value();

    for (int threads : {2, 8}) {
      exec::ExecOptions opts;
      opts.threads = threads;
      opts.min_items_per_chunk = 8;
      exec::Executor executor(opts);
      auto par_group = rel.GroupBy({"grp"}, aggs, &executor).value();
      ASSERT_EQ(par_group.rows().size(), serial_group.rows().size());
      for (size_t i = 0; i < par_group.rows().size(); ++i) {
        // operator== on Value compares exact representations — the SUM
        // doubles must be bit-for-bit equal, not just close.
        EXPECT_EQ(par_group.rows()[i], serial_group.rows()[i])
            << "row " << i << " threads=" << threads;
      }
      EXPECT_EQ(rel.Join(right, "grp", "grp", &executor).value().rows(),
                serial_join.rows());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationPropertyTest,
                         ::testing::Values(6u, 66u, 666u));

// ---------------------------------------------------------------------------
// Oracle sweeps: every hash-partitioned operator, at threads {1, 2, 8} and
// with no executor at all, against the frozen single-threaded bodies in
// relation_oracle.h — GroupBy through Relation and BatchRelation
// (bit-exact double SUM; mixed-type and zero-column inputs too), Join
// through both (either side the smaller), Relation Distinct and OrderBy,
// and MapReduce with and without a reducer.

class OracleSweepPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// nullptr (the shared inline executor), then executors at 1, 2 and 8
/// threads with small chunks so even short inputs split.
std::vector<std::unique_ptr<exec::Executor>> SweepExecutors() {
  std::vector<std::unique_ptr<exec::Executor>> out;
  out.push_back(nullptr);
  for (int threads : {1, 2, 8}) {
    exec::ExecOptions opts;
    opts.threads = threads;
    opts.min_items_per_chunk = 4;
    out.push_back(std::make_unique<exec::Executor>(opts));
  }
  return out;
}

std::string SweepLabel(const exec::Executor* executor) {
  return executor == nullptr ? "no executor"
                             : "threads=" + std::to_string(executor->threads());
}

/// Random relation with duplicate rows, mixed-type keys and doubles whose
/// sums depend on accumulation order.
dataflow::Relation RandomOracleRelation(Rng& rng, size_t rows) {
  dataflow::Relation rel({"k", "x", "tag", "v"});
  for (size_t i = 0; i < rows; ++i) {
    dataflow::Value key =
        rng.Uniform(3) == 0
            ? dataflow::Value::Str("s" + std::to_string(rng.Uniform(5)))
            : dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(7)));
    EXPECT_TRUE(
        rel.AddRow({key,
                    dataflow::Value::Real(rng.NextDouble() * 1e6 - 5e5 +
                                          rng.NextDouble() * 1e-6),
                    dataflow::Value::Str("t" + std::to_string(rng.Uniform(3))),
                    dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(4)))})
            .ok());
  }
  return rel;
}

TEST_P(OracleSweepPropertyTest, RelationOperatorsMatchFrozenSerialBodies) {
  Rng rng(GetParam());
  const std::vector<dataflow::Aggregate> aggs{
      {dataflow::Aggregate::Op::kCount, "", "n"},
      {dataflow::Aggregate::Op::kSum, "x", "total"},
      {dataflow::Aggregate::Op::kMin, "x", "lo"},
      {dataflow::Aggregate::Op::kMax, "tag", "hi"},
      {dataflow::Aggregate::Op::kCountDistinct, "v", "vs"}};
  auto executors = SweepExecutors();
  for (int iter = 0; iter < 6; ++iter) {
    size_t rows = rng.Uniform(5) == 0 ? 0 : 1 + rng.Uniform(400);
    dataflow::Relation rel = RandomOracleRelation(rng, rows);
    // Narrow projections make Distinct see real duplicates.
    dataflow::Relation narrow = rel.Project({"k", "tag", "v"}).value();
    const std::vector<std::string> keys =
        iter % 2 == 0 ? std::vector<std::string>{"k"}
                      : std::vector<std::string>{"tag", "k"};
    const std::string want_group = dataflow::SerializeRelation(
        relation_oracle::GroupBy(rel, keys, aggs).value());
    const std::string want_distinct =
        dataflow::SerializeRelation(relation_oracle::Distinct(narrow));
    const bool descending = rng.Uniform(2) == 0;
    const std::string want_order = dataflow::SerializeRelation(
        relation_oracle::OrderBy(rel, "v", descending).value());
    auto batch =
        dataflow::BatchRelation::FromRelation(rel, 1 + rng.Uniform(64));
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(dataflow::SerializeRelation(narrow.Distinct()), want_distinct);
    EXPECT_EQ(
        dataflow::SerializeRelation(rel.OrderBy("v", descending).value()),
        want_order);

    for (const auto& executor : executors) {
      const std::string label = "seed=" + std::to_string(GetParam()) +
                                " iter=" + std::to_string(iter) + " " +
                                SweepLabel(executor.get());
      EXPECT_EQ(dataflow::SerializeRelation(
                    rel.GroupBy(keys, aggs, executor.get()).value()),
                want_group)
          << label;
      EXPECT_EQ(dataflow::SerializeRelation(
                    batch->GroupBy(keys, aggs, executor.get()).value()),
                want_group)
          << label;
    }
  }
}

TEST_P(OracleSweepPropertyTest, GroupBySumErrorMatchesOracle) {
  Rng rng(GetParam());
  dataflow::Relation rel = RandomOracleRelation(rng, 1 + rng.Uniform(200));
  const std::vector<dataflow::Aggregate> aggs{
      {dataflow::Aggregate::Op::kSum, "tag", "bad"}};
  auto want = relation_oracle::GroupBy(rel, {"k"}, aggs);
  ASSERT_FALSE(want.ok());
  for (const auto& executor : SweepExecutors()) {
    auto got = rel.GroupBy({"k"}, aggs, executor.get());
    ASSERT_FALSE(got.ok()) << SweepLabel(executor.get());
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
  }
}

/// A value of any type, drawn so the key identities are exercised: ints
/// and integral reals (which join but never group together), -0.0 and
/// 0.0, reals that agree in ToString's 6 significant digits, strings that
/// spell numbers or bools, and bools.
dataflow::Value RandomMixedValue(Rng& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(4)));
    case 1:
      return dataflow::Value::Real(static_cast<double>(rng.Uniform(4)));
    case 2:
      return dataflow::Value::Real(rng.Uniform(2) == 0 ? 0.0 : -0.0);
    case 3:
      return dataflow::Value::Real(0.1234567 + 1e-7 * rng.Uniform(3));
    case 4:
      return rng.Uniform(4) == 0
                 ? dataflow::Value::Str("true")
                 : dataflow::Value::Str(std::to_string(rng.Uniform(4)));
    default:
      return dataflow::Value::Bool(rng.Uniform(2) == 0);
  }
}

/// Columns g (mixed key), v (mixed value), x (Int or Real, summable).
dataflow::Relation RandomMixedRelation(Rng& rng, size_t rows) {
  dataflow::Relation rel({"g", "v", "x"});
  for (size_t i = 0; i < rows; ++i) {
    dataflow::Value x =
        rng.Uniform(2) == 0
            ? dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(1000)))
            : dataflow::Value::Real(rng.NextDouble() * 1e3);
    EXPECT_TRUE(
        rel.AddRow({RandomMixedValue(rng), RandomMixedValue(rng), x}).ok());
  }
  return rel;
}

TEST_P(OracleSweepPropertyTest, JoinMatchesFrozenRowBody) {
  Rng rng(GetParam());
  auto executors = SweepExecutors();
  for (int iter = 0; iter < 6; ++iter) {
    // Alternate which side is the smaller one.
    const size_t small = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(20);
    const size_t large = 1 + rng.Uniform(200);
    const bool left_small = iter % 2 == 0;
    dataflow::Relation left =
        RandomMixedRelation(rng, left_small ? small : large);
    dataflow::Relation right_rows =
        RandomMixedRelation(rng, left_small ? large : small);
    // Rename the right side so its join column differs from the left's.
    dataflow::Relation right =
        dataflow::Relation::FromRows({"j", "w", "y"},
                                     std::vector<dataflow::Row>(
                                         right_rows.rows()))
            .value();
    const std::string want = dataflow::SerializeRelation(
        relation_oracle::Join(left, right, "v", "j").value());
    auto bl = dataflow::BatchRelation::FromRelation(left, 1 + rng.Uniform(64));
    auto br =
        dataflow::BatchRelation::FromRelation(right, 1 + rng.Uniform(64));
    ASSERT_TRUE(bl.ok() && br.ok());
    for (const auto& executor : executors) {
      const std::string label = "seed=" + std::to_string(GetParam()) +
                                " iter=" + std::to_string(iter) + " " +
                                SweepLabel(executor.get());
      EXPECT_EQ(dataflow::SerializeRelation(
                    left.Join(right, "v", "j", executor.get()).value()),
                want)
          << label;
      auto joined = bl->Join(*br, "v", "j", executor.get());
      ASSERT_TRUE(joined.ok()) << label;
      EXPECT_EQ(dataflow::SerializeRelation(joined->ToRelation().value()),
                want)
          << label;
    }
    EXPECT_FALSE(left.Join(right, "nope", "j").ok());
    EXPECT_FALSE(left.Join(right, "v", "nope").ok());
  }
}

TEST_P(OracleSweepPropertyTest, GroupByOverMixedAndZeroColumnRelations) {
  Rng rng(GetParam());
  const std::vector<dataflow::Aggregate> aggs{
      {dataflow::Aggregate::Op::kCount, "", "n"},
      {dataflow::Aggregate::Op::kSum, "x", "total"},
      {dataflow::Aggregate::Op::kMin, "v", "lo"},
      {dataflow::Aggregate::Op::kMax, "v", "hi"},
      {dataflow::Aggregate::Op::kCountDistinct, "v", "vs"},
      {dataflow::Aggregate::Op::kCountDistinct, "g", "gs"}};
  const std::vector<dataflow::Aggregate> count{
      {dataflow::Aggregate::Op::kCount, "", "n"}};
  auto executors = SweepExecutors();
  for (int iter = 0; iter < 6; ++iter) {
    const size_t rows = rng.Uniform(5) == 0 ? 0 : 1 + rng.Uniform(300);
    dataflow::Relation rel = RandomMixedRelation(rng, rows);
    dataflow::Relation empty_schema{std::vector<std::string>{}};
    for (size_t i = 0; i < rows; ++i) ASSERT_TRUE(empty_schema.AddRow({}).ok());
    const std::vector<std::vector<std::string>> key_sets{
        {"g"}, {"v", "g"}, {}};
    const size_t batch_rows = 1 + rng.Uniform(64);
    auto batch = dataflow::BatchRelation::FromRelation(rel, batch_rows);
    auto empty_batch =
        dataflow::BatchRelation::FromRelation(empty_schema, batch_rows);
    ASSERT_TRUE(batch.ok() && empty_batch.ok());
    const std::string want_empty = dataflow::SerializeRelation(
        relation_oracle::GroupBy(empty_schema, {}, count).value());
    for (const auto& executor : executors) {
      const std::string label = "seed=" + std::to_string(GetParam()) +
                                " iter=" + std::to_string(iter) + " " +
                                SweepLabel(executor.get());
      for (const auto& keys : key_sets) {
        const std::string want = dataflow::SerializeRelation(
            relation_oracle::GroupBy(rel, keys, aggs).value());
        EXPECT_EQ(dataflow::SerializeRelation(
                      rel.GroupBy(keys, aggs, executor.get()).value()),
                  want)
            << label << " keys=" << keys.size();
        EXPECT_EQ(dataflow::SerializeRelation(
                      batch->GroupBy(keys, aggs, executor.get()).value()),
                  want)
            << label << " keys=" << keys.size();
      }
      EXPECT_EQ(dataflow::SerializeRelation(
                    empty_schema.GroupBy({}, count, executor.get()).value()),
                want_empty)
          << label;
      EXPECT_EQ(dataflow::SerializeRelation(
                    empty_batch->GroupBy({}, count, executor.get()).value()),
                want_empty)
          << label;
    }
  }
}

TEST_P(OracleSweepPropertyTest, CountDistinctCountsGroupsOfKeyAndValue) {
  // COUNT DISTINCT v per g must use GroupBy's identity: it equals the
  // number of (g, v) groups for that g. Batches of 1-4 rows mix typed,
  // dictionary and boxed columns, so one value reaches the accumulator
  // through several column kinds.
  Rng rng(GetParam());
  for (int iter = 0; iter < 6; ++iter) {
    dataflow::Relation rel = RandomMixedRelation(rng, 1 + rng.Uniform(300));
    auto batch = dataflow::BatchRelation::FromRelation(rel, 1 + rng.Uniform(4));
    ASSERT_TRUE(batch.ok());
    auto distinct = batch->GroupBy(
        {"g"}, {{dataflow::Aggregate::Op::kCountDistinct, "v", "vs"}});
    auto pairs = rel.GroupBy({"g", "v"}, {});
    ASSERT_TRUE(distinct.ok() && pairs.ok());
    std::map<dataflow::Value, int64_t> per_g;
    for (const dataflow::Row& row : pairs->rows()) ++per_g[row[0]];
    ASSERT_EQ(distinct->rows().size(), per_g.size());
    for (const dataflow::Row& row : distinct->rows()) {
      EXPECT_EQ(row[1].int_value(), per_g[row[0]])
          << "seed=" << GetParam() << " iter=" << iter
          << " g=" << row[0].ToString();
    }
  }
}

TEST_P(OracleSweepPropertyTest, MapReduceMatchesFrozenShuffle) {
  Rng rng(GetParam());
  auto map_fn = [](const std::string& record,
                   dataflow::Emitter* emitter) -> Status {
    size_t space = record.find(' ');
    emitter->Emit(record.substr(0, space), record.substr(space + 1));
    return Status::OK();
  };
  const dataflow::MapReduceJob::ReduceFn reduce_fn =
      [](const std::string& key, const std::vector<std::string>& values,
         dataflow::Emitter* emitter) -> Status {
    std::string joined;
    for (const auto& v : values) joined += v + "|";
    emitter->Emit(key, joined);
    if (values.size() > 2) emitter->Emit(key, "many");
    return Status::OK();
  };
  auto executors = SweepExecutors();
  for (int iter = 0; iter < 4; ++iter) {
    hdfs::MiniHdfs fs;
    std::vector<dataflow::Emitter> per_file;
    const size_t num_files = 1 + rng.Uniform(9);
    const uint64_t key_space = 1 + rng.Uniform(15);
    for (size_t f = 0; f < num_files; ++f) {
      std::string body;
      dataflow::Emitter emitted;
      const size_t records = rng.Uniform(80);
      for (size_t r = 0; r < records; ++r) {
        std::string record = "k" + std::to_string(rng.Uniform(key_space)) +
                             " f" + std::to_string(f) + "r" +
                             std::to_string(r);
        ASSERT_TRUE(map_fn(record, &emitted).ok());
        PutVarint64(&body, record.size());
        body += record;
      }
      per_file.push_back(std::move(emitted));
      // One-letter names keep the sorted listing (input order) = file order.
      ASSERT_TRUE(fs.WriteFile("/in/f" + std::string(1, 'a' + f), body).ok());
    }
    for (bool with_reduce : {false, true}) {
      auto want = relation_oracle::MapReduce(
          per_file, with_reduce ? reduce_fn : nullptr);
      ASSERT_TRUE(want.ok());
      for (const auto& executor : executors) {
        dataflow::MapReduceJob job(&fs, dataflow::JobCostModel{});
        job.set_executor(executor.get());
        job.set_input_format(dataflow::InputFormat::Framed());
        ASSERT_TRUE(job.AddInputDir("/in").ok());
        job.set_map(map_fn);
        if (with_reduce) job.set_reduce(reduce_fn);
        auto got = job.Run();
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, *want)
            << "seed=" << GetParam() << " iter=" << iter
            << " reduce=" << with_reduce << " " << SweepLabel(executor.get());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweepPropertyTest,
                         ::testing::Values(8u, 88u, 888u, 8888u));

// Real(-0.0) and Real(0.0) are one value under the Value order, so 32 keys
// each carrying both zeros are 32 distinct rows.
TEST(OracleSweepTest, DistinctTreatsSignedZerosAsOneRow) {
  dataflow::Relation rel({"k", "x"});
  for (double zero : {0.0, -0.0}) {
    for (int64_t k = 0; k < 32; ++k) {
      ASSERT_TRUE(
          rel.AddRow({dataflow::Value::Int(k), dataflow::Value::Real(zero)})
              .ok());
    }
  }
  const dataflow::Relation want = relation_oracle::Distinct(rel);
  ASSERT_EQ(want.size(), 32u);
  EXPECT_EQ(dataflow::SerializeRelation(rel.Distinct()),
            dataflow::SerializeRelation(want));
}

// ---------------------------------------------------------------------------
// Columnar scan pushdown: on random events (empty details, multi-byte
// UTF-8 names, very long names) and random ScanSpecs, Scan() must equal
// read-everything-then-filter-then-project, and the group-parallel scan
// must reproduce it byte-for-byte at any thread count.

class ColumnarScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

constexpr TimeMs kScanBase = 1345507200000;

events::ClientEvent RandomColumnarEvent(Rng& rng) {
  events::ClientEvent ev;
  ev.initiator = static_cast<events::EventInitiator>(rng.Uniform(4));
  switch (rng.Uniform(5)) {
    case 0:
      ev.event_name = "web:home:::tweet:click";
      break;
    case 1:
      ev.event_name = "api:timeline:fetch";
      break;
    case 2:  // multi-byte UTF-8 components
      ev.event_name = "web:día:ツイート:impression" +
                      std::to_string(rng.Uniform(3));
      break;
    case 3:  // pathologically long name
      ev.event_name = "web:" + std::string(240, 'x') + ":click";
      break;
    default:
      ev.event_name = "web:home:::tweet:action" + std::to_string(rng.Uniform(7));
      break;
  }
  ev.user_id = static_cast<int64_t>(rng.Uniform(40));
  ev.session_id = "s" + std::to_string(rng.Uniform(20));
  ev.ip = "10.0." + std::to_string(rng.Uniform(4)) + "." +
          std::to_string(rng.Uniform(200));
  ev.timestamp = kScanBase + static_cast<TimeMs>(rng.Uniform(3600000));
  size_t details = rng.Uniform(3);  // 0 (common), 1, or 2 pairs
  for (size_t d = 0; d < details; ++d) {
    ev.details.push_back({"k" + std::to_string(d),
                          "vé" + std::to_string(rng.Uniform(10))});
  }
  return ev;
}

columnar::ScanSpec RandomScanSpec(Rng& rng) {
  columnar::ScanSpec spec;
  // Random projection (always at least one column).
  spec.columns = static_cast<columnar::ColumnMask>(
      1 + rng.Uniform(columnar::kAllColumns));
  if (rng.Uniform(2) == 0) {
    TimeMs lo = kScanBase + static_cast<TimeMs>(rng.Uniform(3600000));
    TimeMs hi = kScanBase + static_cast<TimeMs>(rng.Uniform(3600000));
    spec.min_timestamp = std::min(lo, hi);
    spec.max_timestamp = std::max(lo, hi);
  }
  if (rng.Uniform(3) == 0) {
    std::set<std::string> names;
    names.insert("web:home:::tweet:click");
    if (rng.Uniform(2) == 0) names.insert("api:timeline:fetch");
    if (rng.Uniform(2) == 0) {
      names.insert("web:home:::tweet:action" + std::to_string(rng.Uniform(7)));
    }
    spec.event_names = std::move(names);
  }
  if (rng.Uniform(3) == 0) {
    static const char* kPatterns[] = {"*:click", "web:*", "*fetch",
                                      "web:día:*", "*:action?"};
    spec.event_name_patterns.push_back(kPatterns[rng.Uniform(5)]);
  }
  if (rng.Uniform(4) == 0) {
    std::set<int64_t> ids;
    size_t n = 1 + rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) {
      ids.insert(static_cast<int64_t>(rng.Uniform(40)));
    }
    spec.user_ids = std::move(ids);
  }
  return spec;
}

// Copies only the masked fields (what a projection scan materializes).
events::ClientEvent ApplyMask(const events::ClientEvent& ev,
                              columnar::ColumnMask mask) {
  using columnar::ColumnBit;
  using columnar::EventColumn;
  events::ClientEvent out;
  if (mask & ColumnBit(EventColumn::kInitiator)) out.initiator = ev.initiator;
  if (mask & ColumnBit(EventColumn::kEventName)) out.event_name = ev.event_name;
  if (mask & ColumnBit(EventColumn::kUserId)) out.user_id = ev.user_id;
  if (mask & ColumnBit(EventColumn::kSessionId)) out.session_id = ev.session_id;
  if (mask & ColumnBit(EventColumn::kIp)) out.ip = ev.ip;
  if (mask & ColumnBit(EventColumn::kTimestamp)) out.timestamp = ev.timestamp;
  if (mask & ColumnBit(EventColumn::kDetails)) out.details = ev.details;
  return out;
}

bool ReferencePasses(const events::ClientEvent& ev,
                     const columnar::ScanSpec& spec) {
  if (spec.min_timestamp && ev.timestamp < *spec.min_timestamp) return false;
  if (spec.max_timestamp && ev.timestamp > *spec.max_timestamp) return false;
  if (spec.event_names && !spec.event_names->count(ev.event_name)) return false;
  for (const auto& pattern : spec.event_name_patterns) {
    if (!events::EventPattern(pattern).Matches(ev.event_name)) return false;
  }
  if (spec.user_ids && !spec.user_ids->count(ev.user_id)) return false;
  return true;
}

TEST_P(ColumnarScanPropertyTest, PushdownEqualsFullScanThenFilter) {
  Rng rng(GetParam());
  const size_t kGroupSizes[] = {1, 7, 64};
  for (int iter = 0; iter < 4; ++iter) {
    size_t n = rng.Uniform(300);
    std::vector<events::ClientEvent> events;
    for (size_t i = 0; i < n; ++i) events.push_back(RandomColumnarEvent(rng));

    size_t rows_per_group = kGroupSizes[rng.Uniform(3)];
    std::string body;
    columnar::RcFileWriter writer(&body, rows_per_group);
    for (const auto& ev : events) ASSERT_TRUE(writer.Add(ev).ok());
    ASSERT_TRUE(writer.Finish().ok());

    // Round trip at this group size.
    {
      columnar::RcFileReader reader(body);
      std::vector<events::ClientEvent> back;
      ASSERT_TRUE(reader.ReadAll(columnar::kAllColumns, &back).ok());
      ASSERT_EQ(back, events) << "rows_per_group=" << rows_per_group;
    }

    for (int s = 0; s < 5; ++s) {
      columnar::ScanSpec spec = RandomScanSpec(rng);

      std::vector<events::ClientEvent> want;
      for (const auto& ev : events) {
        if (ReferencePasses(ev, spec)) want.push_back(ApplyMask(ev, spec.columns));
      }

      columnar::RcFileReader reader(body);
      std::vector<events::ClientEvent> got;
      columnar::ScanStats stats;
      ASSERT_TRUE(reader.Scan(spec, &got, &stats).ok());
      ASSERT_EQ(got, want) << "iter=" << iter << " spec=" << s;
      EXPECT_EQ(stats.rows_returned, want.size());
      EXPECT_EQ(stats.rows_pruned + stats.rows_returned, events.size());

      auto groups = reader.IndexGroups();
      ASSERT_TRUE(groups.ok());
      for (int threads : {2, 8}) {
        exec::ExecOptions opts;
        opts.threads = threads;
        exec::Executor executor(opts);
        std::vector<std::vector<events::ClientEvent>> slots(groups->size());
        ASSERT_TRUE(executor
                        .ParallelForStatus(
                            "scan", groups->size(),
                            [&](size_t g) {
                              return reader.ScanGroup((*groups)[g], spec,
                                                      &slots[g], nullptr);
                            })
                        .ok());
        std::vector<events::ClientEvent> merged;
        for (const auto& slot : slots) {
          merged.insert(merged.end(), slot.begin(), slot.end());
        }
        ASSERT_EQ(merged, got) << "threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarScanPropertyTest,
                         ::testing::Values(7u, 77u, 777u));

// ---------------------------------------------------------------------------
// Shared-scan spec merging: scanning once under MergeScanSpecs and
// re-filtering per member must equal each member's direct scan.

TEST_P(ColumnarScanPropertyTest, MergedSpecScanPlusResidualEqualsDirectScan) {
  Rng rng(GetParam() * 1311);
  for (int iter = 0; iter < 4; ++iter) {
    size_t n = 50 + rng.Uniform(250);
    std::vector<events::ClientEvent> events;
    for (size_t i = 0; i < n; ++i) events.push_back(RandomColumnarEvent(rng));
    std::string body;
    columnar::RcFileWriter writer(&body, 1 + rng.Uniform(40));
    for (const auto& ev : events) ASSERT_TRUE(writer.Add(ev).ok());
    ASSERT_TRUE(writer.Finish().ok());

    size_t members = 2 + rng.Uniform(3);
    std::vector<columnar::ScanSpec> specs;
    for (size_t m = 0; m < members; ++m) specs.push_back(RandomScanSpec(rng));
    columnar::ScanSpec merged = dataflow::MergeScanSpecs(specs);

    columnar::RcFileReader reader(body);
    std::vector<events::ClientEvent> union_rows;
    ASSERT_TRUE(reader.Scan(merged, &union_rows, nullptr).ok());

    for (size_t m = 0; m < members; ++m) {
      // Direct scan under the member's own spec.
      columnar::RcFileReader direct(body);
      std::vector<events::ClientEvent> want;
      ASSERT_TRUE(direct.Scan(specs[m], &want, nullptr).ok());

      // Union rows re-tightened by the member's spec, row at a time,
      // projected to the member's column mask.
      std::vector<events::ClientEvent> got;
      for (const auto& ev : union_rows) {
        if (scan_oracle::Matches(specs[m], ev)) {
          got.push_back(ApplyMask(ev, specs[m].columns));
        }
      }
      ASSERT_EQ(got, want) << "iter=" << iter << " member=" << m;
    }
  }
}

// ---------------------------------------------------------------------------
// Oink memoization: randomized workloads must produce byte-identical
// results cold, warm (cache hit), shared-scan, and at any thread count.

class OinkMemoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

oink::WorkflowSpec RandomWorkflow(Rng& rng, const std::string& name,
                                  const std::string& dir) {
  oink::WorkflowSpec wf;
  wf.name = name;
  wf.input_dir = [dir](int64_t) { return dir; };
  size_t nfilters = rng.Uniform(3);
  for (size_t f = 0; f < nfilters; ++f) {
    switch (rng.Uniform(6)) {
      case 0: {
        TimeMs lo = kScanBase + static_cast<TimeMs>(rng.Uniform(3600000));
        wf.filters.push_back({"timestamp", rng.Uniform(2) == 0 ? ">=" : ">",
                              dataflow::Value::Int(lo)});
        break;
      }
      case 1: {
        TimeMs hi = kScanBase + static_cast<TimeMs>(rng.Uniform(3600000));
        wf.filters.push_back({"timestamp", rng.Uniform(2) == 0 ? "<=" : "<",
                              dataflow::Value::Int(hi)});
        break;
      }
      case 2:
        wf.filters.push_back(
            {"event_name", "==",
             dataflow::Value::Str(rng.Uniform(2) == 0
                                      ? "web:home:::tweet:click"
                                      : "api:timeline:fetch")});
        break;
      case 3:
        wf.filters.push_back({"event_name", "matches",
                              dataflow::Value::Str(rng.Uniform(2) == 0
                                                       ? "web:*"
                                                       : "*:click")});
        break;
      case 4:  // residual: string equality on a non-indexed column
        wf.filters.push_back(
            {"session_id", "==",
             dataflow::Value::Str("s" + std::to_string(rng.Uniform(20)))});
        break;
      default:  // residual: != never fuses
        wf.filters.push_back(
            {"user_id", "!=",
             dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(40)))});
        break;
    }
  }
  if (rng.Uniform(2) == 0) {
    wf.project_cols = {"event_name", "user_id"};
    wf.project_names = {"name", "uid"};
    if (rng.Uniform(2) == 0) {
      wf.stage = [](const dataflow::Relation& r) {
        return r.GroupBy({"name"},
                         {dataflow::Aggregate{
                             dataflow::Aggregate::Op::kCount, "", "n"}});
      };
      wf.stage_id = "count-by-name-v1";
    }
  }
  return wf;
}

TEST_P(OinkMemoPropertyTest, ColdWarmSharedAndParallelAllAgree) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2; ++iter) {
    hdfs::MiniHdfs fs;
    const std::string dir = "/warehouse/client_events/h0";
    // 1-2 columnar parts and sometimes a legacy framed part.
    size_t parts = 1 + rng.Uniform(2);
    for (size_t p = 0; p < parts; ++p) {
      std::string body;
      columnar::RcFileWriter writer(&body, 1 + rng.Uniform(32));
      size_t n = 30 + rng.Uniform(200);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(writer.Add(RandomColumnarEvent(rng)).ok());
      }
      ASSERT_TRUE(writer.Finish().ok());
      ASSERT_TRUE(
          fs.WriteFile(dir + "/part-0000" + std::to_string(p), body).ok());
    }
    if (rng.Uniform(2) == 0) {
      std::string legacy;
      events::ClientEventWriter w(&legacy);
      size_t n = 10 + rng.Uniform(60);
      for (size_t i = 0; i < n; ++i) w.Add(RandomColumnarEvent(rng));
      ASSERT_TRUE(fs.WriteFile(dir + "/part-legacy", Lz::Compress(legacy)).ok());
    }

    size_t nwf = 2 + rng.Uniform(3);
    std::vector<oink::WorkflowSpec> wfs;
    for (size_t w = 0; w < nwf; ++w) {
      wfs.push_back(RandomWorkflow(rng, "wf" + std::to_string(w), dir));
    }

    // Reference: each workflow recomputed cold and serially on its own,
    // so no scan is shared.
    std::vector<std::string> want(nwf);
    for (size_t w = 0; w < nwf; ++w) {
      auto bytes = oink_oracle::ColdBytes(&fs, wfs[w]);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      want[w] = *bytes;
    }

    auto check = [&](oink::WorkflowEngine& engine, const std::string& what) {
      for (size_t w = 0; w < nwf; ++w) {
        auto rel = engine.ResultFor(wfs[w].name);
        ASSERT_TRUE(rel.ok()) << what;
        EXPECT_EQ(dataflow::SerializeRelation(*rel), want[w])
            << what << " wf=" << w << " seed=" << GetParam();
      }
    };

    for (int threads : {0, 2, 8}) {
      std::unique_ptr<exec::Executor> executor;
      if (threads > 0) {
        exec::ExecOptions eo;
        eo.threads = threads;
        executor = std::make_unique<exec::Executor>(eo);
      }
      oink::WorkflowEngine engine(&fs, oink::OinkOptions{}, nullptr,
                                  executor.get());
      for (const auto& wf : wfs) ASSERT_TRUE(engine.AddWorkflow(wf).ok());
      // Cold (shared scan when >1 distinct plan)...
      ASSERT_TRUE(engine.RunTick(0).ok());
      check(engine, "cold threads=" + std::to_string(threads));
      // ...then warm from cache.
      ASSERT_TRUE(engine.RunTick(0).ok());
      EXPECT_EQ(engine.last_tick().scan_bytes_decompressed, 0u);
      check(engine, "warm threads=" + std::to_string(threads));
      // Drop the cache dir so the next thread count starts cold again.
      if (fs.Exists("/warehouse/_cache")) {
        ASSERT_TRUE(fs.Delete("/warehouse/_cache", true).ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OinkMemoPropertyTest,
                         ::testing::Values(11u, 211u, 3111u));

// ---------------------------------------------------------------------------
// Vectorized batch engine: on random relations (mixed-type columns,
// dictionary-overflow strings, empty inputs) and random operator
// pipelines, batch execution must be byte-identical to the row engine,
// serially and at any thread count — including identical Status failures
// for SUM over non-numeric columns.

class VectorEnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

dataflow::Relation RandomVectorRelation(Rng& rng, size_t rows) {
  dataflow::Relation rel({"i", "r", "b", "s", "w", "m"});
  bool mixed_has_strings = rng.Uniform(2) == 0;
  for (size_t n = 0; n < rows; ++n) {
    dataflow::Value mixed;
    switch (rng.Uniform(mixed_has_strings ? 3 : 2)) {
      case 0:
        mixed = dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(50)));
        break;
      case 1:
        mixed = dataflow::Value::Real(rng.NextDouble() * 10);
        break;
      default:
        mixed = dataflow::Value::Str("x" + std::to_string(rng.Uniform(5)));
        break;
    }
    EXPECT_TRUE(
        rel.AddRow(
               {dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(40))),
                dataflow::Value::Real(rng.NextDouble() * 200 - 100),
                dataflow::Value::Bool(rng.Uniform(2) == 0),
                dataflow::Value::Str("tag" + std::to_string(rng.Uniform(6))),
                // ~400 distinct values: overflows kMaxDictEntries, so
                // batches fall back to plain string columns.
                dataflow::Value::Str("wide" + std::to_string(rng.Uniform(400))),
                mixed})
            .ok());
  }
  return rel;
}

dataflow::FilterExpr RandomFilterExpr(Rng& rng) {
  static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  switch (rng.Uniform(6)) {
    case 0:
      return {"i", kOps[rng.Uniform(6)],
              dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(40)))};
    case 1:
      return {"r", kOps[rng.Uniform(6)],
              dataflow::Value::Real(rng.NextDouble() * 200 - 100)};
    case 2:
      return {"s", kOps[rng.Uniform(6)],
              dataflow::Value::Str("tag" + std::to_string(rng.Uniform(6)))};
    case 3:
      return {"s", "matches", dataflow::Value::Str("tag?")};
    case 4:  // type-mismatched literal: constant verdict, still must agree
      return {"i", kOps[rng.Uniform(6)],
              dataflow::Value::Str("zz" + std::to_string(rng.Uniform(3)))};
    default: {
      // Sometimes all-pass / none-pass predicates, so empty and full
      // selections are exercised.
      if (rng.Uniform(2) == 0) {
        return {"i", ">=", dataflow::Value::Int(-1)};
      }
      return {"i", "<", dataflow::Value::Int(-1000)};
    }
  }
}

TEST_P(VectorEnginePropertyTest, BatchEqualsRowEqualsParallelBatch) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 6; ++iter) {
    size_t rows = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(300);
    dataflow::Relation rel = RandomVectorRelation(rng, rows);
    size_t batch_rows = 1 + rng.Uniform(90);
    auto batch0 = dataflow::BatchRelation::FromRelation(rel, batch_rows);
    ASSERT_TRUE(batch0.ok());
    dataflow::BatchRelation batch = std::move(*batch0);

    // Random conjunctive filter prefix, applied to both engines.
    std::vector<dataflow::FilterExpr> exprs;
    size_t nf = rng.Uniform(3);
    for (size_t f = 0; f < nf; ++f) exprs.push_back(RandomFilterExpr(rng));
    dataflow::Relation row = rel;
    for (const auto& e : exprs) {
      size_t idx = row.ColumnIndex(e.column).value();
      row = row.Filter([&e, idx](const dataflow::Row& r) {
        return relation_oracle::EvalFilterOp(r[idx], e.op, e.literal);
      });
    }
    if (!exprs.empty()) {
      auto filtered = batch.Filter(exprs);
      ASSERT_TRUE(filtered.ok());
      batch = std::move(*filtered);
    }
    EXPECT_EQ(dataflow::SerializeRelation(batch.ToRelation().value()),
              dataflow::SerializeRelation(row))
        << "seed=" << GetParam() << " iter=" << iter;

    // Terminal operator: group-by (sometimes over the mixed column, where
    // both engines must either agree or fail identically) or a projection.
    if (rng.Uniform(3) != 0) {
      std::vector<std::string> keys =
          rng.Uniform(2) == 0 ? std::vector<std::string>{"s"}
                              : std::vector<std::string>{"i", "b"};
      std::string sum_col = rng.Uniform(4) == 0 ? "m" : "r";
      std::vector<dataflow::Aggregate> aggs{
          {dataflow::Aggregate::Op::kCount, "", "n"},
          {dataflow::Aggregate::Op::kSum, sum_col, "total"},
          {dataflow::Aggregate::Op::kCountDistinct, "w", "wide"}};
      auto want = relation_oracle::GroupBy(row, keys, aggs);
      auto got = batch.GroupBy(keys, aggs);
      ASSERT_EQ(want.ok(), got.ok()) << "sum_col=" << sum_col;
      if (want.ok()) {
        EXPECT_EQ(dataflow::SerializeRelation(*got),
                  dataflow::SerializeRelation(*want));
      } else {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
      }
      for (int threads : {2, 8}) {
        exec::ExecOptions eo;
        eo.threads = threads;
        eo.min_items_per_chunk = 4;
        exec::Executor executor(eo);
        auto par = batch.GroupBy(keys, aggs, &executor);
        ASSERT_EQ(par.ok(), want.ok());
        if (want.ok()) {
          EXPECT_EQ(dataflow::SerializeRelation(*par),
                    dataflow::SerializeRelation(*want))
              << "threads=" << threads;
        }
      }
    } else {
      auto want = row.Project({"s", "r", "m"});
      auto got = batch.ProjectAs({"s", "r", "m"}, {"s", "r", "m"});
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(dataflow::SerializeRelation(got->ToRelation().value()),
                dataflow::SerializeRelation(*want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorEnginePropertyTest,
                         ::testing::Values(17u, 177u, 1777u));

// ---------------------------------------------------------------------------
// Dictionary-domain predicates: filtering a dictionary column by comparing
// int32 codes against a precomputed verdict table must select exactly the
// rows the row engine's string comparisons select — including adversarial
// dictionaries: empty batches, single-code batches (every row one value),
// and literals absent from every dictionary (no code matches).

class DictDomainPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictDomainPropertyTest, CodeDomainFilterEqualsStringFilter) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 6; ++iter) {
    dataflow::Relation rel({"d", "v"});
    // Build the relation as consecutive "segments" sized exactly like the
    // batches FromRelation will cut, so each batch's dictionary shape is
    // controlled: single-code, mixed, or values no predicate mentions.
    size_t batch_rows = 1 + rng.Uniform(40);
    size_t segments = rng.Uniform(5);  // 0 => empty relation
    for (size_t seg = 0; seg < segments; ++seg) {
      switch (rng.Uniform(3)) {
        case 0: {  // single-code batch: one value repeated
          std::string only = "tag" + std::to_string(rng.Uniform(4));
          for (size_t i = 0; i < batch_rows; ++i) {
            ASSERT_TRUE(rel.AddRow({dataflow::Value::Str(only),
                                    dataflow::Value::Int(static_cast<int64_t>(
                                        rng.Uniform(100)))})
                            .ok());
          }
          break;
        }
        case 1:  // codes absent from any predicate literal
          for (size_t i = 0; i < batch_rows; ++i) {
            ASSERT_TRUE(
                rel.AddRow({dataflow::Value::Str(
                                "other" + std::to_string(rng.Uniform(3))),
                            dataflow::Value::Int(static_cast<int64_t>(
                                rng.Uniform(100)))})
                    .ok());
          }
          break;
        default:  // mixed dictionary
          for (size_t i = 0; i < batch_rows; ++i) {
            ASSERT_TRUE(
                rel.AddRow({dataflow::Value::Str(
                                "tag" + std::to_string(rng.Uniform(6))),
                            dataflow::Value::Int(static_cast<int64_t>(
                                rng.Uniform(100)))})
                    .ok());
          }
          break;
      }
    }
    auto batch0 = dataflow::BatchRelation::FromRelation(rel, batch_rows);
    ASSERT_TRUE(batch0.ok());

    // 1-3 conjuncts, all on the dictionary column so multi-conjunct
    // verdict merging is exercised; literals sometimes match nothing.
    std::vector<dataflow::FilterExpr> exprs;
    size_t nf = 1 + rng.Uniform(3);
    for (size_t f = 0; f < nf; ++f) {
      switch (rng.Uniform(4)) {
        case 0:
          exprs.push_back({"d", rng.Uniform(2) == 0 ? "==" : "!=",
                           dataflow::Value::Str(
                               "tag" + std::to_string(rng.Uniform(8)))});
          break;
        case 1:
          exprs.push_back({"d", "matches", dataflow::Value::Str("tag?")});
          break;
        case 2:  // matches nothing in any dictionary
          exprs.push_back(
              {"d", "==", dataflow::Value::Str("never-present")});
          break;
        default:
          exprs.push_back({"d", rng.Uniform(2) == 0 ? "<" : ">=",
                           dataflow::Value::Str(
                               "tag" + std::to_string(rng.Uniform(8)))});
          break;
      }
    }

    dataflow::Relation want = rel;
    for (const auto& e : exprs) {
      size_t idx = want.ColumnIndex(e.column).value();
      want = want.Filter([&e, idx](const dataflow::Row& r) {
        return relation_oracle::EvalFilterOp(r[idx], e.op, e.literal);
      });
    }

    dataflow::KernelStats ks;
    auto got = batch0->Filter(exprs, nullptr, &ks);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(dataflow::SerializeRelation(got->ToRelation().value()),
              dataflow::SerializeRelation(want))
        << "seed=" << GetParam() << " iter=" << iter;
    // Stats sanity: every dict-pruned row was an input row that did not
    // survive; counts never exceed the selected universe.
    EXPECT_EQ(ks.rows_in, rel.rows().size());
    EXPECT_EQ(ks.rows_out, want.rows().size());
    EXPECT_LE(ks.dict_domain_rows_pruned, ks.rows_in - ks.rows_out);

    // The fused pipeline must agree too, with identical group output.
    std::vector<dataflow::Aggregate> aggs{
        {dataflow::Aggregate::Op::kCount, "", "n"},
        {dataflow::Aggregate::Op::kSum, "v", "total"},
        {dataflow::Aggregate::Op::kCountDistinct, "d", "names"}};
    auto want_grouped = relation_oracle::GroupBy(want, {"d"}, aggs);
    ASSERT_TRUE(want_grouped.ok());
    auto fused = batch0->FilterGroupBy(exprs, {"d"}, aggs);
    ASSERT_TRUE(fused.ok());
    EXPECT_EQ(dataflow::SerializeRelation(*fused),
              dataflow::SerializeRelation(*want_grouped))
        << "seed=" << GetParam() << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictDomainPropertyTest,
                         ::testing::Values(23u, 223u, 2223u));

// ---------------------------------------------------------------------------
// Fused FilterGroupBy: on random relations and pipelines it must be
// byte-identical to Filter-then-GroupBy and to the frozen GroupBy over the
// row-filtered relation — including identical SUM-over-non-numeric
// failures — at any thread count and any morsel granularity.

class FusedPipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedPipelinePropertyTest, FusedEqualsUnfusedEqualsRow) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    size_t rows = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(300);
    dataflow::Relation rel = RandomVectorRelation(rng, rows);
    size_t batch_rows = 1 + rng.Uniform(90);
    auto batch = dataflow::BatchRelation::FromRelation(rel, batch_rows);
    ASSERT_TRUE(batch.ok());

    std::vector<dataflow::FilterExpr> exprs;
    size_t nf = rng.Uniform(4);
    for (size_t f = 0; f < nf; ++f) exprs.push_back(RandomFilterExpr(rng));
    std::vector<std::string> keys =
        rng.Uniform(2) == 0 ? std::vector<std::string>{"s"}
                            : std::vector<std::string>{"i", "b"};
    std::string sum_col = rng.Uniform(4) == 0 ? "m" : "r";
    std::vector<dataflow::Aggregate> aggs{
        {dataflow::Aggregate::Op::kCount, "", "n"},
        {dataflow::Aggregate::Op::kSum, sum_col, "total"},
        {dataflow::Aggregate::Op::kCountDistinct, "w", "wide"}};

    dataflow::Relation row = rel;
    for (const auto& e : exprs) {
      size_t idx = row.ColumnIndex(e.column).value();
      row = row.Filter([&e, idx](const dataflow::Row& r) {
        return relation_oracle::EvalFilterOp(r[idx], e.op, e.literal);
      });
    }
    auto want = relation_oracle::GroupBy(row, keys, aggs);

    auto unfused = [&]() -> Result<dataflow::Relation> {
      UNILOG_ASSIGN_OR_RETURN(dataflow::BatchRelation filtered,
                              batch->Filter(exprs));
      return filtered.GroupBy(keys, aggs);
    }();
    ASSERT_EQ(unfused.ok(), want.ok());

    auto fused = batch->FilterGroupBy(exprs, keys, aggs);
    ASSERT_EQ(fused.ok(), want.ok()) << "seed=" << GetParam();
    if (want.ok()) {
      EXPECT_EQ(dataflow::SerializeRelation(*fused),
                dataflow::SerializeRelation(*want))
          << "seed=" << GetParam() << " iter=" << iter;
      EXPECT_EQ(dataflow::SerializeRelation(*unfused),
                dataflow::SerializeRelation(*want));
    } else {
      EXPECT_EQ(fused.status().ToString(), want.status().ToString());
    }

    for (int threads : {2, 8}) {
      for (uint64_t morsel_bytes : {uint64_t{1}, uint64_t{1} << 12}) {
        exec::ExecOptions eo;
        eo.threads = threads;
        eo.min_items_per_chunk = 4;
        exec::Executor executor(eo);
        exec::MorselOptions mo;
        mo.morsel_bytes = morsel_bytes;
        auto par = batch->FilterGroupBy(exprs, keys, aggs, &executor,
                                        nullptr, mo);
        ASSERT_EQ(par.ok(), want.ok()) << "threads=" << threads;
        if (want.ok()) {
          EXPECT_EQ(dataflow::SerializeRelation(*par),
                    dataflow::SerializeRelation(*want))
              << "threads=" << threads << " morsel_bytes=" << morsel_bytes;
        } else {
          EXPECT_EQ(par.status().ToString(), want.status().ToString());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedPipelinePropertyTest,
                         ::testing::Values(29u, 229u, 2229u));

// ---------------------------------------------------------------------------
// Morsel-driven scans: the byte-weighted morsel scheduler must
// reproduce the row-engine reference scan byte-for-byte on random
// warehouses serially, at any thread count and any morsel granularity,
// rows and batches alike.

class MorselScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MorselScanPropertyTest, ParallelScanIsByteIdenticalAtAnyMorselSize) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2; ++iter) {
    hdfs::MiniHdfs fs;
    const std::string dir = "/warehouse/client_events/h0";
    size_t parts = 1 + rng.Uniform(3);
    for (size_t p = 0; p < parts; ++p) {
      std::string body;
      columnar::RcFileWriter writer(&body, 1 + rng.Uniform(32));
      size_t n = 20 + rng.Uniform(150);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(writer.Add(RandomColumnarEvent(rng)).ok());
      }
      ASSERT_TRUE(writer.Finish().ok());
      ASSERT_TRUE(
          fs.WriteFile(dir + "/part-0000" + std::to_string(p), body).ok());
    }
    if (rng.Uniform(2) == 0) {  // sometimes a legacy part in the mix
      std::string legacy;
      events::ClientEventWriter w(&legacy);
      size_t n = 10 + rng.Uniform(40);
      for (size_t i = 0; i < n; ++i) w.Add(RandomColumnarEvent(rng));
      ASSERT_TRUE(fs.WriteFile(dir + "/part-legacy", Lz::Compress(legacy)).ok());
    }

    // `base` never materializes, so every Clone() below starts with a
    // cold cache — the parallel runs really re-scan.
    auto opened = dataflow::ColumnarEventScan::Open(&fs, dir);
    ASSERT_TRUE(opened.ok());
    auto base = *opened;
    if (rng.Uniform(2) == 0) {
      ASSERT_TRUE(base->PushFilter("event_name", "matches",
                                   dataflow::Value::Str("web:*")));
    }
    auto reference = scan_oracle::ReferenceMaterialize(fs, dir, *base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string want = dataflow::SerializeRelation(*reference);
    auto serial_rel =
        std::static_pointer_cast<dataflow::ColumnarEventScan>(base->Clone())
            ->Materialize(nullptr);
    ASSERT_TRUE(serial_rel.ok());
    EXPECT_EQ(dataflow::SerializeRelation(*serial_rel), want);

    for (int threads : {2, 8}) {
      for (uint64_t morsel_bytes :
           {uint64_t{1}, uint64_t{1} << 10, uint64_t{1} << 24}) {
        exec::ExecOptions eo;
        eo.threads = threads;
        exec::Executor executor(eo);
        exec::MorselOptions mo;
        mo.morsel_bytes = morsel_bytes;
        auto scan = std::static_pointer_cast<dataflow::ColumnarEventScan>(
            base->Clone());
        scan->set_morsel_options(mo);
        auto rel = scan->Materialize(&executor);
        ASSERT_TRUE(rel.ok());
        EXPECT_EQ(dataflow::SerializeRelation(*rel), want)
            << "threads=" << threads << " morsel_bytes=" << morsel_bytes;

        auto batch_scan = std::static_pointer_cast<dataflow::ColumnarEventScan>(
            base->Clone());
        batch_scan->set_morsel_options(mo);
        auto batches = batch_scan->MaterializeBatches(&executor);
        ASSERT_TRUE(batches.ok());
        EXPECT_EQ(
            dataflow::SerializeRelation(batches->ToRelation().value()), want)
            << "threads=" << threads << " morsel_bytes=" << morsel_bytes;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MorselScanPropertyTest,
                         ::testing::Values(31u, 231u, 2231u));

// ---------------------------------------------------------------------------
// Filter-order neutrality: permuting a workflow's filter clauses never
// changes its canonical plan (so fingerprint-keyed cache entries written
// under one ordering HIT under any other) nor its answers, which match a
// row-engine evaluation of the same clauses over the whole part.

class PlannerReorderPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PlannerReorderPropertyTest, FilterPermutationsShareFingerprintAndHits) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 3; ++iter) {
    hdfs::MiniHdfs fs;
    const std::string dir = "/warehouse/client_events/h0";
    std::string body;
    columnar::RcFileWriter writer(&body, 1 + rng.Uniform(40));
    size_t n = 50 + rng.Uniform(250);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(writer.Add(RandomColumnarEvent(rng)).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(fs.WriteFile(dir + "/part-00000", body).ok());

    oink::WorkflowSpec wf = RandomWorkflow(rng, "wf", dir);
    while (wf.filters.size() < 2) {
      wf.filters.push_back(
          {"user_id", "!=",
           dataflow::Value::Int(static_cast<int64_t>(rng.Uniform(40)))});
    }
    oink::WorkflowSpec permuted = wf;
    for (size_t i = permuted.filters.size(); i > 1; --i) {
      std::swap(permuted.filters[i - 1], permuted.filters[rng.Uniform(i)]);
    }

    // Engine A runs the original ordering cold and fills the cache.
    oink::WorkflowEngine a(&fs, oink::OinkOptions{});
    ASSERT_TRUE(a.AddWorkflow(wf).ok());
    ASSERT_TRUE(a.RunTick(0).ok());
    ASSERT_EQ(a.last_tick().cache_misses, 1u);
    std::string want =
        dataflow::SerializeRelation(a.ResultFor("wf").value());

    // Engine B registers the permutation: same canonical plan, and its
    // first tick is served entirely from A's cache entry.
    oink::WorkflowEngine b(&fs, oink::OinkOptions{});
    ASSERT_TRUE(b.AddWorkflow(permuted).ok());
    EXPECT_EQ(b.CanonicalPlanFor("wf").value(),
              a.CanonicalPlanFor("wf").value())
        << "seed=" << GetParam() << " iter=" << iter;
    ASSERT_TRUE(b.RunTick(0).ok());
    EXPECT_EQ(b.last_tick().cache_hits, 1u);
    EXPECT_EQ(b.last_tick().scan_bytes_decompressed, 0u);
    EXPECT_EQ(dataflow::SerializeRelation(b.ResultFor("wf").value()), want);

    // The permutation recomputed cold gives the same bytes.
    auto cold = oink_oracle::ColdBytes(&fs, permuted);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(*cold, want);

    // Row-engine reference: decode the part whole, run every clause as a
    // row filter in the permuted order, then project and stage.
    auto all = scan_oracle::ReadAllEvents(fs, dir);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    dataflow::Relation ref = scan_oracle::EventRelation(*all).value();
    for (const auto& clause : permuted.filters) {
      size_t idx = ref.ColumnIndex(clause.column).value();
      ref = ref.Filter([&clause, idx](const dataflow::Row& row) {
        return relation_oracle::EvalFilterOp(row[idx], clause.op,
                                             clause.literal);
      });
    }
    if (!permuted.project_cols.empty()) {
      ref = scan_oracle::ProjectAs(ref, permuted.project_cols,
                                   permuted.project_names)
                .value();
    }
    if (permuted.stage) ref = permuted.stage(ref).value();
    EXPECT_EQ(dataflow::SerializeRelation(ref), want)
        << "seed=" << GetParam() << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerReorderPropertyTest,
                         ::testing::Values(23u, 233u, 2333u));

// ---------------------------------------------------------------------------
// Cache artifact fuzzing: truncations and bit flips must read back as a
// clean miss (entry dropped) — never a crash, never different bytes.

class ArtifactFuzzPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArtifactFuzzPropertyTest, MutatedArtifactsNeverServeWrongBytes) {
  Rng rng(GetParam());
  hdfs::MiniHdfs fs;
  const std::string path = "/warehouse/_cache/k.okc";
  oink::CacheArtifact artifact;
  artifact.manifest = "manifest-v1\n/x szmt:1:2\n";
  artifact.cold_cost_bytes = 12345;
  artifact.payload = RandomBuffer(rng);
  {
    oink::ArtifactCache cache(&fs);
    ASSERT_TRUE(cache.Put("k", artifact).ok());
  }
  auto raw = fs.ReadFile(path);
  ASSERT_TRUE(raw.ok());

  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = *raw;
    switch (rng.Uniform(4)) {
      case 0:  // truncate
        mutated.resize(rng.Uniform(mutated.size()));
        break;
      case 1: {  // flip one bit
        size_t pos = rng.Uniform(mutated.size());
        mutated[pos] ^= static_cast<char>(1u << rng.Uniform(8));
        break;
      }
      case 2:  // insert a byte
        mutated.insert(mutated.begin() + rng.Uniform(mutated.size() + 1),
                       static_cast<char>(rng.Next64() & 0xff));
        break;
      default:  // delete a byte
        mutated.erase(mutated.begin() + rng.Uniform(mutated.size()));
        break;
    }
    if (fs.Exists(path)) {
      ASSERT_TRUE(fs.Delete(path).ok());
    }
    ASSERT_TRUE(fs.WriteFile(path, mutated).ok());

    oink::ArtifactCache cache(&fs);  // fresh index, reads from disk
    auto got = cache.Get("k", artifact.manifest);
    if (got.ok()) {
      // Only acceptable if the mutation left the artifact semantically
      // intact (e.g. flip inside unused varint headroom) — bytes must be
      // EXACTLY the original payload.
      EXPECT_EQ(*got->payload, artifact.payload) << "trial=" << trial;
    } else {
      EXPECT_TRUE(got.status().IsNotFound())
          << "trial=" << trial << " " << got.status().ToString();
      // The poisoned entry was dropped, not left to flap.
      EXPECT_FALSE(fs.Exists(path)) << "trial=" << trial;
    }
  }
}

TEST_P(ArtifactFuzzPropertyTest, LzDecompressNeverCrashesOnMutatedBlocks) {
  Rng rng(GetParam() * 7919);
  for (int trial = 0; trial < 100; ++trial) {
    std::string block = Lz::Compress(RandomBuffer(rng));
    switch (rng.Uniform(3)) {
      case 0:
        block.resize(rng.Uniform(block.size() + 1));
        break;
      case 1: {
        if (!block.empty()) {
          block[rng.Uniform(block.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      }
      default: {
        size_t extra = 1 + rng.Uniform(8);
        for (size_t i = 0; i < extra; ++i) {
          block.push_back(static_cast<char>(rng.Next64() & 0xff));
        }
        break;
      }
    }
    // Must return OK or an error — never crash, hang, or overallocate.
    Result<std::string> out = Lz::Decompress(block);
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArtifactFuzzPropertyTest,
                         ::testing::Values(3u, 33u, 333u));

}  // namespace
}  // namespace unilog
