// Golden-file tests: the fixed-seed bench fixture numbers reported by
// bench_summary_stats and bench_event_counting, captured as text files
// under tests/golden/ and recomputed here at several thread counts. Any
// drift in the workload generator, the daily pipeline, or the exec
// engine's determinism shows up as a golden mismatch in ctest.
//
// Regenerate with: UNILOG_UPDATE_GOLDEN=1 ./golden_test
//
// The Lz golden digest is a constant in bench/lz_corpus.h and is never
// regenerated: a compressed byte that changes is a format change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/summary.h"
#include "analytics/udfs.h"
#include "bench_common.h"
#include "common/compress.h"
#include "exec/executor.h"
#include "lz_corpus.h"
#include "lz_reference.h"

#ifndef UNILOG_GOLDEN_DIR
#error "UNILOG_GOLDEN_DIR must be defined by the build"
#endif

namespace unilog {
namespace {

const bench::DayFixture& Fixture() {
  static const bench::DayFixture* fx =
      new bench::DayFixture(bench::BuildDay(bench::DefaultWorkload(42, 400)));
  return *fx;
}

std::string GoldenPath(const std::string& name) {
  return std::string(UNILOG_GOLDEN_DIR) + "/" + name + ".golden";
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  std::string path = GoldenPath(name);
  if (std::getenv("UNILOG_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with UNILOG_UPDATE_GOLDEN=1 to create)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "golden drift in " << name;
}

std::string SummaryStatsReport(exec::Executor* exec) {
  const bench::DayFixture& fx = Fixture();
  auto summary =
      analytics::Summarize(fx.daily.sequences, fx.daily.dictionary, exec);
  EXPECT_TRUE(summary.ok());
  std::ostringstream os;
  os << "bench_summary_stats golden (seed=42, users=400)\n"
     << summary->ToString() << "\n"
     << "dictionary_size=" << fx.daily.dictionary.size() << "\n"
     << "ground_truth_sessions=" << fx.generator->truth().total_sessions
     << "\n";
  return os.str();
}

std::string EventCountingReport(exec::Executor* exec) {
  const bench::DayFixture& fx = Fixture();
  analytics::CountClientEvents sum_udf(fx.daily.dictionary,
                                       events::EventPattern("*:impression"));
  analytics::CountClientEvents any_udf(
      fx.daily.dictionary, events::EventPattern("*:profile_click"));
  uint64_t sessions_containing = 0;
  for (const auto& seq : fx.daily.sequences) {
    if (any_udf.ContainsAny(seq)) ++sessions_containing;
  }
  analytics::RateReport ctr = analytics::ComputeRate(
      fx.daily.sequences, fx.daily.dictionary,
      events::EventPattern("*:impression"), events::EventPattern("*:click"),
      exec);
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.6f", ctr.rate);
  std::ostringstream os;
  os << "bench_event_counting golden (seed=42, users=400)\n"
     << "sessions=" << fx.daily.sequences.size() << "\n"
     << "impression_sum=" << sum_udf.TotalCount(fx.daily.sequences, exec)
     << "\n"
     << "sessions_with_profile_click=" << sessions_containing << "\n"
     << "ctr=" << ctr.actions << "/" << ctr.impressions << "=" << rate << "\n";
  return os.str();
}

TEST(GoldenTest, SummaryStatsSerial) {
  CompareOrUpdate("summary_stats", SummaryStatsReport(nullptr));
}

TEST(GoldenTest, SummaryStatsParallelMatchesGolden) {
  exec::ExecOptions opts;
  opts.threads = 8;
  exec::Executor executor(opts);
  CompareOrUpdate("summary_stats", SummaryStatsReport(&executor));
}

TEST(GoldenTest, EventCountingSerial) {
  CompareOrUpdate("event_counting", EventCountingReport(nullptr));
}

TEST(GoldenTest, EventCountingParallelMatchesGolden) {
  exec::ExecOptions opts;
  opts.threads = 8;
  exec::Executor executor(opts);
  CompareOrUpdate("event_counting", EventCountingReport(&executor));
}

uint64_t Fnv64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(GoldenTest, CatalogJsonDigest) {
  // The exported catalog, rendered samples included: the FNV-1a 64 of its
  // JSON text, recorded while samples rendered through the dynamic Thrift
  // parser. Sample rendering may change its code but not one byte of text.
  const std::string json = Fixture().daily.catalog.ExportJson().Dump();
  EXPECT_EQ(Fnv64(json), 0xb07afd021bdef4c5ull) << std::hex << Fnv64(json);
}

TEST(GoldenTest, LzCompressedCorpusDigest) {
  // The compressed bytes of the seeded golden corpus: the pooled
  // compressor, a single reused compressor and the frozen reference all
  // hash to the digest recorded before the word-wise rewrite.
  const std::vector<std::string> corpus = lz_corpus::GoldenCorpus();
  EXPECT_EQ(lz_corpus::CorpusDigest(
                corpus, [](std::string_view in) { return Lz::Compress(in); }),
            lz_corpus::kGoldenDigest);
  Lz::Compressor reused;
  EXPECT_EQ(lz_corpus::CorpusDigest(
                corpus,
                [&](std::string_view in) { return reused.Compress(in); }),
            lz_corpus::kGoldenDigest);
  EXPECT_EQ(lz_corpus::CorpusDigest(corpus,
                                    [](std::string_view in) {
                                      return lz_reference::Compress(in);
                                    }),
            lz_corpus::kGoldenDigest);
}

TEST(GoldenTest, LzFastCompressedCorpusDigest) {
  // The single-probe parse's bytes for the same corpus: a fresh and a
  // reused FastCompressor and the frozen reference all hash to the digest
  // recorded when the aggregators began staging with it.
  const std::vector<std::string> corpus = lz_corpus::GoldenCorpus();
  EXPECT_EQ(lz_corpus::CorpusDigest(corpus,
                                    [](std::string_view in) {
                                      return Lz::FastCompressor().Compress(in);
                                    }),
            lz_corpus::kFastGoldenDigest);
  Lz::FastCompressor reused;
  EXPECT_EQ(lz_corpus::CorpusDigest(
                corpus,
                [&](std::string_view in) { return reused.Compress(in); }),
            lz_corpus::kFastGoldenDigest);
  EXPECT_EQ(lz_corpus::CorpusDigest(corpus,
                                    [](std::string_view in) {
                                      return lz_reference::FastCompress(in);
                                    }),
            lz_corpus::kFastGoldenDigest);
}

}  // namespace
}  // namespace unilog
