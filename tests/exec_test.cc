// Tests for the unilog::exec deterministic parallel execution engine: the
// thread pool itself, the Executor primitives, and the end-to-end
// determinism contract — the dataflow layer must produce byte-identical
// output at any thread count. The stress cases double as the TSan
// workload (see -DUNILOG_SANITIZE_THREAD in the top-level CMakeLists).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/summary.h"
#include "analytics/udfs.h"
#include "bench_common.h"
#include "common/fnv.h"
#include "dataflow/mapreduce.h"
#include "dataflow/relation.h"
#include "dataflow/relation_serde.h"
#include "dataflow/vector_engine.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "pipeline/daily_pipeline.h"
#include "sessions/sessionizer.h"

namespace unilog {
namespace {

exec::Executor MakeExecutor(int threads) {
  exec::ExecOptions opts;
  opts.threads = threads;
  return exec::Executor(opts);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.Run(hits.size(), [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  exec::ThreadPool pool(0);
  std::vector<int> order;
  pool.Run(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  exec::ThreadPool pool(2);
  bool ran = false;
  pool.Run(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, BackToBackBatches) {
  exec::ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 100; ++round) {
    pool.Run(32, [&](size_t i) { sum += i + 1; });
  }
  EXPECT_EQ(sum.load(), 100u * (32u * 33u / 2u));
}

// The TSan hammer: many tiny batches so publication/claiming/completion
// paths are exercised under contention.
TEST(ThreadPoolStressTest, ManyTinyBatches) {
  exec::ThreadPool pool(8);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 400; ++round) {
    pool.Run(5, [&](size_t i) { total += i; });
  }
  EXPECT_EQ(total.load(), 400u * 10u);
}

TEST(ThreadPoolStressTest, PerSlotWritesNeverCollide) {
  exec::ThreadPool pool(8);
  std::vector<uint32_t> slots(10000, 0);
  for (int round = 0; round < 20; ++round) {
    pool.Run(slots.size(), [&](size_t i) { slots[i] += 1; });
  }
  for (uint32_t s : slots) EXPECT_EQ(s, 20u);
}

// ---------------------------------------------------------------------------
// Executor

TEST(ExecutorTest, SerialModeHasNoPool) {
  exec::Executor serial = MakeExecutor(1);
  EXPECT_FALSE(serial.parallel());
  EXPECT_EQ(serial.threads(), 1);
  EXPECT_EQ(serial.ChunksFor(1000), 1u);
  std::vector<int> order;
  serial.ParallelFor("t", 4, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ExecutorTest, ParallelModeCoversAllIndices) {
  exec::Executor par = MakeExecutor(4);
  EXPECT_TRUE(par.parallel());
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  par.ParallelFor("t", hits.size(), [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, ChunkBoundariesPartitionTheRange) {
  exec::Executor par = MakeExecutor(4);
  size_t n = 1003;
  size_t chunks = par.ChunksFor(n);
  EXPECT_GE(chunks, 2u);
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  par.ParallelForChunked("t", n, [&](size_t chunk, size_t begin, size_t end) {
    EXPECT_LT(chunk, chunks);
    EXPECT_LE(end, n);
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, SmallInputsDoNotShatter) {
  exec::Executor par = MakeExecutor(8);
  // Fewer items than min_items_per_chunk → one chunk.
  EXPECT_EQ(par.ChunksFor(3), 1u);
}

TEST(ExecutorTest, StatusVariantReportsFirstErrorByIndex) {
  for (int threads : {1, 4}) {
    exec::Executor executor = MakeExecutor(threads);
    Status st = executor.ParallelForStatus("t", 100, [&](size_t i) -> Status {
      if (i == 17) return Status::InvalidArgument("first");
      if (i == 80) return Status::Internal("later");
      return Status::OK();
    });
    EXPECT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_EQ(st.message(), "first") << "threads=" << threads;
  }
}

TEST(ExecutorTest, NestedRegionsRunInlineWithoutDeadlock) {
  exec::Executor par = MakeExecutor(4);
  std::vector<std::atomic<int>> hits(64 * 8);
  for (auto& h : hits) h = 0;
  par.ParallelFor("outer", 64, [&](size_t i) {
    // A nested region from a pool worker must not re-enter the pool.
    par.ParallelFor("inner", 8, [&](size_t j) { ++hits[i * 8 + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, RecordsPerStageMetrics) {
  obs::MetricsRegistry metrics;
  exec::Executor par = MakeExecutor(2);
  par.set_metrics(&metrics);
  par.ParallelFor("mystage", 10, [](size_t) {});
  par.ParallelFor("mystage", 5, [](size_t) {});
  obs::Labels labels{{"stage", "mystage"}};
  EXPECT_EQ(metrics.GetCounter("exec_tasks", labels)->value(), 15u);
  EXPECT_EQ(metrics.GetCounter("exec_regions", labels)->value(), 2u);
  EXPECT_EQ(metrics.GetHistogram("exec_region_ms", labels)->count(), 2u);
  EXPECT_EQ(metrics.GetGauge("exec_threads")->value(), 2);
}

TEST(ExecutorTest, ShardsAreOneInlineAndTwicePerThreadOtherwise) {
  EXPECT_EQ(MakeExecutor(1).Shards(), 1u);
  exec::Executor par = MakeExecutor(4);
  EXPECT_EQ(par.Shards(), 8u);
  // A region nested inside another runs inline, so it does not split.
  std::vector<size_t> nested(4, 0);
  par.ParallelFor("outer", nested.size(),
                  [&](size_t i) { nested[i] = par.Shards(); });
  EXPECT_EQ(nested, (std::vector<size_t>(4, 1)));
}

TEST(ExecutorTest, NullResolvesToOneSharedInlineExecutor) {
  exec::Executor* shared = exec::OrInline(nullptr);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(exec::OrInline(nullptr), shared);
  EXPECT_FALSE(shared->parallel());
  EXPECT_EQ(shared->Shards(), 1u);
  exec::Executor par = MakeExecutor(2);
  EXPECT_EQ(exec::OrInline(&par), &par);
}

// Pool workers running null-executor operators all share the one inline
// executor at once; every call must still produce the serial bytes.
TEST(ExecutorTest, SharedInlineExecutorServesConcurrentOperators) {
  dataflow::Relation rel({"k", "x", "tag"});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(rel.AddRow({dataflow::Value::Int(i % 13),
                            dataflow::Value::Real(i * 0.37 - 50.0),
                            dataflow::Value::Str("t" + std::to_string(i % 5))})
                    .ok());
  }
  const std::vector<dataflow::Aggregate> aggs{
      {dataflow::Aggregate::Op::kCount, "", "n"},
      {dataflow::Aggregate::Op::kSum, "x", "total"},
      {dataflow::Aggregate::Op::kCountDistinct, "tag", "tags"}};
  auto batch = dataflow::BatchRelation::FromRelation(rel, 64);
  ASSERT_TRUE(batch.ok());
  auto run_all = [&]() {
    std::string out;
    out += dataflow::SerializeRelation(rel.GroupBy({"k"}, aggs).value());
    out += dataflow::SerializeRelation(
        rel.Project({"k", "tag"}).value().Distinct());
    out += dataflow::SerializeRelation(rel.OrderBy("tag", true).value());
    out += dataflow::SerializeRelation(
        rel.Filter([](const dataflow::Row& r) { return r[0].int_value() > 6; }));
    out += dataflow::SerializeRelation(batch->GroupBy({"tag"}, aggs).value());
    return out;
  };
  const std::string want = run_all();
  exec::Executor pool = MakeExecutor(4);
  std::vector<std::string> got(32);
  pool.ParallelFor("concurrent-inline", got.size(),
                   [&](size_t i) { got[i] = run_all(); });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Fnv1a64::OfBytes(got[i]), Fnv1a64::OfBytes(want)) << "task " << i;
  }
}

// ---------------------------------------------------------------------------
// Morsel-driven scheduling

TEST(MorselTest, PackingIsDeterministicAndGreedy) {
  exec::Executor serial = MakeExecutor(1);
  std::vector<uint64_t> weights;
  for (int i = 0; i < 37; ++i) weights.push_back((i * 131) % 900 + 1);
  const uint64_t target = 1000;
  exec::MorselOptions opts;
  opts.morsel_bytes = target;
  std::vector<std::pair<size_t, size_t>> bounds;
  Status st = serial.ParallelForMorsels(
      "t", weights, opts,
      [&](size_t morsel, size_t begin, size_t end) -> Status {
        EXPECT_EQ(morsel, bounds.size());
        bounds.emplace_back(begin, end);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  // Bounds partition [0, n) in order; every morsel holds >= 1 item and
  // closed greedily: the morsel without its final item is under target.
  ASSERT_FALSE(bounds.empty());
  size_t next = 0;
  for (const auto& [begin, end] : bounds) {
    EXPECT_EQ(begin, next);
    EXPECT_LT(begin, end);
    uint64_t prefix = 0;
    for (size_t i = begin; i + 1 < end; ++i) prefix += weights[i];
    EXPECT_LT(prefix, target);
    next = end;
  }
  EXPECT_EQ(next, weights.size());

  // Re-running and running under a parallel executor yields the same
  // morsel boundaries: packing is a pure function of weights + target.
  for (int threads : {1, 4}) {
    exec::Executor executor = MakeExecutor(threads);
    std::vector<std::pair<size_t, size_t>> again(bounds.size());
    Status st2 = executor.ParallelForMorsels(
        "t", weights, opts,
        [&](size_t morsel, size_t begin, size_t end) -> Status {
          again[morsel] = {begin, end};
          return Status::OK();
        });
    ASSERT_TRUE(st2.ok());
    EXPECT_EQ(again, bounds) << "threads=" << threads;
  }
}

TEST(MorselTest, ParallelCoversEveryItemOnceAtAnyGranularity) {
  std::vector<uint64_t> weights(501);
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = (i * 7) % 64 + 1;
  for (int threads : {1, 2, 4, 8}) {
    for (uint64_t morsel_bytes : {uint64_t{1}, uint64_t{64},
                                  uint64_t{1} << 20}) {
      exec::Executor executor = MakeExecutor(threads);
      exec::MorselOptions opts;
      opts.morsel_bytes = morsel_bytes;
      std::vector<std::atomic<int>> hits(weights.size());
      for (auto& h : hits) h = 0;
      Status st = executor.ParallelForMorsels(
          "t", weights, opts,
          [&](size_t, size_t begin, size_t end) -> Status {
            for (size_t i = begin; i < end; ++i) ++hits[i];
            return Status::OK();
          });
      ASSERT_TRUE(st.ok());
      for (auto& h : hits) {
        EXPECT_EQ(h.load(), 1)
            << "threads=" << threads << " morsel_bytes=" << morsel_bytes;
      }
    }
  }
}

TEST(MorselTest, SmallestIndexErrorWinsInParallel) {
  // Unit weights with a tiny target: one morsel per item, so morsel index
  // == item index and the smallest failing index must surface.
  std::vector<uint64_t> weights(100, 1);
  exec::MorselOptions opts;
  opts.morsel_bytes = 1;
  for (int threads : {1, 4}) {
    exec::Executor executor = MakeExecutor(threads);
    Status st = executor.ParallelForMorsels(
        "t", weights, opts,
        [&](size_t morsel, size_t, size_t) -> Status {
          if (morsel == 17) return Status::InvalidArgument("first");
          if (morsel == 80) return Status::Internal("later");
          return Status::OK();
        });
    ASSERT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_EQ(st.message(), "first") << "threads=" << threads;
  }
}

TEST(MorselTest, StatsMetricsAndTotalsAccumulate) {
  obs::MetricsRegistry metrics;
  exec::Executor executor = MakeExecutor(2);
  executor.set_metrics(&metrics);
  std::vector<uint64_t> weights(64, 100);
  exec::MorselOptions opts;
  opts.morsel_bytes = 300;
  exec::MorselStats stats;
  Status st = executor.ParallelForMorsels(
      "morsel_stage", weights, opts,
      [](size_t, size_t, size_t) -> Status { return Status::OK(); }, &stats);
  ASSERT_TRUE(st.ok());
  EXPECT_GT(stats.morsels, 1u);
  EXPECT_EQ(stats.total_bytes, 64u * 100u);
  EXPECT_GE(stats.max_morsel_bytes, 300u);
  obs::Labels labels{{"stage", "morsel_stage"}};
  EXPECT_EQ(metrics.GetHistogram("exec.morsel_size_bytes", labels)->count(),
            stats.morsels);
  // The cumulative totals must cover this region.
  exec::MorselStats totals = executor.morsel_totals();
  EXPECT_GE(totals.morsels, stats.morsels);
  EXPECT_GE(totals.total_bytes, stats.total_bytes);
}

TEST(MorselTest, NestedRegionRunsInlineWithoutDeadlock) {
  exec::Executor par = MakeExecutor(4);
  std::vector<uint64_t> outer(16, 1), inner(8, 1);
  exec::MorselOptions opts;
  opts.morsel_bytes = 2;
  std::vector<std::atomic<int>> hits(16 * 8);
  for (auto& h : hits) h = 0;
  Status st = par.ParallelForMorsels(
      "outer", outer, opts, [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          UNILOG_RETURN_NOT_OK(par.ParallelForMorsels(
              "inner", inner, opts,
              [&, i](size_t, size_t b, size_t e) -> Status {
                for (size_t j = b; j < e; ++j) ++hits[i * 8 + j];
                return Status::OK();
              }));
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MorselTest, EmptyWeightsIsANoOp) {
  exec::Executor par = MakeExecutor(4);
  bool ran = false;
  Status st = par.ParallelForMorsels(
      "t", {}, exec::MorselOptions{},
      [&](size_t, size_t, size_t) -> Status {
        ran = true;
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(ran);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: MapReduce

// A small warehouse of framed-record files for MapReduce determinism runs.
std::unique_ptr<hdfs::MiniHdfs> WordWarehouse() {
  auto fs = std::make_unique<hdfs::MiniHdfs>();
  // 6 files, several records each; repeated words across files so the
  // shuffle actually groups values from different tasks.
  for (int f = 0; f < 6; ++f) {
    std::string body;
    for (int r = 0; r < 40; ++r) {
      std::string record = "word" + std::to_string((f * 7 + r * 3) % 11) +
                           " payload" + std::to_string(f) + "_" +
                           std::to_string(r);
      bench::AppendFramedRecord(&body, record);
    }
    EXPECT_TRUE(
        fs->WriteFile("/in/part-" + std::to_string(f), body).ok());
  }
  return fs;
}

std::vector<std::pair<std::string, std::string>> RunWordJob(
    const hdfs::MiniHdfs& fs, exec::Executor* executor, bool with_reduce,
    dataflow::JobStats* stats) {
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
      std::string joined;
      for (const auto& v : values) {
        joined += v;
        joined.push_back(',');
      }
      emitter->Emit(key, std::to_string(values.size()) + ":" + joined);
      return Status::OK();
    });
  }
  auto result = job.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (stats != nullptr) *stats = job.stats();
  return *result;
}

TEST(MapReduceDeterminismTest, OutputIdenticalAcrossThreadCounts) {
  auto fs = WordWarehouse();
  for (bool with_reduce : {false, true}) {
    dataflow::JobStats serial_stats;
    auto serial = RunWordJob(*fs, nullptr, with_reduce, &serial_stats);
    for (int threads : {1, 2, 8}) {
      exec::Executor executor = MakeExecutor(threads);
      dataflow::JobStats stats;
      auto out = RunWordJob(*fs, &executor, with_reduce, &stats);
      EXPECT_EQ(out, serial) << "threads=" << threads
                             << " reduce=" << with_reduce;
      EXPECT_EQ(stats.records_read, serial_stats.records_read);
      EXPECT_EQ(stats.records_emitted, serial_stats.records_emitted);
      EXPECT_EQ(stats.records_output, serial_stats.records_output);
      EXPECT_EQ(stats.bytes_scanned, serial_stats.bytes_scanned);
      EXPECT_EQ(stats.bytes_shuffled, serial_stats.bytes_shuffled);
    }
  }
}

TEST(MapReduceDeterminismTest, MapErrorsSurfaceInParallel) {
  auto fs = WordWarehouse();
  for (int threads : {1, 4}) {
    exec::Executor executor = MakeExecutor(threads);
    dataflow::MapReduceJob job(fs.get(), dataflow::JobCostModel{});
    job.set_executor(&executor);
    job.set_input_format(dataflow::InputFormat::Framed());
    ASSERT_TRUE(job.AddInputDir("/in").ok());
    job.set_map([](const std::string& record, dataflow::Emitter*) -> Status {
      if (record.find("payload3_7") != std::string::npos) {
        return Status::InvalidArgument("poison record");
      }
      return Status::OK();
    });
    auto result = job.Run();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "poison record");
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: daily pipeline (§4.2 job graph)

std::string FingerprintDaily(const pipeline::DailyJobResult& daily) {
  std::string blob;
  for (const auto& seq : daily.sequences) {
    sessions::AppendSequenceRecord(&blob, seq);
  }
  for (const auto& [name, count] : daily.histogram.SortedByFrequency()) {
    blob += name + "=" + std::to_string(count) + ";";
    for (const auto& sample : daily.histogram.SamplesOf(name)) blob += sample;
  }
  for (int level = 0; level < events::kRollupLevels; ++level) {
    for (const auto& row : daily.rollups.TopRows(
             static_cast<events::RollupLevel>(level), 1000)) {
      blob += row + "\n";
    }
  }
  return std::to_string(Fnv1a64::OfBytes(blob)) + "/" +
         std::to_string(blob.size());
}

TEST(DailyPipelineDeterminismTest, ResultIdenticalAcrossThreadCounts) {
  workload::WorkloadOptions wopts = bench::DefaultWorkload(7, 60);
  std::string serial_print;
  for (int threads : {1, 2, 8}) {
    // Fresh warehouse per run (daily partitions are write-once) from the
    // same deterministic workload seed.
    auto warehouse = std::make_unique<hdfs::MiniHdfs>();
    workload::WorkloadGenerator generator(wopts);
    ASSERT_TRUE(
        bench::MaterializeWarehouseDay(&generator, warehouse.get()).ok());
    pipeline::UserTable users = pipeline::UserTable::FromWorkload(generator);

    exec::Executor executor = MakeExecutor(threads);
    pipeline::DailyPipeline daily(warehouse.get(), dataflow::JobCostModel{});
    daily.set_executor(&executor);
    auto result = daily.RunForDate(bench::kBenchDay, users);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string print = FingerprintDaily(*result);
    if (threads == 1) {
      serial_print = print;
      EXPECT_GT(result->sequences.size(), 0u);
    } else {
      EXPECT_EQ(print, serial_print) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: sessionizer

TEST(SessionizerDeterminismTest, BuildIdenticalAcrossThreadCounts) {
  sessions::Sessionizer sessionizer;
  // Interleaved, partially out-of-order events across many groups.
  for (int i = 0; i < 3000; ++i) {
    events::ClientEvent ev;
    ev.user_id = (i * 17) % 97;
    ev.session_id = "s" + std::to_string((i * 5) % 3);
    ev.timestamp = 1000000 + ((i * 31337) % 100000) * 1000;
    ev.event_name = "web:home:timeline:stream:tweet:e" + std::to_string(i % 7);
    ev.ip = "10.0.0.1";
    sessionizer.Add(ev);
  }
  std::vector<sessions::Session> serial = sessionizer.Build();
  ASSERT_GT(serial.size(), 0u);
  for (int threads : {1, 2, 8}) {
    exec::Executor executor = MakeExecutor(threads);
    std::vector<sessions::Session> parallel = sessionizer.Build(&executor);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].user_id, serial[i].user_id);
      EXPECT_EQ(parallel[i].session_id, serial[i].session_id);
      EXPECT_EQ(parallel[i].start, serial[i].start);
      EXPECT_EQ(parallel[i].end, serial[i].end);
      EXPECT_EQ(parallel[i].event_names, serial[i].event_names);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: analytics scans

TEST(AnalyticsDeterminismTest, SummaryFunnelAndRatesIdentical) {
  bench::DayFixture fx =
      bench::BuildDay(bench::DefaultWorkload(11, 80));
  auto serial_summary =
      analytics::Summarize(fx.daily.sequences, fx.daily.dictionary);
  ASSERT_TRUE(serial_summary.ok());
  analytics::CountClientEvents counter(fx.daily.dictionary,
                                       events::EventPattern("*:impression"));
  uint64_t serial_count = counter.TotalCount(fx.daily.sequences);
  analytics::RateReport serial_rate = analytics::ComputeRate(
      fx.daily.sequences, fx.daily.dictionary,
      events::EventPattern("*:impression"), events::EventPattern("*:click"));
  for (int threads : {2, 8}) {
    exec::Executor executor = MakeExecutor(threads);
    auto summary = analytics::Summarize(fx.daily.sequences,
                                        fx.daily.dictionary, &executor);
    ASSERT_TRUE(summary.ok());
    EXPECT_EQ(summary->ToString(), serial_summary->ToString())
        << "threads=" << threads;
    EXPECT_EQ(counter.TotalCount(fx.daily.sequences, &executor), serial_count);
    analytics::RateReport rate = analytics::ComputeRate(
        fx.daily.sequences, fx.daily.dictionary,
        events::EventPattern("*:impression"), events::EventPattern("*:click"),
        &executor);
    EXPECT_EQ(rate.impressions, serial_rate.impressions);
    EXPECT_EQ(rate.actions, serial_rate.actions);
    EXPECT_EQ(rate.rate, serial_rate.rate);
    EXPECT_EQ(rate.sessions_with_impression,
              serial_rate.sessions_with_impression);
    EXPECT_EQ(rate.sessions_with_action, serial_rate.sessions_with_action);
  }
}

}  // namespace
}  // namespace unilog
