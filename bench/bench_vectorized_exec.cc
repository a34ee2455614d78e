// E23/E24: vectorized batch execution vs the row engine on the §4.2 daily
// filter+group workload. One day of client events is written as RCFile
// warehouse partitions, scanned once, and then the same plan —
//
//   FILTER event_name matches "web:*" AND timestamp in [T, T+18h)
//   GROUP BY event_name: count, sum(user_id), count-distinct(session)
//
// — is executed three ways: the row path (a row Relation::Filter per
// conjunct over boxed Values, then Relation::GroupBy, which converts with
// BatchRelation::FromRelation and runs the batch aggregation kernel), the
// unfused batch engine (Filter into selection vectors, then GroupBy), and
// the fused late-materialization pipeline (FilterGroupBy: dictionary-
// domain predicates on int32 codes, survivors accumulated straight into
// the aggregation table, strings only touched at group-key emission).
// GroupBy is FilterGroupBy with no filter, so all three passes end in
// the same aggregation body; they differ in how rows are filtered and in
// what the kernel is handed (boxed rows converted per call, or scanned
// batches). The row answer is therefore checked, untimed, against
// relation_oracle::GroupBy (tests/relation_oracle.h) over the row-filtered
// input, and every other answer must be byte-identical to it (FNV digest
// of SerializeRelation) across engines, conjunct orders, morsel sizes,
// and thread counts; the parallel sweeps run on the morsel-driven
// scheduler. Exits nonzero on any divergence, if the unfused
// batch engine misses its 3x floor, or if the fused pipeline misses its
// 10x-vs-row floor. Results merge into BENCH_scan.json under
// "vectorized_exec". Pass --threads=N to add N to the thread sweep table.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/fnv.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/plan_fingerprint.h"
#include "dataflow/relation_serde.h"
#include "dataflow/vector_engine.h"
#include "relation_oracle.h"

int main(int argc, char** argv) {
  using namespace unilog;
  int extra_threads = bench::ParseThreadsFlag(&argc, argv);
  int users = bench::ParseUsersFlag(&argc, argv, 400);
  std::printf(
      "=== E23/E24: row vs batch vs fused late-materialization "
      "(filter+group) ===\n(one day, %d users)\n\n",
      users);

  workload::WorkloadOptions wopts = bench::DefaultWorkload(42, users);
  workload::WorkloadGenerator generator(wopts);
  hdfs::MiniHdfs fs;
  Status st = bench::MaterializeWarehouseHoursColumnar(&generator, &fs);
  if (!st.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n", st.ToString().c_str());
    return 1;
  }

  auto opened =
      dataflow::ColumnarEventScan::Open(&fs, "/warehouse/client_events");
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto scan = *opened;
  auto rows_in = scan->Materialize(nullptr);
  auto batch_scan =
      std::static_pointer_cast<dataflow::ColumnarEventScan>(scan->Clone());
  auto batch_in = batch_scan->MaterializeBatches(nullptr);
  if (!rows_in.ok() || !batch_in.ok()) {
    std::fprintf(stderr, "scan failed\n");
    return 1;
  }
  const size_t input_rows = rows_in->rows().size();

  const std::vector<dataflow::FilterExpr> exprs = {
      {"event_name", "matches", dataflow::Value::Str("web:*")},
      {"timestamp", ">=", dataflow::Value::Int(bench::kBenchDay)},
      {"timestamp", "<",
       dataflow::Value::Int(bench::kBenchDay + 18 * kMillisPerHour)},
  };
  const std::vector<dataflow::Aggregate> aggs = {
      {dataflow::Aggregate::Op::kCount, "", "n"},
      {dataflow::Aggregate::Op::kSum, "user_id", "uid_sum"},
      {dataflow::Aggregate::Op::kCountDistinct, "session_id", "sessions"},
  };
  const std::vector<std::string> keys = {"event_name"};

  auto row_filter = [&]() -> Result<dataflow::Relation> {
    dataflow::Relation rel = *rows_in;
    for (const auto& e : exprs) {
      UNILOG_ASSIGN_OR_RETURN(size_t idx, rel.ColumnIndex(e.column));
      rel = rel.Filter([&e, idx](const dataflow::Row& row) {
        return relation_oracle::EvalFilterOp(row[idx], e.op, e.literal);
      });
    }
    return rel;
  };
  auto row_pass = [&]() -> Result<dataflow::Relation> {
    UNILOG_ASSIGN_OR_RETURN(dataflow::Relation rel, row_filter());
    return rel.GroupBy(keys, aggs);
  };
  auto oracle_pass = [&]() -> Result<dataflow::Relation> {
    UNILOG_ASSIGN_OR_RETURN(dataflow::Relation rel, row_filter());
    return relation_oracle::GroupBy(rel, keys, aggs);
  };
  auto batch_pass =
      [&](const std::vector<dataflow::FilterExpr>& filter_order,
          exec::Executor* executor) -> Result<dataflow::Relation> {
    UNILOG_ASSIGN_OR_RETURN(dataflow::BatchRelation filtered,
                            batch_in->Filter(filter_order, executor));
    return filtered.GroupBy(keys, aggs, executor);
  };
  auto fused_pass =
      [&](const std::vector<dataflow::FilterExpr>& filter_order,
          exec::Executor* executor, dataflow::KernelStats* kstats,
          const exec::MorselOptions& morsels =
              exec::MorselOptions{}) -> Result<dataflow::Relation> {
    return batch_in->FilterGroupBy(filter_order, keys, aggs, executor,
                                   kstats, morsels);
  };

  constexpr int kReps = 5;
  double row_ms = 0;
  uint64_t row_digest = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::WallTimer timer;
    auto out = row_pass();
    double ms = timer.ElapsedMs();
    if (!out.ok()) {
      std::fprintf(stderr, "row pass failed: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    row_digest = Fnv1a64::OfBytes(dataflow::SerializeRelation(*out));
    if (rep == 0 || ms < row_ms) row_ms = ms;
  }

  // Untimed: the row pass's GroupBy is the same kernel body the batch and
  // fused passes run, so its answer is checked against the frozen
  // single-threaded reference over the row-filtered input.
  auto oracle_out = oracle_pass();
  if (!oracle_out.ok()) {
    std::fprintf(stderr, "oracle pass failed: %s\n",
                 oracle_out.status().ToString().c_str());
    return 1;
  }
  const uint64_t oracle_digest =
      Fnv1a64::OfBytes(dataflow::SerializeRelation(*oracle_out));

  double batch_ms = 0;
  uint64_t batch_digest = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::WallTimer timer;
    auto out = batch_pass(exprs, nullptr);
    double ms = timer.ElapsedMs();
    if (!out.ok()) {
      std::fprintf(stderr, "batch pass failed: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    batch_digest = Fnv1a64::OfBytes(dataflow::SerializeRelation(*out));
    if (rep == 0 || ms < batch_ms) batch_ms = ms;
  }

  double fused_ms = 0;
  uint64_t fused_digest = 0;
  dataflow::KernelStats kernel_stats;
  for (int rep = 0; rep < kReps; ++rep) {
    dataflow::KernelStats ks;
    bench::WallTimer timer;
    auto out = fused_pass(exprs, nullptr, &ks);
    double ms = timer.ElapsedMs();
    if (!out.ok()) {
      std::fprintf(stderr, "fused pass failed: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    fused_digest = Fnv1a64::OfBytes(dataflow::SerializeRelation(*out));
    if (rep == 0 || ms < fused_ms) fused_ms = ms;
    kernel_stats = ks;
  }

  // Conjunct order must not move any engine's answer by a byte.
  bool digests_identical =
      batch_digest == row_digest && fused_digest == row_digest;
  {
    const std::vector<dataflow::FilterExpr> reversed(exprs.rbegin(),
                                                     exprs.rend());
    auto out = batch_pass(reversed, nullptr);
    if (!out.ok() ||
        Fnv1a64::OfBytes(dataflow::SerializeRelation(*out)) != row_digest) {
      digests_identical = false;
      std::fprintf(stderr, "reversed-filter batch divergence\n");
    }
    dataflow::KernelStats ks;
    auto fout = fused_pass(reversed, nullptr, &ks);
    if (!fout.ok() ||
        Fnv1a64::OfBytes(dataflow::SerializeRelation(*fout)) != row_digest) {
      digests_identical = false;
      std::fprintf(stderr, "reversed-filter fused divergence\n");
    }
  }

  // Morsel-size sweep: packing granularity (single-unit morsels through
  // one-giant-morsel) must never change a byte of output.
  for (uint64_t morsel_bytes : {uint64_t{1}, uint64_t{4096},
                                uint64_t{256} << 10, uint64_t{1} << 30}) {
    exec::ExecOptions eopts;
    eopts.threads = 2;
    exec::Executor executor(eopts);
    exec::MorselOptions mopts;
    mopts.morsel_bytes = morsel_bytes;
    dataflow::KernelStats ks;
    auto out = fused_pass(exprs, &executor, &ks, mopts);
    if (!out.ok() ||
        Fnv1a64::OfBytes(dataflow::SerializeRelation(*out)) != row_digest) {
      digests_identical = false;
      std::fprintf(stderr, "morsel divergence at morsel_bytes=%llu\n",
                   static_cast<unsigned long long>(morsel_bytes));
    }
  }

  // Thread sweep: unfused and fused parallel answers vs the row digest.
  std::vector<int> thread_counts = {1, 2, 8};
  if (extra_threads > 1 && extra_threads != 2 && extra_threads != 8) {
    thread_counts.push_back(extra_threads);
  }
  std::printf("%8s %12s %14s %10s  %s\n", "threads", "fused_ms",
              "rows_per_sec", "vs_row", "digest");
  exec::MorselStats morsel_totals;
  for (int threads : thread_counts) {
    exec::ExecOptions eopts;
    eopts.threads = threads;
    exec::Executor executor(eopts);
    auto out = batch_pass(exprs, &executor);
    if (!out.ok() ||
        Fnv1a64::OfBytes(dataflow::SerializeRelation(*out)) != row_digest) {
      digests_identical = false;
      std::fprintf(stderr, "parallel batch divergence at %d threads\n",
                   threads);
    }
    double t_ms = 0;
    uint64_t t_digest = 0;
    bool t_ok = true;
    for (int rep = 0; rep < kReps; ++rep) {
      dataflow::KernelStats ks;
      bench::WallTimer timer;
      auto fout = fused_pass(exprs, &executor, &ks);
      double ms = timer.ElapsedMs();
      if (!fout.ok()) {
        t_ok = false;
        break;
      }
      t_digest = Fnv1a64::OfBytes(dataflow::SerializeRelation(*fout));
      if (rep == 0 || ms < t_ms) t_ms = ms;
    }
    if (!t_ok || t_digest != row_digest) {
      digests_identical = false;
      std::fprintf(stderr, "parallel fused divergence at %d threads\n",
                   threads);
      continue;
    }
    morsel_totals.MergeFrom(executor.morsel_totals());
    std::printf("%8d %12.2f %14.0f %9.2fx  %s\n", threads, t_ms,
                input_rows / (t_ms / 1000.0), row_ms / t_ms,
                dataflow::HexU64(t_digest).c_str());
  }

  double rows_per_sec_row = input_rows / (row_ms / 1000.0);
  double rows_per_sec_batch = input_rows / (batch_ms / 1000.0);
  double rows_per_sec_fused = input_rows / (fused_ms / 1000.0);
  double speedup = rows_per_sec_batch / rows_per_sec_row;
  double fused_vs_row = rows_per_sec_fused / rows_per_sec_row;
  double fused_vs_batch = rows_per_sec_fused / rows_per_sec_batch;

  std::printf("\n%12s %12s %14s  %s\n", "engine", "best_ms", "rows_per_sec",
              "digest");
  std::printf("%12s %12.2f %14.0f  %s\n", "row", row_ms, rows_per_sec_row,
              dataflow::HexU64(row_digest).c_str());
  std::printf("%12s %12.2f %14.0f  %s\n", "batch", batch_ms,
              rows_per_sec_batch, dataflow::HexU64(batch_digest).c_str());
  std::printf("%12s %12.2f %14.0f  %s\n", "fused", fused_ms,
              rows_per_sec_fused, dataflow::HexU64(fused_digest).c_str());
  std::printf("%12s %12s %14s  %s\n", "oracle", "-", "-",
              dataflow::HexU64(oracle_digest).c_str());
  std::printf(
      "\ninput_rows=%zu batch=%.2fx fused=%.2fx (vs batch %.2fx) "
      "dict_pruned=%llu digests=%s\n",
      input_rows, speedup, fused_vs_row, fused_vs_batch,
      static_cast<unsigned long long>(kernel_stats.dict_domain_rows_pruned),
      digests_identical ? "identical" : "MISMATCH!");

  Json section = Json::Object();
  section.Set("users", Json::Int(static_cast<int64_t>(users)));
  section.Set("input_rows", Json::Int(static_cast<int64_t>(input_rows)));
  section.Set("rows_per_sec_row", Json::Number(rows_per_sec_row));
  section.Set("rows_per_sec_batch", Json::Number(rows_per_sec_batch));
  section.Set("rows_per_sec_fused", Json::Number(rows_per_sec_fused));
  section.Set("batch_speedup", Json::Number(speedup));
  section.Set("fused_speedup_vs_row", Json::Number(fused_vs_row));
  section.Set("fused_speedup_vs_batch", Json::Number(fused_vs_batch));
  section.Set("dict_domain_rows_pruned",
              Json::Int(static_cast<int64_t>(
                  kernel_stats.dict_domain_rows_pruned)));
  section.Set("morsel_count",
              Json::Int(static_cast<int64_t>(morsel_totals.morsels)));
  section.Set("morsel_max_bytes",
              Json::Int(static_cast<int64_t>(morsel_totals.max_morsel_bytes)));
  section.Set("answer_digest_row", Json::Str(dataflow::HexU64(row_digest)));
  section.Set("answer_digest_batch", Json::Str(dataflow::HexU64(batch_digest)));
  section.Set("answer_digest_fused", Json::Str(dataflow::HexU64(fused_digest)));
  section.Set("answer_digest_oracle",
              Json::Str(dataflow::HexU64(oracle_digest)));
  section.Set("digests_identical", Json::Bool(digests_identical));
  Status merged =
      bench::MergeBenchJsonSection("BENCH_scan.json", "vectorized_exec",
                                   std::move(section));
  if (!merged.ok()) {
    std::fprintf(stderr, "BENCH_scan.json: %s\n", merged.ToString().c_str());
    return 1;
  }

  if (oracle_digest != row_digest) {
    std::fprintf(stderr,
                 "FAIL: row answer diverges from relation_oracle::GroupBy\n");
    return 1;
  }
  if (!digests_identical) {
    std::fprintf(stderr,
                 "FAIL: engine answers diverge from the row engine\n");
    return 1;
  }
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: batch speedup %.2fx under the 3x acceptance floor\n",
                 speedup);
    return 1;
  }
  if (fused_vs_row < 10.0) {
    std::fprintf(stderr,
                 "FAIL: fused speedup %.2fx under the 10x acceptance floor\n",
                 fused_vs_row);
    return 1;
  }
  return 0;
}
