// The vectorized batch engine's contract: Filter and ProjectAs agree with
// the row operators, GroupBy and Join (the only hash aggregation and hash
// join; Relation's delegate to them) equal the frozen row bodies in
// relation_oracle.h (SerializeRelation equality, including bit-identical
// double SUMs and the join key), parallel output equals serial at any
// thread count, the columnar scan's batches equal a row-engine reference
// scan (scan_oracle.h), and the cost-based planner's decisions are
// deterministic and answer-neutral.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/compress.h"
#include "common/rng.h"
#include "dataflow/column_batch.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/relation.h"
#include "dataflow/relation_serde.h"
#include "dataflow/vector_engine.h"
#include "columnar/rcfile.h"
#include "events/client_event.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "relation_oracle.h"
#include "scan_oracle.h"

namespace unilog {
namespace {

using dataflow::Aggregate;
using dataflow::BatchRelation;
using dataflow::ColumnBatch;
using dataflow::ColumnKind;
using dataflow::FilterExpr;
using dataflow::Relation;
using dataflow::Row;
using dataflow::Value;

std::string Bytes(const Relation& rel) {
  return dataflow::SerializeRelation(rel);
}

std::string BatchBytes(const BatchRelation& b) {
  auto rel = b.ToRelation();
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return Bytes(*rel);
}

/// Mixed-type relation with low-cardinality strings (dictionary bait),
/// duplicate rows, and signed-zero reals in a key column.
Relation MixedRelation(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Relation rel({"id", "grp", "score", "flag", "tag"});
  for (size_t i = 0; i < rows; ++i) {
    double score = rng.NextDouble() * 100 - 50;
    if (rng.Uniform(17) == 0) score = rng.Uniform(2) == 0 ? 0.0 : -0.0;
    EXPECT_TRUE(
        rel.AddRow({Value::Int(static_cast<int64_t>(i % 23)),
                    Value::Int(static_cast<int64_t>(rng.Uniform(7))),
                    Value::Real(score), Value::Bool(rng.Uniform(2) == 0),
                    Value::Str("t" + std::to_string(rng.Uniform(5)))})
            .ok());
  }
  return rel;
}

exec::Executor MakeExecutor(int threads) {
  exec::ExecOptions opts;
  opts.threads = threads;
  opts.min_items_per_chunk = 4;
  return exec::Executor(opts);
}

// ---------------------------------------------------------------------------
// Conversion and column typing.

TEST(ColumnBatchTest, RoundTripPreservesBytes) {
  for (size_t batch_rows : {1ul, 3ul, 64ul, 4096ul}) {
    Relation rel = MixedRelation(257, 7);
    auto batch = BatchRelation::FromRelation(rel, batch_rows);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(BatchBytes(*batch), Bytes(rel)) << "batch_rows=" << batch_rows;
  }
  Relation empty({"a", "b"});
  auto batch = BatchRelation::FromRelation(empty);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(BatchBytes(*batch), Bytes(empty));
}

TEST(ColumnBatchTest, BuildColumnPicksTypedLayouts) {
  auto kind_of = [](std::vector<Value> vals) {
    return ColumnBatch::BuildColumn(vals)->kind;
  };
  EXPECT_EQ(kind_of({Value::Int(1), Value::Int(2)}), ColumnKind::kInt64);
  EXPECT_EQ(kind_of({Value::Real(1.5)}), ColumnKind::kDouble);
  EXPECT_EQ(kind_of({Value::Bool(true), Value::Bool(false)}),
            ColumnKind::kBool);
  EXPECT_EQ(kind_of({Value::Str("a"), Value::Str("b"), Value::Str("a")}),
            ColumnKind::kDict);
  EXPECT_EQ(kind_of({Value::Int(1), Value::Str("x")}), ColumnKind::kValue);

  // Cardinality above kMaxDictEntries falls back to plain strings — and
  // the boxed values still round-trip identically.
  std::vector<Value> wide;
  for (size_t i = 0; i < dataflow::kMaxDictEntries + 40; ++i) {
    wide.push_back(Value::Str("name-" + std::to_string(i)));
  }
  auto col = ColumnBatch::BuildColumn(wide);
  EXPECT_EQ(col->kind, ColumnKind::kString);
  ASSERT_EQ(col->size(), wide.size());
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(col->ValueAt(i), wide[i]);
  }
}

TEST(ColumnBatchTest, DictionaryKeepsFirstAppearanceOrder) {
  auto col = ColumnBatch::BuildColumn(
      {Value::Str("z"), Value::Str("a"), Value::Str("z"), Value::Str("m")});
  ASSERT_EQ(col->kind, ColumnKind::kDict);
  ASSERT_NE(col->dict, nullptr);
  EXPECT_EQ(*col->dict, (std::vector<std::string>{"z", "a", "m"}));
  EXPECT_EQ(col->codes, (std::vector<uint32_t>{0, 1, 0, 2}));
}

// ---------------------------------------------------------------------------
// Kernels vs the row engine, serial and parallel.

Relation RowFilter(const Relation& rel, const std::vector<FilterExpr>& exprs) {
  Relation out = rel;
  for (const auto& e : exprs) {
    size_t idx = out.ColumnIndex(e.column).value();
    out = out.Filter([&e, idx](const Row& row) {
      return relation_oracle::EvalFilterOp(row[idx], e.op, e.literal);
    });
  }
  return out;
}

TEST(VectorKernelTest, FilterMatchesRowEngine) {
  Relation rel = MixedRelation(300, 11);
  auto batch = BatchRelation::FromRelation(rel, 64).value();

  const std::vector<std::vector<FilterExpr>> cases = {
      {{"grp", "<", Value::Int(4)}},
      {{"score", ">=", Value::Real(0.0)}},
      {{"flag", "==", Value::Bool(true)}},
      {{"tag", "!=", Value::Str("t2")}},
      {{"tag", "matches", Value::Str("t?")}},
      {{"grp", "<", Value::Int(4)}, {"tag", "==", Value::Str("t1")}},
      // Type-mismatched literal: Int column vs Str literal has a constant
      // verdict under the Value total order (ints sort before strings).
      {{"grp", "<", Value::Str("zzz")}},
      {{"grp", "==", Value::Str("zzz")}},  // selects nothing
      {{"id", ">=", Value::Int(0)}},       // selects everything
  };
  for (const auto& exprs : cases) {
    std::string want = Bytes(RowFilter(rel, exprs));
    auto serial = batch.Filter(exprs);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(BatchBytes(*serial), want);
    for (int threads : {2, 8}) {
      exec::Executor executor = MakeExecutor(threads);
      auto par = batch.Filter(exprs, &executor);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(BatchBytes(*par), want) << "threads=" << threads;
    }
  }
}

TEST(VectorKernelTest, FilterStacksOnExistingSelection) {
  Relation rel = MixedRelation(200, 13);
  auto batch = BatchRelation::FromRelation(rel, 32).value();
  auto first = batch.Filter({{"grp", "<", Value::Int(5)}}).value();
  auto second = first.Filter({{"flag", "==", Value::Bool(false)}}).value();
  std::string want = Bytes(RowFilter(
      rel, {{"grp", "<", Value::Int(5)}, {"flag", "==", Value::Bool(false)}}));
  EXPECT_EQ(BatchBytes(second), want);
}

TEST(VectorKernelTest, ProjectAsMatchesRowEngine) {
  Relation rel = MixedRelation(150, 17);
  auto batch = BatchRelation::FromRelation(rel, 50).value();
  // Project through a selection so gather paths are exercised.
  auto filtered = batch.Filter({{"grp", ">", Value::Int(1)}}).value();
  Relation row_filtered = RowFilter(rel, {{"grp", ">", Value::Int(1)}});

  auto renamed = filtered.ProjectAs({"tag", "score"}, {"t", "s"}).value();
  auto row_renamed =
      Relation::FromRows(
          {"t", "s"},
          std::vector<Row>(
              row_filtered.Project({"tag", "score"}).value().rows()))
          .value();
  EXPECT_EQ(BatchBytes(renamed), Bytes(row_renamed));
  EXPECT_FALSE(filtered.ProjectAs({"tag"}, {"t", "s"}).ok());
  EXPECT_FALSE(filtered.ProjectAs({"nope"}, {"n"}).ok());
}

TEST(VectorKernelTest, GroupByMatchesRowEngineBitForBit) {
  Relation rel = MixedRelation(400, 19);
  auto batch = BatchRelation::FromRelation(rel, 64).value();
  std::vector<Aggregate> aggs{{Aggregate::Op::kCount, "", "n"},
                              {Aggregate::Op::kSum, "score", "total"},
                              {Aggregate::Op::kMin, "score", "lo"},
                              {Aggregate::Op::kMax, "id", "hi"},
                              {Aggregate::Op::kCountDistinct, "tag", "tags"}};
  for (const auto& keys :
       std::vector<std::vector<std::string>>{{"grp"}, {"grp", "tag"},
                                             {"score"}, {"flag", "grp"}}) {
    std::string want =
        Bytes(relation_oracle::GroupBy(rel, keys, aggs).value());
    auto got = batch.GroupBy(keys, aggs);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bytes(*got), want);
    EXPECT_EQ(Bytes(rel.GroupBy(keys, aggs).value()), want);
    for (int threads : {2, 8}) {
      exec::Executor executor = MakeExecutor(threads);
      auto par = batch.GroupBy(keys, aggs, &executor);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(Bytes(*par), want) << "threads=" << threads;
      EXPECT_EQ(Bytes(rel.GroupBy(keys, aggs, &executor).value()), want)
          << "threads=" << threads;
    }
  }
}

TEST(VectorKernelTest, GroupByThroughSelectionMatchesRowEngine) {
  Relation rel = MixedRelation(350, 23);
  std::vector<FilterExpr> pred{{"score", ">", Value::Real(-10.0)}};
  auto batch =
      BatchRelation::FromRelation(rel, 48).value().Filter(pred).value();
  Relation row = RowFilter(rel, pred);
  std::vector<Aggregate> aggs{{Aggregate::Op::kSum, "score", "total"},
                              {Aggregate::Op::kCount, "", "n"}};
  EXPECT_EQ(Bytes(batch.GroupBy({"grp"}, aggs).value()),
            Bytes(relation_oracle::GroupBy(row, {"grp"}, aggs).value()));
}

TEST(VectorKernelTest, SumOverNonNumericIsErrorNotGarbage) {
  Relation rel({"k", "s"});
  ASSERT_TRUE(rel.AddRow({Value::Int(1), Value::Str("oops")}).ok());
  ASSERT_TRUE(rel.AddRow({Value::Int(1), Value::Str("nope")}).ok());
  std::vector<Aggregate> aggs{{Aggregate::Op::kSum, "s", "total"}};

  auto want = relation_oracle::GroupBy(rel, {"k"}, aggs);
  ASSERT_FALSE(want.ok());
  EXPECT_TRUE(want.status().IsInvalidArgument()) << want.status().ToString();

  auto batch = BatchRelation::FromRelation(rel).value().GroupBy({"k"}, aggs);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsInvalidArgument());
  // Same diagnostic as the frozen row body.
  EXPECT_EQ(batch.status().ToString(), want.status().ToString());

  // Relation::GroupBy, serial and parallel, surfaces the same error (not a
  // crash, not 0).
  EXPECT_EQ(rel.GroupBy({"k"}, aggs).status().ToString(),
            want.status().ToString());
  exec::Executor executor = MakeExecutor(4);
  auto par = rel.GroupBy({"k"}, aggs, &executor);
  ASSERT_FALSE(par.ok());
  EXPECT_EQ(par.status().ToString(), want.status().ToString());

  // Bools are not numbers either (the old AsNumber folded them to 0/1).
  Relation bools({"k", "b"});
  ASSERT_TRUE(bools.AddRow({Value::Int(1), Value::Bool(true)}).ok());
  std::vector<Aggregate> bool_sum{{Aggregate::Op::kSum, "b", "total"}};
  EXPECT_FALSE(relation_oracle::GroupBy(bools, {"k"}, bool_sum).ok());
  EXPECT_FALSE(bools.GroupBy({"k"}, bool_sum).ok());
  EXPECT_FALSE(BatchRelation::FromRelation(bools)
                   .value()
                   .GroupBy({"k"}, bool_sum)
                   .ok());
}

TEST(VectorKernelTest, FusedFilterGroupByMatchesUnfused) {
  Relation rel = MixedRelation(400, 61);
  auto batch = BatchRelation::FromRelation(rel, 64).value();
  std::vector<Aggregate> aggs{{Aggregate::Op::kCount, "", "n"},
                              {Aggregate::Op::kSum, "score", "total"},
                              {Aggregate::Op::kMin, "score", "lo"},
                              {Aggregate::Op::kCountDistinct, "tag", "tags"}};
  const std::vector<std::vector<FilterExpr>> cases = {
      {},  // no predicate: fused degenerates to GroupBy
      {{"grp", "<", Value::Int(5)}},
      {{"tag", "matches", Value::Str("t?")}, {"grp", ">", Value::Int(1)}},
      {{"tag", "==", Value::Str("nope")}},  // empty selection
  };
  for (const auto& exprs : cases) {
    for (const auto& keys :
         std::vector<std::vector<std::string>>{{"tag"}, {"grp", "flag"}}) {
      std::string want = Bytes(
          relation_oracle::GroupBy(RowFilter(rel, exprs), keys, aggs).value());
      EXPECT_EQ(Bytes(batch.Filter(exprs)
                          .value()
                          .GroupBy(keys, aggs)
                          .value()),
                want);
      auto fused = batch.FilterGroupBy(exprs, keys, aggs);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      EXPECT_EQ(Bytes(*fused), want);
      for (int threads : {2, 8}) {
        exec::Executor executor = MakeExecutor(threads);
        auto par = batch.FilterGroupBy(exprs, keys, aggs, &executor);
        ASSERT_TRUE(par.ok());
        EXPECT_EQ(Bytes(*par), want) << "threads=" << threads;
      }
    }
  }
}

TEST(VectorKernelTest, FusedSumOverNonNumericFailsLikeRowEngine) {
  Relation rel({"k", "s"});
  ASSERT_TRUE(rel.AddRow({Value::Int(1), Value::Str("oops")}).ok());
  std::vector<Aggregate> aggs{{Aggregate::Op::kSum, "s", "total"}};
  auto row = relation_oracle::GroupBy(rel, {"k"}, aggs);
  ASSERT_FALSE(row.ok());
  auto fused = BatchRelation::FromRelation(rel).value().FilterGroupBy(
      {{"k", ">=", Value::Int(0)}}, {"k"}, aggs);
  ASSERT_FALSE(fused.ok());
  EXPECT_EQ(fused.status().ToString(), row.status().ToString());
}

// With two SUMs over boxed columns, the error names the first row (in row
// order) holding a non-number, and within that row the first such SUM in
// aggregate order — what a row-at-a-time walk hits first — at any thread
// count, also when the failing rows' groups have different owning shards.
TEST(VectorKernelTest, SumErrorIsFirstFailingRowThenAggregate) {
  struct Case {
    std::vector<Row> rows;  // (k, a, b)
    bool b_first;           // aggregate order: SUM(b) before SUM(a)
    const char* column;     // the column the error must name
  };
  const Value i1 = Value::Int(1), x = Value::Str("x"), y = Value::Str("y");
  const Row ok{i1, i1, Value::Real(2.0)};
  const Row b_fails{i1, Value::Real(0.5), x};
  const Row both_fail{i1, y, x};
  const std::vector<Case> cases = {
      {{ok, b_fails, both_fail}, false, "'b'"},
      {{ok, b_fails, both_fail}, true, "'b'"},
      {{ok, both_fail}, false, "'a'"},
      {{ok, both_fail}, true, "'b'"},
      // Keys 0 and 1 hash to different shards at four threads.
      {{{Value::Int(0), i1, x}, {i1, y, i1}}, false, "'b'"},
  };
  for (const Case& c : cases) {
    const Relation rel = Relation::FromRows({"k", "a", "b"}, c.rows).value();
    std::vector<Aggregate> aggs{{Aggregate::Op::kSum, "a", "sa"},
                                {Aggregate::Op::kSum, "b", "sb"}};
    if (c.b_first) std::swap(aggs[0], aggs[1]);
    auto want = relation_oracle::GroupBy(rel, {"k"}, aggs);
    ASSERT_FALSE(want.ok());
    EXPECT_NE(want.status().ToString().find(c.column), std::string::npos)
        << want.status().ToString();
    for (size_t batch_rows : {1, 2, 64}) {
      const BatchRelation batch =
          BatchRelation::FromRelation(rel, batch_rows).value();
      for (int threads : {1, 2, 4, 8}) {
        exec::Executor executor = MakeExecutor(threads);
        auto got = batch.GroupBy({"k"}, aggs, &executor);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().ToString(), want.status().ToString())
            << "batch_rows=" << batch_rows << " threads=" << threads;
      }
    }
  }
}

TEST(VectorKernelTest, KeyColumnMixingDictionaryAndPlainBatches) {
  // Three 300-row batches keyed by `key`: the outer two draw from eight
  // strings (dictionary columns); the middle one holds 300 distinct
  // strings, past kMaxDictEntries, so it stays a plain string column.
  // Eight of its keys also appear in the dictionary batches, so those
  // groups span both column kinds.
  constexpr size_t kBatchRows = 300;
  Relation rel({"key", "v", "w"});
  Rng rng(73);
  for (size_t seg = 0; seg < 3; ++seg) {
    for (size_t i = 0; i < kBatchRows; ++i) {
      const size_t k = seg == 1 ? i : rng.Uniform(8) * 37;
      ASSERT_TRUE(rel.AddRow({Value::Str("k" + std::to_string(k)),
                              Value::Real(rng.NextDouble() * 1e6 - 5e5),
                              Value::Int(static_cast<int64_t>(rng.Uniform(5)))})
                      .ok());
    }
  }
  auto batch = BatchRelation::FromRelation(rel, kBatchRows).value();
  ASSERT_EQ(batch.batches().size(), 3u);
  EXPECT_EQ(batch.batches()[0].col(0)->kind, ColumnKind::kDict);
  EXPECT_EQ(batch.batches()[1].col(0)->kind, ColumnKind::kString);
  EXPECT_EQ(batch.batches()[2].col(0)->kind, ColumnKind::kDict);

  const std::vector<Aggregate> aggs{
      {Aggregate::Op::kCount, "", "n"},
      {Aggregate::Op::kSum, "v", "total"},
      {Aggregate::Op::kMin, "v", "lo"},
      {Aggregate::Op::kCountDistinct, "w", "ws"}};
  const std::vector<std::vector<FilterExpr>> cases = {
      {},
      {{"key", "<", Value::Str("k2")}},
      {{"key", "matches", Value::Str("k1*")}, {"w", ">", Value::Int(0)}},
  };
  for (const auto& exprs : cases) {
    for (const auto& keys :
         std::vector<std::vector<std::string>>{{"key"}, {"key", "w"}}) {
      const std::string want = Bytes(
          relation_oracle::GroupBy(RowFilter(rel, exprs), keys, aggs).value());
      for (int threads : {1, 2, 8}) {
        exec::Executor executor = MakeExecutor(threads);
        if (exprs.empty()) {
          auto grouped = batch.GroupBy(keys, aggs, &executor);
          ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
          EXPECT_EQ(Bytes(*grouped), want) << "threads=" << threads;
        }
        auto fused = batch.FilterGroupBy(exprs, keys, aggs, &executor);
        ASSERT_TRUE(fused.ok()) << fused.status().ToString();
        EXPECT_EQ(Bytes(*fused), want)
            << "threads=" << threads << " filters=" << exprs.size()
            << " keys=" << keys.size();
      }
    }
  }
}

TEST(VectorKernelTest, KernelStatsCountDictDomainPruning) {
  // A pure dictionary column: every row the name filter drops must be
  // attributed to the code-domain verdict (its string never compared
  // per-row).
  Relation rel({"name", "v"});
  size_t t1_rows = 0;
  for (int i = 0; i < 120; ++i) {
    std::string name = "t" + std::to_string(i % 3);
    if (name == "t1") ++t1_rows;
    ASSERT_TRUE(rel.AddRow({Value::Str(name), Value::Int(i)}).ok());
  }
  auto batch = BatchRelation::FromRelation(rel, 40).value();

  dataflow::KernelStats stats;
  auto got = batch.Filter({{"name", "==", Value::Str("t1")}}, nullptr, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.rows_in, 120u);
  EXPECT_EQ(stats.rows_out, t1_rows);
  EXPECT_EQ(stats.dict_domain_rows_pruned, 120u - t1_rows);

  // Two conjuncts on the same dictionary column AND-merge into a single
  // verdict table: the pruned count still covers every dropped row.
  dataflow::KernelStats merged;
  auto got2 = batch.Filter({{"name", "!=", Value::Str("t0")},
                            {"name", "matches", Value::Str("t?")}},
                           nullptr, &merged);
  ASSERT_TRUE(got2.ok());
  size_t survivors = got2->ToRelation().value().rows().size();
  EXPECT_EQ(merged.rows_out, survivors);
  EXPECT_EQ(merged.dict_domain_rows_pruned, 120u - survivors);

  // A non-dictionary conjunct contributes no dict-domain pruning.
  dataflow::KernelStats plain;
  auto got3 = batch.Filter({{"v", "<", Value::Int(60)}}, nullptr, &plain);
  ASSERT_TRUE(got3.ok());
  EXPECT_EQ(plain.dict_domain_rows_pruned, 0u);
  EXPECT_EQ(plain.rows_out, 60u);

  // The fused pipeline reports the same accounting.
  dataflow::KernelStats fused;
  std::vector<Aggregate> aggs{{Aggregate::Op::kCount, "", "n"}};
  ASSERT_TRUE(batch
                  .FilterGroupBy({{"name", "==", Value::Str("t1")}}, {"name"},
                                 aggs, nullptr, &fused)
                  .ok());
  EXPECT_EQ(fused.rows_in, 120u);
  EXPECT_EQ(fused.rows_out, t1_rows);
  EXPECT_EQ(fused.dict_domain_rows_pruned, 120u - t1_rows);
}

TEST(VectorKernelTest, JoinMatchesRowEngineIncludingMixedNumericKeys) {
  Relation left({"k", "a"});
  Relation right({"k", "b"});
  Rng rng(29);
  for (int i = 0; i < 120; ++i) {
    // Mix Int and Real keys: Int(1) joins Real(1.0), as the frozen row
    // body does.
    Value key = rng.Uniform(2) == 0
                    ? Value::Int(static_cast<int64_t>(rng.Uniform(10)))
                    : Value::Real(static_cast<double>(rng.Uniform(10)));
    ASSERT_TRUE(left.AddRow({key, Value::Int(i)}).ok());
  }
  for (int i = 0; i < 40; ++i) {
    Value key = rng.Uniform(2) == 0
                    ? Value::Int(static_cast<int64_t>(rng.Uniform(10)))
                    : Value::Real(static_cast<double>(rng.Uniform(10)));
    ASSERT_TRUE(right.AddRow({key, Value::Str("r" + std::to_string(i))}).ok());
  }
  std::string want =
      Bytes(relation_oracle::Join(left, right, "k", "k").value());

  auto bl = BatchRelation::FromRelation(left, 32).value();
  auto br = BatchRelation::FromRelation(right, 16).value();
  auto joined = bl.Join(br, "k", "k");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(BatchBytes(*joined), want);
  EXPECT_EQ(Bytes(left.Join(right, "k", "k").value()), want);
  for (int threads : {2, 8}) {
    exec::Executor executor = MakeExecutor(threads);
    auto par = bl.Join(br, "k", "k", &executor);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(BatchBytes(*par), want) << "threads=" << threads;
    EXPECT_EQ(Bytes(left.Join(right, "k", "k", &executor).value()), want)
        << "threads=" << threads;
  }
}

TEST(VectorKernelTest, JoinKeysNumbersByExactValue) {
  // Each pair: (left key, right key, whether they join).
  const struct {
    Value left, right;
    bool match;
  } cases[] = {
      {Value::Int(1), Value::Real(1.0), true},
      {Value::Int(1000000), Value::Real(1e6), true},
      {Value::Real(0.1234567), Value::Real(0.1234568), false},
      {Value::Real(-0.0), Value::Int(0), true},
      {Value::Real(0.5), Value::Real(0.5), true},
      {Value::Int(1), Value::Str("1"), false},
      {Value::Int(1), Value::Bool(true), false},
      {Value::Str("true"), Value::Bool(true), false},
      {Value::Real(9.3e18), Value::Int(INT64_MAX), false},  // out of range
  };
  for (const auto& c : cases) {
    Relation left({"k", "a"});
    Relation right({"k", "b"});
    ASSERT_TRUE(left.AddRow({c.left, Value::Int(1)}).ok());
    ASSERT_TRUE(right.AddRow({c.right, Value::Int(2)}).ok());
    auto joined = left.Join(right, "k", "k");
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(joined->size(), c.match ? 1u : 0u)
        << c.left.ToString() << " vs " << c.right.ToString();
    EXPECT_EQ(
        relation_oracle::Join(left, right, "k", "k").value().size(),
        joined->size());
  }
}

TEST(VectorKernelTest, CountDistinctUsesGroupKeyIdentity) {
  // Each case: the values of one group's column, and how many are
  // distinct under GroupBy's (type, value) identity.
  const struct {
    std::vector<Value> vals;
    int64_t distinct;
  } cases[] = {
      // ToString keeps 6 significant digits; the identity does not.
      {{Value::Real(0.1234567), Value::Real(0.1234568)}, 2},
      {{Value::Real(1000003.0), Value::Real(1000004.0)}, 2},
      // Types never compare equal.
      {{Value::Int(1), Value::Str("1")}, 2},
      {{Value::Int(1), Value::Real(1.0)}, 2},
      {{Value::Bool(true), Value::Str("true")}, 2},
      // -0.0 is 0.0.
      {{Value::Real(-0.0), Value::Real(0.0)}, 1},
      {{Value::Int(7), Value::Int(7), Value::Str("a"), Value::Str("a")}, 2},
      // In two-row batches "a" sits in a dictionary column, then in a
      // mixed one: one value either way.
      {{Value::Str("a"), Value::Str("a"), Value::Int(1), Value::Str("a")}, 2},
  };
  for (const auto& c : cases) {
    Relation rel({"g", "v"});
    for (const Value& v : c.vals) {
      ASSERT_TRUE(rel.AddRow({Value::Int(0), v}).ok());
    }
    std::vector<Aggregate> aggs{{Aggregate::Op::kCountDistinct, "v", "n"}};
    const std::string want = Bytes(
        Relation::FromRows({"g", "n"}, {{Value::Int(0), Value::Int(c.distinct)}})
            .value());
    EXPECT_EQ(Bytes(relation_oracle::GroupBy(rel, {"g"}, aggs).value()), want);
    // Small batches put the values in different column kinds, so the
    // identity must hold across kinds too.
    for (size_t batch_rows : {1ul, 2ul, 1024ul}) {
      auto batch = BatchRelation::FromRelation(rel, batch_rows).value();
      EXPECT_EQ(Bytes(batch.GroupBy({"g"}, aggs).value()), want)
          << c.vals[0].ToString() << " batch_rows=" << batch_rows;
      EXPECT_EQ(Bytes(batch.FilterGroupBy({}, {"g"}, aggs).value()), want);
    }
  }
}

// ---------------------------------------------------------------------------
// OrderBy against a stable sort of the rows themselves.

TEST(RelationParallelTest, OrderByMatchesSerialStableSort) {
  Relation rel = MixedRelation(500, 37);
  const size_t grp = rel.ColumnIndex("grp").value();
  for (bool descending : {false, true}) {
    // "grp" has heavy duplication, so stability is actually observable.
    std::vector<Row> rows = rel.rows();
    std::stable_sort(rows.begin(), rows.end(),
                     [grp, descending](const Row& a, const Row& b) {
                       return descending ? b[grp] < a[grp] : a[grp] < b[grp];
                     });
    EXPECT_EQ(Bytes(rel.OrderBy("grp", descending).value()),
              Bytes(Relation::FromRows(rel.columns(), rows).value()))
        << "desc=" << descending;
  }
}

// ---------------------------------------------------------------------------
// Columnar scan batch path.

events::ClientEvent ScanEvent(Rng& rng, int64_t base_ts) {
  events::ClientEvent ev;
  ev.initiator = static_cast<events::EventInitiator>(rng.Uniform(4));
  static const char* kNames[] = {"web:home:::tweet:click",
                                 "api:timeline:fetch",
                                 "web:profile:::follow",
                                 "web:home:::tweet:impression"};
  ev.event_name = kNames[rng.Uniform(4)];
  ev.user_id = static_cast<int64_t>(rng.Uniform(50));
  ev.session_id = "s" + std::to_string(rng.Uniform(12));
  ev.ip = "10.1.0." + std::to_string(rng.Uniform(100));
  ev.timestamp = base_ts + static_cast<int64_t>(rng.Uniform(3600000));
  return ev;
}

/// Warehouse dir with two columnar RCFile parts (small groups, so several
/// ScanUnits) and one legacy framed part.
std::unique_ptr<hdfs::MiniHdfs> ScanWarehouse(uint64_t seed, int64_t base_ts,
                                              size_t events_per_part) {
  Rng rng(seed);
  auto fs = std::make_unique<hdfs::MiniHdfs>();
  for (int part = 0; part < 2; ++part) {
    std::string body;
    columnar::RcFileWriter writer(&body, 37);
    for (size_t i = 0; i < events_per_part; ++i) {
      EXPECT_TRUE(writer.Add(ScanEvent(rng, base_ts)).ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    char name[32];
    std::snprintf(name, sizeof(name), "/events/part-%05d", part);
    EXPECT_TRUE(fs->WriteFile(name, body).ok());
  }
  std::string legacy;
  for (size_t i = 0; i < events_per_part / 2; ++i) {
    std::string record = ScanEvent(rng, base_ts).Serialize();
    PutVarint64(&legacy, record.size());
    legacy.append(record);
  }
  EXPECT_TRUE(fs->WriteFile("/events/part-legacy", Lz::Compress(legacy)).ok());
  return fs;
}

constexpr int64_t kScanBase = 1345507200000;

/// The row-engine reference for `scan` over ScanWarehouse's directory.
Relation Reference(const hdfs::MiniHdfs& fs,
                   const dataflow::ColumnarEventScan& scan) {
  auto rel = scan_oracle::ReferenceMaterialize(fs, "/events", scan);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return rel.ok() ? *rel : Relation();
}

TEST(ScanBatchTest, MaterializeBatchesEqualsMaterialize) {
  auto fs = ScanWarehouse(41, kScanBase, 220);
  for (bool push : {false, true}) {
    auto scan = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();
    if (push) {
      ASSERT_TRUE(scan->PushFilter("event_name", "matches",
                                   Value::Str("web:*")));
      ASSERT_TRUE(scan->PushFilter(
          "timestamp", "<", Value::Int(kScanBase + 1800000)));
    }
    const std::string want = Bytes(Reference(*fs, *scan));
    EXPECT_EQ(Bytes(scan->Materialize(nullptr).value()), want)
        << "push=" << push;
    for (int threads : {1, 2, 8}) {
      auto scan2 =
          std::static_pointer_cast<dataflow::ColumnarEventScan>(scan->Clone());
      exec::Executor executor = MakeExecutor(threads);
      auto batches = scan2->MaterializeBatches(&executor);
      ASSERT_TRUE(batches.ok()) << batches.status().ToString();
      EXPECT_EQ(BatchBytes(*batches), want)
          << "threads=" << threads << " push=" << push;
    }
  }
}

TEST(ScanBatchTest, ProjectedScanCarriesDictionariesThrough) {
  auto fs = ScanWarehouse(43, kScanBase, 150);
  auto scan = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();
  ASSERT_TRUE(scan->PushProject({"event_name", "user_id"}, {"name", "uid"}));
  Relation rows = Reference(*fs, *scan);
  auto batches = scan->MaterializeBatches(nullptr).value();
  EXPECT_EQ(BatchBytes(batches), Bytes(rows));
  // The event-name column of every RCFile-sourced batch must be
  // dictionary-encoded — group dictionaries flow through, strings are
  // never materialized per row. (The legacy part contributes kDict too:
  // its names are built via BuildColumn's first-appearance dictionary.)
  size_t name_idx = batches.ColumnIndex("name").value();
  ASSERT_FALSE(batches.batches().empty());
  for (const auto& b : batches.batches()) {
    EXPECT_EQ(b.col(name_idx)->kind, ColumnKind::kDict);
  }
  // And a filter + group-by over the dictionary column agrees with the
  // row engine end to end.
  std::vector<FilterExpr> pred{{"name", "matches", Value::Str("web:*")}};
  std::vector<Aggregate> aggs{{Aggregate::Op::kCount, "", "n"}};
  EXPECT_EQ(
      Bytes(batches.Filter(pred).value().GroupBy({"name"}, aggs).value()),
      Bytes(relation_oracle::GroupBy(RowFilter(rows, pred), {"name"}, aggs)
                .value()));
}

TEST(ScanBatchTest, SharedBatchesEqualPerMemberMaterialize) {
  auto fs = ScanWarehouse(47, kScanBase, 200);
  auto base = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();

  auto clicks =
      std::static_pointer_cast<dataflow::ColumnarEventScan>(base->Clone());
  ASSERT_TRUE(clicks->PushFilter("event_name", "==",
                                 Value::Str("web:home:::tweet:click")));
  auto early =
      std::static_pointer_cast<dataflow::ColumnarEventScan>(base->Clone());
  ASSERT_TRUE(early->PushFilter("timestamp", "<",
                                Value::Int(kScanBase + 600000)));
  auto everything =
      std::static_pointer_cast<dataflow::ColumnarEventScan>(base->Clone());

  std::vector<std::string> want;
  for (auto& m : {clicks, early, everything}) {
    want.push_back(Bytes(Reference(*fs, *m)));
  }
  for (int threads : {1, 2, 8}) {
    std::vector<std::shared_ptr<dataflow::ColumnarEventScan>> members;
    for (auto& m : {clicks, early, everything}) {
      members.push_back(
          std::static_pointer_cast<dataflow::ColumnarEventScan>(m->Clone()));
    }
    exec::Executor executor = MakeExecutor(threads);
    auto batches = dataflow::ColumnarEventScan::MaterializeSharedBatches(
        members, &executor);
    ASSERT_TRUE(batches.ok()) << batches.status().ToString();
    ASSERT_EQ(batches->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(BatchBytes((*batches)[i]), want[i])
          << "member " << i << " threads=" << threads;
    }
    // The shared pass fills member batch caches: a later MaterializeBatches
    // is served from cache and still agrees.
    EXPECT_EQ(BatchBytes(members[0]->MaterializeBatches(nullptr).value()),
              want[0]);
  }
}

// ---------------------------------------------------------------------------
// Header-only scan statistics (ColumnarEventScan::Stats), and conjunct
// order, which never changes a filter's answer.

TEST(PlannerTest, StatsAggregateZoneMapsHeaderOnly) {
  auto fs = ScanWarehouse(53, kScanBase, 180);
  auto scan = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();
  auto stats = scan->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // 2 RCFile parts of 180 rows; the legacy part is opaque header-only (it
  // would need a decompression to count rows) and contributes bytes only.
  EXPECT_EQ(stats->total_rows, 2 * 180u);
  EXPECT_GT(stats->row_groups, 2u);  // 37-row groups => several per part
  EXPECT_GT(stats->data_bytes, 0u);
  // The legacy part has no zone maps, so the merged stats must say so.
  EXPECT_FALSE(stats->has_zone_maps);
  ASSERT_TRUE(stats->min_timestamp.has_value());
  EXPECT_GE(*stats->min_timestamp, kScanBase);
  EXPECT_LE(*stats->max_timestamp, kScanBase + 3600000);
  // Dictionary names from the RCFile parts are visible with row upper bounds.
  EXPECT_GT(stats->name_rows.count("web:home:::tweet:click"), 0u);
}

TEST(PlannerTest, OrderingNeverChangesFilterAnswers) {
  Relation rel = MixedRelation(300, 59);
  auto batch = BatchRelation::FromRelation(rel, 64).value();
  std::vector<FilterExpr> exprs = {{"grp", "<", Value::Int(5)},
                                   {"tag", "==", Value::Str("t1")},
                                   {"score", ">", Value::Real(-20.0)}};
  std::string want = BatchBytes(batch.Filter(exprs).value());
  std::reverse(exprs.begin(), exprs.end());
  EXPECT_EQ(BatchBytes(batch.Filter(exprs).value()), want);
}

TEST(PlannerTest, StatsMatchMergedPerPartStats) {
  auto fs = ScanWarehouse(67, kScanBase, 160);
  auto scan = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();
  auto direct = scan->Stats();
  ASSERT_TRUE(direct.ok());

  // Each part alone (2 RCFile parts + 1 legacy part), merged in listing order,
  // must reproduce the directory's stats field for field.
  dataflow::TableStats merged;
  for (const char* part : {"part-00000", "part-00001", "part-legacy"}) {
    const std::string dir = std::string("/solo/") + part;
    auto body = fs->ReadFile(std::string("/events/") + part);
    ASSERT_TRUE(body.ok());
    ASSERT_TRUE(fs->WriteFile(dir + "/" + part, *body).ok());
    auto one = dataflow::ColumnarEventScan::Open(fs.get(), dir).value();
    auto stats = one->Stats();
    ASSERT_TRUE(stats.ok()) << part;
    if (std::string(part) == "part-legacy") {
      // Legacy parts are opaque to a header walk: bytes only.
      EXPECT_EQ(stats->total_rows, 0u);
      EXPECT_EQ(stats->row_groups, 0u);
      EXPECT_EQ(stats->data_bytes, body->size());
      EXPECT_FALSE(stats->has_zone_maps);
      EXPECT_FALSE(stats->min_timestamp.has_value());
      EXPECT_TRUE(stats->name_rows.empty());
    } else {
      EXPECT_EQ(stats->total_rows, 160u);
      EXPECT_TRUE(stats->has_zone_maps);
    }
    merged.Merge(*stats);
  }
  EXPECT_EQ(merged.total_rows, direct->total_rows);
  EXPECT_EQ(merged.row_groups, direct->row_groups);
  EXPECT_EQ(merged.data_bytes, direct->data_bytes);
  EXPECT_EQ(merged.min_timestamp, direct->min_timestamp);
  EXPECT_EQ(merged.max_timestamp, direct->max_timestamp);
  EXPECT_EQ(merged.min_user_id, direct->min_user_id);
  EXPECT_EQ(merged.max_user_id, direct->max_user_id);
  EXPECT_EQ(merged.name_rows, direct->name_rows);
  EXPECT_EQ(merged.initiator_rows, direct->initiator_rows);
  EXPECT_EQ(merged.has_zone_maps, direct->has_zone_maps);
}

TEST(PlannerTest, StatsExposeInitiatorDictionaries) {
  auto fs = ScanWarehouse(71, kScanBase, 140);
  auto scan = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();
  auto stats = scan->Stats();
  ASSERT_TRUE(stats.ok());
  // ScanEvent draws initiators uniformly from all four, so the RCFile parts'
  // initiator dictionaries surface with nonzero row bounds.
  EXPECT_FALSE(stats->initiator_rows.empty());
  uint64_t bound = 0;
  for (const auto& [name, rows] : stats->initiator_rows) {
    EXPECT_FALSE(name.empty());
    bound = std::max(bound, rows);
  }
  EXPECT_LE(bound, stats->total_rows);
}

TEST(ScanBatchTest, PushedNameFilterCountsDictDomainPruning) {
  auto fs = ScanWarehouse(73, kScanBase, 200);
  auto scan = dataflow::ColumnarEventScan::Open(fs.get(), "/events").value();
  ASSERT_TRUE(scan->PushFilter("event_name", "==",
                               Value::Str("web:home:::tweet:click")));
  ASSERT_TRUE(scan->Materialize(nullptr).ok());
  const columnar::ScanStats& st = scan->last_stats();
  // The RCFile parts prune non-click rows by encoded id: attributed to the
  // dictionary-domain counter, a subset of overall row pruning.
  EXPECT_GT(st.dict_domain_rows_pruned, 0u);
  EXPECT_LE(st.dict_domain_rows_pruned, st.rows_pruned);
}

}  // namespace
}  // namespace unilog
