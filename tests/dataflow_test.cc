// Tests for the dataflow engine: the Hadoop-shaped cost model, simulated
// MapReduce jobs over MiniHdfs, and the Pig-like relational operators.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/compress.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/cost_model.h"
#include "dataflow/mapreduce.h"
#include "dataflow/plan_fingerprint.h"
#include "dataflow/relation.h"
#include "dataflow/relation_serde.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "scan_oracle.h"
#include "scribe/message.h"

namespace unilog::dataflow {
namespace {

// ---------------------------------------------------------------------------
// Cost model

TEST(CostModelTest, MoreMapTasksCostMore) {
  JobCostModel model;
  JobStats few, many;
  few.map_tasks = 10;
  few.bytes_scanned = 10 << 20;
  many.map_tasks = 10000;
  many.bytes_scanned = 10 << 20;  // same bytes, more tasks
  EXPECT_LT(ModelWallTimeMs(model, few), ModelWallTimeMs(model, many));
}

TEST(CostModelTest, MoreBytesCostMore) {
  JobCostModel model;
  JobStats small, big;
  small.map_tasks = big.map_tasks = 100;
  small.bytes_scanned = 1 << 20;
  big.bytes_scanned = 1 << 30;
  EXPECT_LT(ModelWallTimeMs(model, small), ModelWallTimeMs(model, big));
}

TEST(CostModelTest, ShuffleAddsCost) {
  JobCostModel model;
  JobStats map_only, with_shuffle;
  map_only.map_tasks = with_shuffle.map_tasks = 100;
  map_only.bytes_scanned = with_shuffle.bytes_scanned = 1 << 20;
  with_shuffle.reduce_tasks = 16;
  with_shuffle.bytes_shuffled = 1 << 26;
  EXPECT_LT(ModelWallTimeMs(model, map_only),
            ModelWallTimeMs(model, with_shuffle));
}

TEST(CostModelTest, AccumulateSums) {
  JobStats a, b;
  a.map_tasks = 5;
  a.bytes_scanned = 100;
  b.map_tasks = 7;
  b.bytes_scanned = 200;
  a.Accumulate(b);
  EXPECT_EQ(a.map_tasks, 12u);
  EXPECT_EQ(a.bytes_scanned, 300u);
}

// ---------------------------------------------------------------------------
// MapReduce

class MapReduceTest : public ::testing::Test {
 protected:
  MapReduceTest() {
    // Small block size so files split into multiple map tasks.
    hdfs::HdfsOptions opts;
    opts.block_size = 256;
    fs_ = std::make_unique<hdfs::MiniHdfs>(nullptr, opts);
  }

  void WriteFramedCompressed(const std::string& path,
                             const std::vector<std::string>& messages) {
    std::string body = Lz::Compress(scribe::FrameMessages(messages));
    ASSERT_TRUE(fs_->WriteFile(path, body).ok());
  }

  std::unique_ptr<hdfs::MiniHdfs> fs_;
  JobCostModel model_;
};

TEST_F(MapReduceTest, WordCountStyleJob) {
  WriteFramedCompressed("/in/f1", {"a", "b", "a"});
  WriteFramedCompressed("/in/f2", {"b", "a"});
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  job.set_map([](const std::string& record, Emitter* e) {
    e->Emit(record, "1");
    return Status::OK();
  });
  job.set_reduce([](const std::string& key,
                    const std::vector<std::string>& values, Emitter* e) {
    e->Emit(key, std::to_string(values.size()));
    return Status::OK();
  });
  auto out = job.Run();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0], (std::pair<std::string, std::string>{"a", "3"}));
  EXPECT_EQ((*out)[1], (std::pair<std::string, std::string>{"b", "2"}));
  EXPECT_EQ(job.stats().records_read, 5u);
  EXPECT_GE(job.stats().map_tasks, 2u);
  EXPECT_GT(job.stats().bytes_shuffled, 0u);
  EXPECT_GT(job.stats().modeled_ms, 0.0);
}

TEST_F(MapReduceTest, MapOnlyJob) {
  WriteFramedCompressed("/in/f1", {"x", "yy", "zzz"});
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  job.set_map([](const std::string& record, Emitter* e) {
    if (record.size() >= 2) e->Emit(record, "");
    return Status::OK();
  });
  auto out = job.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(job.stats().reduce_tasks, 0u);
  EXPECT_EQ(job.stats().bytes_shuffled, 0u);
}

TEST_F(MapReduceTest, SkipsUnderscoreFiles) {
  WriteFramedCompressed("/in/f1", {"a"});
  ASSERT_TRUE(fs_->WriteFile("/in/_SUCCESS", "").ok());
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  EXPECT_EQ(job.input_file_count(), 1u);
}

TEST_F(MapReduceTest, SkipsFilesUnderHiddenDirectories) {
  // A cache subtree next to the data is hidden as a whole: the rule scans
  // and Oink manifests apply (IsHiddenWarehousePath), not a check of the
  // file name alone.
  WriteFramedCompressed("/in/part-0", {"a"});
  WriteFramedCompressed("/in/_cache/part-0", {"cached"});
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  EXPECT_EQ(job.input_file_count(), 1u);
  job.set_map([](const std::string& record, Emitter* e) {
    e->Emit(record, "");
    return Status::OK();
  });
  auto out = job.Run();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].first, "a");
}

TEST_F(MapReduceTest, MapTasksScaleWithBlocks) {
  // One big file spanning many 256-byte blocks.
  std::vector<std::string> many(200, "some-message-payload");
  std::string body = scribe::FrameMessages(many);  // uncompressed
  ASSERT_TRUE(fs_->WriteFile("/in/big", body).ok());
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  job.set_input_format(InputFormat::Framed());
  job.set_map([](const std::string&, Emitter*) { return Status::OK(); });
  ASSERT_TRUE(job.Run().ok());
  EXPECT_EQ(job.stats().map_tasks, fs_->Stat("/in/big")->block_count);
  EXPECT_GT(job.stats().map_tasks, 10u);
}

TEST_F(MapReduceTest, FileFilterPushDownSkipsScans) {
  WriteFramedCompressed("/in/keep", {"a", "a"});
  WriteFramedCompressed("/in/skip", {"b", "b", "b"});
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  job.set_input_format(InputFormat::CompressedFramed().WithFileFilter(
      [](const std::string& path) {
        return path.find("skip") == std::string::npos;
      }));
  job.set_map([](const std::string& record, Emitter* e) {
    e->Emit(record, "");
    return Status::OK();
  });
  auto out = job.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // only "keep" records
  EXPECT_EQ(job.stats().records_read, 2u);
}

TEST_F(MapReduceTest, LinesInputFormat) {
  ASSERT_TRUE(fs_->WriteFile("/in/log.txt", "line1\nline2\n\nline3").ok());
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  job.set_input_format(InputFormat::Lines());
  job.set_map([](const std::string& record, Emitter* e) {
    e->Emit(record, "");
    return Status::OK();
  });
  auto out = job.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST_F(MapReduceTest, CorruptInputSurfacesError) {
  ASSERT_TRUE(fs_->WriteFile("/in/bad", "not a compressed file").ok());
  MapReduceJob job(fs_.get(), model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  job.set_map([](const std::string&, Emitter*) { return Status::OK(); });
  EXPECT_FALSE(job.Run().ok());
}

TEST_F(MapReduceTest, MissingInputDirFails) {
  MapReduceJob job(fs_.get(), model_);
  EXPECT_TRUE(job.AddInputDir("/nope").IsNotFound());
}

TEST_F(MapReduceTest, NoMapFunctionFails) {
  MapReduceJob job(fs_.get(), model_);
  EXPECT_TRUE(job.Run().status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Relation

Relation SampleEvents() {
  Relation r({"user_id", "event", "country", "count"});
  auto add = [&r](int64_t uid, const char* ev, const char* c, int64_t n) {
    EXPECT_TRUE(
        r.AddRow({Value::Int(uid), Value::Str(ev), Value::Str(c),
                  Value::Int(n)})
            .ok());
  };
  add(1, "impression", "us", 10);
  add(1, "click", "us", 2);
  add(2, "impression", "uk", 5);
  add(2, "impression", "us", 7);
  add(3, "click", "uk", 1);
  return r;
}

TEST(RelationTest, SchemaAndArity) {
  Relation r({"a", "b"});
  EXPECT_TRUE(r.AddRow({Value::Int(1)}).IsInvalidArgument());
  EXPECT_TRUE(r.AddRow({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.ColumnIndex("a").ok());
  EXPECT_TRUE(r.ColumnIndex("zzz").status().IsNotFound());
}

TEST(RelationTest, FilterAndProject) {
  Relation r = SampleEvents();
  size_t ev_idx = r.ColumnIndex("event").value();
  Relation clicks = r.Filter(
      [&](const Row& row) { return row[ev_idx].str_value() == "click"; });
  EXPECT_EQ(clicks.size(), 2u);

  auto projected = clicks.Project({"user_id", "country"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->columns(),
            (std::vector<std::string>{"user_id", "country"}));
  EXPECT_EQ(projected->rows()[0].size(), 2u);
  EXPECT_FALSE(clicks.Project({"nope"}).ok());
}

TEST(RelationTest, GroupByCountSumMinMax) {
  Relation r = SampleEvents();
  auto grouped = r.GroupBy(
      {"event"},
      {{Aggregate::Op::kCount, "", "n"},
       {Aggregate::Op::kSum, "count", "total"},
       {Aggregate::Op::kMin, "count", "lo"},
       {Aggregate::Op::kMax, "count", "hi"}});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->size(), 2u);  // click, impression (sorted)
  const Row& click = grouped->rows()[0];
  EXPECT_EQ(click[0].str_value(), "click");
  EXPECT_EQ(click[1].int_value(), 2);
  EXPECT_EQ(click[2].real_value(), 3.0);
  EXPECT_EQ(click[3].int_value(), 1);
  EXPECT_EQ(click[4].int_value(), 2);
  const Row& imp = grouped->rows()[1];
  EXPECT_EQ(imp[1].int_value(), 3);
  EXPECT_EQ(imp[2].real_value(), 22.0);
}

TEST(RelationTest, GroupByCountDistinct) {
  Relation r = SampleEvents();
  auto grouped = r.GroupBy(
      {"event"}, {{Aggregate::Op::kCountDistinct, "user_id", "users"}});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->rows()[0][1].int_value(), 2);  // click: users 1,3
  EXPECT_EQ(grouped->rows()[1][1].int_value(), 2);  // impression: users 1,2
}

TEST(RelationTest, MultiKeyGroupBy) {
  Relation r = SampleEvents();
  auto grouped =
      r.GroupBy({"event", "country"}, {{Aggregate::Op::kCount, "", "n"}});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->size(), 4u);
}

TEST(RelationTest, JoinInner) {
  Relation users({"uid", "name"});
  ASSERT_TRUE(users.AddRow({Value::Int(1), Value::Str("alice")}).ok());
  ASSERT_TRUE(users.AddRow({Value::Int(2), Value::Str("bob")}).ok());
  Relation r = SampleEvents();
  auto joined = r.Join(users, "user_id", "uid");
  ASSERT_TRUE(joined.ok());
  // User 3 has no match → dropped.
  EXPECT_EQ(joined->size(), 4u);
  EXPECT_EQ(joined->columns().back(), "name");
  auto name = joined->Get(joined->rows()[0], "name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->str_value(), "alice");
  EXPECT_FALSE(r.Join(users, "nope", "uid").ok());
}

TEST(RelationTest, DistinctOrderByLimit) {
  Relation r({"x"});
  for (int v : {3, 1, 3, 2, 1}) {
    ASSERT_TRUE(r.AddRow({Value::Int(v)}).ok());
  }
  Relation d = r.Distinct();
  EXPECT_EQ(d.size(), 3u);
  auto sorted = d.OrderBy("x", /*descending=*/true);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->rows()[0][0].int_value(), 3);
  EXPECT_EQ(sorted->rows()[2][0].int_value(), 1);
  EXPECT_EQ(sorted->Limit(2).size(), 2u);
  EXPECT_EQ(sorted->Limit(99).size(), 3u);
}

TEST(RelationTest, ValueOrderingAcrossTypes) {
  EXPECT_TRUE(Value::Int(1) < Value::Int(2));
  EXPECT_TRUE(Value::Str("a") < Value::Str("b"));
  EXPECT_TRUE(Value::Int(5) == Value::Int(5));
  EXPECT_FALSE(Value::Int(5) == Value::Str("5"));
  EXPECT_EQ(Value::Real(2.5).AsNumber(), 2.5);
  EXPECT_EQ(Value::Int(3).AsNumber(), 3.0);
  EXPECT_EQ(Value::Bool(true).AsNumber(), 1.0);
}

TEST(RelationTest, ToStringRendersHeaderAndRows) {
  Relation r({"a", "b"});
  ASSERT_TRUE(r.AddRow({Value::Int(1), Value::Str("x")}).ok());
  std::string s = r.ToString();
  EXPECT_NE(s.find("a\tb"), std::string::npos);
  EXPECT_NE(s.find("1\tx"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Relation serde (the Oink cache payload format)

TEST(RelationSerdeTest, RoundTripsAllValueTypes) {
  Relation r({"i", "r", "s", "b"});
  ASSERT_TRUE(r.AddRow({Value::Int(-42), Value::Real(0.1),
                        Value::Str(std::string("h\0éllo", 7)),
                        Value::Bool(true)})
                  .ok());
  ASSERT_TRUE(r.AddRow({Value::Int(INT64_MAX), Value::Real(-0.0),
                        Value::Str(""), Value::Bool(false)})
                  .ok());
  std::string bytes = SerializeRelation(r);
  auto back = DeserializeRelation(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->columns(), r.columns());
  ASSERT_EQ(back->rows().size(), r.rows().size());
  for (size_t i = 0; i < r.rows().size(); ++i) {
    EXPECT_EQ(back->rows()[i], r.rows()[i]) << i;
  }
  // Bit-exact doubles: -0.0 re-serializes to the same bytes.
  EXPECT_EQ(SerializeRelation(*back), bytes);
}

TEST(RelationSerdeTest, EmptyAndZeroColumnRelations) {
  Relation empty({"a", "b"});
  auto back = DeserializeRelation(SerializeRelation(empty));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->columns(), empty.columns());
  EXPECT_EQ(back->size(), 0u);

  Relation none;  // zero columns, zero rows
  auto back2 = DeserializeRelation(SerializeRelation(none));
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(back2->columns().size(), 0u);
}

TEST(RelationSerdeTest, MalformedInputIsCorruptionNeverCrash) {
  Relation r({"a", "b"});
  ASSERT_TRUE(r.AddRow({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(r.AddRow({Value::Int(2), Value::Str("yy")}).ok());
  std::string good = SerializeRelation(r);

  // Bad magic.
  std::string bad = good;
  bad[0] ^= 0x20;
  EXPECT_TRUE(DeserializeRelation(bad).status().IsCorruption());
  // Every truncation fails cleanly.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    auto st = DeserializeRelation(std::string_view(good).substr(0, cut));
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
  }
  // Trailing garbage is rejected (a silent prefix-parse would let a
  // corrupt artifact half-match).
  EXPECT_TRUE(DeserializeRelation(good + "z").status().IsCorruption());
  // Unknown value tag.
  bad = good;
  bad[bad.size() - 4] = static_cast<char>(0x7f);
  EXPECT_FALSE(DeserializeRelation(bad).ok());
}

// ---------------------------------------------------------------------------
// Canonical ScanSpec serialization + union merge (plan fingerprints)

TEST(PlanFingerprintTest, CanonicalSpecDistinguishesAbsentFromEmpty) {
  columnar::ScanSpec absent;
  columnar::ScanSpec empty;
  empty.event_names = std::set<std::string>{};
  EXPECT_NE(CanonicalScanSpec(absent), CanonicalScanSpec(empty));
}

TEST(PlanFingerprintTest, CanonicalSpecIsOrderInsensitiveWhereSemanticsAre) {
  columnar::ScanSpec a, b;
  a.event_names = {"x", "y"};
  b.event_names = {"y", "x"};
  a.user_ids = {3, 1};
  b.user_ids = {1, 3};
  a.event_name_patterns = {"web:*", "*:click", "web:*"};
  b.event_name_patterns = {"*:click", "web:*"};  // dup removed, order free
  EXPECT_EQ(CanonicalScanSpec(a), CanonicalScanSpec(b));

  columnar::ScanSpec c = a;
  c.event_name_patterns.push_back("api:*");
  EXPECT_NE(CanonicalScanSpec(c), CanonicalScanSpec(a));
}

TEST(PlanFingerprintTest, FingerprintIsStableAndSensitive) {
  Fingerprint fp1, fp2;
  fp1.Mix("hello");
  fp2.Mix("hello");
  EXPECT_EQ(fp1.value(), fp2.value());
  EXPECT_EQ(fp1.Hex().size(), 16u);
  Fingerprint fp3;
  fp3.Mix("hellp");
  EXPECT_NE(fp3.value(), fp1.value());
  EXPECT_EQ(Fingerprint::OfBytes("abc"), Fingerprint::OfBytes("abc"));
  EXPECT_NE(Fingerprint::OfBytes("abc"), Fingerprint::OfBytes("abd"));
}

TEST(MergeScanSpecsTest, MergedSpecIsWeakerThanEveryMember) {
  columnar::ScanSpec a;
  a.columns = columnar::ColumnBit(columnar::EventColumn::kEventName);
  a.min_timestamp = 100;
  a.max_timestamp = 200;
  a.event_names = {"x"};
  columnar::ScanSpec b;
  b.columns = columnar::ColumnBit(columnar::EventColumn::kUserId);
  b.min_timestamp = 150;
  b.max_timestamp = 400;
  b.event_names = {"y", "z"};

  columnar::ScanSpec m = MergeScanSpecs({a, b});
  EXPECT_EQ(*m.min_timestamp, 100);
  EXPECT_EQ(*m.max_timestamp, 400);
  ASSERT_TRUE(m.event_names.has_value());
  EXPECT_EQ(m.event_names->size(), 3u);
  // Both members' output columns survive...
  EXPECT_TRUE(m.columns & columnar::ColumnBit(columnar::EventColumn::kEventName));
  EXPECT_TRUE(m.columns & columnar::ColumnBit(columnar::EventColumn::kUserId));
  // ...plus the columns residual re-filters must see (both members have
  // timestamp + name predicates).
  EXPECT_TRUE(m.columns & columnar::ColumnBit(columnar::EventColumn::kTimestamp));
}

TEST(MergeScanSpecsTest, ConstraintSurvivesOnlyWhenAllMembersImposeIt) {
  columnar::ScanSpec a;
  a.min_timestamp = 100;
  a.event_names = {"x"};
  a.user_ids = {1};
  columnar::ScanSpec b;  // no constraints at all

  columnar::ScanSpec m = MergeScanSpecs({a, b});
  EXPECT_FALSE(m.min_timestamp.has_value());
  EXPECT_FALSE(m.event_names.has_value());
  EXPECT_FALSE(m.user_ids.has_value());
  EXPECT_TRUE(m.event_name_patterns.empty());
}

TEST(MergeScanSpecsTest, PatternsIntersectAcrossMembers) {
  columnar::ScanSpec a;
  a.event_name_patterns = {"web:*", "*:click"};
  columnar::ScanSpec b;
  b.event_name_patterns = {"*:click", "api:*"};
  columnar::ScanSpec m = MergeScanSpecs({a, b});
  // Only the pattern every member imposes may constrain the union scan.
  ASSERT_EQ(m.event_name_patterns.size(), 1u);
  EXPECT_EQ(m.event_name_patterns[0], "*:click");
}

// ---------------------------------------------------------------------------
// Hidden warehouse paths: '_'-prefixed components below the scanned dir
// are invisible to scans and manifests, however deeply nested — the rule
// that keeps /warehouse/_cache artifacts out of the inputs they memoize.

TEST(HiddenWarehousePathTest, AnyUnderscoreComponentBelowDirHides) {
  const std::string dir = "/logs/client_events/2012/08/21";
  EXPECT_FALSE(IsHiddenWarehousePath(dir, dir + "/00/part-00000"));
  EXPECT_TRUE(IsHiddenWarehousePath(dir, dir + "/00/_SUCCESS"));
  EXPECT_TRUE(IsHiddenWarehousePath(dir, dir + "/_cache/ab12.okc"));
  EXPECT_TRUE(IsHiddenWarehousePath(dir, dir + "/_cache/sub/deep.okc"));
  // Underscores in the dir prefix itself never hide anything: listing
  // "/warehouse/_cache" directly sees its own files.
  EXPECT_FALSE(IsHiddenWarehousePath("/warehouse/_cache",
                                     "/warehouse/_cache/ab12.okc"));
  // Non-leading underscores are ordinary characters.
  EXPECT_FALSE(IsHiddenWarehousePath(dir, dir + "/00/part_0"));
}

// ---------------------------------------------------------------------------
// Shared scans: one union scan fanned out per member must be
// byte-identical to each member's row-engine reference scan, at any
// thread count.

class SharedScanTest : public ::testing::Test {
 protected:
  SharedScanTest() {
    std::string columnar_body;
    columnar::RcFileWriter writer(&columnar_body, 16);
    std::string legacy_body;
    events::ClientEventWriter legacy(&legacy_body);
    for (int i = 0; i < 150; ++i) {
      events::ClientEvent ev;
      ev.initiator = static_cast<events::EventInitiator>(i % 2);
      ev.event_name = i % 3 == 0 ? "web:home:::tweet:click"
                                 : "web:home:::tweet:impression";
      ev.user_id = 100 + i % 7;
      ev.session_id = "s" + std::to_string(i % 5);
      ev.ip = "10.0.0.1";
      ev.timestamp = 1345507200000 + static_cast<TimeMs>(i) * 60000;
      if (i < 100) {
        EXPECT_TRUE(writer.Add(ev).ok());
      } else {
        legacy.Add(ev);
      }
    }
    EXPECT_TRUE(writer.Finish().ok());
    EXPECT_TRUE(fs_.WriteFile(kDir + std::string("/part-00000"),
                              columnar_body)
                    .ok());
    EXPECT_TRUE(fs_.WriteFile(kDir + std::string("/part-00001"),
                              Lz::Compress(legacy_body))
                    .ok());
  }

  static constexpr const char* kDir = "/warehouse/client_events/2012/08/21/00";

  // Three deliberately different plans over the same hour.
  std::vector<std::shared_ptr<ColumnarEventScan>> MakeMembers(
      const std::shared_ptr<ColumnarEventScan>& base) {
    auto clicks = std::static_pointer_cast<ColumnarEventScan>(base->Clone());
    EXPECT_TRUE(clicks->PushFilter("event_name", "==",
                                   Value::Str("web:home:::tweet:click")));
    EXPECT_TRUE(clicks->PushProject({"user_id"}, {"uid"}));

    auto window = std::static_pointer_cast<ColumnarEventScan>(base->Clone());
    EXPECT_TRUE(window->PushFilter("timestamp", ">=",
                                   Value::Int(1345507200000 + 30 * 60000)));
    EXPECT_TRUE(window->PushFilter("timestamp", "<",
                                   Value::Int(1345507200000 + 90 * 60000)));

    auto user = std::static_pointer_cast<ColumnarEventScan>(base->Clone());
    EXPECT_TRUE(user->PushFilter("user_id", "==", Value::Int(103)));
    EXPECT_TRUE(user->PushProject({"event_name", "timestamp"}, {"n", "t"}));

    // A glob no other member imposes, so the union scan drops it and every
    // part's rows, framed ones included, meet it in this member's residual.
    auto views = std::static_pointer_cast<ColumnarEventScan>(base->Clone());
    EXPECT_TRUE(views->PushFilter("event_name", "matches",
                                  Value::Str("*:impression")));
    EXPECT_TRUE(views->PushFilter("timestamp", "<=",
                                  Value::Int(1345507200000 + 120 * 60000)));
    EXPECT_TRUE(views->PushProject({"session_id", "initiator"}, {"s", "i"}));
    return {clicks, window, user, views};
  }

  static std::unique_ptr<exec::Executor> MakeExecutor(int threads) {
    if (threads == 0) return nullptr;
    exec::ExecOptions eo;
    eo.threads = threads;
    return std::make_unique<exec::Executor>(eo);
  }

  hdfs::MiniHdfs fs_;
};

TEST_F(SharedScanTest, SharedEqualsIndependentAtEveryThreadCount) {
  // Reference: each member's plan evaluated by the row engine.
  auto base = ColumnarEventScan::Open(&fs_, kDir);
  ASSERT_TRUE(base.ok());
  std::vector<std::string> want;
  for (auto& member : MakeMembers(*base)) {
    auto rel = scan_oracle::ReferenceMaterialize(fs_, kDir, *member);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    want.push_back(SerializeRelation(*rel));
  }
  ASSERT_EQ(want.size(), 4u);

  for (int threads : {0, 1, 2, 8}) {
    auto fresh = ColumnarEventScan::Open(&fs_, kDir);
    ASSERT_TRUE(fresh.ok());
    auto members = MakeMembers(*fresh);
    std::unique_ptr<exec::Executor> executor = MakeExecutor(threads);
    columnar::ScanStats stats;
    auto batches = ColumnarEventScan::MaterializeSharedBatches(
        members, executor.get(), &stats);
    ASSERT_TRUE(batches.ok()) << batches.status().ToString();
    ASSERT_EQ(batches->size(), 4u);
    for (size_t i = 0; i < batches->size(); ++i) {
      auto rel = (*batches)[i].ToRelation();
      ASSERT_TRUE(rel.ok()) << rel.status().ToString();
      EXPECT_EQ(SerializeRelation(*rel), want[i])
          << "threads=" << threads << " member=" << i;
    }
    EXPECT_GT(stats.bytes_decompressed, 0u);
    // Members' caches were filled: re-materializing decodes nothing and is
    // identical.
    auto again = members[0]->Materialize(nullptr);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(SerializeRelation(*again), want[0]);
    EXPECT_EQ(members[0]->last_stats().bytes_decompressed,
              stats.bytes_decompressed);
  }
}

// The union scan's accounting and each member's REL1 digest, pinned at
// every thread count. Residuals count dictionary-domain prunes on RCFile
// groups only: the framed part's rows never count one.
TEST_F(SharedScanTest, UnionStatsAndMemberDigestsArePinned) {
  const columnar::ScanStats want = {8, 8, 0, 1453, 150, 0, 150, 100};
  const std::vector<std::string> digests = {
      "4f7c05b3cdb913a1", "f77d9713ba42cabf", "5e45a8978bf6daaa",
      "ddf998e2968ddc99"};
  for (int threads : {0, 2, 8}) {
    auto base = ColumnarEventScan::Open(&fs_, kDir);
    ASSERT_TRUE(base.ok());
    auto members = MakeMembers(*base);
    std::unique_ptr<exec::Executor> executor = MakeExecutor(threads);
    columnar::ScanStats got;
    auto batches = ColumnarEventScan::MaterializeSharedBatches(
        members, executor.get(), &got);
    ASSERT_TRUE(batches.ok()) << batches.status().ToString();
    ASSERT_EQ(batches->size(), digests.size());
    for (size_t i = 0; i < digests.size(); ++i) {
      auto rel = (*batches)[i].ToRelation();
      ASSERT_TRUE(rel.ok()) << rel.status().ToString();
      Fingerprint fp;
      fp.Mix(SerializeRelation(*rel));
      EXPECT_EQ(fp.Hex(), digests[i])
          << "threads=" << threads << " member=" << i;
    }
    EXPECT_EQ(got.groups_total, want.groups_total) << threads;
    EXPECT_EQ(got.groups_scanned, want.groups_scanned) << threads;
    EXPECT_EQ(got.groups_skipped, want.groups_skipped) << threads;
    EXPECT_EQ(got.bytes_decompressed, want.bytes_decompressed) << threads;
    EXPECT_EQ(got.rows_scanned, want.rows_scanned) << threads;
    EXPECT_EQ(got.rows_pruned, want.rows_pruned) << threads;
    EXPECT_EQ(got.rows_returned, want.rows_returned) << threads;
    EXPECT_EQ(got.dict_domain_rows_pruned, want.dict_domain_rows_pruned)
        << threads;
  }
}

TEST_F(SharedScanTest, SharedScanDecompressesLessThanIndependentScans) {
  // Independent: each member pays for the file bytes it touches.
  auto base = ColumnarEventScan::Open(&fs_, kDir);
  ASSERT_TRUE(base.ok());
  uint64_t independent = 0;
  for (auto& member : MakeMembers(*base)) {
    ASSERT_TRUE(member->Materialize(nullptr).ok());
    independent += member->last_stats().bytes_decompressed;
  }
  auto fresh = ColumnarEventScan::Open(&fs_, kDir);
  ASSERT_TRUE(fresh.ok());
  auto members = MakeMembers(*fresh);
  columnar::ScanStats stats;
  ASSERT_TRUE(
      ColumnarEventScan::MaterializeSharedBatches(members, nullptr, &stats)
          .ok());
  EXPECT_LT(stats.bytes_decompressed, independent);
}

TEST_F(SharedScanTest, MembersMustShareOneOpenedScan) {
  auto a = ColumnarEventScan::Open(&fs_, kDir);
  auto b = ColumnarEventScan::Open(&fs_, kDir);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto clone_a = std::static_pointer_cast<ColumnarEventScan>((*a)->Clone());
  EXPECT_TRUE(ColumnarEventScan::MaterializeSharedBatches({*a, *b}, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ColumnarEventScan::MaterializeSharedBatches({*a, clone_a}, nullptr)
          .ok());
  EXPECT_TRUE(ColumnarEventScan::MaterializeSharedBatches({*a, nullptr},
                                                          nullptr)
                  .status()
                  .IsInvalidArgument());
  // Degenerate cases: empty and singleton member lists.
  auto none = ColumnarEventScan::MaterializeSharedBatches({}, nullptr);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  auto single = ColumnarEventScan::MaterializeSharedBatches({*a}, nullptr);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->size(), 1u);
  auto want = scan_oracle::ReferenceMaterialize(fs_, kDir, **a);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(SerializeRelation((*single)[0].ToRelation().value()),
            SerializeRelation(*want));
}

// ---------------------------------------------------------------------------
// One pushed scan over every part format, pinned: the full ScanStats and a
// digest of the serialized relation for each plan. The numbers change only
// if what a scan decodes, skips or returns changes.

class ScanStatsPinTest : public ::testing::Test {
 protected:
  static constexpr const char* kDir = "/warehouse/client_events/2012/08/21/03";

  // part-00000 in 16-row groups, part-00001 legacy framed, part-00002 in
  // 24-row groups with later timestamps and other names.
  void WriteParts() {
    std::string early_body, legacy_body, late_body;
    columnar::RcFileWriter early(&early_body, 16);
    columnar::RcFileWriter late(&late_body, 24);
    events::ClientEventWriter legacy(&legacy_body);
    static const char* kNames[] = {
        "web:home:::tweet:click", "web:home:::tweet:impression",
        "iphone:profile:::follow:click", "web:search:::results:impression"};
    for (int i = 0; i < 200; ++i) {
      events::ClientEvent ev;
      ev.initiator = static_cast<events::EventInitiator>(i % 3 == 0);
      ev.event_name = i < 130 ? kNames[i % 3] : kNames[2 + i % 2];
      ev.user_id = 100 + (i * 7) % 11;
      ev.session_id = "s" + std::to_string(i % 9);
      ev.ip = "10.0.0." + std::to_string(i % 4);
      ev.timestamp = 1345510800000 + static_cast<TimeMs>(i) * 60000;
      if (i < 100) {
        EXPECT_TRUE(early.Add(ev).ok());
      } else if (i < 130) {
        legacy.Add(ev);
      } else {
        EXPECT_TRUE(late.Add(ev).ok());
      }
    }
    EXPECT_TRUE(early.Finish().ok());
    EXPECT_TRUE(late.Finish().ok());
    const std::string dir = kDir;
    EXPECT_TRUE(fs_.WriteFile(dir + "/part-00000", early_body).ok());
    EXPECT_TRUE(
        fs_.WriteFile(dir + "/part-00001", Lz::Compress(legacy_body)).ok());
    EXPECT_TRUE(fs_.WriteFile(dir + "/part-00002", late_body).ok());
  }

  // Each pushed scan's stats and answer over the parts.
  void ExpectPinned() {
    struct Case {
      const char* what;
      std::function<void(ColumnarEventScan*)> push;
      columnar::ScanStats want;
      uint64_t rows;
      const char* digest;
    };
    const int64_t t0 = 1345510800000;
    const std::vector<Case> cases = {
        {"name glob",
         [](ColumnarEventScan* s) {
           EXPECT_TRUE(s->PushFilter("event_name", "matches",
                                     Value::Str("*:*:*:*:*:click")));
         },
         {11, 11, 0, 2137, 200, 78, 122, 68}, 122, "17431b8b76dca6dd"},
        {"timestamp range + projection",
         [t0](ColumnarEventScan* s) {
           EXPECT_TRUE(
               s->PushFilter("timestamp", ">=", Value::Int(t0 + 50 * 60000)));
           EXPECT_TRUE(
               s->PushFilter("timestamp", "<", Value::Int(t0 + 140 * 60000)));
           EXPECT_TRUE(s->PushProject({"timestamp", "user_id"}, {"t", "uid"}));
         },
         {11, 6, 5, 955, 106, 110, 90, 0}, 90, "b3f328ba1116e108"},
        {"user id",
         [](ColumnarEventScan* s) {
           EXPECT_TRUE(s->PushFilter("user_id", "==", Value::Int(104)));
         },
         {11, 11, 0, 2137, 200, 182, 18, 0}, 18, "5e4c5a0c836571d3"},
        {"all four",
         [t0](ColumnarEventScan* s) {
           EXPECT_TRUE(s->PushFilter("event_name", "matches",
                                     Value::Str("web:*")));
           EXPECT_TRUE(
               s->PushFilter("timestamp", "<=", Value::Int(t0 + 120 * 60000)));
           EXPECT_TRUE(s->PushFilter("user_id", "==", Value::Int(101)));
           EXPECT_TRUE(
               s->PushProject({"event_name", "session_id"}, {"n", "s"}));
         },
         {11, 8, 3, 1195, 130, 193, 7, 33}, 7, "8f3a31d5cf04ca68"},
    };
    for (const Case& c : cases) {
      for (int threads : {0, 2}) {
        auto base = ColumnarEventScan::Open(&fs_, kDir);
        ASSERT_TRUE(base.ok()) << base.status().ToString();
        auto scan =
            std::static_pointer_cast<ColumnarEventScan>((*base)->Clone());
        c.push(scan.get());
        std::unique_ptr<exec::Executor> executor;
        if (threads > 0) {
          exec::ExecOptions eo;
          eo.threads = threads;
          executor = std::make_unique<exec::Executor>(eo);
        }
        auto rel = scan->Materialize(executor.get());
        ASSERT_TRUE(rel.ok()) << rel.status().ToString();
        auto want = scan_oracle::ReferenceMaterialize(fs_, kDir, *scan);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        const std::string bytes = SerializeRelation(*rel);
        EXPECT_EQ(bytes, SerializeRelation(*want)) << c.what;
        Fingerprint fp;
        fp.Mix(bytes);
        EXPECT_EQ(fp.Hex(), c.digest) << c.what;
        EXPECT_EQ(rel->size(), c.rows) << c.what;
        const columnar::ScanStats& got = scan->last_stats();
        EXPECT_EQ(got.groups_total, c.want.groups_total) << c.what;
        EXPECT_EQ(got.groups_scanned, c.want.groups_scanned) << c.what;
        EXPECT_EQ(got.groups_skipped, c.want.groups_skipped) << c.what;
        EXPECT_EQ(got.bytes_decompressed, c.want.bytes_decompressed)
            << c.what;
        EXPECT_EQ(got.rows_scanned, c.want.rows_scanned) << c.what;
        EXPECT_EQ(got.rows_pruned, c.want.rows_pruned) << c.what;
        EXPECT_EQ(got.rows_returned, c.want.rows_returned) << c.what;
        EXPECT_EQ(got.dict_domain_rows_pruned, c.want.dict_domain_rows_pruned)
            << c.what;
      }
    }
  }

  hdfs::MiniHdfs fs_;
};

TEST_F(ScanStatsPinTest, V3PushedScanStatsAndAnswerArePinned) {
  WriteParts();
  ExpectPinned();
}

// ---------------------------------------------------------------------------
// Corrupt-input quarantine: a part whose decode fails with Corruption is
// renamed aside and skipped instead of failing the whole job.

class QuarantineTest : public ::testing::Test {
 protected:
  static std::string ColumnarBody(int rows) {
    std::string body;
    columnar::RcFileWriter writer(&body, 16);
    for (int i = 0; i < rows; ++i) {
      events::ClientEvent ev;
      ev.initiator = events::EventInitiator::kClientUser;
      ev.event_name = "web:home:::tweet:click";
      ev.user_id = 100 + i;
      ev.session_id = "s" + std::to_string(i % 5);
      ev.ip = "10.0.0.1";
      ev.timestamp = 1345507200000 + static_cast<TimeMs>(i) * 1000;
      EXPECT_TRUE(writer.Add(ev).ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    return body;
  }

  // Counts records across all inputs under "rows".
  static void ConfigureCountJob(MapReduceJob* job) {
    job->set_input_format(InputFormat::CompressedFramedOrColumnar());
    job->set_map([](const std::string&, Emitter* e) {
      e->Emit("rows", "1");
      return Status::OK();
    });
    job->set_reduce([](const std::string& key,
                       const std::vector<std::string>& values, Emitter* e) {
      e->Emit(key, std::to_string(values.size()));
      return Status::OK();
    });
  }

  JobCostModel model_;
};

TEST_F(QuarantineTest, CorruptColumnarInputFailsJobByDefault) {
  hdfs::MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/in/part-00000", ColumnarBody(40)).ok());
  ASSERT_TRUE(fs.CorruptFile("/in/part-00000", 100).ok());

  MapReduceJob job(&fs, model_);
  ASSERT_TRUE(job.AddInputDir("/in").ok());
  ConfigureCountJob(&job);
  auto out = job.Run();
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
  EXPECT_TRUE(fs.Exists("/in/part-00000"));  // nothing renamed
}

TEST_F(QuarantineTest, QuarantineSkipsCorruptPartOnBothEngines) {
  for (int threads : {0, 4}) {
    hdfs::MiniHdfs fs;
    ASSERT_TRUE(fs.WriteFile("/in/part-00000", ColumnarBody(60)).ok());
    ASSERT_TRUE(fs.WriteFile("/in/part-00001", ColumnarBody(25)).ok());
    ASSERT_TRUE(fs.CorruptFile("/in/part-00001", 100).ok());

    std::unique_ptr<exec::Executor> executor;
    if (threads > 0) {
      exec::ExecOptions eo;
      eo.threads = threads;
      executor = std::make_unique<exec::Executor>(eo);
    }
    MapReduceJob job(&fs, model_);
    ASSERT_TRUE(job.AddInputDir("/in").ok());
    ConfigureCountJob(&job);
    job.set_quarantine_fs(&fs);
    job.set_executor(executor.get());
    auto out = job.Run();
    ASSERT_TRUE(out.ok()) << "threads=" << threads << ": "
                          << out.status().ToString();
    ASSERT_EQ(out->size(), 1u);
    EXPECT_EQ((*out)[0].second, "60") << "threads=" << threads;
    EXPECT_EQ(job.stats().corrupt_inputs_quarantined, 1u);

    // The bad part moved aside under the hidden convention, so the next
    // scan of the same directory never sees it again.
    EXPECT_FALSE(fs.Exists("/in/part-00001"));
    EXPECT_TRUE(fs.Exists("/in/_quarantined.part-00001"));
    MapReduceJob again(&fs, model_);
    ASSERT_TRUE(again.AddInputDir("/in").ok());
    EXPECT_EQ(again.input_file_count(), 1u);
  }
}

}  // namespace
}  // namespace unilog::dataflow
