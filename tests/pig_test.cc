// Tests for the mini Pig Latin interpreter and the unilog stdlib bindings
// — including a verbatim run of the paper's §5.2 event-counting script and
// the §5.3 funnel script.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytics/pig_stdlib.h"
#include "columnar/rcfile.h"
#include "common/compress.h"
#include "dataflow/pig.h"
#include "dataflow/plan_fingerprint.h"
#include "events/client_event.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "scan_oracle.h"
#include "sessions/dictionary.h"
#include "sessions/session_sequence.h"

namespace unilog::dataflow {
namespace {

constexpr TimeMs kDay = 1345507200000;  // 2012-08-21

// A tiny in-memory loader for interpreter-core tests.
Relation TestEvents() {
  Relation r({"user_id", "event", "n"});
  auto add = [&r](int64_t u, const char* e, int64_t n) {
    EXPECT_TRUE(r.AddRow({Value::Int(u), Value::Str(e), Value::Int(n)}).ok());
  };
  add(1, "impression", 10);
  add(1, "click", 2);
  add(2, "impression", 5);
  add(2, "click", 1);
  add(3, "impression", 7);
  return r;
}

class PigCoreTest : public ::testing::Test {
 protected:
  PigCoreTest() {
    pig_.RegisterLoader("TestLoader",
                        [](const std::string&, const std::vector<std::string>&)
                            -> Result<Relation> { return TestEvents(); });
    pig_.RegisterUdfFactory(
        "Double", [](const std::vector<std::string>&)
                      -> Result<PigInterpreter::ScalarUdf> {
          return PigInterpreter::ScalarUdf(
              [](const std::vector<Value>& args) -> Result<Value> {
                if (args.size() != 1) {
                  return Status::InvalidArgument("Double takes one arg");
                }
                return Value::Int(args[0].int_value() * 2);
              });
        });
  }

  PigInterpreter pig_;
};

TEST_F(PigCoreTest, LoadAndDump) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader(); DUMP raw;").ok());
  ASSERT_EQ(pig_.output().size(), 5u);
  EXPECT_EQ(pig_.output()[0], "(1, impression, 10)");
}

TEST_F(PigCoreTest, FilterByComparisons) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "big = FILTER raw BY n >= 5;"
                       "DUMP big;")
                  .ok());
  EXPECT_EQ(pig_.output().size(), 3u);
  pig_.ClearOutput();
  ASSERT_TRUE(pig_.Run("clicks = FILTER raw BY event == 'click'; DUMP clicks;")
                  .ok());
  EXPECT_EQ(pig_.output().size(), 2u);
}

TEST_F(PigCoreTest, FilterByMatches) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "imp = FILTER raw BY event MATCHES 'imp*';"
                       "DUMP imp;")
                  .ok());
  EXPECT_EQ(pig_.output().size(), 3u);
}

TEST_F(PigCoreTest, ForEachColumnsAndUdf) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "gen = FOREACH raw GENERATE user_id, Double(n) AS n2;"
                       "DUMP gen;")
                  .ok());
  ASSERT_EQ(pig_.output().size(), 5u);
  EXPECT_EQ(pig_.output()[0], "(1, 20)");
}

TEST_F(PigCoreTest, GroupAllWithAggregates) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "g = GROUP raw ALL;"
                       "t = FOREACH g GENERATE SUM(n) AS total, COUNT(*) AS c;"
                       "DUMP t;")
                  .ok());
  ASSERT_EQ(pig_.output().size(), 1u);
  EXPECT_EQ(pig_.output()[0], "(25, 5)");
}

TEST_F(PigCoreTest, GroupByKeyWithAggregates) {
  ASSERT_TRUE(
      pig_.Run("raw = LOAD 'x' USING TestLoader();"
               "g = GROUP raw BY event;"
               "t = FOREACH g GENERATE event, COUNT(*) AS c, SUM(n) AS s,"
               "    COUNT_DISTINCT(user_id) AS users;"
               "sorted = ORDER t BY event;"
               "DUMP sorted;")
          .ok());
  ASSERT_EQ(pig_.output().size(), 2u);
  EXPECT_EQ(pig_.output()[0], "(click, 2, 3, 2)");
  EXPECT_EQ(pig_.output()[1], "(impression, 3, 22, 3)");
}

TEST_F(PigCoreTest, DistinctOrderLimitJoin) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "users = FOREACH raw GENERATE user_id;"
                       "du = DISTINCT users;"
                       "top = ORDER du BY user_id DESC;"
                       "two = LIMIT top 2;"
                       "DUMP two;")
                  .ok());
  ASSERT_EQ(pig_.output().size(), 2u);
  EXPECT_EQ(pig_.output()[0], "(3)");
  EXPECT_EQ(pig_.output()[1], "(2)");

  pig_.ClearOutput();
  ASSERT_TRUE(pig_.Run("j = JOIN raw BY user_id, du BY user_id;").ok());
  auto joined = pig_.Lookup("j");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 5u);
}

TEST_F(PigCoreTest, DescribeShowsSchema) {
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader(); DESCRIBE raw;")
                  .ok());
  ASSERT_EQ(pig_.output().size(), 1u);
  EXPECT_EQ(pig_.output()[0], "raw: {user_id, event, n}");
}

TEST_F(PigCoreTest, ParamSubstitution) {
  pig_.SetParam("MIN", "6");
  ASSERT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "big = FILTER raw BY n >= $MIN; DUMP big;")
                  .ok());
  EXPECT_EQ(pig_.output().size(), 2u);
  EXPECT_TRUE(pig_.Run("z = FILTER raw BY n >= $UNDEFINED;")
                  .IsInvalidArgument());
}

TEST_F(PigCoreTest, CommentsIgnored) {
  ASSERT_TRUE(pig_.Run("-- this is the §5.2 style comment\n"
                       "raw = LOAD 'x' USING TestLoader(); -- trailing\n"
                       "DUMP raw;")
                  .ok());
  EXPECT_EQ(pig_.output().size(), 5u);
}

TEST_F(PigCoreTest, ErrorsAreInformative) {
  EXPECT_TRUE(pig_.Run("DUMP nothing;").IsInvalidArgument());
  EXPECT_TRUE(pig_.Run("x = LOAD 'p' USING NopeLoader();").IsInvalidArgument());
  EXPECT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "bad = FILTER raw BY missing_col == 1;")
                  .IsInvalidArgument());
  // Aggregates without GROUP.
  EXPECT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "t = FOREACH raw GENERATE SUM(n);")
                  .IsInvalidArgument());
  // Non-key bare column in grouped FOREACH.
  EXPECT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "g = GROUP raw BY event;"
                       "t = FOREACH g GENERATE user_id, COUNT(*);")
                  .IsInvalidArgument());
  // DUMP of a grouped alias.
  EXPECT_TRUE(pig_.Run("raw = LOAD 'x' USING TestLoader();"
                       "g = GROUP raw ALL; DUMP g;")
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Stdlib over a real warehouse partition: the paper's scripts verbatim.

class PigStdlibTest : public ::testing::Test {
 protected:
  PigStdlibTest() {
    // Build a small sequence partition.
    auto dict = sessions::EventDictionary::FromNamesInGivenOrder(
        {"web:home:::tweet:impression", "web:home:::tweet:click",
         "web:signup:flow:form:page:stage_00",
         "web:signup:flow:form:page:stage_01"});
    dict_ = *dict;
    std::vector<sessions::SessionSequence> seqs;
    auto make = [&](int64_t uid, const std::vector<std::string>& names) {
      sessions::SessionSequence s;
      s.user_id = uid;
      s.session_id = "s" + std::to_string(uid);
      s.ip = "10.0.0.1";
      s.sequence = dict_.EncodeNames(names).value();
      s.duration_seconds = 30;
      seqs.push_back(s);
    };
    // 3 sessions: 2 with clicks, 1 signup reaching stage 1.
    make(1, {"web:home:::tweet:impression", "web:home:::tweet:click",
             "web:home:::tweet:impression"});
    make(2, {"web:home:::tweet:impression", "web:home:::tweet:click",
             "web:home:::tweet:click"});
    make(3, {"web:signup:flow:form:page:stage_00",
             "web:signup:flow:form:page:stage_01"});
    EXPECT_TRUE(
        sessions::SequenceStore::WriteDaily(&warehouse_, kDay, seqs, dict_)
            .ok());
    analytics::InstallPigStdlib(&pig_, &warehouse_);
    pig_.SetParam("DATE", "2012-08-21");
  }

  hdfs::MiniHdfs warehouse_;
  sessions::EventDictionary dict_;
  PigInterpreter pig_;
};

TEST_F(PigStdlibTest, PaperEventCountingScript) {
  // §5.2, lightly normalized quoting. SUM variant.
  pig_.SetParam("EVENTS", "*:click");
  std::string script = R"(
    define CountClicks CountClientEvents('$EVENTS');
    raw = load '/session_sequences/$DATE' using SessionSequencesLoader();
    generated = foreach raw generate CountClicks(sequence) as symbols;
    grouped = group generated all;
    count = foreach grouped generate SUM(symbols);
    dump count;
  )";
  ASSERT_TRUE(pig_.Run(script).ok()) << pig_.Run(script).ToString();
  ASSERT_EQ(pig_.output().size(), 1u);
  EXPECT_EQ(pig_.output()[0], "(3)");  // 1 + 2 clicks
}

TEST_F(PigStdlibTest, PaperCountVariantSessionsContaining) {
  // "a replacement of SUM by COUNT ... number of user sessions that
  // contain at least one instance".
  std::string script = R"(
    define HasClick ContainsClientEvents('*:click');
    raw = load '/session_sequences/$DATE' using SessionSequencesLoader();
    flagged = foreach raw generate HasClick(sequence) as has;
    hits = filter flagged by has == 1;
    grouped = group hits all;
    count = foreach grouped generate COUNT(*);
    dump count;
  )";
  ASSERT_TRUE(pig_.Run(script).ok());
  ASSERT_EQ(pig_.output().size(), 1u);
  EXPECT_EQ(pig_.output()[0], "(2)");
}

TEST_F(PigStdlibTest, PaperFunnelScript) {
  // §5.3: per-stage counts via the funnel UDF + group-by.
  std::string script = R"(
    define Funnel ClientEventsFunnel('web:signup:flow:form:page:stage_00',
                                     'web:signup:flow:form:page:stage_01');
    raw = load '/session_sequences/$DATE' using SessionSequencesLoader();
    staged = foreach raw generate Funnel(sequence) as stages;
    grouped = group staged by stages;
    counts = foreach grouped generate stages, COUNT(*) as sessions;
    ordered = order counts by stages;
    dump ordered;
  )";
  ASSERT_TRUE(pig_.Run(script).ok());
  ASSERT_EQ(pig_.output().size(), 2u);
  EXPECT_EQ(pig_.output()[0], "(0, 2)");  // two browsing sessions
  EXPECT_EQ(pig_.output()[1], "(2, 1)");  // one completed both stages
}

TEST_F(PigStdlibTest, EventCountAndDemographicJoin) {
  std::string script = R"(
    raw = load '/session_sequences/$DATE' using SessionSequencesLoader();
    lens = foreach raw generate user_id, EventCount(sequence) as n;
    dump lens;
  )";
  ASSERT_TRUE(pig_.Run(script).ok());
  ASSERT_EQ(pig_.output().size(), 3u);
  EXPECT_EQ(pig_.output()[0], "(1, 3)");
}

TEST_F(PigStdlibTest, HiddenSubdirectoryOfAPartitionIsReadByNeither) {
  // A well-formed part under a '_'-prefixed subdirectory (a job's scratch)
  // is hidden: SequenceStore::LoadDaily and SessionSequencesLoader both
  // read the partition's three sessions and nothing else.
  sessions::SessionSequence extra;
  extra.user_id = 99;
  extra.session_id = "s99";
  extra.ip = "10.0.0.9";
  extra.sequence = dict_.EncodeNames({"web:home:::tweet:click"}).value();
  std::string body;
  sessions::AppendSequenceRecord(&body, extra);
  ASSERT_TRUE(warehouse_
                  .WriteFile("/session_sequences/2012-08-21/_tmp/part-00000",
                             Lz::Compress(body))
                  .ok());

  auto loaded = sessions::SequenceStore::LoadDaily(warehouse_, kDay);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  for (const auto& seq : *loaded) EXPECT_NE(seq.user_id, 99);

  std::string script = R"(
    raw = load '/session_sequences/$DATE' using SessionSequencesLoader();
    grouped = group raw all;
    n = foreach grouped generate COUNT(*);
    dump n;
  )";
  ASSERT_TRUE(pig_.Run(script).ok());
  ASSERT_EQ(pig_.output().size(), 1u);
  EXPECT_EQ(pig_.output()[0], "(3)");
}

TEST_F(PigStdlibTest, ClientEventsLoaderReadsRawLogs) {
  // Write one raw hour and load it.
  events::ClientEvent ev;
  ev.event_name = "web:home:::tweet:impression";
  ev.user_id = 7;
  ev.session_id = "s7";
  ev.ip = "10.0.0.1";
  ev.timestamp = kDay;
  std::string body;
  events::ClientEventWriter writer(&body);
  writer.Add(ev);
  ASSERT_TRUE(warehouse_
                  .WriteFile("/logs/client_events/2012/08/21/00/part-0",
                             Lz::Compress(body))
                  .ok());
  std::string script = R"(
    ev = load '/logs/client_events/2012/08/21/00' using ClientEventsLoader();
    names = foreach ev generate event_name, user_id;
    dump names;
  )";
  ASSERT_TRUE(pig_.Run(script).ok());
  ASSERT_EQ(pig_.output().size(), 1u);
  EXPECT_EQ(pig_.output()[0], "(web:home:::tweet:impression, 7)");
}

// ---------------------------------------------------------------------------
// Columnar pushdown fusion: LOAD ... USING ClientEventsLoader() defers
// the scan; FILTER/FOREACH fuse into it; results must equal an eager
// loader built from the scan oracle (every part decoded whole, no
// pushdown) running the same statements on the same directory.

class PigFusionTest : public ::testing::Test {
 protected:
  PigFusionTest() {
    // A mixed warehouse hour: one columnar RCFile part plus one legacy
    // framed-compressed part (the layout a partially-migrated category
    // has).
    const std::string dir = "/logs/client_events/2012/08/21/00";
    std::string columnar_body;
    columnar::RcFileWriter writer(&columnar_body, /*rows_per_group=*/8);
    std::string legacy_body;
    events::ClientEventWriter legacy(&legacy_body);
    for (int i = 0; i < 60; ++i) {
      events::ClientEvent ev;
      ev.initiator = static_cast<events::EventInitiator>(i % 2);
      ev.event_name = i % 3 == 0 ? "web:home:::tweet:click"
                                 : "web:home:::tweet:impression";
      ev.user_id = 100 + i % 5;
      ev.session_id = "s" + std::to_string(i % 5);
      ev.ip = "10.0.0.1";
      ev.timestamp = kDay + static_cast<TimeMs>(i) * 60000;
      if (i < 40) {
        EXPECT_TRUE(writer.Add(ev).ok());
      } else {
        legacy.Add(ev);
      }
    }
    EXPECT_TRUE(writer.Finish().ok());
    EXPECT_TRUE(warehouse_.WriteFile(dir + "/part-00000", columnar_body).ok());
    EXPECT_TRUE(
        warehouse_.WriteFile(dir + "/part-00001", Lz::Compress(legacy_body))
            .ok());
    analytics::InstallPigStdlib(&pig_, &warehouse_, &metrics_);
    pig_.RegisterLoader(
        "EagerEventsLoader",
        [this](const std::string& path,
               const std::vector<std::string>&) -> Result<Relation> {
          UNILOG_ASSIGN_OR_RETURN(auto events,
                                  scan_oracle::ReadAllEvents(warehouse_, path));
          return scan_oracle::EventRelation(events);
        });
  }

  // Runs a script and returns the captured DUMP/DESCRIBE lines.
  std::vector<std::string> RunAndCapture(const std::string& script) {
    pig_.ClearOutput();
    Status st = pig_.Run(script);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return pig_.output();
  }

  // The same statement tail run through both loaders must dump the same
  // lines.
  void ExpectFusedMatchesEager(const std::string& tail) {
    const std::string dir = "/logs/client_events/2012/08/21/00";
    auto fused = RunAndCapture(
        "ev = load '" + dir + "' using ClientEventsLoader();" + tail);
    auto eager = RunAndCapture(
        "ev = load '" + dir + "' using EagerEventsLoader();" + tail);
    EXPECT_FALSE(eager.empty());
    EXPECT_EQ(fused, eager);
  }

  hdfs::MiniHdfs warehouse_;
  obs::MetricsRegistry metrics_;
  PigInterpreter pig_;
};

TEST_F(PigFusionTest, PlainLoadDumpMatchesEager) {
  ExpectFusedMatchesEager("dump ev;");
}

TEST_F(PigFusionTest, FusedNamePatternFilterMatchesEager) {
  ExpectFusedMatchesEager(
      "clicks = filter ev by event_name matches '*:click'; dump clicks;");
}

TEST_F(PigFusionTest, FusedNameEqualityFilterMatchesEager) {
  ExpectFusedMatchesEager(
      "c = filter ev by event_name == 'web:home:::tweet:click'; dump c;");
}

TEST_F(PigFusionTest, FusedTimestampRangeAndProjectionMatchesEager) {
  // Two chained range filters (both fuse) + a pure projection with a
  // rename; the scan materializes only at DUMP.
  std::string tail =
      "a = filter ev by timestamp >= " + std::to_string(kDay + 600000) + ";" +
      "b = filter a by timestamp <= " + std::to_string(kDay + 1800000) + ";" +
      "names = foreach b generate event_name as name, user_id; dump names;";
  ExpectFusedMatchesEager(tail);
  // The selective range let zone maps skip whole groups.
  EXPECT_GT(metrics_.CounterTotal("columnar.groups_skipped"), 0u);
  EXPECT_GT(metrics_.CounterTotal("columnar.rows_returned"), 0u);
}

TEST_F(PigFusionTest, LiteralOnLeftComparisonFuses) {
  std::string tail = "late = filter ev by " + std::to_string(kDay + 1200000) +
                     " <= timestamp; dump late;";
  ExpectFusedMatchesEager(tail);
}

TEST_F(PigFusionTest, NonFusiblePredicateFallsBackCorrectly) {
  // `!=` on user_id cannot be pushed into the scan; the interpreter must
  // materialize and filter eagerly with identical results.
  ExpectFusedMatchesEager("o = filter ev by user_id != 102; dump o;");
}

TEST_F(PigFusionTest, FilterDoesNotMutateLoadedAlias) {
  const std::string dir = "/logs/client_events/2012/08/21/00";
  auto out = RunAndCapture(
      "ev = load '" + dir + "' using ClientEventsLoader();" +
      "c = filter ev by event_name == 'nope:never'; dump c; dump ev;");
  // The filtered alias is empty but `ev` still dumps all 60 rows: the
  // FILTER tightened a clone, not the original scan.
  EXPECT_EQ(out.size(), 60u);
}

TEST_F(PigFusionTest, DescribeShowsDeferredScan) {
  const std::string dir = "/logs/client_events/2012/08/21/00";
  auto out = RunAndCapture("ev = load '" + dir +
                           "' using ClientEventsLoader(); describe ev;");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("(columnar scan)"), std::string::npos) << out[0];
  EXPECT_NE(out[0].find("event_name"), std::string::npos) << out[0];
}

TEST_F(PigStdlibTest, UdfBeforeLoadFailsGracefully) {
  // Using a dictionary-dependent UDF without loading a partition first.
  PigInterpreter fresh;
  analytics::InstallPigStdlib(&fresh, &warehouse_);
  Relation r({"sequence"});
  ASSERT_TRUE(r.AddRow({Value::Str("\x01")}).ok());
  fresh.RegisterLoader("Mem",
                       [r](const std::string&, const std::vector<std::string>&)
                           -> Result<Relation> { return r; });
  EXPECT_FALSE(fresh
                   .Run("x = load 'm' using Mem();"
                        "y = foreach x generate CountClientEvents(sequence);")
                   .ok());
}

// ---------------------------------------------------------------------------
// Pinned scripts: the FNV-64 of every DUMP line (each followed by '\n').
// A change that moves one of these digests changes what Pig prints.

uint64_t DumpDigest(const std::vector<std::string>& lines) {
  Fingerprint fp;
  for (const std::string& line : lines) {
    fp.Mix(line);
    fp.Mix("\n");
  }
  return fp.value();
}

// FILTER, a row-level FOREACH with a UDF, GROUP with a floating-point
// SUM, JOIN, ORDER BY DESC and LIMIT.
TEST(PigPinnedTest, FilterGroupJoinScriptDumpIsPinned) {
  PigInterpreter pig;
  pig.RegisterLoader(
      "rows", [](const std::string& path,
                 const std::vector<std::string>&) -> Result<Relation> {
        Relation rel({"id", "user", "score"});
        const int n = path == "big" ? 500 : 40;
        for (int i = 0; i < n; ++i) {
          UNILOG_RETURN_NOT_OK(
              rel.AddRow({Value::Int(i), Value::Int(i % 13),
                          Value::Real(0.1 * ((i * 37) % 101))}));
        }
        return rel;
      });
  pig.RegisterUdfFactory(
      "double",
      [](const std::vector<std::string>&) -> Result<PigInterpreter::ScalarUdf> {
        return PigInterpreter::ScalarUdf(
            [](const std::vector<Value>& args) -> Result<Value> {
              return Value::Real(2.0 * args[0].AsNumber());
            });
      });
  Status st = pig.Run(R"(
    big = LOAD 'big' USING rows();
    small = LOAD 'small' USING rows();
    kept = FILTER big BY id >= 25;
    scored = FOREACH kept GENERATE user, Double(score) AS dscore;
    g = GROUP scored BY user;
    sums = FOREACH g GENERATE user, SUM(dscore) AS total, COUNT(*) AS n;
    j = JOIN sums BY user, small BY user;
    sorted = ORDER j BY total DESC;
    top = LIMIT sorted 10;
    DUMP sums;
    DUMP top;
  )");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(pig.output().size(), 23u);
  EXPECT_EQ(DumpDigest(pig.output()), 0x92152b5997328e5eull);
}

// DISTINCT keeps each row's first occurrence (Real(-0.0) and Real(0.0)
// are one value, so the first one's sign prints), and ORDER BY is stable
// on tied keys, ascending and descending, over a column whose values mix
// ints, reals and strings (ordered by type, then value).
TEST(PigPinnedTest, DistinctOrderMixedValuesDumpIsPinned) {
  PigInterpreter pig;
  pig.RegisterLoader(
      "mixed", [](const std::string&,
                  const std::vector<std::string>&) -> Result<Relation> {
        Relation rel({"k", "v", "tag"});
        for (int i = 0; i < 40; ++i) {
          Value v;
          switch (i % 4) {
            case 0:
              v = Value::Int(i % 3 - 1);
              break;
            case 1:
              v = Value::Real((i / 12) % 2 == 0 ? -0.0 : 0.0);
              break;
            case 2:
              v = Value::Str(i % 3 == 0 ? "a" : "b");
              break;
            default:
              v = Value::Real(0.5 * (i % 3) - 0.5);
              break;
          }
          UNILOG_RETURN_NOT_OK(rel.AddRow(
              {Value::Int(i % 3), v, Value::Str(i % 2 == 0 ? "x" : "y")}));
        }
        return rel;
      });
  Status st = pig.Run(R"(
    rows = LOAD 'm' USING mixed();
    d = DISTINCT rows;
    by_v = ORDER d BY v ASC;
    by_k = ORDER d BY k DESC;
    all_v = ORDER rows BY v DESC;
    DUMP d;
    DUMP by_v;
    DUMP by_k;
    DUMP all_v;
  )");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(DumpDigest(pig.output()), 0xead54242a2a4aa42ull);
}

}  // namespace
}  // namespace unilog::dataflow
