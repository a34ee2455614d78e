// Assorted edge-case and cross-feature tests: mover-built indexes, funnel
// stage repetition, event-name character policing, and UDF corner cases.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytics/udfs.h"
#include "common/compress.h"
#include "etwin/index.h"
#include "events/client_event.h"
#include "events/event_name.h"
#include "events/rollup.h"
#include "obs/delivery_audit.h"
#include "scribe/aggregator.h"
#include "scribe/cluster.h"
#include "scribe/log_mover.h"
#include "scribe/message.h"
#include "sessions/dictionary.h"
#include "sim/simulator.h"
#include "thrift/compact_protocol.h"
#include "zk/zookeeper.h"

namespace unilog {
namespace {

constexpr TimeMs kT0 = 1345507200000;

TEST(LogMoverIndexTest, MoverBuildsUsableIndexForConfiguredCategories) {
  Simulator sim(kT0);
  zk::ZooKeeper zk(&sim);
  hdfs::MiniHdfs staging(&sim), warehouse(&sim);
  scribe::ScribeOptions sopts;
  sopts.roll_interval_ms = 10 * kMillisPerSecond;
  scribe::Aggregator agg(&sim, &zk, &staging, "dc1", "a1", sopts);
  ASSERT_TRUE(agg.Start().ok());
  std::vector<scribe::Aggregator*> aggs = {&agg};

  scribe::LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  mopts.index_categories = {"client_events"};
  scribe::LogMover mover(&sim,
                         {scribe::DatacenterHandle{"dc1", &staging, &aggs}},
                         &warehouse, mopts);
  mover.Start(kT0);

  // Two categories: only client_events gets indexed.
  events::ClientEvent ev;
  ev.event_name = "web:home:::tweet:impression";
  ev.user_id = 1;
  ev.session_id = "s";
  ev.ip = "10.0.0.1";
  ev.timestamp = kT0;
  ASSERT_TRUE(agg.Receive({{"client_events", ev.Serialize()},
                           {"other_logs", "plain text line"}})
                  .ok());
  agg.RollAll();
  sim.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);

  std::string hour_dir = "/logs/client_events/2012/08/21/00";
  ASSERT_TRUE(warehouse.Exists(hour_dir));
  ASSERT_TRUE(warehouse.Exists(hour_dir + "/_etwin_index"));
  EXPECT_FALSE(warehouse.Exists("/logs/other_logs/2012/08/21/00/_etwin_index"));

  // The index is loadable and points at real warehouse files.
  auto index = etwin::EventNameIndex::Load(warehouse, hour_dir);
  ASSERT_TRUE(index.ok());
  auto files = index->FilesMatching(events::EventPattern("*:impression"));
  ASSERT_EQ(files.size(), 1u);
  EXPECT_TRUE(warehouse.Exists(files[0]));
}

// A client-event message written field by field, so tests can repeat or
// omit fields the way a hostile or older producer might.
std::string RawClientEvent(const std::vector<std::string>& names,
                           int64_t user_id) {
  std::string out;
  thrift::CompactWriter w(&out);
  w.BeginStruct();
  for (const auto& name : names) {
    w.WriteStringField(events::ClientEvent::kFieldEventName, name);
  }
  w.WriteI64Field(events::ClientEvent::kFieldUserId, user_id);
  w.EndStruct();
  return out;
}

TEST(LogMoverIndexTest, RepeatedNameIndexesTheNameReadersSee) {
  Simulator sim(kT0);
  hdfs::MiniHdfs fs(&sim);
  const std::string msg =
      RawClientEvent({"web:home:::tweet:first", "web:home:::tweet:last"}, 1);
  auto parsed = events::ClientEvent::Deserialize(msg);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->event_name, "web:home:::tweet:last");

  const std::string dir = "/logs/client_events/2012/08/21/00";
  ASSERT_TRUE(fs.Mkdirs(dir).ok());
  ASSERT_TRUE(fs.WriteFile(dir + "/part-00000",
                           Lz::Compress(scribe::FrameMessages({msg})))
                  .ok());
  ASSERT_TRUE(etwin::EventNameIndex::BuildForDir(&fs, dir).ok());
  auto index = etwin::EventNameIndex::Load(fs, dir);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->distinct_event_names(), 1u);
  EXPECT_EQ(index->FilesMatching(events::EventPattern("*:last")).size(), 1u);
  EXPECT_TRUE(index->FilesMatching(events::EventPattern("*:first")).empty());
}

TEST(LogMoverIndexTest, NamelessMessageIsIndexedWithoutRetryOrLateDrop) {
  Simulator sim(kT0);
  zk::ZooKeeper zk(&sim);
  hdfs::MiniHdfs staging(&sim), warehouse(&sim);
  scribe::ScribeOptions sopts;
  sopts.roll_interval_ms = 10 * kMillisPerSecond;
  scribe::Aggregator agg(&sim, &zk, &staging, "dc1", "a1", sopts);
  ASSERT_TRUE(agg.Start().ok());
  std::vector<scribe::Aggregator*> aggs = {&agg};

  scribe::LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  mopts.index_categories = {"client_events"};
  scribe::LogMover mover(&sim,
                         {scribe::DatacenterHandle{"dc1", &staging, &aggs}},
                         &warehouse, mopts);
  mover.Start(kT0);

  // Field 2 is optional on the wire: the message parses with an empty name.
  const std::string nameless = RawClientEvent({}, 7);
  ASSERT_TRUE(events::ClientEvent::Deserialize(nameless).ok());
  ASSERT_TRUE(agg.Receive({{"client_events", nameless},
                           {"client_events",
                            RawClientEvent({"web:home:::tweet:click"}, 8)}})
                  .ok());
  agg.RollAll();
  sim.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);

  const scribe::LogMoverStats stats = mover.stats();
  EXPECT_EQ(stats.messages_moved, 2u);
  EXPECT_EQ(stats.move_retries, 0u);
  EXPECT_EQ(stats.late_entries_dropped, 0u);
  const std::string hour_dir = "/logs/client_events/2012/08/21/00";
  ASSERT_TRUE(warehouse.Exists(hour_dir + "/_etwin_index"));
  auto index = etwin::EventNameIndex::Load(warehouse, hour_dir);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->FilesMatching(events::EventPattern("*:click")).size(), 1u);
}

TEST(LogMoverIndexTest, FailedIndexWriteRetriesTheHourWithoutLateDrops) {
  Simulator sim(kT0);
  scribe::ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.aggregators_per_dc = 1;
  topo.daemons_per_dc = 2;
  scribe::ScribeOptions sopts;
  sopts.roll_interval_ms = 10 * kMillisPerSecond;
  scribe::LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  mopts.index_categories = {"client_events"};
  scribe::ScribeCluster cluster(&sim, topo, sopts, mopts, /*seed=*/5);
  ASSERT_TRUE(cluster.Start().ok());

  const int kEvents = 20;
  for (int i = 0; i < kEvents; ++i) {
    events::ClientEvent ev;
    ev.event_name = i % 2 == 0 ? "web:home:::tweet:click"
                               : "web:home:::tweet:impression";
    ev.user_id = i;
    ev.session_id = "s";
    ev.ip = "10.0.0.1";
    ev.timestamp = kT0 + i * kMillisPerMinute;
    sim.At(ev.timestamp, [&cluster, msg = ev.Serialize()] {
      cluster.Log(0, scribe::LogEntry{"client_events", msg});
    });
  }
  // Writing the hour's index fails once, after its parts are written.
  cluster.warehouse()->InjectWriteFailureOnce(
      std::string("/tmp/logmover/client_events/2012/08/21/00/") +
      etwin::EventNameIndex::kIndexFile);
  sim.RunUntil(kT0 + 2 * kMillisPerHour + 10 * kMillisPerMinute);

  // One retry redid the hour: every event was moved once, none of the
  // hour's staged files was dropped as late, and the index points at the
  // slid parts.
  const scribe::LogMoverStats stats = cluster.mover()->stats();
  EXPECT_EQ(stats.move_retries, 1u);
  EXPECT_EQ(stats.messages_moved, static_cast<uint64_t>(kEvents));
  EXPECT_EQ(stats.late_files_dropped, 0u);
  EXPECT_EQ(stats.late_entries_dropped, 0u);
  const std::string hour_dir = "/logs/client_events/2012/08/21/00";
  auto index = etwin::EventNameIndex::Load(*cluster.warehouse(), hour_dir);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->distinct_event_names(), 2u);
  auto files = index->FilesMatching(events::EventPattern("*:click"));
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    EXPECT_EQ(file.rfind(hour_dir + "/", 0), 0u) << file;
    EXPECT_TRUE(cluster.warehouse()->Exists(file)) << file;
  }
  obs::DeliveryAudit audit(&cluster);
  EXPECT_TRUE(audit.AssertQuiescent().ok()) << audit.Snapshot().ToString();
}

TEST(FunnelEdgeTest, RepeatedStageEventsCountInOrder) {
  auto dict = sessions::EventDictionary::FromNamesInGivenOrder({"a", "b"});
  ASSERT_TRUE(dict.ok());
  // A funnel whose two stages are the SAME event: "a then a again".
  auto funnel = analytics::Funnel::Make(*dict, {"a", "a"});
  ASSERT_TRUE(funnel.ok());
  sessions::SessionSequence once, twice, interleaved;
  once.sequence = dict->EncodeNames({"a"}).value();
  twice.sequence = dict->EncodeNames({"a", "a"}).value();
  interleaved.sequence = dict->EncodeNames({"a", "b", "a"}).value();
  EXPECT_EQ(funnel->StagesCompleted(once), 1u);
  EXPECT_EQ(funnel->StagesCompleted(twice), 2u);
  EXPECT_EQ(funnel->StagesCompleted(interleaved), 2u);
}

TEST(FunnelEdgeTest, StageEventRevisitsDoNotDoubleCount) {
  auto dict =
      sessions::EventDictionary::FromNamesInGivenOrder({"s0", "s1", "x"});
  auto funnel = analytics::Funnel::Make(*dict, {"s0", "s1"});
  ASSERT_TRUE(funnel.ok());
  // Completing stage 0 twice without stage 1 stays at 1.
  sessions::SessionSequence seq;
  seq.sequence = dict->EncodeNames({"s0", "x", "s0", "x"}).value();
  EXPECT_EQ(funnel->StagesCompleted(seq), 1u);
}

TEST(EventNameEdgeTest, PatternMetacharactersRejectedInNames) {
  // '*' and ':' can never appear inside a component, so patterns cannot
  // be confused with real names.
  EXPECT_FALSE(events::EventName::Make("web", "ho*me", "", "", "", "click")
                   .ok());
  EXPECT_FALSE(events::EventName::Make("we:b", "home", "", "", "", "click")
                   .ok());
  EXPECT_FALSE(events::EventName::Parse("web:home:::tweet:cl*ck").ok());
}

TEST(EventNameEdgeTest, AllEmptyMiddleRoundTrips) {
  auto name = events::EventName::Parse("web:::::click");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->ToString(), "web:::::click");
  EXPECT_EQ(name->page(), "");
  // Rollup keys stay well-formed even with empty middles.
  EXPECT_EQ(events::RollupKeyFor(*name, events::RollupLevel::kNoPage),
            "web:*:*:*:*:click");
  EXPECT_EQ(events::RollupKeyFor(*name, events::RollupLevel::kFull),
            "web:::::click");
}

TEST(CountUdfEdgeTest, PatternMatchingEmptyExpansionIsCheap) {
  auto dict = sessions::EventDictionary::FromNamesInGivenOrder({"a", "b"});
  analytics::CountClientEvents udf(*dict,
                                   events::EventPattern("zzz:*"));
  EXPECT_EQ(udf.target_count(), 0u);
  sessions::SessionSequence seq;
  seq.sequence = dict->EncodeNames({"a", "b", "a"}).value();
  EXPECT_EQ(udf.Count(seq), 0u);
}

TEST(DictionaryEdgeTest, EmptyDictionary) {
  auto dict = sessions::EventDictionary::FromNamesInGivenOrder({});
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->size(), 0u);
  EXPECT_TRUE(dict->EncodeNames({}).ok());
  EXPECT_TRUE(dict->CodePointFor("x").status().IsNotFound());
  EXPECT_TRUE(dict->Expand(events::EventPattern("*")).empty());
  // Serialization of empty dictionary round-trips.
  auto back = sessions::EventDictionary::Deserialize(dict->Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

}  // namespace
}  // namespace unilog
