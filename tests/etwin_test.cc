// Tests for Elephant Twin-style indexing (§6): building the per-partition
// inverted index, push-down filtering, and rebuild semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/compress.h"
#include "dataflow/mapreduce.h"
#include "etwin/index.h"
#include "events/client_event.h"
#include "hdfs/mini_hdfs.h"
#include "scribe/message.h"

namespace unilog::etwin {
namespace {

events::ClientEvent MakeEvent(const std::string& name, int64_t user) {
  events::ClientEvent ev;
  ev.event_name = name;
  ev.user_id = user;
  ev.session_id = "s";
  ev.ip = "10.0.0.1";
  ev.timestamp = 1345507200000;
  return ev;
}

void WriteEventFile(hdfs::MiniHdfs* fs, const std::string& path,
                    const std::vector<std::string>& names) {
  std::string body;
  events::ClientEventWriter writer(&body);
  int64_t uid = 0;
  for (const auto& name : names) writer.Add(MakeEvent(name, ++uid));
  ASSERT_TRUE(fs->WriteFile(path, Lz::Compress(body)).ok());
}

class EtwinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WriteEventFile(&fs_, "/logs/ce/2012/08/21/00/part-0",
                   {"web:home:::tweet:impression", "web:home:::tweet:click"});
    WriteEventFile(&fs_, "/logs/ce/2012/08/21/00/part-1",
                   {"iphone:home:::tweet:impression"});
    WriteEventFile(&fs_, "/logs/ce/2012/08/21/00/part-2",
                   {"web:search:::result:click",
                    "web:search:::result:impression"});
  }

  hdfs::MiniHdfs fs_;
};

TEST_F(EtwinTest, BuildCreatesIndexFile) {
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, "/logs/ce/2012/08/21/00").ok());
  EXPECT_TRUE(fs_.Exists("/logs/ce/2012/08/21/00/_etwin_index"));
  auto index = EventNameIndex::Load(fs_, "/logs/ce/2012/08/21/00");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->indexed_files(), 3u);
  EXPECT_EQ(index->distinct_event_names(), 5u);
}

TEST_F(EtwinTest, FilesMatchingSelectsOnlyRelevantFiles) {
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, "/logs/ce/2012/08/21/00").ok());
  auto index = *EventNameIndex::Load(fs_, "/logs/ce/2012/08/21/00");

  auto clicks = index.FilesMatching(events::EventPattern("*:click"));
  ASSERT_EQ(clicks.size(), 2u);  // part-0 and part-2

  auto iphone = index.FilesMatching(events::EventPattern("iphone:*"));
  ASSERT_EQ(iphone.size(), 1u);
  EXPECT_NE(iphone[0].find("part-1"), std::string::npos);

  EXPECT_TRUE(index.FilesMatching(events::EventPattern("android:*")).empty());
}

TEST_F(EtwinTest, FileFilterConservativeForUnknownFiles) {
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, "/logs/ce/2012/08/21/00").ok());
  auto index = *EventNameIndex::Load(fs_, "/logs/ce/2012/08/21/00");
  auto filter = index.FileFilter(events::EventPattern("iphone:*"));
  EXPECT_TRUE(filter("/logs/ce/2012/08/21/00/part-1"));
  EXPECT_FALSE(filter("/logs/ce/2012/08/21/00/part-0"));
  // A file the index has never seen is accepted (no false negatives).
  EXPECT_TRUE(filter("/logs/ce/2012/08/21/00/part-99"));
}

TEST_F(EtwinTest, PushDownIntoMapReduceSkipsFiles) {
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, "/logs/ce/2012/08/21/00").ok());
  auto index = *EventNameIndex::Load(fs_, "/logs/ce/2012/08/21/00");

  auto run_with = [&](bool use_index) {
    dataflow::MapReduceJob job(&fs_, dataflow::JobCostModel{});
    EXPECT_TRUE(job.AddInputDir("/logs/ce/2012/08/21/00").ok());
    auto format = dataflow::InputFormat::CompressedFramed();
    if (use_index) {
      format = format.WithFileFilter(
          index.FileFilter(events::EventPattern("iphone:*")));
    }
    job.set_input_format(format);
    job.set_map([](const std::string& record, dataflow::Emitter* e) -> Status {
      UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                              events::ClientEvent::Deserialize(record));
      if (ev.event_name.rfind("iphone:", 0) == 0) e->Emit(ev.event_name, "");
      return Status::OK();
    });
    auto out = job.Run();
    EXPECT_TRUE(out.ok());
    return std::make_pair(out->size(), job.stats().bytes_scanned);
  };

  auto [full_rows, full_bytes] = run_with(false);
  auto [indexed_rows, indexed_bytes] = run_with(true);
  EXPECT_EQ(full_rows, indexed_rows);       // same answer
  EXPECT_LT(indexed_bytes, full_bytes);     // less data touched
  EXPECT_EQ(indexed_rows, 1u);
}

TEST_F(EtwinTest, RebuildOverwritesOldIndex) {
  const std::string dir = "/logs/ce/2012/08/21/00";
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, dir).ok());
  // New data arrives; rebuild from scratch (the paper's re-indexing story).
  WriteEventFile(&fs_, dir + "/part-3", {"android:home:::tweet:impression"});
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, dir).ok());
  auto index = *EventNameIndex::Load(fs_, dir);
  EXPECT_EQ(index.indexed_files(), 4u);
  EXPECT_EQ(index.FilesMatching(events::EventPattern("android:*")).size(), 1u);
}

// The index skips hidden paths as every other warehouse reader does: a
// part under a '_'-prefixed subdirectory is not indexed, even though its
// own basename is not hidden.
TEST_F(EtwinTest, FilesUnderHiddenSubdirectoriesAreNotIndexed) {
  const std::string dir = "/logs/ce/2012/08/21/00";
  WriteEventFile(&fs_, dir + "/_cache/part-9", {"android:home:::tweet:click"});
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, dir).ok());
  auto index = *EventNameIndex::Load(fs_, dir);
  EXPECT_EQ(index.indexed_files(), 3u);
  EXPECT_TRUE(index.FilesMatching(events::EventPattern("android:*")).empty());
}

TEST_F(EtwinTest, SerializationRoundTrip) {
  ASSERT_TRUE(EventNameIndex::BuildForDir(&fs_, "/logs/ce/2012/08/21/00").ok());
  auto index = *EventNameIndex::Load(fs_, "/logs/ce/2012/08/21/00");
  std::string blob = index.Serialize();
  auto back = EventNameIndex::Deserialize(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->indexed_files(), index.indexed_files());
  EXPECT_EQ(back->distinct_event_names(), index.distinct_event_names());
  EXPECT_FALSE(EventNameIndex::Deserialize(blob.substr(0, 5)).ok());
}

TEST_F(EtwinTest, LoadMissingIndexIsNotFound) {
  EXPECT_TRUE(
      EventNameIndex::Load(fs_, "/logs/ce/2012/08/21/00").status().IsNotFound());
}

}  // namespace
}  // namespace unilog::etwin
