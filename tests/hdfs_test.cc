// Unit tests for the simulated HDFS: namespace semantics, atomic rename
// (the log mover's primitive), block accounting, and outage injection.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hdfs/mini_hdfs.h"
#include "sim/simulator.h"

namespace unilog::hdfs {
namespace {

TEST(MiniHdfsTest, WriteReadRoundTrip) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/logs/a.log", "hello").ok());
  EXPECT_EQ(fs.ReadFile("/logs/a.log").value(), "hello");
  EXPECT_TRUE(fs.Exists("/logs/a.log"));
  EXPECT_TRUE(fs.IsDir("/logs"));
  EXPECT_EQ(fs.file_count(), 1u);
  EXPECT_EQ(fs.total_file_bytes(), 5u);
}

TEST(MiniHdfsTest, CreateFailsIfExists) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/f", "x").ok());
  EXPECT_TRUE(fs.WriteFile("/f", "y").IsAlreadyExists());
}

TEST(MiniHdfsTest, AppendCreatesOrExtends) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.AppendFile("/f", "ab").ok());
  ASSERT_TRUE(fs.AppendFile("/f", "cd").ok());
  EXPECT_EQ(fs.ReadFile("/f").value(), "abcd");
  EXPECT_TRUE(fs.Mkdirs("/d").ok());
  EXPECT_TRUE(fs.AppendFile("/d", "x").IsFailedPrecondition());
}

TEST(MiniHdfsTest, MkdirsCreatesAncestors) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.Mkdirs("/a/b/c").ok());
  EXPECT_TRUE(fs.IsDir("/a"));
  EXPECT_TRUE(fs.IsDir("/a/b"));
  EXPECT_TRUE(fs.IsDir("/a/b/c"));
  // Idempotent.
  EXPECT_TRUE(fs.Mkdirs("/a/b/c").ok());
  // A file in the way fails.
  ASSERT_TRUE(fs.WriteFile("/a/b/f", "x").ok());
  EXPECT_TRUE(fs.Mkdirs("/a/b/f/g").IsFailedPrecondition());
}

TEST(MiniHdfsTest, PathValidation) {
  MiniHdfs fs;
  EXPECT_TRUE(fs.WriteFile("relative", "x").IsInvalidArgument());
  EXPECT_TRUE(fs.WriteFile("/trailing/", "x").IsInvalidArgument());
  EXPECT_TRUE(fs.WriteFile("/a//b", "x").IsInvalidArgument());
}

TEST(MiniHdfsTest, ReadMissingFileNotFound) {
  MiniHdfs fs;
  EXPECT_TRUE(fs.ReadFile("/nope").status().IsNotFound());
  EXPECT_TRUE(fs.Stat("/nope").status().IsNotFound());
}

TEST(MiniHdfsTest, ListDirectChildren) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/logs/cat/2012/a", "1").ok());
  ASSERT_TRUE(fs.WriteFile("/logs/cat/2012/b", "22").ok());
  ASSERT_TRUE(fs.WriteFile("/logs/cat/2013/c", "333").ok());
  auto ls = fs.List("/logs/cat");
  ASSERT_TRUE(ls.ok());
  ASSERT_EQ(ls->size(), 2u);
  EXPECT_EQ((*ls)[0].path, "/logs/cat/2012");
  EXPECT_TRUE((*ls)[0].is_dir);
  EXPECT_EQ((*ls)[1].path, "/logs/cat/2013");

  auto files = fs.List("/logs/cat/2012");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0].size, 1u);
  EXPECT_EQ((*files)[1].size, 2u);

  EXPECT_TRUE(fs.List("/logs/cat/2012/a").status().IsFailedPrecondition());
  EXPECT_TRUE(fs.List("/nope").status().IsNotFound());
}

TEST(MiniHdfsTest, ListRecursiveReturnsOnlyFiles) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/w/x/1", "a").ok());
  ASSERT_TRUE(fs.WriteFile("/w/x/y/2", "b").ok());
  ASSERT_TRUE(fs.WriteFile("/w/3", "c").ok());
  auto all = fs.ListRecursive("/w");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[0].path, "/w/3");
  EXPECT_EQ((*all)[1].path, "/w/x/1");
  EXPECT_EQ((*all)[2].path, "/w/x/y/2");
}

TEST(MiniHdfsTest, RenameFileAtomic) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/tmp/part-0", "data").ok());
  ASSERT_TRUE(fs.Mkdirs("/logs/cat").ok());
  ASSERT_TRUE(fs.Rename("/tmp/part-0", "/logs/cat/part-0").ok());
  EXPECT_FALSE(fs.Exists("/tmp/part-0"));
  EXPECT_EQ(fs.ReadFile("/logs/cat/part-0").value(), "data");
}

TEST(MiniHdfsTest, RenameDirectoryMovesSubtree) {
  // The log mover's atomic hourly slide: staging dir → warehouse dir.
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/staging/hour/part-0", "a").ok());
  ASSERT_TRUE(fs.WriteFile("/staging/hour/part-1", "b").ok());
  ASSERT_TRUE(fs.Mkdirs("/logs/client_events/2012/08/21").ok());
  ASSERT_TRUE(
      fs.Rename("/staging/hour", "/logs/client_events/2012/08/21/13").ok());
  EXPECT_FALSE(fs.Exists("/staging/hour"));
  EXPECT_EQ(fs.ReadFile("/logs/client_events/2012/08/21/13/part-0").value(),
            "a");
  EXPECT_EQ(fs.ReadFile("/logs/client_events/2012/08/21/13/part-1").value(),
            "b");
}

TEST(MiniHdfsTest, RenameEdgeCases) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/a", "x").ok());
  ASSERT_TRUE(fs.WriteFile("/b", "y").ok());
  EXPECT_TRUE(fs.Rename("/a", "/b").IsAlreadyExists());
  EXPECT_TRUE(fs.Rename("/nope", "/c").IsNotFound());
  EXPECT_TRUE(fs.Rename("/a", "/missing_dir/c").IsNotFound());
  ASSERT_TRUE(fs.Mkdirs("/d/e").ok());
  EXPECT_TRUE(fs.Rename("/d", "/d/e/f").IsInvalidArgument());
}

TEST(MiniHdfsTest, DeleteSemantics) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/dir/f1", "abc").ok());
  ASSERT_TRUE(fs.WriteFile("/dir/f2", "de").ok());
  EXPECT_TRUE(fs.Delete("/dir").IsFailedPrecondition());
  ASSERT_TRUE(fs.Delete("/dir/f1").ok());
  EXPECT_EQ(fs.total_file_bytes(), 2u);
  ASSERT_TRUE(fs.Delete("/dir", /*recursive=*/true).ok());
  EXPECT_FALSE(fs.Exists("/dir"));
  EXPECT_EQ(fs.file_count(), 0u);
  EXPECT_EQ(fs.total_file_bytes(), 0u);
  EXPECT_TRUE(fs.Delete("/").IsInvalidArgument());
}

TEST(MiniHdfsTest, BlockAccounting) {
  HdfsOptions opts;
  opts.block_size = 10;
  MiniHdfs fs(nullptr, opts);
  EXPECT_EQ(fs.BlocksFor(0), 1u);
  EXPECT_EQ(fs.BlocksFor(1), 1u);
  EXPECT_EQ(fs.BlocksFor(10), 1u);
  EXPECT_EQ(fs.BlocksFor(11), 2u);
  ASSERT_TRUE(fs.WriteFile("/f", std::string(25, 'x')).ok());
  EXPECT_EQ(fs.Stat("/f")->block_count, 3u);
  EXPECT_EQ(fs.total_blocks(), 3u);
}

TEST(MiniHdfsTest, OutageMakesOperationsUnavailable) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/f", "x").ok());
  fs.SetAvailable(false);
  EXPECT_TRUE(fs.WriteFile("/g", "y").IsUnavailable());
  EXPECT_TRUE(fs.AppendFile("/f", "y").IsUnavailable());
  EXPECT_TRUE(fs.ReadFile("/f").status().IsUnavailable());
  EXPECT_TRUE(fs.Rename("/f", "/h").IsUnavailable());
  EXPECT_TRUE(fs.Delete("/f").IsUnavailable());
  EXPECT_TRUE(fs.List("/").status().IsUnavailable());
  fs.SetAvailable(true);
  EXPECT_EQ(fs.ReadFile("/f").value(), "x");
}

TEST(MiniHdfsTest, MtimeTracksSimClock) {
  Simulator sim(1000);
  MiniHdfs fs(&sim);
  ASSERT_TRUE(fs.WriteFile("/f", "x").ok());
  EXPECT_EQ(fs.Stat("/f")->mtime, 1000);
  sim.RunUntil(5000);
  ASSERT_TRUE(fs.AppendFile("/f", "y").ok());
  EXPECT_EQ(fs.Stat("/f")->mtime, 5000);
}

TEST(MiniHdfsTest, ByteCounters) {
  MiniHdfs fs;
  ASSERT_TRUE(fs.WriteFile("/f", "abcde").ok());
  ASSERT_TRUE(fs.ReadFile("/f").ok());
  ASSERT_TRUE(fs.ReadFile("/f").ok());
  EXPECT_EQ(fs.bytes_written(), 5u);
  EXPECT_EQ(fs.bytes_read(), 10u);
}

// --- Write generations: one namespace-wide counter, never reused ---

class GenerationTest : public ::testing::Test {
 protected:
  // The file's generation from Stat, checked against its parent's
  // recursive listing; records it and expects it never seen before.
  uint64_t ExpectFresh(const std::string& path) {
    auto st = fs_.Stat(path);
    EXPECT_TRUE(st.ok()) << path;
    if (!st.ok()) return 0;
    const std::string parent = path.substr(0, path.rfind('/'));
    auto listing = fs_.ListRecursive(parent.empty() ? "/" : parent);
    EXPECT_TRUE(listing.ok()) << parent;
    bool listed = false;
    for (const auto& f : listing.ok() ? *listing : std::vector<FileStatus>{}) {
      if (f.path != path) continue;
      listed = true;
      EXPECT_EQ(f.generation, st->generation) << path;
    }
    EXPECT_TRUE(listed) << path;
    EXPECT_NE(st->generation, 0u) << path;
    EXPECT_TRUE(seen_.insert(st->generation).second)
        << path << " reuses generation " << st->generation;
    return st->generation;
  }

  Simulator sim_{1000};
  MiniHdfs fs_{&sim_};
  std::set<uint64_t> seen_;
};

TEST_F(GenerationTest, EveryWriteTakesAGenerationNeverSeenBefore) {
  ASSERT_TRUE(fs_.WriteFile("/d/f", "hello").ok());
  const uint64_t created = ExpectFresh("/d/f");
  // Reads, listings and stats leave it alone.
  ASSERT_TRUE(fs_.ReadFile("/d/f").ok());
  EXPECT_EQ(fs_.Stat("/d/f")->generation, created);
  ASSERT_TRUE(fs_.AppendFile("/d/f", "!").ok());
  ExpectFresh("/d/f");
  // Appending to a missing path creates it.
  ASSERT_TRUE(fs_.AppendFile("/d/g", "x").ok());
  ExpectFresh("/d/g");
  ASSERT_TRUE(fs_.CorruptFile("/d/f", 1).ok());
  ExpectFresh("/d/f");
  // Directories carry none.
  EXPECT_EQ(fs_.Stat("/d")->generation, 0u);
}

TEST_F(GenerationTest, RenameRenumbersTheFileAndEveryFileOfASubtree) {
  ASSERT_TRUE(fs_.WriteFile("/tmp/part-0", "a").ok());
  ExpectFresh("/tmp/part-0");
  ASSERT_TRUE(fs_.Mkdirs("/logs").ok());
  ASSERT_TRUE(fs_.Rename("/tmp/part-0", "/logs/part-0").ok());
  ExpectFresh("/logs/part-0");

  ASSERT_TRUE(fs_.WriteFile("/staging/hour/part-0", "a").ok());
  ASSERT_TRUE(fs_.WriteFile("/staging/hour/sub/part-1", "b").ok());
  ExpectFresh("/staging/hour/part-0");
  ExpectFresh("/staging/hour/sub/part-1");
  ASSERT_TRUE(fs_.Rename("/staging/hour", "/logs/13").ok());
  ExpectFresh("/logs/13/part-0");
  ExpectFresh("/logs/13/sub/part-1");
}

TEST_F(GenerationTest, RecreateAtTheSamePathAndMillisecondIsNew) {
  ASSERT_TRUE(fs_.WriteFile("/p", "same size").ok());
  const uint64_t first = ExpectFresh("/p");
  ASSERT_TRUE(fs_.Delete("/p").ok());
  ASSERT_TRUE(fs_.WriteFile("/p", "SAME SIZE").ok());
  const uint64_t second = ExpectFresh("/p");
  EXPECT_NE(first, second);
  // Size and mtime cannot tell the two apart; the generation does.
  EXPECT_EQ(fs_.Stat("/p")->mtime, 1000);
  EXPECT_EQ(fs_.Stat("/p")->size, 9u);
}

TEST_F(GenerationTest, ListAgreesWithStat) {
  ASSERT_TRUE(fs_.WriteFile("/d/a", "1").ok());
  ASSERT_TRUE(fs_.WriteFile("/d/b", "2").ok());
  auto listing = fs_.List("/d");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 2u);
  for (const auto& f : *listing) {
    EXPECT_EQ(f.generation, fs_.Stat(f.path)->generation) << f.path;
  }
  EXPECT_NE((*listing)[0].generation, (*listing)[1].generation);
}

// --- Datanode sharding: per-block placement, brownouts, replication ---

TEST(MiniHdfsShardingTest, DefaultSingleNodeKeepsLegacyBehavior) {
  MiniHdfs fs;
  EXPECT_EQ(fs.num_datanodes(), 1);
  EXPECT_EQ(fs.live_datanodes(), 1);
  ASSERT_TRUE(fs.WriteFile("/f", "data").ok());
  ReplicaReport report = fs.Replicas();
  EXPECT_EQ(report.blocks, 1u);
  EXPECT_EQ(report.fully_available, 1u);
  EXPECT_EQ(report.unreadable, 0u);
}

TEST(MiniHdfsShardingTest, BrownoutFailsOnlyDarkBlocks) {
  HdfsOptions opts;
  opts.num_datanodes = 3;
  opts.replication = 1;
  MiniHdfs fs(nullptr, opts);
  // Rotating placement: three single-block files land on three distinct
  // datanodes, so darkening one node fails exactly one of them.
  ASSERT_TRUE(fs.WriteFile("/a", "x").ok());
  ASSERT_TRUE(fs.WriteFile("/b", "y").ok());
  ASSERT_TRUE(fs.WriteFile("/c", "z").ok());
  fs.SetDatanodeAvailable(0, false);
  EXPECT_EQ(fs.live_datanodes(), 2);
  int failed = 0;
  for (const char* path : {"/a", "/b", "/c"}) {
    if (fs.ReadFile(path).status().IsUnavailable()) ++failed;
  }
  EXPECT_EQ(failed, 1);
  EXPECT_GE(fs.brownout_rejections(), 1u);
  // Metadata operations are namenode-only and ride through the brownout.
  EXPECT_TRUE(fs.List("/").ok());
  EXPECT_TRUE(fs.Stat("/a").ok());
  ReplicaReport report = fs.Replicas();
  EXPECT_EQ(report.blocks, 3u);
  EXPECT_EQ(report.unreadable, 1u);
  fs.SetDatanodeAvailable(0, true);
  for (const char* path : {"/a", "/b", "/c"}) {
    EXPECT_TRUE(fs.ReadFile(path).ok()) << path;
  }
}

TEST(MiniHdfsShardingTest, ReplicationSurvivesSingleNodeLoss) {
  HdfsOptions opts;
  opts.num_datanodes = 3;
  opts.replication = 2;
  opts.block_size = 4;
  MiniHdfs fs(nullptr, opts);
  ASSERT_TRUE(fs.WriteFile("/big", std::string(20, 'a')).ok());
  ASSERT_TRUE(fs.WriteFile("/small", "bb").ok());
  for (int node = 0; node < 3; ++node) {
    fs.SetDatanodeAvailable(node, false);
    EXPECT_TRUE(fs.ReadFile("/big").ok()) << "node " << node << " down";
    EXPECT_TRUE(fs.ReadFile("/small").ok()) << "node " << node << " down";
    ReplicaReport report = fs.Replicas();
    EXPECT_EQ(report.unreadable, 0u) << "node " << node << " down";
    EXPECT_GT(report.degraded, 0u) << "node " << node << " down";
    fs.SetDatanodeAvailable(node, true);
  }
  ReplicaReport healthy = fs.Replicas();
  EXPECT_EQ(healthy.fully_available, healthy.blocks);
}

TEST(MiniHdfsShardingTest, PlacementFollowsRename) {
  HdfsOptions opts;
  opts.num_datanodes = 3;
  opts.replication = 1;
  MiniHdfs fs(nullptr, opts);
  ASSERT_TRUE(fs.WriteFile("/dir/f", "payload").ok());
  // Find the node holding the file's block.
  int holder = -1;
  for (int node = 0; node < 3 && holder < 0; ++node) {
    fs.SetDatanodeAvailable(node, false);
    if (!fs.ReadFile("/dir/f").ok()) holder = node;
    fs.SetDatanodeAvailable(node, true);
  }
  ASSERT_GE(holder, 0);
  // Renames move the path, not the blocks — the same node failing still
  // darkens the file at its new name.
  ASSERT_TRUE(fs.Rename("/dir/f", "/dir/g").ok());
  fs.SetDatanodeAvailable(holder, false);
  EXPECT_TRUE(fs.ReadFile("/dir/g").status().IsUnavailable());
  fs.SetDatanodeAvailable(holder, true);
  EXPECT_EQ(fs.ReadFile("/dir/g").value(), "payload");
}

TEST(MiniHdfsShardingTest, WriteDuringBrownoutIsUnderReplicated) {
  HdfsOptions opts;
  opts.num_datanodes = 2;
  opts.replication = 2;
  MiniHdfs fs(nullptr, opts);
  fs.SetDatanodeAvailable(1, false);
  ASSERT_TRUE(fs.WriteFile("/f", "written during brownout").ok());
  EXPECT_GE(fs.replica_shortfalls(), 1u);
  EXPECT_GT(fs.Replicas().under_replicated, 0u);
  EXPECT_TRUE(fs.ReadFile("/f").ok());
  // With every datanode dark there is nowhere to place new blocks.
  fs.SetDatanodeAvailable(0, false);
  EXPECT_TRUE(fs.WriteFile("/g", "x").IsUnavailable());
}

TEST(MiniHdfsShardingTest, CorruptFileFlipsOneByteSilently) {
  Simulator sim(1000);
  MiniHdfs fs(&sim);
  ASSERT_TRUE(fs.WriteFile("/f", "hello").ok());
  sim.RunUntil(5000);
  ASSERT_TRUE(fs.CorruptFile("/f", 1).ok());
  std::string body = fs.ReadFile("/f").value();
  ASSERT_EQ(body.size(), 5u);
  EXPECT_NE(body, "hello");
  EXPECT_EQ(body[0], 'h');
  EXPECT_NE(body[1], 'e');
  // Silent: no mtime bump, no write accounting — only the chaos counter.
  EXPECT_EQ(fs.Stat("/f")->mtime, 1000);
  EXPECT_EQ(fs.bytes_written(), 5u);
  EXPECT_EQ(fs.chaos_corruptions(), 1u);
  // Offsets wrap around the file size.
  ASSERT_TRUE(fs.CorruptFile("/f", 6).ok());
  EXPECT_NE(fs.ReadFile("/f").value()[1], body[1]);
  // Directories and empty files cannot be corrupted.
  ASSERT_TRUE(fs.Mkdirs("/d").ok());
  EXPECT_FALSE(fs.CorruptFile("/d", 0).ok());
  ASSERT_TRUE(fs.WriteFile("/empty", "").ok());
  EXPECT_FALSE(fs.CorruptFile("/empty", 0).ok());
}

}  // namespace
}  // namespace unilog::hdfs
