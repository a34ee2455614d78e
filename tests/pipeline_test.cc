// End-to-end integration tests: synthetic workload → Scribe delivery →
// warehouse → daily histogram/dictionary/sessionization jobs → session
// sequences — validated against the generator's exact ground truth.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analytics/summary.h"
#include "analytics/udfs.h"
#include "columnar/rcfile.h"
#include "pipeline/daily_pipeline.h"
#include "scribe/cluster.h"
#include "sessions/session_sequence.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace unilog::pipeline {
namespace {

constexpr TimeMs kDay = 1345507200000;  // 2012-08-21 00:00 UTC

class PipelineTest : public ::testing::Test {
 protected:
  // Runs the full pipeline for a small day of traffic; returns the result.
  // With `columnar` set the mover lands warehouse hours as RCFile parts
  // and the daily jobs must read them through the format-sniffing input.
  DailyJobResult RunEndToEnd(workload::WorkloadOptions wopts,
                             bool columnar = false) {
    sim_ = std::make_unique<Simulator>(kDay);
    scribe::ClusterTopology topo;
    topo.datacenters = {"dc1", "dc2"};
    topo.aggregators_per_dc = 2;
    topo.daemons_per_dc = 4;
    scribe::ScribeOptions sopts;
    sopts.roll_interval_ms = kMillisPerMinute;
    scribe::LogMoverOptions mopts;
    mopts.run_interval_ms = 5 * kMillisPerMinute;
    mopts.grace_ms = 2 * kMillisPerMinute;
    if (columnar) mopts.columnar_categories = {"client_events"};
    cluster_ = std::make_unique<scribe::ScribeCluster>(sim_.get(), topo,
                                                       sopts, mopts, 99);
    EXPECT_TRUE(cluster_->Start().ok());

    generator_ = std::make_unique<workload::WorkloadGenerator>(wopts);
    EXPECT_TRUE(DriveWorkloadThroughScribe(sim_.get(), cluster_.get(),
                                           generator_.get(), "client_events")
                    .ok());
    // Run through the end of the day plus enough slack for the final
    // hour's close, grace, and mover run.
    sim_->RunUntil(kDay + kMillisPerDay + kMillisPerHour);

    UserTable users = UserTable::FromWorkload(*generator_);
    DailyPipeline pipeline(cluster_->warehouse(), dataflow::JobCostModel{});
    auto result = pipeline.RunForDate(kDay, users);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  static workload::WorkloadOptions SmallWorkload() {
    workload::WorkloadOptions wopts;
    wopts.seed = 31;
    wopts.num_users = 120;
    wopts.start = kDay;
    wopts.duration = kMillisPerDay - 2 * kMillisPerHour;  // finish early
    wopts.sessions_per_user_mean = 1.2;
    wopts.events_per_session_mean = 10;
    return wopts;
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<scribe::ScribeCluster> cluster_;
  std::unique_ptr<workload::WorkloadGenerator> generator_;
};

TEST_F(PipelineTest, AllEventsReachWarehouseAndHistogram) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  const workload::GroundTruth& truth = generator_->truth();

  // No loss anywhere: histogram totals equal generated totals.
  EXPECT_EQ(result.histogram.total_events(), truth.total_events);
  // Per-event counts match exactly.
  for (const auto& [name, count] : truth.event_counts) {
    EXPECT_EQ(result.histogram.CountOf(name), count) << name;
  }
  EXPECT_EQ(result.histogram.distinct_events(), truth.event_counts.size());
}

TEST_F(PipelineTest, SessionizationRecoversGeneratedSessions) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  const workload::GroundTruth& truth = generator_->truth();
  EXPECT_EQ(result.sequences.size(), truth.total_sessions);

  // Total encoded events match.
  uint64_t encoded_events = 0;
  for (const auto& seq : result.sequences) {
    encoded_events += seq.EventCount();
  }
  EXPECT_EQ(encoded_events, truth.total_events);

  // Sequence partition is on HDFS and loads back identically.
  auto loaded =
      sessions::SequenceStore::LoadDaily(*cluster_->warehouse(), kDay);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), result.sequences.size());
}

TEST_F(PipelineTest, ColumnarWarehouseFeedsDailyPipeline) {
  // Same workload twice: once landing framed-compressed hours, once landing
  // RCFile columnar hours. The daily jobs sniff the format per file, so
  // both runs must produce identical results.
  DailyJobResult framed = RunEndToEnd(SmallWorkload());
  DailyJobResult columnar = RunEndToEnd(SmallWorkload(), /*columnar=*/true);
  const workload::GroundTruth& truth = generator_->truth();

  // The columnar run really did land RCFile parts in the warehouse.
  auto files =
      cluster_->warehouse()->ListRecursive("/logs/client_events/2012/08/21");
  ASSERT_TRUE(files.ok());
  size_t rcfile_parts = 0;
  for (const auto& f : *files) {
    auto body = cluster_->warehouse()->ReadFile(f.path);
    ASSERT_TRUE(body.ok());
    if (columnar::IsRcFile(*body)) ++rcfile_parts;
  }
  EXPECT_GT(rcfile_parts, 0u);

  // No loss through the columnar path, and job-for-job parity with the
  // framed run.
  EXPECT_EQ(columnar.histogram.total_events(), truth.total_events);
  EXPECT_EQ(columnar.histogram.total_events(), framed.histogram.total_events());
  for (const auto& [name, count] : truth.event_counts) {
    EXPECT_EQ(columnar.histogram.CountOf(name), count) << name;
  }
  EXPECT_EQ(columnar.sequences, framed.sequences);
}

TEST_F(PipelineTest, SummaryMatchesGroundTruthByClient) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  const workload::GroundTruth& truth = generator_->truth();
  auto summary = analytics::Summarize(result.sequences, result.dictionary);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->sessions, truth.total_sessions);
  for (const auto& [client, n] : truth.sessions_per_client) {
    EXPECT_EQ(summary->sessions_by_client.at(client), n) << client;
  }
}

TEST_F(PipelineTest, FunnelRecoversPlantedAbandonment) {
  workload::WorkloadOptions wopts = SmallWorkload();
  wopts.num_users = 250;
  wopts.signup_session_fraction = 0.4;
  DailyJobResult result = RunEndToEnd(wopts);
  const workload::GroundTruth& truth = generator_->truth();

  std::vector<std::string> stages;
  for (int s = 0; s < workload::ViewHierarchy::kSignupStages; ++s) {
    stages.push_back(workload::ViewHierarchy::SignupStageEvent("web", s));
  }
  // Some clients may have no signup sessions in a small run; web almost
  // surely does. Aggregate across all clients by running one funnel per
  // client and summing.
  std::vector<uint64_t> recovered(workload::ViewHierarchy::kSignupStages, 0);
  for (const auto& client : generator_->hierarchy().clients()) {
    std::vector<std::string> client_stages;
    for (int s = 0; s < workload::ViewHierarchy::kSignupStages; ++s) {
      client_stages.push_back(
          workload::ViewHierarchy::SignupStageEvent(client, s));
    }
    auto funnel = analytics::Funnel::Make(result.dictionary, client_stages);
    if (!funnel.ok()) continue;  // client had no signup events that day
    auto counts = funnel->StageCounts(result.sequences);
    for (size_t i = 0; i < counts.size(); ++i) recovered[i] += counts[i];
  }
  for (int s = 0; s < workload::ViewHierarchy::kSignupStages; ++s) {
    EXPECT_EQ(recovered[s], truth.funnel_stage_sessions[s]) << "stage " << s;
  }
}

TEST_F(PipelineTest, SequencesAreDramaticallySmallerThanRawLogs) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  // Raw warehouse bytes for the day vs sequence partition bytes.
  uint64_t raw_bytes = 0, seq_bytes = 0;
  auto raw_files =
      cluster_->warehouse()->ListRecursive("/logs/client_events");
  ASSERT_TRUE(raw_files.ok());
  for (const auto& f : *raw_files) raw_bytes += f.size;
  auto seq_files = cluster_->warehouse()->ListRecursive(
      sessions::SequenceStore::PartitionDir(kDay));
  ASSERT_TRUE(seq_files.ok());
  for (const auto& f : *seq_files) {
    if (f.path.find("/part-") != std::string::npos) seq_bytes += f.size;
  }
  ASSERT_GT(raw_bytes, 0u);
  ASSERT_GT(seq_bytes, 0u);
  // Both sides compressed; the paper reports ~50x. Small runs compress
  // less well, but an order of magnitude must hold.
  EXPECT_GT(raw_bytes, 10 * seq_bytes);
}

TEST_F(PipelineTest, CostModelShowsGroupByShuffleDominance) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  // The sessionization job shuffles whole events (the §4.1 complaint);
  // the histogram job shuffles only names.
  EXPECT_GT(result.sessionize_job.bytes_shuffled,
            result.histogram_job.bytes_shuffled);
  EXPECT_GT(result.sessionize_job.map_tasks, 0u);
}

TEST_F(PipelineTest, CatalogCoversAllObservedEvents) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  EXPECT_EQ(result.catalog.size(), result.histogram.distinct_events());
  // Every catalog entry has at least one rendered sample.
  auto by_count = result.catalog.ByCount();
  ASSERT_FALSE(by_count.empty());
  EXPECT_FALSE(by_count[0]->samples.empty());
}

TEST_F(PipelineTest, MissingDateFails) {
  RunEndToEnd(SmallWorkload());
  DailyPipeline pipeline(cluster_->warehouse(), dataflow::JobCostModel{});
  UserTable empty;
  EXPECT_TRUE(pipeline.RunForDate(kDay + 30 * kMillisPerDay, empty)
                  .status().IsNotFound());
}

TEST_F(PipelineTest, RollupsMatchHistogramTotals) {
  DailyJobResult result = RunEndToEnd(SmallWorkload());
  // The client-level rollup totals sum to the histogram total.
  uint64_t rollup_total = 0;
  for (const auto& [key, cell] :
       result.rollups.Level(events::RollupLevel::kNoPage)) {
    rollup_total += cell.total;
  }
  EXPECT_EQ(rollup_total, result.histogram.total_events());
}

}  // namespace
}  // namespace unilog::pipeline
