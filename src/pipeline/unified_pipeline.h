#ifndef UNILOG_PIPELINE_UNIFIED_PIPELINE_H_
#define UNILOG_PIPELINE_UNIFIED_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "exec/executor.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "dataflow/cost_model.h"
#include "obs/delivery_audit.h"
#include "obs/metrics.h"
#include "pipeline/daily_pipeline.h"
#include "scribe/cluster.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace unilog::pipeline {

/// Everything configurable about a unified-pipeline run.
struct UnifiedPipelineOptions {
  scribe::ClusterTopology topology;
  scribe::ScribeOptions scribe;
  scribe::LogMoverOptions mover;
  dataflow::JobCostModel cost_model;
  uint64_t seed = 42;
  std::string category = "client_events";
  /// > 1: the pipeline owns a unilog::exec Executor with this many threads
  /// and runs the log mover's CPU stages (per-file decompress, per-part
  /// frame+compress) on it. Staged warehouse bytes are identical at any
  /// value (the mover's ordering guarantee). Ignored when mover.executor
  /// is already set by the caller.
  int ingest_threads = 1;
};

/// The whole paper in one object: the Figure-1 Scribe delivery fleet, the
/// §4.2 daily job graph over the warehouse it fills, a unified metrics
/// registry every component reports into, and the delivery audit that
/// proves no log entry goes missing uncounted. This is the facade benches
/// and integration tests assemble instead of wiring the pieces by hand.
class UnifiedLoggingPipeline {
 public:
  explicit UnifiedLoggingPipeline(Simulator* sim,
                                  UnifiedPipelineOptions options = {});

  UnifiedLoggingPipeline(const UnifiedLoggingPipeline&) = delete;
  UnifiedLoggingPipeline& operator=(const UnifiedLoggingPipeline&) = delete;

  /// Starts the Scribe fleet (aggregators, daemons, log mover).
  Status Start();

  /// Schedules a generated workload as daemon Log calls on the sim clock.
  Status DriveWorkload(workload::WorkloadGenerator* generator);

  /// Runs the daily job graph for `date` and publishes both passes' cost
  /// accounting into the registry (job.*{job=histogram|sessionize}).
  Result<DailyJobResult> RunDailyJob(TimeMs date, const UserTable& users);

  // --- Observability ---
  obs::DeliverySnapshot Audit() const { return audit_.Snapshot(); }
  Status CheckDeliveryAudit() const { return audit_.Check(); }
  std::string MetricsTextReport() const { return metrics_.TextReport(); }

  // --- Component access ---
  scribe::ScribeCluster* cluster() { return &cluster_; }
  const scribe::ScribeCluster* cluster() const { return &cluster_; }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  DailyPipeline* daily() { return &daily_; }
  Simulator* sim() { return sim_; }

 private:
  Simulator* sim_;
  UnifiedPipelineOptions options_;
  obs::MetricsRegistry metrics_;
  // Declared before cluster_: the mover holds a borrowed pointer to it.
  std::unique_ptr<exec::Executor> ingest_exec_;
  scribe::ScribeCluster cluster_;
  obs::DeliveryAudit audit_;
  DailyPipeline daily_;
};

}  // namespace unilog::pipeline

#endif  // UNILOG_PIPELINE_UNIFIED_PIPELINE_H_
