#ifndef UNILOG_OINK_WORKFLOW_H_
#define UNILOG_OINK_WORKFLOW_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/relation.h"
#include "dataflow/vector_engine.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "oink/artifact_cache.h"
#include "oink/oink.h"

namespace unilog::oink {

/// One FILTER clause of a workflow plan: `column op literal`, with op one
/// of == != < <= > >= matches. Clauses the columnar scan can absorb
/// (timestamp ranges, event-name / user-id equality, event-name globs)
/// are pushed into the ScanSpec; the rest go to the batch Filter kernel
/// after the scan, which is why a clause is a dataflow::FilterExpr.
using FilterClause = dataflow::FilterExpr;

/// A recurring analytics workflow over one warehouse directory per period:
/// scan -> filters -> optional projection -> optional relational stage.
/// The declarative prefix (everything but `stage`) is what the engine
/// canonicalizes into the plan fingerprint; `stage` is opaque code, so it
/// must be paired with a `stage_id` that callers bump whenever its logic
/// changes — the moral equivalent of a UDF version in the cache key.
struct WorkflowSpec {
  std::string name;
  /// The input directory for a given period index (e.g. hour 17 of the
  /// simulated epoch -> "/warehouse/web_events/2010/06/01/17").
  std::function<std::string(int64_t period_index)> input_dir;
  std::vector<FilterClause> filters;
  /// Optional projection: keep `project_cols` renamed to `project_names`
  /// (empty = keep all scan columns). Sizes must match.
  std::vector<std::string> project_cols;
  std::vector<std::string> project_names;
  /// Optional deterministic relational tail (group-bys, joins against
  /// static relations, ...). Must be a pure function of its input.
  std::function<Result<dataflow::Relation>(const dataflow::Relation&)> stage;
  /// Cache-key identity of `stage`; required when `stage` is set.
  std::string stage_id;
};

/// Tuning knobs for the memoizing engine.
struct OinkOptions {
  uint64_t cache_byte_budget = 64ull * 1024 * 1024;
  std::string cache_root = "/warehouse/_cache";
};

/// Per-tick accounting (also mirrored into oink.* metrics).
struct TickStats {
  uint64_t workflows = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Bytes the tick actually decompressed scanning warehouse files — the
  /// "work done" measure cold/warm benchmarks compare.
  uint64_t scan_bytes_decompressed = 0;
  /// Union scans (two or more plans) executed / total plans they fanned
  /// out to.
  uint64_t shared_scan_groups = 0;
  uint64_t shared_scan_fanout = 0;
  /// Sum of the cold costs of the artifacts that hit.
  uint64_t bytes_saved = 0;
};

/// The memoizing, shared-scan Oink execution layer (§3's "Oink manages
/// hundreds of periodic jobs, many scanning the same hourly data"). Each
/// tick it (1) fingerprints every workflow's plan together with a manifest
/// of the input bytes, (2) serves byte-identical cached results for
/// fingerprints seen before, (3) batches the remaining workflows that read
/// the same directory into one ColumnarEventScan run fanned out per workflow,
/// and (4) caches the new results, content-addressed, in sim-HDFS under
/// the warehouse so later runs (or a restarted engine) reuse them.
class WorkflowEngine {
 public:
  /// `fs` is the warehouse file system. Metrics land in `metrics` (a
  /// private registry when null); scans/filters parallelize on `exec`
  /// (serial when null) with byte-identical output either way.
  explicit WorkflowEngine(hdfs::MiniHdfs* fs, OinkOptions options = {},
                          obs::MetricsRegistry* metrics = nullptr,
                          exec::Executor* exec = nullptr);

  WorkflowEngine(const WorkflowEngine&) = delete;
  WorkflowEngine& operator=(const WorkflowEngine&) = delete;

  /// Registers a workflow; validates the plan (column names, op/projection
  /// arity, stage_id presence) against the scan schema and precomputes its
  /// canonical plan serialization. Fails on duplicate names.
  Status AddWorkflow(WorkflowSpec spec);

  /// Runs every workflow for one period. Deterministic: the same
  /// registered workflows over the same warehouse bytes produce the same
  /// results, metrics deltas aside, whether served cold, from cache, or
  /// through a shared scan, at any executor thread count.
  Status RunTick(int64_t period_index);

  /// Latest computed relation for a workflow (NotFound before its first
  /// successful tick). A result served from the cache is kept as its
  /// verified REL1 bytes and deserialized here, on each call.
  Result<dataflow::Relation> ResultFor(const std::string& name) const;

  /// The canonical plan serialization (stable across runs; the plan half
  /// of every cache key).
  Result<std::string> CanonicalPlanFor(const std::string& name) const;

  const TickStats& last_tick() const { return last_tick_; }
  ArtifactCache* cache() { return &cache_; }
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// Canonical manifest of the file bytes a scan of `dir` would read:
  /// sorted paths, each with a content token — `rcfp:` and the RCFile
  /// part's fingerprint over its embedded per-group checksums (no column
  /// decoded), or `fnv:` and an FNV-64 of any other file's bytes. Hidden
  /// paths (any '_'-prefixed component below `dir`, e.g. a nested _cache
  /// subtree) are skipped, matching the scan's own listing rule — cached
  /// artifacts never fingerprint themselves into the inputs they memoize.
  ///
  /// Tokens are memoized by (path, write generation): MiniHdfs gives every
  /// create, append, rename and CorruptFile a generation never used
  /// before, so a token is computed once per write and a manifest of
  /// unchanged files reads only the listing, no file body.
  Result<std::string> DirManifest(const std::string& dir);

 private:
  struct Planned {
    WorkflowSpec spec;
    std::string canonical_plan;
    std::vector<FilterClause> residuals;
    bool projection_pushed = false;
  };

  /// Clones `base` and pushes spec/filters/projection per `wf`, mirroring
  /// exactly what plan canonicalization did against the plan-only scan.
  std::shared_ptr<dataflow::ColumnarEventScan> BuildScan(
      const std::shared_ptr<dataflow::ColumnarEventScan>& base,
      const Planned& plan) const;

  /// The miss path's tail: the plan's residuals, in canonical order, run
  /// through the batch Filter kernel, then late projection via ProjectAs
  /// before the boxed stage.
  Result<dataflow::Relation> FinishPlanBatch(
      const Planned& plan, dataflow::BatchRelation batch) const;

  hdfs::MiniHdfs* fs_;
  OinkOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  exec::Executor* exec_;
  ArtifactCache cache_;

  std::vector<Planned> workflows_;
  std::map<std::string, size_t> by_name_;
  /// A file's manifest token and the write generation it was computed at.
  struct ManifestToken {
    uint64_t generation = 0;
    std::string token;
  };
  std::map<std::string, ManifestToken> manifest_tokens_;  // by path
  /// Latest result per workflow: the verified payload of a cache hit, or
  /// the relation a miss computed.
  using StoredResult =
      std::variant<std::shared_ptr<const std::string>, dataflow::Relation>;
  std::map<std::string, StoredResult> results_;
  TickStats last_tick_;

  obs::Counter* workflows_run_;
  obs::Counter* bytes_saved_;
  obs::Counter* shared_scans_;
  obs::Counter* shared_scan_fanout_;
  obs::Counter* scan_bytes_;
};

/// Hooks a WorkflowEngine into the classic Oink scheduler: registers
/// `spec` (its `run` is replaced) so each period runs one engine tick with
/// period_index = period_start / spec.period. Dependencies, retries and
/// execution traces keep working exactly as for hand-written jobs.
Status RegisterEngineJob(Oink* oink, WorkflowEngine* engine, JobSpec spec);

}  // namespace unilog::oink

#endif  // UNILOG_OINK_WORKFLOW_H_
