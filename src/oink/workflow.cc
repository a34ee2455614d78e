#include "oink/workflow.h"

#include <algorithm>
#include <utility>

#include "columnar/rcfile.h"
#include "dataflow/plan_fingerprint.h"
#include "dataflow/relation_serde.h"

namespace unilog::oink {

namespace {

bool IsResidualOp(const std::string& op) {
  return op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

}  // namespace

WorkflowEngine::WorkflowEngine(hdfs::MiniHdfs* fs, OinkOptions options,
                               obs::MetricsRegistry* metrics,
                               exec::Executor* exec)
    : fs_(fs),
      options_(std::move(options)),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
      exec_(exec),
      cache_(fs,
             ArtifactCacheOptions{options_.cache_root,
                                  options_.cache_byte_budget},
             metrics_) {
  workflows_run_ = metrics_->GetCounter("oink.workflows_run");
  bytes_saved_ = metrics_->GetCounter("oink.bytes_saved");
  shared_scans_ = metrics_->GetCounter("oink.shared_scans");
  shared_scan_fanout_ = metrics_->GetCounter("oink.shared_scan_fanout");
  scan_bytes_ = metrics_->GetCounter("oink.scan_bytes_decompressed");
}

Status WorkflowEngine::AddWorkflow(WorkflowSpec spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("oink workflow: name required");
  }
  if (by_name_.count(spec.name) != 0) {
    return Status::AlreadyExists("oink workflow: duplicate name " + spec.name);
  }
  if (!spec.input_dir) {
    return Status::InvalidArgument("oink workflow " + spec.name +
                                   ": input_dir required");
  }
  if (spec.project_cols.size() != spec.project_names.size()) {
    return Status::InvalidArgument("oink workflow " + spec.name +
                                   ": projection arity mismatch");
  }
  if (spec.stage && spec.stage_id.empty()) {
    return Status::InvalidArgument(
        "oink workflow " + spec.name +
        ": stage requires a stage_id (its cache-key identity)");
  }

  // Dry-run the plan against a plan-only scan. This both validates it and
  // yields the exact spec/visible state the canonical serialization (and
  // later the real scan build) will have.
  auto scan = dataflow::ColumnarEventScan::PlanOnly();
  Planned planned;
  planned.spec = std::move(spec);
  const WorkflowSpec& wf = planned.spec;
  for (const auto& clause : wf.filters) {
    if (scan->PushFilter(clause.column, clause.op, clause.literal)) continue;
    // Residual clause: must be evaluable row-wise on the scan output.
    bool known = std::find(scan->columns().begin(), scan->columns().end(),
                           clause.column) != scan->columns().end();
    if (!known) {
      return Status::InvalidArgument("oink workflow " + wf.name +
                                     ": unknown filter column " +
                                     clause.column);
    }
    if (!IsResidualOp(clause.op)) {
      return Status::InvalidArgument("oink workflow " + wf.name +
                                     ": unsupported filter op " + clause.op +
                                     " on column " + clause.column);
    }
    planned.residuals.push_back(clause);
  }
  // Residual clauses are conjunctive, so their order never affects
  // results; sort them canonically so two workflows differing only in
  // filter registration order share one canonical plan (and one cache
  // key). The tick filters in this order.
  std::stable_sort(planned.residuals.begin(), planned.residuals.end(),
                   [](const FilterClause& a, const FilterClause& b) {
                     return dataflow::CanonicalFilterClause(a) <
                            dataflow::CanonicalFilterClause(b);
                   });
  if (!wf.project_cols.empty()) {
    for (const auto& col : wf.project_cols) {
      bool known = std::find(scan->columns().begin(), scan->columns().end(),
                             col) != scan->columns().end();
      if (!known) {
        return Status::InvalidArgument("oink workflow " + wf.name +
                                       ": unknown projected column " + col);
      }
    }
    // Residual clauses read scan-output columns, so the scan stays
    // unprojected when any exist and the projection runs afterwards.
    if (planned.residuals.empty()) {
      if (!scan->PushProject(wf.project_cols, wf.project_names)) {
        return Status::InvalidArgument("oink workflow " + wf.name +
                                       ": projection not pushable");
      }
      planned.projection_pushed = true;
    }
  }

  std::string plan = "spec=" + dataflow::CanonicalScanSpec(scan->spec());
  plan += "\nvisible=";
  for (const auto& [name, source] : scan->visible()) {
    plan += name + ":" + std::to_string(static_cast<int>(source)) + ",";
  }
  plan += "\nresiduals=";
  if (planned.residuals.empty()) {
    plan += "-";
  } else {
    for (const auto& clause : planned.residuals) {
      plan += dataflow::CanonicalFilterClause(clause) + ";";
    }
  }
  plan += "\nlate_project=";
  if (planned.projection_pushed || wf.project_cols.empty()) {
    plan += "-";
  } else {
    for (size_t i = 0; i < wf.project_cols.size(); ++i) {
      plan += wf.project_cols[i] + "->" + wf.project_names[i] + ",";
    }
  }
  plan += "\nstage=" + (wf.stage ? wf.stage_id : std::string("-"));
  planned.canonical_plan = std::move(plan);

  by_name_[wf.name] = workflows_.size();
  workflows_.push_back(std::move(planned));
  return Status::OK();
}

std::shared_ptr<dataflow::ColumnarEventScan> WorkflowEngine::BuildScan(
    const std::shared_ptr<dataflow::ColumnarEventScan>& base,
    const Planned& plan) const {
  std::shared_ptr<dataflow::ColumnarEventScan> scan = base->Clone();
  for (const auto& clause : plan.spec.filters) {
    // Pushability depends only on the clause, so the outcome here matches
    // the AddWorkflow dry run; rejected clauses are plan.residuals.
    scan->PushFilter(clause.column, clause.op, clause.literal);
  }
  if (plan.projection_pushed) {
    scan->PushProject(plan.spec.project_cols, plan.spec.project_names);
  }
  return scan;
}

Result<dataflow::Relation> WorkflowEngine::FinishPlanBatch(
    const Planned& plan, dataflow::BatchRelation batch) const {
  if (!plan.residuals.empty()) {
    UNILOG_ASSIGN_OR_RETURN(batch, batch.Filter(plan.residuals, exec_));
  }
  if (!plan.projection_pushed && !plan.spec.project_cols.empty()) {
    UNILOG_ASSIGN_OR_RETURN(
        batch, batch.ProjectAs(plan.spec.project_cols, plan.spec.project_names,
                               exec_));
  }
  UNILOG_ASSIGN_OR_RETURN(dataflow::Relation rel, batch.ToRelation());
  if (plan.spec.stage) {
    UNILOG_ASSIGN_OR_RETURN(rel, plan.spec.stage(rel));
  }
  return rel;
}

Result<std::string> WorkflowEngine::DirManifest(const std::string& dir) {
  UNILOG_ASSIGN_OR_RETURN(auto listing, fs_->ListRecursive(dir));
  std::string out = "manifest-v1\n";
  for (const auto& entry : listing) {
    if (dataflow::IsHiddenWarehousePath(dir, entry.path)) continue;
    auto memo = manifest_tokens_.find(entry.path);
    if (memo == manifest_tokens_.end() ||
        memo->second.generation != entry.generation) {
      UNILOG_ASSIGN_OR_RETURN(std::string body, fs_->ReadFile(entry.path));
      std::string token;
      if (columnar::IsRcFile(body)) {
        // A fingerprint failure is corruption the scan would also hit.
        columnar::RcFileReader reader(body);
        UNILOG_ASSIGN_OR_RETURN(uint64_t fp, reader.ContentFingerprint());
        token = "rcfp:" + dataflow::HexU64(fp);
      } else {
        // Framed parts carry no checksums: hash their bytes.
        token = "fnv:" + dataflow::HexU64(dataflow::Fingerprint::OfBytes(body));
      }
      memo = manifest_tokens_
                 .insert_or_assign(entry.path,
                                   ManifestToken{entry.generation,
                                                 std::move(token)})
                 .first;
    }
    out += entry.path;
    out += ' ';
    out += memo->second.token;
    out += '\n';
  }
  return out;
}

Status WorkflowEngine::RunTick(int64_t period_index) {
  last_tick_ = TickStats{};

  std::map<std::string, std::vector<size_t>> by_dir;
  for (size_t i = 0; i < workflows_.size(); ++i) {
    by_dir[workflows_[i].spec.input_dir(period_index)].push_back(i);
  }

  for (const auto& [dir, idxs] : by_dir) {
    UNILOG_ASSIGN_OR_RETURN(std::string manifest, DirManifest(dir));

    // Identical (plan, inputs) fingerprints collapse to one computation;
    // sorted by key, so tick order is deterministic.
    std::map<std::string, std::vector<size_t>> by_key;
    for (size_t i : idxs) {
      dataflow::Fingerprint fp;
      fp.Mix("oink-plan-v1\n");
      fp.Mix(workflows_[i].canonical_plan);
      fp.Mix("\n#inputs\n");
      fp.Mix(manifest);
      by_key[fp.Hex()].push_back(i);
    }

    struct Pending {
      std::string key;
      std::vector<size_t> members;
    };
    std::vector<Pending> pending;

    for (const auto& [key, members] : by_key) {
      last_tick_.workflows += members.size();
      workflows_run_->Increment(members.size());
      Result<CacheHit> got = cache_.Get(key, manifest);
      if (got.ok()) {
        last_tick_.cache_hits++;
        last_tick_.bytes_saved += got->cold_cost_bytes;
        bytes_saved_->Increment(got->cold_cost_bytes);
        for (size_t m : members) {
          results_[workflows_[m].spec.name] = got->payload;
        }
        continue;
      }
      if (!got.status().IsNotFound()) return got.status();
      last_tick_.cache_misses++;
      pending.push_back({key, members});
    }
    if (pending.empty()) continue;

    UNILOG_ASSIGN_OR_RETURN(
        auto base, dataflow::ColumnarEventScan::Open(fs_, dir, metrics_));

    std::vector<std::shared_ptr<dataflow::ColumnarEventScan>> scans;
    scans.reserve(pending.size());
    for (const Pending& p : pending) {
      scans.push_back(BuildScan(base, workflows_[p.members[0]]));
    }

    columnar::ScanStats scan_stats;
    UNILOG_ASSIGN_OR_RETURN(
        std::vector<dataflow::BatchRelation> scanned,
        dataflow::ColumnarEventScan::MaterializeSharedBatches(scans, exec_,
                                                              &scan_stats));
    // The scan's bytes are shared work: split them evenly across the
    // plans, the first `total % n` taking one extra byte each, so warm
    // bytes_saved over all of them sums to exactly the total.
    const uint64_t total = scan_stats.bytes_decompressed;
    std::vector<uint64_t> costs(scans.size());
    for (size_t i = 0; i < costs.size(); ++i) {
      costs[i] = total / costs.size() + (i < total % costs.size() ? 1 : 0);
    }
    if (scans.size() >= 2) {
      last_tick_.shared_scan_groups++;
      last_tick_.shared_scan_fanout += scans.size();
      shared_scans_->Increment();
      shared_scan_fanout_->Increment(scans.size());
    }
    last_tick_.scan_bytes_decompressed += scan_stats.bytes_decompressed;
    scan_bytes_->Increment(scan_stats.bytes_decompressed);

    for (size_t pi = 0; pi < pending.size(); ++pi) {
      const Pending& p = pending[pi];
      UNILOG_ASSIGN_OR_RETURN(
          dataflow::Relation rel,
          FinishPlanBatch(workflows_[p.members[0]], std::move(scanned[pi])));
      for (size_t m : p.members) {
        results_[workflows_[m].spec.name] = rel;
      }
      CacheArtifact artifact;
      artifact.manifest = manifest;
      artifact.cold_cost_bytes = costs[pi];
      artifact.payload = dataflow::SerializeRelation(rel);
      UNILOG_RETURN_NOT_OK(cache_.Put(p.key, std::move(artifact)));
    }
  }
  return Status::OK();
}

Result<dataflow::Relation> WorkflowEngine::ResultFor(
    const std::string& name) const {
  auto it = results_.find(name);
  if (it == results_.end()) {
    return Status::NotFound("oink workflow: no result yet for " + name);
  }
  if (const auto* rel = std::get_if<dataflow::Relation>(&it->second)) {
    return *rel;
  }
  return dataflow::DeserializeRelation(
      *std::get<std::shared_ptr<const std::string>>(it->second));
}

Result<std::string> WorkflowEngine::CanonicalPlanFor(
    const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("oink workflow: unknown workflow " + name);
  }
  return workflows_[it->second].canonical_plan;
}

Status RegisterEngineJob(Oink* oink, WorkflowEngine* engine, JobSpec spec) {
  if (spec.period <= 0) {
    return Status::InvalidArgument("oink engine job: period must be positive");
  }
  const TimeMs period = spec.period;
  spec.run = [engine, period](TimeMs period_start) {
    return engine->RunTick(static_cast<int64_t>(period_start / period));
  };
  return oink->RegisterJob(std::move(spec));
}

}  // namespace unilog::oink
