// Turns the samples and tallies of a run into the reported metrics, and
// replays the query layers for the per-layer split.

#include <memory>

#include "dataflow/columnar_scan.h"
#include "dataflow/relation_serde.h"
#include "dataflow/vector_engine.h"
#include "harness.h"

namespace unilog::e2e {
namespace {

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Element i is the smallest element i over every round.
std::vector<double> LowerEnvelope(
    const std::vector<std::vector<double>>& rounds) {
  std::vector<double> out;
  for (const auto& round : rounds) {
    for (size_t i = 0; i < round.size(); ++i) {
      if (i == out.size()) {
        out.push_back(round[i]);
      } else {
        out[i] = std::min(out[i], round[i]);
      }
    }
  }
  return out;
}

}  // namespace

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  // Co-tenants on a shared host only ever slow work down, and they come
  // and go within a round. Each slot's fastest time over the rounds is the
  // steadiest estimate of the program's own cost of that slot; the sum
  // over slots is that of a whole round.
  double round_ns = 0;
  for (double ns : LowerEnvelope(e2e.slot_ns)) round_ns += ns;
  std::vector<double> hours;
  const std::vector<double> parts = LowerEnvelope(e2e.hour_ms);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i % e2e.parts_per_hour == 0) hours.push_back(0);
    hours.back() += parts[i];
  }
  report->E2e("setup_s", Median(e2e.setup_s), "s");
  report->E2e("events_per_s", Ratio(e2e.events, round_ns / 1e9), "1/s");
  report->E2e("hour_ms_p50", Quantile(hours, 0.5), "ms");
  report->E2e("hour_ms_p90", Quantile(hours, 0.9), "ms");
  report->E2e("peak_rss_mib", PeakRssMib(), "MiB");
  report->samples["setup_s"] = e2e.setup_s;
  report->samples["events_per_s"] = e2e.round_eps;
}

void ReportLayers(const Layers& l, Report* r) {
  const double logged = static_cast<double>(l.logged);
  r->Layer("events.serialize_ns_per_event", l.serialize.NsPerUnit(),
           "ns/event");
  r->Layer("events.serialize_allocs_per_event", l.serialize.AllocsPerUnit(),
           "allocs/event");
  r->Layer("events.deserialize_ns_per_event", l.deserialize.NsPerUnit(),
           "ns/event");

  r->Layer("scribe.daemon.log_ns_per_event", Ratio(l.log.ns, logged),
           "ns/event");
  r->Layer("scribe.daemon.flush_ns_per_event", Ratio(l.flush.ns, logged),
           "ns/event");
  r->Layer("scribe.daemon.flush_allocs_per_event",
           Ratio(static_cast<double>(l.flush.allocs), logged), "allocs/event");
  r->Layer("scribe.frame_compress_ns_per_event", l.frame_compress.NsPerUnit(),
           "ns/event");

  r->Layer("broker.produce_ns_per_event", l.produce.NsPerUnit(), "ns/event");
  r->Layer("broker.fetch_ns_per_event", l.fetch.NsPerUnit(), "ns/event");
  r->Layer("broker.wire_bytes_per_event", Ratio(l.wire_bytes, logged),
           "bytes/event");
  r->Layer("broker.replicated_bytes_per_event",
           Ratio(l.replicated_bytes, logged), "bytes/event");
  r->Layer("broker.entries_per_produce",
           Ratio(l.entries_produced, l.produce_calls), "count");
  r->Layer("broker.e2e_latency_sim_ms_p50", l.broker_e2e_sim_ms_p50, "ms");
  r->Layer("broker.e2e_latency_sim_ms_p99", l.broker_e2e_sim_ms_p99, "ms");

  r->Layer("scribe.log_mover.run_ns_per_event", Ratio(l.mover_run.ns, logged),
           "ns/event");
  r->Layer("scribe.log_mover.run_allocs_per_event",
           Ratio(static_cast<double>(l.mover_run.allocs), logged),
           "allocs/event");
  r->Layer("scribe.log_mover.decode_ns_per_event",
           Ratio(l.decode_stage_ms * 1e6, logged), "ns/event");
  r->Layer("scribe.log_mover.unstage_ns_per_event",
           Ratio(l.unstage_stage_ms * 1e6, logged), "ns/event");
  r->Layer("scribe.log_mover.build_parts_ns_per_event",
           Ratio(l.build_parts_stage_ms * 1e6, logged), "ns/event");
  r->Layer("scribe.log_mover.hour_slide_sim_ms_p50", l.hour_slide_sim_ms_p50,
           "ms");

  r->Layer("columnar.encode_ns_per_row", l.encode.NsPerUnit(), "ns/row");
  r->Layer("columnar.decode_ns_per_row", l.decode.NsPerUnit(), "ns/row");
  r->Layer("warehouse.bytes_per_event",
           Ratio(static_cast<double>(l.warehouse_bytes),
                 static_cast<double>(l.warehouse_events)),
           "bytes/event");
  r->Layer("warehouse.parts", static_cast<double>(l.warehouse_parts), "count");

  r->Layer("dataflow.stats_ns_per_part", l.stats.NsPerUnit(), "ns/part");
  r->Layer("dataflow.scan_ns_per_row", l.scan.NsPerUnit(), "ns/row");
  r->Layer("dataflow.kernel_ns_per_row", l.kernel.NsPerUnit(), "ns/row");
  r->Layer("dataflow.stage_ns_per_row", l.stage.NsPerUnit(), "ns/row");
  r->Layer("dataflow.rows_returned_per_cold_tick",
           Ratio(static_cast<double>(l.cold_rows),
                 static_cast<double>(l.cold_ticks)),
           "count");
  r->Layer("dataflow.scan_bytes_per_cold_tick",
           Ratio(static_cast<double>(l.cold_scan_bytes),
                 static_cast<double>(l.cold_ticks)),
           "bytes");

  r->Layer("oink.cache_hit_ratio_warm",
           Ratio(static_cast<double>(l.warm_hits),
                 static_cast<double>(l.warm_workflows)),
           "ratio");
  r->Layer("oink.cache_hit_ratio_late",
           Ratio(static_cast<double>(l.late_hits),
                 static_cast<double>(l.late_workflows)),
           "ratio");
  r->Layer("oink.warm_tick_allocs",
           Ratio(static_cast<double>(l.warm_allocs),
                 static_cast<double>(l.warm_ticks)),
           "allocs/tick");
  r->Layer("oink.warm_tick_ms_p50", Median(l.warm_tick_ms), "ms");
  r->Layer("oink.late_pass_ms", Median(l.late_pass_ms), "ms");
  r->Layer("oink.result_serde_ns_per_row", l.serde.NsPerUnit(), "ns/row");

  r->Layer("sim.events_per_logged_event",
           Ratio(static_cast<double>(l.sim_events), logged), "count");
  const double timed = l.log.ns + l.flush.ns + l.mover_run.ns + l.tick.ns;
  r->Layer("sim.remainder_ns_per_event",
           Ratio(l.traced_run_ns > timed ? l.traced_run_ns - timed : 0, logged),
           "ns/event");
  // Fastest against fastest, as for the end-to-end timings.
  const double untraced = Quantile(l.untraced_eps, 1);
  r->Layer("trace.overhead_pct",
           Ratio((untraced - Quantile(l.traced_eps, 1)) * 100, untraced), "%");
}

void ReplayHour(hdfs::MiniHdfs* fs, const std::string& dir,
                const oink::WorkflowEngine& engine, exec::Executor* exec,
                Layers* layers, Report* report) {
  auto fail = [&](const std::string& what) {
    report->Check(false, "query replay " + dir + ": " + what);
  };
  std::shared_ptr<dataflow::ColumnarEventScan> base;
  Status st;
  Result<std::vector<hdfs::FileStatus>> listing = fs->ListRecursive(dir);
  if (!listing.ok()) return fail(listing.status().ToString());
  uint64_t parts = 0;
  for (const auto& f : *listing) {
    if (!dataflow::IsHiddenWarehousePath(dir, f.path)) ++parts;
  }
  Measure(&layers->stats, parts, [&] {
    auto opened = dataflow::ColumnarEventScan::Open(fs, dir);
    if (!opened.ok()) {
      st = opened.status();
      return;
    }
    base = std::move(*opened);
    st = base->Stats().status();
  });
  if (!st.ok()) return fail(st.ToString());

  for (const oink::WorkflowSpec& spec : Workflows("")) {
    auto scan =
        std::static_pointer_cast<dataflow::ColumnarEventScan>(base->Clone());
    std::vector<dataflow::FilterExpr> residual;
    for (const auto& clause : spec.filters) {
      if (!scan->PushFilter(clause.column, clause.op, clause.literal)) {
        residual.push_back({clause.column, clause.op, clause.literal});
      }
    }
    // The engine projects in the scan only when no residual filter still
    // needs the unprojected columns.
    const bool late_project = !residual.empty() && !spec.project_cols.empty();
    if (residual.empty() && !spec.project_cols.empty()) {
      scan->PushProject(spec.project_cols, spec.project_names);
    }

    Result<dataflow::BatchRelation> batches = Status::Internal("not run");
    const double scan_ns = Measure(nullptr, 0, [&] {
      batches = scan->MaterializeBatches(exec);
    });
    if (!batches.ok()) return fail(batches.status().ToString());
    layers->scan.ns += scan_ns;
    layers->scan.units += scan->last_stats().rows_scanned;

    Result<dataflow::Relation> rel = Status::Internal("not run");
    Measure(&layers->kernel, batches->TotalRows(), [&] {
      if (!residual.empty()) batches = batches->Filter(residual, exec);
      if (batches.ok() && late_project) {
        batches =
            batches->ProjectAs(spec.project_cols, spec.project_names, exec);
      }
      if (batches.ok()) {
        rel = batches->ToRelation();
      } else {
        rel = batches.status();
      }
    });
    if (!rel.ok()) return fail(rel.status().ToString());
    if (spec.stage) {
      Measure(&layers->stage, rel->size(), [&] { rel = spec.stage(*rel); });
      if (!rel.ok()) return fail(rel.status().ToString());
    }

    Result<dataflow::Relation> answer = engine.ResultFor(spec.name);
    if (!answer.ok()) return fail(answer.status().ToString());
    std::string bytes;
    Measure(&layers->serde, answer->size(), [&] {
      bytes = dataflow::SerializeRelation(*answer);
      st = dataflow::DeserializeRelation(bytes).status();
    });
    if (!st.ok()) return fail(st.ToString());
    if (dataflow::SerializeRelation(*rel) != bytes) {
      fail(spec.name + " differs from the engine's answer");
    }
  }
}

}  // namespace unilog::e2e
