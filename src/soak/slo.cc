#include "soak/slo.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace unilog::soak {

std::string SloViolation::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "SLO VIOLATION %s: observed %.1f, bound %.1f",
                name.c_str(), observed, bound);
  std::string s = buf;
  if (!detail.empty()) s += " (" + detail + ")";
  return s;
}

std::string SloReport::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "p99_broker_e2e_ms=%.0f p99_hour_slide_ms=%.0f "
                "oink_warm_hit_rate=%.3f peak_agg_buffered=%llu "
                "peak_daemon_queue=%llu quiescent=%s",
                p99_broker_e2e_ms, p99_hour_slide_ms, oink_warm_hit_rate,
                static_cast<unsigned long long>(peak_agg_buffered_entries),
                static_cast<unsigned long long>(peak_daemon_queue_entries),
                audit_quiescent ? "yes" : "NO");
  std::string s = buf;
  for (const auto& v : violations) {
    s += "\n  ";
    s += v.ToString();
  }
  return s;
}

Json SloReport::ToJson() const {
  Json observed = Json::Object();
  observed.Set("p99_broker_e2e_ms", Json::Number(p99_broker_e2e_ms));
  observed.Set("p99_hour_slide_ms", Json::Number(p99_hour_slide_ms));
  observed.Set("oink_warm_hit_rate", Json::Number(oink_warm_hit_rate));
  observed.Set("peak_agg_buffered_entries",
               Json::Int(static_cast<int64_t>(peak_agg_buffered_entries)));
  observed.Set("peak_daemon_queue_entries",
               Json::Int(static_cast<int64_t>(peak_daemon_queue_entries)));
  observed.Set("audit_quiescent", Json::Bool(audit_quiescent));

  Json viols = Json::Array();
  for (const auto& v : violations) {
    Json j = Json::Object();
    j.Set("name", Json::Str(v.name));
    j.Set("observed", Json::Number(v.observed));
    j.Set("bound", Json::Number(v.bound));
    if (!v.detail.empty()) j.Set("detail", Json::Str(v.detail));
    viols.Push(std::move(j));
  }

  Json report = Json::Object();
  report.Set("ok", Json::Bool(ok()));
  report.Set("observed", std::move(observed));
  report.Set("violations", std::move(viols));
  return report;
}

SloChecker::SloChecker(SloThresholds thresholds,
                       scribe::ScribeCluster* cluster)
    : thresholds_(thresholds), cluster_(cluster), audit_(cluster) {}

void SloChecker::Sample() {
  ++samples_;
  const obs::MetricsRegistry* metrics = cluster_->metrics();
  peak_agg_buffered_ = std::max(
      peak_agg_buffered_, metrics->GaugeTotal("agg.buffered_entries"));
  peak_daemon_queue_ = std::max(
      peak_daemon_queue_, metrics->GaugeTotal("daemon.queue_entries"));
  // A mid-run identity imbalance is a leak the moment it appears; record
  // the first simulated timestamp so the report points at the window the
  // bug opened, not at the end of the soak.
  if (midrun_imbalances_ == 0) {
    obs::DeliverySnapshot snap = audit_.Snapshot();
    if (!snap.Balanced()) {
      ++midrun_imbalances_;
      first_imbalance_ = TimestampString(snap.at) + ": " + snap.ToString();
    }
  }
}

SloReport SloChecker::Finalize(double oink_warm_hit_rate) {
  SloReport report;
  obs::MetricsRegistry* metrics = cluster_->metrics();

  auto violate = [&report](std::string name, double observed, double bound,
                           std::string detail = "") {
    report.violations.push_back(
        {std::move(name), observed, bound, std::move(detail)});
  };

  // --- Quiescence: the audit identity must hold with zero in flight.
  Status quiescent = audit_.AssertQuiescent();
  report.audit_quiescent = quiescent.ok();
  if (!quiescent.ok()) {
    report.audit_detail = quiescent.message();
    violate("audit_quiescent", 0, 0, quiescent.message());
  }
  if (midrun_imbalances_ > 0) {
    violate("audit_midrun_balance", static_cast<double>(midrun_imbalances_), 0,
            first_imbalance_);
  }

  // --- Tail latency. An empty histogram (e.g. no brokered DC) passes.
  const obs::Histogram* e2e =
      metrics->GetHistogram("broker.e2e_latency_ms");
  if (e2e->count() > 0) {
    report.p99_broker_e2e_ms = obs::HistogramQuantile(*e2e, 0.99);
    if (report.p99_broker_e2e_ms > thresholds_.p99_broker_e2e_ms) {
      violate("p99_broker_e2e_ms", report.p99_broker_e2e_ms,
              thresholds_.p99_broker_e2e_ms);
    }
  }
  const obs::Histogram* slide =
      metrics->GetHistogram("mover.hour_slide_latency_ms");
  if (slide->count() > 0) {
    report.p99_hour_slide_ms = obs::HistogramQuantile(*slide, 0.99);
    if (report.p99_hour_slide_ms > thresholds_.p99_hour_slide_ms) {
      violate("p99_hour_slide_ms", report.p99_hour_slide_ms,
              thresholds_.p99_hour_slide_ms);
    }
  }

  // --- Oink cache floor (only when the harness ran the cold+warm pass).
  report.oink_warm_hit_rate = oink_warm_hit_rate;
  if (oink_warm_hit_rate >= 0 &&
      oink_warm_hit_rate < thresholds_.min_oink_warm_hit_rate) {
    violate("oink_warm_hit_rate", oink_warm_hit_rate,
            thresholds_.min_oink_warm_hit_rate);
  }

  // --- Memory ceilings.
  report.peak_agg_buffered_entries =
      static_cast<uint64_t>(std::max<int64_t>(0, peak_agg_buffered_));
  if (report.peak_agg_buffered_entries >
      thresholds_.max_agg_buffered_entries) {
    violate("peak_agg_buffered_entries",
            static_cast<double>(report.peak_agg_buffered_entries),
            static_cast<double>(thresholds_.max_agg_buffered_entries));
  }
  report.peak_daemon_queue_entries =
      static_cast<uint64_t>(std::max<int64_t>(0, peak_daemon_queue_));
  if (report.peak_daemon_queue_entries >
      thresholds_.max_daemon_queue_entries) {
    violate("peak_daemon_queue_entries",
            static_cast<double>(report.peak_daemon_queue_entries),
            static_cast<double>(thresholds_.max_daemon_queue_entries));
  }
  return report;
}

}  // namespace unilog::soak
