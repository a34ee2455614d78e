#ifndef UNILOG_SOAK_SLO_H_
#define UNILOG_SOAK_SLO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/sim_time.h"
#include "obs/delivery_audit.h"
#include "scribe/cluster.h"

namespace unilog::soak {

/// The service-level objectives a soak run is judged against. Every bound
/// is generous relative to healthy steady state — they exist to catch
/// regressions (a leak, a stall, an unaccounted loss channel), not to
/// tune performance.
struct SloThresholds {
  /// p99 of broker.e2e_latency_ms: Log() to warehouse ingest for records
  /// on the broker path. Dominated by the hourly slide cadence, so the
  /// bound is hours-scale, not seconds-scale.
  double p99_broker_e2e_ms = 2.5 * kMillisPerHour;
  /// p99 of mover.hour_slide_latency_ms: hour close to warehouse slide.
  /// Healthy runs sit under ten minutes; chaos (brownouts, barrier
  /// stalls, clock skew) may push the tail but must stay bounded.
  double p99_hour_slide_ms = 3.0 * kMillisPerHour;
  /// Floor on the Oink warm-pass cache hit rate (hits / (hits+misses))
  /// when the harness runs its post-drain cold+warm workflow passes.
  double min_oink_warm_hit_rate = 0.9;
  /// Ceiling on the peak of agg.buffered_entries summed across the fleet,
  /// sampled periodically — catches an aggregator that buffers without
  /// bound instead of rolling or dropping.
  uint64_t max_agg_buffered_entries = 2'000'000;
  /// Ceiling on the peak of daemon.queue_entries summed across the fleet.
  uint64_t max_daemon_queue_entries = 2'000'000;
};

/// One violated objective.
struct SloViolation {
  std::string name;
  double observed = 0;
  double bound = 0;
  std::string detail;

  std::string ToString() const;
};

/// The outcome of a checked soak: what was observed, what was violated.
struct SloReport {
  std::vector<SloViolation> violations;
  // Observations (also under "observed" in the JSON form):
  double p99_broker_e2e_ms = 0;
  double p99_hour_slide_ms = 0;
  double oink_warm_hit_rate = -1;  // -1 = oink pass not run
  uint64_t peak_agg_buffered_entries = 0;
  uint64_t peak_daemon_queue_entries = 0;
  bool audit_quiescent = false;
  std::string audit_detail;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
  Json ToJson() const;
};

/// Watches a running cluster and renders the final verdict. Sample() is
/// cheap and meant for a periodic simulator timer: it tracks the peak of
/// the gauge-backed ceilings and fails fast on a mid-run delivery-audit
/// imbalance (an identity leak must name the simulated time it first
/// appeared, not surface hours later at quiescence). Finalize() applies
/// every threshold and the quiescence contract.
class SloChecker {
 public:
  SloChecker(SloThresholds thresholds, scribe::ScribeCluster* cluster);

  void Sample();

  /// `oink_warm_hit_rate` < 0 skips the cache-floor check (pass not run).
  SloReport Finalize(double oink_warm_hit_rate);

 private:
  SloThresholds thresholds_;
  scribe::ScribeCluster* cluster_;
  obs::DeliveryAudit audit_;
  int64_t peak_agg_buffered_ = 0;
  int64_t peak_daemon_queue_ = 0;
  uint64_t samples_ = 0;
  uint64_t midrun_imbalances_ = 0;
  std::string first_imbalance_;
};

}  // namespace unilog::soak

#endif  // UNILOG_SOAK_SLO_H_
