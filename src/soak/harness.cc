#include "soak/harness.h"

#include <algorithm>
#include <cstdio>

#include "columnar/scrubber.h"
#include "common/rng.h"
#include "events/client_event.h"
#include "oink/workflow.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace unilog::soak {

namespace {

// Mutable state the chaos corrupt-part events share; lives in Run()'s
// frame for the whole simulation.
struct CorruptState {
  Rng rng;
  uint64_t corruptions = 0;
  explicit CorruptState(uint64_t seed) : rng(seed) {}
};

// Flips one byte of a randomly chosen landed warehouse part, sparing the
// 4-byte magic so the damage is a checksum failure (what the scrubber and
// the quarantine path exist for), not a file that silently changes type.
// Retries later when no part has landed yet.
void TryCorruptPart(Simulator* sim, hdfs::MiniHdfs* warehouse,
                    CorruptState* state, int retries_left) {
  auto files = warehouse->ListRecursive("/logs");
  std::vector<hdfs::FileStatus> candidates;
  if (files.ok()) {
    for (const auto& f : *files) {
      if (!hdfs::IsHiddenWarehousePath("/logs", f.path) && f.size > 8) {
        candidates.push_back(f);
      }
    }
  }
  if (candidates.empty()) {
    if (retries_left > 0) {
      sim->After(10 * kMillisPerMinute, [sim, warehouse, state, retries_left] {
        TryCorruptPart(sim, warehouse, state, retries_left - 1);
      });
    }
    return;
  }
  const hdfs::FileStatus& f = candidates[state->rng.Uniform(candidates.size())];
  uint64_t offset = 4 + state->rng.Next64() % (f.size - 4);
  if (warehouse->CorruptFile(f.path, offset).ok()) ++state->corruptions;
}

// The harness's deliberate-loss self-test: silently delete one staged
// file, bypassing every loss counter. Nothing downstream can recover it,
// so a correct audit must refuse to call the run quiescent.
void TryInjectLoss(Simulator* sim, scribe::ScribeCluster* cluster,
                   bool* injected, int retries_left) {
  for (size_t dc = 0; dc < cluster->datacenter_count(); ++dc) {
    auto files = cluster->staging(dc)->ListRecursive("/staging");
    if (!files.ok()) continue;
    for (const auto& f : *files) {
      if (hdfs::IsHiddenWarehousePath("/staging", f.path) || f.size == 0) {
        continue;
      }
      if (cluster->staging(dc)->Delete(f.path).ok()) {
        *injected = true;
        return;
      }
    }
  }
  if (retries_left > 0) {
    sim->After(5 * kMillisPerMinute, [sim, cluster, injected, retries_left] {
      TryInjectLoss(sim, cluster, injected, retries_left - 1);
    });
  }
}

}  // namespace

std::string SoakResult::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "soak seed=%llu hours=%d daemons=%llu events=%llu chaos=%llu "
                "corrupted=%llu quarantined=%llu oink_hit=%.3f passed=%s",
                static_cast<unsigned long long>(seed), hours,
                static_cast<unsigned long long>(daemons),
                static_cast<unsigned long long>(events_logged),
                static_cast<unsigned long long>(chaos_events),
                static_cast<unsigned long long>(parts_corrupted),
                static_cast<unsigned long long>(parts_quarantined),
                oink_warm_hit_rate, passed ? "yes" : "NO");
  std::string s = buf;
  s += "\naudit: " + audit.ToString();
  s += "\nslo: " + slo.ToString();
  return s;
}

Json SoakResult::ToJson() const {
  Json chaos = Json::Object();
  for (const auto& [kind, count] : chaos_by_kind) {
    chaos.Set(kind, Json::Int(static_cast<int64_t>(count)));
  }
  Json j = Json::Object();
  j.Set("seed", Json::Int(static_cast<int64_t>(seed)));
  j.Set("hours", Json::Int(hours));
  j.Set("daemons", Json::Int(static_cast<int64_t>(daemons)));
  j.Set("events_logged", Json::Int(static_cast<int64_t>(events_logged)));
  j.Set("chaos_events", Json::Int(static_cast<int64_t>(chaos_events)));
  j.Set("chaos_by_kind", std::move(chaos));
  j.Set("parts_corrupted", Json::Int(static_cast<int64_t>(parts_corrupted)));
  j.Set("parts_quarantined",
        Json::Int(static_cast<int64_t>(parts_quarantined)));
  j.Set("oink_warm_hit_rate", Json::Number(oink_warm_hit_rate));
  j.Set("audit", audit.ToJson());
  j.Set("slo", slo.ToJson());
  j.Set("passed", Json::Bool(passed));
  return j;
}

Result<SoakResult> SoakHarness::Run() {
  const SoakOptions& o = options_;
  if (o.hours <= 0) return Status::InvalidArgument("soak hours must be > 0");
  if (o.datacenters.empty()) {
    return Status::InvalidArgument("soak needs at least one datacenter");
  }
  const TimeMs start = o.start;
  const TimeMs end = start + static_cast<TimeMs>(o.hours) * kMillisPerHour;
  const TimeMs drained = end + o.drain_ms;

  Simulator sim(start);
  scribe::ClusterTopology topo;
  topo.datacenters = o.datacenters;
  topo.aggregators_per_dc = o.aggregators_per_dc;
  topo.daemons_per_dc = o.daemons_per_dc;
  topo.brokers_per_dc = o.brokers_per_dc;
  topo.broker_datacenters = o.broker_datacenters;
  topo.staging_hdfs.num_datanodes = o.staging_datanodes;
  topo.staging_hdfs.replication = o.staging_replication;
  topo.warehouse_hdfs.num_datanodes = o.warehouse_datanodes;
  topo.warehouse_hdfs.replication = o.warehouse_replication;

  scribe::LogMoverOptions mover_options = o.mover;
  // Columnar warehouse parts carry the per-group checksums the scrubber
  // and the corrupt-part chaos lean on.
  mover_options.columnar_categories.insert(o.category);

  scribe::ScribeCluster cluster(&sim, topo, o.scribe, mover_options, o.seed);
  UNILOG_RETURN_NOT_OK(cluster.Start());

  SoakResult result;
  result.seed = o.seed;
  result.hours = o.hours;
  result.daemons =
      static_cast<uint64_t>(o.daemons_per_dc) * o.datacenters.size();

  // ---- Workload: one generator shard per simulated hour. Each shard has
  // a seed derived from the master seed and a disjoint user-id range, and
  // is built lazily at its hour's start so peak memory stays one hour's
  // worth of pending events.
  Rng master(o.seed);
  std::vector<uint64_t> shard_seeds;
  shard_seeds.reserve(o.hours);
  for (int h = 0; h < o.hours; ++h) shard_seeds.push_back(master.Next64());

  const size_t dc_count = cluster.datacenter_count();
  Status workload_status;
  for (int h = 0; h < o.hours; ++h) {
    const TimeMs hour_start = start + static_cast<TimeMs>(h) * kMillisPerHour;
    const uint64_t shard_seed = shard_seeds[h];
    sim.At(hour_start, [this, &sim, &cluster, &workload_status, dc_count, h,
                        hour_start, shard_seed] {
      workload::WorkloadOptions w;
      w.seed = shard_seed;
      w.num_users = options_.users_per_hour;
      w.user_id_base =
          1000000 + static_cast<int64_t>(h) * options_.users_per_hour;
      w.start = hour_start;
      w.duration = kMillisPerHour;
      w.sessions_per_user_mean = options_.sessions_per_user_mean;
      w.events_per_session_mean = options_.events_per_session_mean;
      workload::WorkloadGenerator generator(std::move(w));
      Status st = generator.Generate([this, &sim, &cluster,
                                      dc_count](const events::ClientEvent& ev) {
        size_t dc = static_cast<size_t>(ev.user_id) % dc_count;
        std::string message = ev.Serialize();
        sim.At(ev.timestamp,
               [this, &cluster, dc, message = std::move(message)] {
                 cluster.Log(dc, scribe::LogEntry{options_.category, message});
               });
      });
      if (!st.ok() && workload_status.ok()) workload_status = st;
    });
  }

  // ---- Chaos: generate the declarative schedule from the same seed and
  // translate each event into simulator callbacks (fault + paired
  // restore). The margin keeps the last restore inside the drain window.
  TimeMs chaos_start = start + 30 * kMillisPerMinute;
  TimeMs chaos_end = end - 30 * kMillisPerMinute;
  if (chaos_end <= chaos_start) {
    chaos_start = start;
    chaos_end = end;
  }
  ChaosSchedule schedule =
      ChaosSchedule::Generate(o.chaos, topo, chaos_start, chaos_end, o.seed);
  result.chaos_events = schedule.events().size();
  CorruptState corrupt_state(o.seed ^ 0xC02201u);
  for (const ChaosEvent& ev : schedule.events()) {
    ++result.chaos_by_kind[ChaosKindName(ev.kind)];
    switch (ev.kind) {
      case ChaosKind::kAggregatorCrash:
        sim.At(ev.at,
               [&cluster, ev] { cluster.CrashAggregator(ev.dc, ev.index); });
        sim.At(ev.at + ev.duration_ms, [&cluster, ev] {
          (void)cluster.RestartAggregator(ev.dc, ev.index);
        });
        break;
      case ChaosKind::kBrokerCrash:
        sim.At(ev.at, [&cluster, ev] { cluster.CrashBroker(ev.dc, ev.index); });
        sim.At(ev.at + ev.duration_ms, [&cluster, ev] {
          (void)cluster.RestartBroker(ev.dc, ev.index);
        });
        break;
      case ChaosKind::kZkExpiryStorm:
        for (int i = 0; i < ev.count; ++i) {
          size_t target = (ev.index + i) % cluster.broker_count(ev.dc);
          sim.At(ev.at + i * 250, [&cluster, ev, target] {
            (void)cluster.ExpireBrokerSession(ev.dc, target);
          });
        }
        break;
      case ChaosKind::kStagingBrownout:
        for (int i = 0; i < ev.count; ++i) {
          int node = static_cast<int>((ev.index + i) % o.staging_datanodes);
          sim.At(ev.at, [&cluster, ev, node] {
            cluster.staging(ev.dc)->SetDatanodeAvailable(node, false);
          });
          sim.At(ev.at + ev.duration_ms, [&cluster, ev, node] {
            cluster.staging(ev.dc)->SetDatanodeAvailable(node, true);
          });
        }
        break;
      case ChaosKind::kWarehouseBrownout:
        for (int i = 0; i < ev.count; ++i) {
          int node = static_cast<int>((ev.index + i) % o.warehouse_datanodes);
          sim.At(ev.at, [&cluster, node] {
            cluster.warehouse()->SetDatanodeAvailable(node, false);
          });
          sim.At(ev.at + ev.duration_ms, [&cluster, node] {
            cluster.warehouse()->SetDatanodeAvailable(node, true);
          });
        }
        break;
      case ChaosKind::kClockSkew:
        sim.At(ev.at, [&cluster, ev] {
          cluster.aggregator(ev.dc, ev.index)->SetClockSkew(ev.skew_ms);
        });
        sim.At(ev.at + ev.duration_ms, [&cluster, ev] {
          cluster.aggregator(ev.dc, ev.index)->SetClockSkew(0);
        });
        break;
      case ChaosKind::kCorruptPart:
        sim.At(ev.at, [&sim, &cluster, &corrupt_state] {
          TryCorruptPart(&sim, cluster.warehouse(), &corrupt_state, 6);
        });
        break;
    }
  }

  // ---- Background scrub (the HDFS block-scanner analog): quarantine any
  // part whose checksums no longer verify before a reader trips on it.
  // A pass interrupted by a brownout just waits for the next interval.
  for (TimeMs t = start + o.scrub_interval_ms; t < drained;
       t += o.scrub_interval_ms) {
    sim.At(t, [&cluster] {
      (void)columnar::ScrubColumnarDir(cluster.warehouse(), "/logs",
                                       cluster.metrics());
    });
  }

  // ---- SLO peak sampling + mid-run audit checks.
  SloChecker checker(o.slo, &cluster);
  for (TimeMs t = start + o.sample_interval_ms; t <= drained;
       t += o.sample_interval_ms) {
    sim.At(t, [&checker] { checker.Sample(); });
  }

  // ---- Deliberate unrecoverable loss (self-test of the quiescence gate).
  bool loss_injected = false;
  if (o.inject_unrecovered_loss) {
    TimeMs at = start + (static_cast<TimeMs>(o.hours) / 2) * kMillisPerHour +
                7 * kMillisPerMinute;
    sim.At(at, [&sim, &cluster, &loss_injected] {
      TryInjectLoss(&sim, &cluster, &loss_injected, 12);
    });
  }

  // ---- Run the window, then drain: every chaos restore has fired and the
  // last (possibly skew-shifted) hour has closed, slid, and been scrubbed.
  sim.RunUntil(end);
  sim.RunUntil(drained);
  cluster.mover()->RunOnce();
  (void)columnar::ScrubColumnarDir(cluster.warehouse(), "/logs",
                                   cluster.metrics());
  checker.Sample();

  if (o.inject_unrecovered_loss && !loss_injected) {
    return Status::FailedPrecondition(
        "inject_unrecovered_loss was requested but no staged file could be "
        "deleted");
  }

  // ---- Oink cold+warm pass over the first soaked hours: the warm pass
  // must be nearly all cache hits (the memoization floor SLO).
  double oink_rate = -1;
  if (o.oink_hours > 0) {
    const int ticks = std::min(o.oink_hours, o.hours);
    oink::WorkflowEngine engine(cluster.warehouse(), oink::OinkOptions{},
                                cluster.metrics());
    oink::WorkflowSpec spec;
    spec.name = "soak-hourly-scan";
    const std::string category = o.category;
    const TimeMs base = start;
    spec.input_dir = [category, base](int64_t idx) {
      return "/logs/" + category + "/" +
             HourPartitionPath(base + idx * kMillisPerHour);
    };
    UNILOG_RETURN_NOT_OK(engine.AddWorkflow(std::move(spec)));
    uint64_t hits = 0;
    uint64_t misses = 0;
    bool oink_ok = true;
    for (int pass = 0; pass < 2 && oink_ok; ++pass) {
      for (int i = 0; i < ticks; ++i) {
        Status st = engine.RunTick(i);
        if (!st.ok()) {
          oink_ok = false;
          break;
        }
        if (pass == 1) {
          hits += engine.last_tick().cache_hits;
          misses += engine.last_tick().cache_misses;
        }
      }
    }
    if (!oink_ok) {
      oink_rate = 0;  // a failed warm pass cannot satisfy the floor
    } else if (hits + misses > 0) {
      oink_rate = static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
    }
  }

  // ---- Ground-truth quarantine count straight from the namespace.
  auto landed = cluster.warehouse()->ListRecursive("/logs");
  if (landed.ok()) {
    for (const auto& f : *landed) {
      size_t slash = f.path.rfind('/');
      if (f.path.compare(slash + 1, 12, "_quarantined") == 0) {
        ++result.parts_quarantined;
      }
    }
  }

  UNILOG_RETURN_NOT_OK(workload_status);
  result.oink_warm_hit_rate = oink_rate;
  result.slo = checker.Finalize(oink_rate);
  result.stats = cluster.TotalStats();
  obs::DeliveryAudit audit(&cluster);
  result.audit = audit.Snapshot();
  result.events_logged = result.stats.entries_logged;
  result.parts_corrupted = corrupt_state.corruptions;
  result.passed = result.slo.ok();
  return result;
}

}  // namespace unilog::soak
