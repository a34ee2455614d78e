// The delivery workloads: ingest_broker, ingest_aggregator and
// log_to_query. Each repetition generates its seeded events, assembles a
// fresh fleet, logs every event at its generated timestamp (open loop in
// virtual time), runs until the warehouse is drained and the delivery
// audit is quiescent, and checks what landed against what was logged.

#include <deque>
#include <functional>
#include <limits>
#include <memory>

#include "broker/broker.h"
#include "broker/fleet.h"
#include "columnar/rcfile.h"
#include "common/compress.h"
#include "harness.h"
#include "obs/delivery_audit.h"
#include "obs/metrics.h"
#include "scribe/cluster.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::e2e {
namespace {

// ingest_*: hours of a fleet whose users log two sessions per user-day.
constexpr int kIngestUsers = 20000;
constexpr int kIngestHours = 6;
// log_to_query: three days, answered hour by hour as they land.
constexpr int kQueryUsers = 1500;
constexpr int kQueryHours = 72;
constexpr int kTrailingHours = 23;

constexpr TimeMs kNever = 3650 * kMillisPerDay;
// ingest_* rounds are timed in slots of this much simulated time.
constexpr TimeMs kSlot = 10 * kMillisPerMinute;
constexpr TimeMs kFlushEvery = scribe::ScribeOptions{}.daemon_flush_interval_ms;
const TimeMs kMoverEvery = scribe::LogMoverOptions{}.run_interval_ms;
const TimeMs kDrain =
    scribe::LogMoverOptions{}.grace_ms + kMoverEvery + kMillisPerMinute;
const std::string kLogRoot = std::string("/logs/") + kCategory;

/// One repetition's seeded input: serialized events in timestamp order.
/// A deque, so scheduled Log calls can point at messages while it grows.
struct LoggedInput {
  std::deque<std::string> messages;
  std::vector<TimeMs> times;
  EventDigest digest;
};

LoggedInput Generate(const workload::WorkloadOptions& options, Tally* serialize,
                     Report* report) {
  LoggedInput in;
  workload::WorkloadGenerator generator(options);
  Status st = generator.Generate([&](const events::ClientEvent& ev) {
    std::string msg;
    Measure(serialize, 1, [&] { msg = ev.Serialize(); });
    in.digest.Add(msg);
    in.times.push_back(ev.timestamp);
    in.messages.push_back(std::move(msg));
  });
  report->Check(st.ok(), "generate: " + st.ToString());
  return in;
}

scribe::ClusterTopology Topology(bool brokered) {
  scribe::ClusterTopology t;
  t.datacenters = {"dc1"};
  t.daemons_per_dc = 8;
  if (brokered) {
    t.brokers_per_dc = 4;
    t.broker_options.num_partitions = 4;
    t.broker_options.replication_factor = 2;
    t.broker_options.acks = broker::kAcksAll;
  } else {
    t.aggregators_per_dc = 2;
  }
  return t;
}

struct LogCtx {
  scribe::ScribeCluster* cluster = nullptr;
  Tally* log = nullptr;  // traced repetitions only
};

/// One scheduled Log() call; two pointers, so std::function stores it
/// without allocating.
struct LogCall {
  LogCtx* ctx;
  const std::string* message;
  void operator()() const {
    if (ctx->log == nullptr) {
      ctx->cluster->Log(0, scribe::LogEntry{kCategory, *message});
      return;
    }
    Measure(ctx->log, 1, [this] {
      ctx->cluster->Log(0, scribe::LogEntry{kCategory, *message});
    });
  }
};

struct FlushCtx {
  Simulator* sim = nullptr;
  Tally* flush = nullptr;
};

/// Drives one daemon's Flush() on the daemon's own cadence (traced runs,
/// whose daemons have their own flush loop pushed past the run end). Two
/// pointers, so rescheduling it does not allocate.
struct FlushLoop {
  FlushCtx* ctx;
  scribe::ScribeDaemon* daemon;
  void operator()() const {
    // Most ticks of a light fleet find the queue empty; timing those would
    // cost more than the call itself.
    if (daemon->QueuedEntries() == 0) {
      daemon->Flush();
    } else {
      Measure(ctx->flush, 0, [this] { daemon->Flush(); });
    }
    ctx->sim->After(kFlushEvery, *this);
  }
};

/// Broker batches as the daemons stored them, captured from the partition
/// leaders before the mover consumes (and the leaders trim) them.
struct Captured {
  int partition = 0;
  broker::Batch batch;
};

class BatchCapture {
 public:
  void Poll(broker::BrokerFleet* fleet) {
    next_.resize(fleet->options().num_partitions, 0);
    for (int p = 0; p < fleet->options().num_partitions; ++p) {
      broker::BrokerNode* leader = fleet->FindLeader(kCategory, p);
      if (leader == nullptr) continue;
      auto read = leader->ConsumerFetch(kCategory, p, next_[p],
                                        std::numeric_limits<TimeMs>::max());
      if (!read.ok()) continue;
      for (auto& b : read->batches) {
        records += b.count;
        batches.push_back({p, std::move(b)});
      }
      next_[p] = std::max(next_[p], read->next_offset);
    }
  }

  std::vector<Captured> batches;
  uint64_t records = 0;

 private:
  std::vector<uint64_t> next_;
};

/// Calls LogMover::RunOnce() on the mover's cadence, reporting each hour
/// it slides together with the host time of the RunOnce that slid it.
class MoverLoop {
 public:
  MoverLoop(Simulator* sim, scribe::LogMover* mover)
      : sim_(sim), mover_(mover) {}

  Tally* run = nullptr;
  std::function<void()> before;
  std::function<void(TimeMs hour, double run_ns)> on_slide;

  void Start() {
    sim_->After(kMoverEvery, [this] { Step(); });
  }

 private:
  void Step() {
    if (before) before();
    const TimeMs was = mover_->next_hour();
    const double ns = Measure(run, 0, [this] { mover_->RunOnce(); });
    for (TimeMs h = was; on_slide && h < mover_->next_hour();
         h += kMillisPerHour) {
      on_slide(h, h == was ? ns : 0);
    }
    sim_->After(kMoverEvery, [this] { Step(); });
  }

  Simulator* sim_;
  scribe::LogMover* mover_;
};

/// One repetition's fleet. Untraced, daemons and the mover run their own
/// timer loops (unless `drive_mover`); traced, both loops are pushed past
/// the run end and the bench calls Flush() and RunOnce() itself on the
/// same cadences, timing each call.
class Delivery {
 public:
  Delivery(bool brokered, bool traced, bool drive_mover, bool capture,
           uint64_t seed, exec::Executor* exec)
      : capture_batches_(brokered && capture),
        traced_(traced),
        drive_mover_(drive_mover || traced),
        sim_(kDay0),
        cluster_(&sim_, Topology(brokered), ScribeOpts(traced),
                 MoverOpts(brokered, drive_mover_, exec), seed),
        mover_loop_(&sim_, cluster_.mover()) {}

  Status Start(const LoggedInput& in, Layers* layers) {
    UNILOG_RETURN_NOT_OK(cluster_.Start());
    if (traced_) {
      flush_ctx_ = FlushCtx{&sim_, &layers->flush};
      for (size_t i = 0; i < cluster_.daemon_count(0); ++i) {
        sim_.After(kFlushEvery, FlushLoop{&flush_ctx_, cluster_.daemon(0, i)});
      }
      mover_loop_.run = &layers->mover_run;
      if (capture_batches_) {
        mover_loop_.before = [this, layers] {
          Measure(&layers->capture, 0,
                  [this] { capture_.Poll(cluster_.fleet(0)); });
        };
      }
    }
    if (drive_mover_) mover_loop_.Start();
    log_ctx_ = LogCtx{&cluster_, traced_ ? &layers->log : nullptr};
    for (size_t i = 0; i < in.messages.size(); ++i) {
      sim_.At(in.times[i], LogCall{&log_ctx_, &in.messages[i]});
    }
    return Status::OK();
  }

  /// Runs in drain steps until the audit is quiescent (at most two extra
  /// hours); returns the host ns spent inside the simulator.
  double Drain(TimeMs end, std::string* audit_error) {
    double ns = 0;
    TimeMs until = end + kDrain;
    for (;;) {
      ns += Measure(nullptr, 0, [&] { sim_.RunUntil(until); });
      Status q = obs::DeliveryAudit(&cluster_).AssertQuiescent();
      if (q.ok() || until >= end + 2 * kMillisPerHour) {
        *audit_error = q.ok() ? "" : q.ToString();
        return ns;
      }
      until += kMoverEvery;
    }
  }

  Simulator& sim() { return sim_; }
  scribe::ScribeCluster& cluster() { return cluster_; }
  MoverLoop& mover_loop() { return mover_loop_; }
  const BatchCapture& capture() const { return capture_; }

 private:
  static scribe::ScribeOptions ScribeOpts(bool traced) {
    scribe::ScribeOptions o;
    if (traced) o.daemon_flush_interval_ms = kNever;
    return o;
  }
  static scribe::LogMoverOptions MoverOpts(bool brokered, bool drive_mover,
                                           exec::Executor* exec) {
    scribe::LogMoverOptions o;
    o.executor = exec;
    if (brokered) o.columnar_categories = {kCategory};
    if (drive_mover) o.run_interval_ms = kNever;
    return o;
  }

  bool capture_batches_;
  bool traced_;
  bool drive_mover_;
  Simulator sim_;
  scribe::ScribeCluster cluster_;
  MoverLoop mover_loop_;
  BatchCapture capture_;
  LogCtx log_ctx_;
  FlushCtx flush_ctx_;
};

/// What landed in the warehouse, decoded part by part.
struct Landed {
  EventDigest digest;
  uint64_t bytes_digest = 1469598103934665603ull;  // paths and bytes, in order
  uint64_t parts = 0;
  uint64_t bytes = 0;
  std::map<int64_t, Answer> answers;  // by hour index
  std::vector<std::string> columnar_parts;
};

Landed ScanWarehouse(hdfs::MiniHdfs* wh, TimeMs end_hour, Tally* decode,
                     Report* report) {
  Landed out;
  for (TimeMs h = kDay0; h < end_hour; h += kMillisPerHour) {
    const std::string dir = kLogRoot + "/" + HourPartitionPath(h);
    if (!wh->Exists(dir)) continue;
    Answer& answer = out.answers[h / kMillisPerHour];
    auto files = wh->ListRecursive(dir);
    if (!files.ok()) {
      report->Check(false, files.status().ToString());
      continue;
    }
    for (const auto& f : *files) {
      auto body = wh->ReadFile(f.path);
      if (!body.ok()) {
        report->Check(false, body.status().ToString());
        continue;
      }
      ++out.parts;
      out.bytes += body->size();
      out.bytes_digest = Fnv64(*body, Fnv64(f.path, out.bytes_digest));
      if (columnar::IsRcFile(*body)) {
        out.columnar_parts.push_back(f.path);
        std::vector<events::ClientEvent> evs;
        Status st;
        Measure(decode, 0, [&] {
          st = columnar::RcFileReader(*body).ReadAll(columnar::kAllColumns,
                                                     &evs);
        });
        if (decode != nullptr) decode->units += evs.size();
        report->Check(st.ok(), "landed part " + f.path + ": " + st.ToString());
        for (const auto& ev : evs) {
          out.digest.Add(ev.Serialize());
          answer.Add(ev);
        }
        continue;
      }
      auto raw = Lz::Decompress(*body);
      auto messages = raw.ok() ? scribe::UnframeMessages(*raw)
                               : Result<std::vector<std::string>>(raw.status());
      if (!messages.ok()) {
        report->Check(false, "landed part " + f.path + ": " +
                                 messages.status().ToString());
        continue;
      }
      for (const auto& m : *messages) {
        out.digest.Add(m);
        auto ev = events::ClientEvent::Deserialize(m);
        if (ev.ok()) answer.Add(*ev);
      }
    }
  }
  return out;
}

/// Delivery-side correctness shared by every delivery workload: the audit
/// balanced and quiescent, nothing lost, and the landed events exactly the
/// generated ones.
void CheckDelivered(const LoggedInput& in, Delivery* d, const Landed& landed,
                    const std::string& audit_error, Layers* layers,
                    Report* report) {
  if (layers->warehouse_digest == 0) {
    layers->warehouse_digest = landed.bytes_digest;
  }
  report->Check(landed.bytes_digest == layers->warehouse_digest,
                "warehouse bytes differ between repetitions of one seed "
                "(traced vs untraced)");
  const obs::DeliverySnapshot snap =
      obs::DeliveryAudit(&d->cluster()).Snapshot();
  report->Check(audit_error.empty(), "delivery audit: " + audit_error);
  report->Check(snap.logged == in.messages.size(),
                "logged " + std::to_string(snap.logged) + " of " +
                    std::to_string(in.messages.size()) + " generated events");
  report->Check(landed.digest == in.digest,
                "landed digest differs from the generated events (" +
                    std::to_string(landed.digest.count) + " landed, " +
                    std::to_string(in.digest.count) + " generated)");
  report->Count("events_landed", landed.digest.count);
  report->Count("landed_digest", landed.digest.sum);
  // Lost events: generated but not found in the warehouse, whatever the
  // audit believes landed.
  const uint64_t generated = in.messages.size();
  report->attempted += generated;
  report->failed +=
      generated > landed.digest.count ? generated - landed.digest.count : 0;
}

/// Traced-run replays of the delivery layers on the data this repetition
/// captured; each asserts byte-identity with what the system produced.
void ReplayDelivery(const LoggedInput& in, Delivery* d, const Landed& landed,
                    Layers* l, Report* report) {
  // events: deserialize every logged message.
  for (size_t i = 0; i < in.messages.size(); i += 1024) {
    const size_t end = std::min(in.messages.size(), i + 1024);
    bool ok = true;
    Measure(&l->deserialize, end - i, [&] {
      for (size_t k = i; k < end; ++k) {
        ok = events::ClientEvent::Deserialize(in.messages[k]).ok() && ok;
      }
    });
    report->Check(ok, "replay: a logged message failed to deserialize");
  }

  // columnar: re-encode every landed part from its decoded rows.
  hdfs::MiniHdfs* wh = d->cluster().warehouse();
  for (const std::string& path : landed.columnar_parts) {
    auto body = wh->ReadFile(path);
    std::vector<events::ClientEvent> evs;
    Status st = body.ok() ? columnar::RcFileReader(*body).ReadAll(
                                columnar::kAllColumns, &evs)
                          : body.status();
    std::string out;
    Measure(&l->encode, evs.size(), [&] {
      columnar::RcFileWriter writer(&out);
      for (const auto& ev : evs) {
        if (st.ok()) st = writer.Add(ev);
      }
      if (st.ok()) st = writer.Finish();
    });
    report->Check(st.ok() && out == *body,
                  "replay: re-encoding " + path + " does not reproduce it");
  }

  broker::BrokerFleet* fleet = d->cluster().fleet(0);
  if (fleet == nullptr) return;
  const BatchCapture& cap = d->capture();
  report->Check(cap.records == in.messages.size(),
                "replay: captured " + std::to_string(cap.records) +
                    " broker records of " + std::to_string(in.messages.size()));

  // scribe.frame_compress: frame the decoded records and compress once.
  std::string body, out;
  for (const Captured& c : cap.batches) {
    std::vector<broker::Record> records;
    auto decoded = broker::DecodeBatch(c.batch, &records);
    report->Check(decoded.ok() && c.batch.skip_frames == 0 &&
                      c.batch.compressed,
                  "replay: captured batch is not a whole compressed batch");
    Measure(&l->frame_compress, records.size(), [&] {
      body.clear();
      for (const auto& r : records) {
        broker::AppendBatchFrame(&body, r.logged_at, r.payload);
      }
      Lz::Pooled().CompressTo(body, &out);
    });
    report->Check(out == *c.batch.body,
                  "replay: frame+compress does not reproduce a stored batch");
  }

  // broker: produce every batch into a fresh fleet with the same options,
  // then fetch it all back.
  Simulator sim(kDay0);
  zk::ZooKeeper zk(&sim);
  std::vector<std::string> ids;
  for (size_t b = 0; b < d->cluster().broker_count(0); ++b) {
    ids.push_back("dc1-brk" + std::to_string(b));
  }
  broker::BrokerFleet replay(&sim, &zk, "dc1", ids, fleet->options());
  Status st = replay.Start();
  if (st.ok()) st = replay.EnsureTopic(kCategory);
  report->Check(st.ok(), "replay fleet: " + st.ToString());
  if (!st.ok()) return;
  for (const Captured& c : cap.batches) {
    broker::BrokerNode* leader = replay.FindLeader(kCategory, c.partition);
    if (leader == nullptr) {
      report->Check(false, "replay fleet: leaderless partition");
      return;
    }
    broker::ProduceBatchRequest req;
    req.first_seq = c.batch.first_seq;
    req.count = c.batch.count;
    req.body = *c.batch.body;
    req.compressed = c.batch.compressed;
    req.record_sizes = c.batch.record_sizes;
    broker::ProduceAck ack;
    Measure(&l->produce, c.batch.count, [&] {
      st = leader->ProduceBatch(kCategory, c.partition, c.batch.producer,
                                std::move(req), &ack);
    });
    report->Check(st.ok() && ack.accepted == c.batch.count,
                  "replay: ProduceBatch did not accept a stored batch");
  }
  uint64_t fetched = 0;
  for (int p = 0; p < replay.options().num_partitions; ++p) {
    broker::BrokerNode* leader = replay.FindLeader(kCategory, p);
    Result<broker::PartitionLog::ReadResult> read =
        Status::Internal("no leader");
    Measure(&l->fetch, 0, [&] {
      if (leader != nullptr) {
        read = leader->ConsumerFetch(kCategory, p, 0,
                                     std::numeric_limits<TimeMs>::max());
      }
    });
    if (read.ok()) fetched += read->record_count;
  }
  l->fetch.units += fetched;
  report->Check(fetched == cap.records, "replay: fetch returned " +
                                            std::to_string(fetched) + " of " +
                                            std::to_string(cap.records));
}

/// Fleet-side counters of a traced repetition; the first traced
/// repetition also replays the delivery layers, the others supply the
/// traced speed (`eps`) for the tracing overhead.
void RecordTraced(const LoggedInput& in, Delivery* d,
                  obs::MetricsRegistry* stages, const Landed& landed,
                  double run_ns, bool replay, double eps, Layers* l,
                  Report* report) {
  // Layer counters span the run without the bench's own batch capture.
  run_ns -= l->capture.ns;
  l->capture = Tally{};
  l->warehouse_bytes = landed.bytes;
  l->warehouse_parts = landed.parts;
  l->warehouse_events = landed.digest.count;
  if (replay) {
    l->replayed = true;
    ReplayDelivery(in, d, landed, l, report);
  } else {
    l->traced_eps.push_back(eps);
  }
  l->logged += in.messages.size();
  l->traced_run_ns += run_ns;
  l->sim_events += d->sim().EventsProcessed();
  auto stage_ms = [stages](const char* stage) {
    return stages->GetHistogram("exec_region_ms", {{"stage", stage}})->sum();
  };
  l->decode_stage_ms += stage_ms("mover.decode_batches");
  l->unstage_stage_ms += stage_ms("mover.unstage");
  l->build_parts_stage_ms += stage_ms("mover.build_parts");
  obs::MetricsRegistry* m = d->cluster().metrics();
  l->hour_slide_sim_ms_p50 = obs::HistogramQuantile(
      *m->GetHistogram("mover.hour_slide_latency_ms"), 0.5);
  if (broker::BrokerFleet* fleet = d->cluster().fleet(0)) {
    const broker::BrokerFleetStats s = fleet->TotalStats();
    l->wire_bytes += static_cast<double>(s.wire_bytes_produced);
    l->replicated_bytes += static_cast<double>(s.wire_bytes_replicated);
    l->entries_produced += static_cast<double>(s.entries_produced);
    l->produce_calls += static_cast<double>(s.produce_calls);
    const obs::Histogram& e2e = *m->GetHistogram("broker.e2e_latency_ms");
    l->broker_e2e_sim_ms_p50 = obs::HistogramQuantile(e2e, 0.5);
    l->broker_e2e_sim_ms_p99 = obs::HistogramQuantile(e2e, 0.99);
  }
}

void IngestRep(const RunSpec& spec, bool brokered, bool traced, bool warmup,
               exec::Executor* exec, EndToEnd* e2e, Layers* layers,
               Report* report) {
  const Clock::time_point setup0 = Clock::now();
  LoggedInput in = Generate(Population(spec.seed, kIngestUsers, kIngestHours),
                            traced ? &layers->serialize : nullptr, report);
  const bool replay = traced && !layers->replayed;
  Delivery d(brokered, traced, /*drive_mover=*/false, replay, spec.seed, exec);
  Status st = d.Start(in, layers);
  report->Check(st.ok(), "cluster start: " + st.ToString());
  const double setup_s = NsSince(setup0) / 1e9;

  obs::MetricsRegistry stages;
  exec->set_metrics(traced ? &stages : nullptr);
  const TimeMs end = kDay0 + kIngestHours * kMillisPerHour;
  std::vector<double> slot_ns, hour_ms;  // hour_ms: per slot, parts of hours
  for (TimeMs t = kDay0 + kSlot; t <= end; t += kSlot) {
    const double ns = Measure(nullptr, 0, [&] { d.sim().RunUntil(t); });
    slot_ns.push_back(ns);
    hour_ms.push_back(ns / 1e6);
  }
  std::string audit_error;
  slot_ns.push_back(d.Drain(end, &audit_error));
  double run_ns = 0;
  for (double ns : slot_ns) run_ns += ns;
  exec->set_metrics(nullptr);

  Landed landed = ScanWarehouse(d.cluster().warehouse(), end + kMillisPerHour,
                                traced ? &layers->decode : nullptr, report);
  CheckDelivered(in, &d, landed, audit_error, layers, report);
  const double eps = static_cast<double>(in.messages.size()) / (run_ns / 1e9);
  if (!traced) {
    if (warmup) return;
    e2e->setup_s.push_back(setup_s);
    e2e->AddRound(static_cast<double>(in.messages.size()), std::move(slot_ns),
                  std::move(hour_ms));
    layers->untraced_eps.push_back(eps);
    return;
  }
  RecordTraced(in, &d, &stages, landed, run_ns, replay, eps, layers, report);
}

void LogToQueryRep(const RunSpec& spec, bool traced, bool warmup,
                   exec::Executor* exec,
                   EndToEnd* e2e, Layers* layers, Report* report) {
  const Clock::time_point setup0 = Clock::now();
  LoggedInput in = Generate(Population(spec.seed, kQueryUsers, kQueryHours),
                            traced ? &layers->serialize : nullptr, report);
  const bool replay = traced && !layers->replayed;
  Delivery d(/*brokered=*/true, traced, /*drive_mover=*/true, replay,
             spec.seed, exec);
  obs::MetricsRegistry engine_metrics;
  oink::WorkflowEngine engine(d.cluster().warehouse(), oink::OinkOptions{},
                              &engine_metrics, exec);
  for (auto& wf : Workflows(kLogRoot)) {
    Status st = engine.AddWorkflow(std::move(wf));
    report->Check(st.ok(), "AddWorkflow: " + st.ToString());
  }

  // After each hour slides: answer it, then re-tick the trailing hours.
  // The run is timed one simulated hour at a time.
  std::map<int64_t, uint64_t> answered;  // hour index -> answer digest
  std::vector<double> hour_ms;
  double bench_ns = 0;  // the bench's own bookkeeping inside the run
  uint64_t ticks = 0, bad_ticks = 0;
  Tally* tick_tally = traced ? &layers->tick : nullptr;
  d.mover_loop().on_slide = [&](TimeMs hour, double run_ns) {
    const int64_t idx = hour / kMillisPerHour;
    Status st;
    const uint64_t rows0 =
        engine_metrics.CounterTotal("columnar.rows_returned");
    const double tick_ns =
        Measure(tick_tally, 0, [&] { st = engine.RunTick(idx); });
    hour_ms.push_back((run_ns + tick_ns) / 1e6);
    ++ticks;
    const Clock::time_point b0 = Clock::now();
    Answer answer;
    if (st.ok()) st = answer.AddResults(engine);
    if (st.ok()) {
      answered[idx] = answer.Digest();
    } else {
      ++bad_ticks;
      report->Check(false,
                    "tick " + std::to_string(idx) + ": " + st.ToString());
    }
    if (traced && st.ok()) {
      ++layers->cold_ticks;
      layers->cold_scan_bytes += engine.last_tick().scan_bytes_decompressed;
      layers->cold_rows +=
          engine_metrics.CounterTotal("columnar.rows_returned") - rows0;
      if (replay && idx % 3 == 0) {
        ReplayHour(d.cluster().warehouse(), HourDir(kLogRoot, idx), engine,
                   exec, layers, report);
      }
    }
    bench_ns += NsSince(b0);
    const int64_t oldest =
        std::max<int64_t>(idx - kTrailingHours, kDay0 / kMillisPerHour);
    for (int64_t prev = idx - 1; prev >= oldest; --prev) {
      const uint64_t a0 = AllocCount();
      const double ns =
          Measure(tick_tally, 0, [&] { st = engine.RunTick(prev); });
      ++ticks;
      const oink::TickStats& t = engine.last_tick();
      if (!st.ok() || t.cache_hits != kWorkflowCount || t.cache_misses != 0) {
        ++bad_ticks;
        report->Check(false, "re-tick of hour " + std::to_string(prev) +
                                 " was not served from the cache");
      }
      if (traced) {
        ++layers->warm_ticks;
        layers->warm_workflows += t.workflows;
        layers->warm_hits += t.cache_hits;
        layers->warm_allocs += AllocCount() - a0;
        layers->warm_tick_ms.push_back(ns / 1e6);
      }
    }
  };
  Status st = d.Start(in, layers);
  report->Check(st.ok(), "cluster start: " + st.ToString());
  const double setup_s = NsSince(setup0) / 1e9;

  obs::MetricsRegistry stages;
  exec->set_metrics(traced ? &stages : nullptr);
  const TimeMs end = kDay0 + kQueryHours * kMillisPerHour;
  std::string audit_error;
  std::vector<double> slot_ns;
  for (TimeMs until = kDay0 + kMillisPerHour; until <= end + kMillisPerHour;
       until += kMillisPerHour) {
    const double bench0 = bench_ns;
    const double ns =
        until <= end
            ? Measure(nullptr, 0, [&] { d.sim().RunUntil(until); })
            : d.Drain(end, &audit_error);
    slot_ns.push_back(ns - (bench_ns - bench0));
  }
  double run_ns = 0;
  for (double ns : slot_ns) run_ns += ns;
  exec->set_metrics(nullptr);

  Landed landed = ScanWarehouse(d.cluster().warehouse(), end + kMillisPerHour,
                                traced ? &layers->decode : nullptr, report);
  CheckDelivered(in, &d, landed, audit_error, layers, report);
  for (const auto& [idx, reference] : landed.answers) {
    auto it = answered.find(idx);
    if (it == answered.end() || it->second != reference.Digest()) {
      ++bad_ticks;
      report->Check(false, "hour " + std::to_string(idx) +
                               ": answer differs from the landed events");
    }
  }
  uint64_t answers_digest = 0;
  for (const auto& [idx, digest] : answered) {
    answers_digest = Fnv64(std::to_string(digest), answers_digest + idx);
  }
  report->Count("answers_digest", answers_digest);
  report->Check(answered.size() == landed.answers.size(),
                "answered " + std::to_string(answered.size()) + " hours of " +
                    std::to_string(landed.answers.size()) + " landed");
  report->attempted += ticks;
  report->failed += bad_ticks;

  const double eps = static_cast<double>(in.messages.size()) / (run_ns / 1e9);
  if (!traced) {
    if (warmup) return;
    e2e->setup_s.push_back(setup_s);
    e2e->AddRound(static_cast<double>(in.messages.size()), std::move(slot_ns),
                  std::move(hour_ms));
    layers->untraced_eps.push_back(eps);
    return;
  }
  RecordTraced(in, &d, &stages, landed, run_ns, replay, eps, layers, report);
}

}  // namespace

void RunLogToQuery(const RunSpec& spec, Report* report) {
  exec::Executor exec(exec::ExecOptions{kExecThreads});
  EndToEnd e2e;
  Layers layers;
  RepeatFor(spec, [&](bool traced, bool warmup) {
    LogToQueryRep(spec, traced, warmup, &exec, &e2e, &layers, report);
  });
  ReportEndToEnd(e2e, report);
  ReportLayers(layers, report);
}

void RunIngest(const RunSpec& spec, bool brokered, Report* report) {
  exec::Executor exec(exec::ExecOptions{kExecThreads});
  EndToEnd e2e;
  e2e.parts_per_hour = kMillisPerHour / kSlot;
  Layers layers;
  RepeatFor(spec, [&](bool traced, bool warmup) {
    IngestRep(spec, brokered, traced, warmup, &exec, &e2e, &layers, report);
  });
  ReportEndToEnd(e2e, report);
  ReportLayers(layers, report);
}

}  // namespace unilog::e2e
