// E3 (Table 2): the client event Thrift structure — serialization /
// deserialization microbenchmarks, per-event wire sizes for the unified
// format vs the three legacy application-specific formats, and the
// schema-evolution (unknown-field skip) cost.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_hooks.h"
#include "bench_common.h"
#include "events/client_event.h"
#include "events/legacy.h"
#include "scribe/message.h"
#include "thrift_oracle.h"

namespace unilog {
namespace {

events::ClientEvent SampleEvent() {
  events::ClientEvent ev;
  ev.initiator = events::EventInitiator::kClientUser;
  ev.event_name = "web:home:mentions:stream:avatar:profile_click";
  ev.user_id = 123456789;
  ev.session_id = "cookie-8f3a2b";
  ev.ip = "10.20.30.40";
  ev.timestamp = 1345507200000;
  ev.details = {{"profile_id", "98765"}, {"lang", "en"},
                {"client_version", "4.3"}};
  return ev;
}

void BM_Serialize(benchmark::State& state) {
  events::ClientEvent ev = SampleEvent();
  for (auto _ : state) {
    std::string buf = ev.Serialize();
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Serialize);

void BM_SerializeReusedBuffer(benchmark::State& state) {
  // The ingest hot-path shape: one warmed scratch buffer reused per
  // record (what ClientEventWriter::Add does) instead of a fresh
  // std::string per Serialize call.
  events::ClientEvent ev = SampleEvent();
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    ev.SerializeTo(&buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeReusedBuffer);

void BM_Deserialize(benchmark::State& state) {
  std::string buf = SampleEvent().Serialize();
  for (auto _ : state) {
    auto ev = events::ClientEvent::Deserialize(buf);
    benchmark::DoNotOptimize(ev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Deserialize);

void BM_DeserializeNameOnly(benchmark::State& state) {
  // The names-only projection the index job runs: unframe a batch and
  // parse each message in place as a view, reading just its name.
  std::string batch;
  events::ClientEventWriter writer(&batch);
  for (int i = 0; i < 100; ++i) writer.Add(SampleEvent());
  std::vector<std::string_view> records;
  events::ClientEventView ev;
  std::vector<events::DetailView> details;
  for (auto _ : state) {
    records.clear();
    if (!scribe::UnframeMessageViews(batch, &records).ok()) std::abort();
    for (std::string_view record : records) {
      details.clear();
      if (!events::ReadClientEventBody(record, &ev, &details).ok()) {
        std::abort();
      }
      benchmark::DoNotOptimize(ev.event_name);
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_DeserializeNameOnly);

void BM_DeserializeWithUnknownFields(benchmark::State& state) {
  // A "v2 producer" added three fields; the v1 reader must skip them.
  auto v2 = thrift_oracle::ParseStruct(SampleEvent().Serialize());
  if (!v2.ok()) std::abort();
  v2->SetField(20, thrift_oracle::ThriftValue::String("experiment-bucket-b"));
  v2->SetField(21, thrift_oracle::ThriftValue::I64(42));
  v2->SetField(22, thrift_oracle::ThriftValue::Double(0.125));
  std::string buf;
  if (!thrift_oracle::SerializeStruct(*v2, &buf).ok()) std::abort();
  for (auto _ : state) {
    auto ev = events::ClientEvent::Deserialize(buf);
    benchmark::DoNotOptimize(ev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeserializeWithUnknownFields);

void BM_LegacyJsonParse(benchmark::State& state) {
  std::string line = events::LegacyJsonFormat::Format(SampleEvent());
  for (auto _ : state) {
    auto rec = events::LegacyJsonFormat::Parse(line);
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyJsonParse);

void PrintTable2() {
  events::ClientEvent ev = SampleEvent();
  std::printf("=== E3 / Table 2: client event message format ===\n");
  // The Thrift IDL of the struct ClientEvent::SerializeTo writes.
  std::printf(
      "schema:\n"
      "struct client_event {\n"
      "  1: required i32 event_initiator;\n"
      "  2: required string event_name;\n"
      "  3: required i64 user_id;\n"
      "  4: required string session_id;\n"
      "  5: required string ip;\n"
      "  6: required i64 timestamp;\n"
      "  7: optional map event_details;\n"
      "}\n\n");

  std::string unified = ev.Serialize();
  std::string legacy_json = events::LegacyJsonFormat::Format(ev);
  std::string legacy_tsv = events::LegacyDelimitedFormat::Format(ev);
  std::string legacy_nat = events::LegacyNaturalFormat::Format(ev);

  std::printf("per-event wire size (same logical action):\n");
  std::printf("  %-34s %5zu bytes  (full six-level name + session/ip/ts + "
              "details)\n",
              "unified client event (thrift):", unified.size());
  std::printf("  %-34s %5zu bytes\n",
              "legacy JSON (web frontend):", legacy_json.size());
  std::printf("  %-34s %5zu bytes  (loses session id, sub-second time)\n",
              "legacy tab-delimited (api):", legacy_tsv.size());
  std::printf("  %-34s %5zu bytes  (loses session id, ip, seconds)\n",
              "legacy natural language (search):", legacy_nat.size());
  std::printf(
      "\npaper: unified logs are *more verbose* than any single "
      "application needs —\nthe cost paid for common semantics (§4.1). "
      "Unified >= delimited/natural here: %s\n\n",
      unified.size() >= legacy_tsv.size() ? "YES" : "NO");
}

// Batch-serde throughput with the zero-copy write path: per-event fresh
// strings (seed shape) vs ClientEventWriter's reused scratch buffer.
// Prints bytes/sec and allocs/op columns and contributes a section to
// BENCH_ingest.json.
void RunReusedBufferSection() {
  constexpr int kEvents = 20000;
  constexpr int kReps = 5;
  events::ClientEvent ev = SampleEvent();

  auto fresh_rep = [&ev]() {
    std::string batch;
    for (int i = 0; i < kEvents; ++i) {
      std::string record = ev.Serialize();  // fresh buffer per event
      PutVarint64(&batch, record.size());
      batch.append(record);
    }
    return batch;
  };
  auto reused_rep = [&ev]() {
    std::string batch;
    events::ClientEventWriter writer(&batch);  // one reused scratch
    for (int i = 0; i < kEvents; ++i) writer.Add(ev);
    return batch;
  };

  struct Row {
    double best_ms = 0;
    uint64_t allocs = 0;
    size_t bytes = 0;
  };
  auto measure = [](const std::function<std::string()>& rep) {
    Row row;
    for (int r = 0; r < kReps; ++r) {
      bench::AllocScope allocs;
      bench::WallTimer timer;
      std::string batch = rep();
      double ms = timer.ElapsedMs();
      if (r == 0 || ms < row.best_ms) row.best_ms = ms;
      row.allocs = allocs.Delta();
      row.bytes = batch.size();
    }
    return row;
  };

  Row fresh = measure(fresh_rep);
  Row reused = measure(reused_rep);
  bool identical = fresh_rep() == reused_rep();
  auto mbps = [](const Row& r) {
    return r.best_ms > 0 ? static_cast<double>(r.bytes) / 1e6 /
                               (r.best_ms / 1e3)
                         : 0;
  };
  auto allocs_per_op = [](const Row& r) {
    return static_cast<double>(r.allocs) / kEvents;
  };

  std::printf("--- batch serde: %d events, framed (ingest write path) ---\n",
              kEvents);
  std::printf("%-26s %10s %10s %12s\n", "path", "best_ms", "MB/s",
              "allocs/op");
  std::printf("%-26s %10.2f %10.1f %12.2f\n", "fresh string per event",
              fresh.best_ms, mbps(fresh), allocs_per_op(fresh));
  std::printf("%-26s %10.2f %10.1f %12.2f\n", "reused scratch (writer)",
              reused.best_ms, mbps(reused), allocs_per_op(reused));
  std::printf("  batch bytes identical: %s\n\n", identical ? "YES" : "NO");

  Json section = Json::Object();
  section.Set("events", Json::Number(kEvents));
  section.Set("fresh_ms", Json::Number(fresh.best_ms));
  section.Set("fresh_mb_per_sec", Json::Number(mbps(fresh)));
  section.Set("fresh_allocs_per_op", Json::Number(allocs_per_op(fresh)));
  section.Set("reused_ms", Json::Number(reused.best_ms));
  section.Set("reused_mb_per_sec", Json::Number(mbps(reused)));
  section.Set("reused_allocs_per_op", Json::Number(allocs_per_op(reused)));
  section.Set("byte_identical", Json::Bool(identical));
  Status js = bench::MergeBenchJsonSection("BENCH_ingest.json",
                                           "table2_client_event_serde",
                                           std::move(section));
  if (!js.ok()) {
    std::fprintf(stderr, "BENCH_ingest.json write failed: %s\n",
                 js.ToString().c_str());
  }
  if (!identical) std::exit(1);
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  // Accepted (and ignored beyond parsing) so CI can pass one --threads=N
  // to every ingest bench uniformly; serde is single-threaded by design.
  unilog::bench::ParseThreadsFlag(&argc, argv);
  unilog::PrintTable2();
  unilog::RunReusedBufferSection();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
