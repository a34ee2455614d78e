// bench_e2e: one seeded benchmark of the path this repository runs — a
// client event from ScribeDaemon::Log() through frame+compress, the broker
// tier or the aggregator chain, warehouse landing, and an Oink workflow's
// (cached) answer — with one number for the whole path and, in a traced
// run, a per-layer host split.
//
//   bench_e2e --workload=NAME --seed=N [--seconds=S] [--trace] [--json=PATH]
//
// Workloads: ingest_broker, ingest_aggregator, query_week, log_to_query
// (see README.md). Every metric is printed as `name value unit` and
// written to PATH as JSON. Exits 1, printing the seed, when any
// correctness check fails; 2 on a usage error.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "harness.h"

namespace {

using unilog::Json;
using unilog::e2e::Metric;
using unilog::e2e::Report;
using unilog::e2e::RunSpec;

const char* FlagValue(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json out = Json::Object();
  for (const Metric& m : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(m.value));
    entry.Set("unit", Json::Str(m.unit));
    out.Set(m.name, std::move(entry));
  }
  return out;
}

bool WriteJson(const std::string& path, const RunSpec& spec, const Report& r) {
  Json doc = Json::Object();
  doc.Set("workload", Json::Str(spec.workload));
  doc.Set("seed", Json::Int(static_cast<int64_t>(spec.seed)));
  doc.Set("trace", Json::Bool(spec.trace));
  doc.Set("correct", Json::Bool(r.correct));
  doc.Set("attempted", Json::Int(static_cast<int64_t>(r.attempted)));
  doc.Set("failed", Json::Int(static_cast<int64_t>(r.failed)));
  doc.Set("end_to_end", MetricsJson(r.end_to_end));
  doc.Set("per_layer", MetricsJson(r.per_layer));
  Json counts = Json::Object();
  for (const auto& [name, value] : r.counts) counts.Set(name, Json::Str(value));
  doc.Set("counts", std::move(counts));
  Json samples = Json::Object();
  for (const auto& [name, values] : r.samples) {
    Json list = Json::Array();
    for (double v : values) list.Push(Json::Number(v));
    samples.Set(name, std::move(list));
  }
  doc.Set("samples", std::move(samples));
  Json errors = Json::Array();
  for (const auto& e : r.errors) errors.Push(Json::Str(e));
  doc.Set("errors", std::move(errors));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string text = doc.Dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (the adaptive one's ceiling) turns off glibc's
  // adaptation, whose history-dependent moves made peak RSS bimodal from
  // run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  RunSpec spec;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argv[i], "--workload")) {
      spec.workload = v;
    } else if (const char* v = FlagValue(argv[i], "--seed")) {
      spec.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = FlagValue(argv[i], "--seconds")) {
      spec.seconds = std::atof(v);
    } else if (const char* v = FlagValue(argv[i], "--json")) {
      json_path = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      spec.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  Report report;
  if (spec.workload == "ingest_broker") {
    unilog::e2e::RunIngest(spec, /*brokered=*/true, &report);
  } else if (spec.workload == "ingest_aggregator") {
    unilog::e2e::RunIngest(spec, /*brokered=*/false, &report);
  } else if (spec.workload == "query_week") {
    unilog::e2e::RunQueryWeek(spec, &report);
  } else if (spec.workload == "log_to_query") {
    unilog::e2e::RunLogToQuery(spec, &report);
  } else {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=ingest_broker|ingest_aggregator|"
                 "query_week|log_to_query --seed=N [--seconds=S] [--trace] "
                 "[--json=PATH]\n");
    return 2;
  }

  const auto& metrics = spec.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu\nfailed %llu\ncorrect %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "true" : "false");
  if (!json_path.empty() && !WriteJson(json_path, spec, report)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!report.correct) {
    for (const auto& e : report.errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    }
    std::fprintf(stderr, "reproduce with --workload=%s --seed=%llu%s\n",
                 spec.workload.c_str(),
                 static_cast<unsigned long long>(spec.seed),
                 spec.trace ? " --trace" : "");
    return 1;
  }
  return 0;
}
