#include "harness.h"

#include <sys/resource.h>

#include "common/strings.h"
#include "dataflow/relation.h"

namespace unilog::e2e {
namespace {

constexpr int64_t kTraceUser = 1000003;      // user index 3
constexpr const char* kSliceIp = "10.0.0.2";  // user index 2

Status BadRow(const std::string& workflow) {
  return Status::Corruption("unexpected row shape in " + workflow);
}

}  // namespace

workload::WorkloadOptions Population(uint64_t seed, int users, int hours,
                                     int64_t user_id_base) {
  workload::WorkloadOptions o;
  o.seed = seed;
  o.num_users = users;
  o.user_id_base = user_id_base;
  o.start = kDay0;
  o.duration = hours * kMillisPerHour;
  o.sessions_per_user_mean = 2.0 * hours / 24.0;
  o.events_per_session_mean = 18;
  return o;
}

std::string HourDir(const std::string& root, int64_t hour_index) {
  return root + "/" + HourPartitionPath(hour_index * kMillisPerHour);
}

std::vector<oink::WorkflowSpec> Workflows(const std::string& root) {
  using dataflow::Value;
  auto dir = [root](int64_t hour_index) { return HourDir(root, hour_index); };
  std::vector<oink::WorkflowSpec> specs(kWorkflowCount);

  specs[0].name = "hourly-click-rollup";
  specs[0].filters = {{"event_name", "matches", Value::Str("*:click")}};
  specs[0].project_cols = {"user_id"};
  specs[0].project_names = {"uid"};
  const dataflow::Aggregate count{dataflow::Aggregate::Op::kCount, "", "n"};
  specs[0].stage = [count](const dataflow::Relation& r) {
    return r.GroupBy({"uid"}, {count});
  };
  specs[0].stage_id = "click-rollup-v1";

  specs[1].name = "impression-volume";
  specs[1].filters = {{"event_name", "matches", Value::Str("*:impression")}};
  specs[1].project_cols = {"event_name"};
  specs[1].project_names = {"name"};
  specs[1].stage = [count](const dataflow::Relation& r) {
    return r.GroupBy({"name"}, {count});
  };
  specs[1].stage_id = "impression-volume-v1";

  specs[2].name = "power-user-trace";
  specs[2].filters = {{"user_id", "==", Value::Int(kTraceUser)}};
  specs[2].project_cols = {"timestamp", "event_name"};
  specs[2].project_names = {"ts", "name"};

  specs[3].name = "ip-slice";
  specs[3].filters = {{"ip", "==", Value::Str(kSliceIp)}};
  specs[3].project_cols = {"user_id", "event_name"};
  specs[3].project_names = {"uid", "name"};

  for (auto& spec : specs) spec.input_dir = dir;
  return specs;
}

void Answer::Add(const events::ClientEvent& ev) {
  if (EndsWith(ev.event_name, ":click")) ++clicks[ev.user_id];
  if (EndsWith(ev.event_name, ":impression")) ++impressions[ev.event_name];
  if (ev.user_id == kTraceUser) trace.emplace_back(ev.timestamp, ev.event_name);
  if (ev.ip == kSliceIp) ip_slice.emplace_back(ev.user_id, ev.event_name);
}

void Answer::Merge(const Answer& other) {
  for (const auto& [k, n] : other.clicks) clicks[k] += n;
  for (const auto& [k, n] : other.impressions) impressions[k] += n;
  trace.insert(trace.end(), other.trace.begin(), other.trace.end());
  ip_slice.insert(ip_slice.end(), other.ip_slice.begin(), other.ip_slice.end());
}

Status Answer::AddResults(const oink::WorkflowEngine& engine) {
  const std::vector<oink::WorkflowSpec> specs = Workflows("");
  std::vector<dataflow::Relation> rels;
  for (const auto& spec : specs) {
    Result<dataflow::Relation> rel = engine.ResultFor(spec.name);
    if (!rel.ok()) return rel.status();
    rels.push_back(std::move(*rel));
  }
  auto int_str = [](const dataflow::Row& row, size_t i, size_t s) {
    return row.size() == 2 && row[i].is_int() && row[s].is_str();
  };
  for (const auto& row : rels[0].rows()) {
    if (row.size() != 2 || !row[0].is_int() || !row[1].is_int()) {
      return BadRow(specs[0].name);
    }
    clicks[row[0].int_value()] += row[1].int_value();
  }
  for (const auto& row : rels[1].rows()) {
    if (!int_str(row, 1, 0)) return BadRow(specs[1].name);
    impressions[row[0].str_value()] += row[1].int_value();
  }
  for (const auto& row : rels[2].rows()) {
    if (!int_str(row, 0, 1)) return BadRow(specs[2].name);
    trace.emplace_back(row[0].int_value(), row[1].str_value());
  }
  for (const auto& row : rels[3].rows()) {
    if (!int_str(row, 0, 1)) return BadRow(specs[3].name);
    ip_slice.emplace_back(row[0].int_value(), row[1].str_value());
  }
  return Status::OK();
}

uint64_t Answer::Digest() const {
  std::string text;
  auto line = [&text](char tag, const std::string& key, int64_t value) {
    text += tag;
    text += key;
    text += ' ';
    text += std::to_string(value);
    text += '\n';
  };
  for (const auto& [k, n] : clicks) line('c', std::to_string(k), n);
  for (const auto& [k, n] : impressions) line('i', k, n);
  using Pairs = std::vector<std::pair<int64_t, std::string>>;
  auto pairs = [&line](char tag, Pairs v) {
    std::sort(v.begin(), v.end());
    for (const auto& [k, s] : v) line(tag, s, k);
  };
  pairs('t', trace);
  pairs('p', ip_slice);
  return Fnv64(text);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace unilog::e2e
