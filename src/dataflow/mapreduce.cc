#include "dataflow/mapreduce.h"

#include <algorithm>

#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/strings.h"
#include "events/client_event.h"
#include "scribe/message.h"

namespace unilog::dataflow {

InputFormat InputFormat::CompressedFramed() {
  InputFormat f;
  f.decode = [](std::string_view body) -> Result<std::string> {
    return Lz::Decompress(body);
  };
  f.split = [](std::string_view decoded) {
    return scribe::UnframeMessages(decoded);
  };
  return f;
}

InputFormat InputFormat::CompressedFramedOrColumnar() {
  InputFormat f;
  f.decode = [](std::string_view body) -> Result<std::string> {
    if (!columnar::IsRcFile(body)) return Lz::Decompress(body);
    // Columnar part: materialize every row and re-frame the serialized
    // events so split() and the map function see the usual record stream.
    columnar::RcFileReader reader(body);
    std::vector<events::ClientEvent> events;
    UNILOG_RETURN_NOT_OK(reader.ReadAll(columnar::kAllColumns, &events));
    std::string framed;
    for (const auto& ev : events) {
      scribe::AppendFramed(&framed, ev.Serialize());
    }
    return framed;
  };
  f.split = [](std::string_view decoded) {
    return scribe::UnframeMessages(decoded);
  };
  return f;
}

InputFormat InputFormat::Framed() {
  InputFormat f;
  f.decode = [](std::string_view body) -> Result<std::string> {
    return std::string(body);
  };
  f.split = [](std::string_view decoded) {
    return scribe::UnframeMessages(decoded);
  };
  return f;
}

InputFormat InputFormat::Lines() {
  InputFormat f;
  f.decode = [](std::string_view body) -> Result<std::string> {
    return std::string(body);
  };
  f.split = [](std::string_view decoded) -> Result<std::vector<std::string>> {
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < decoded.size()) {
      size_t pos = decoded.find('\n', start);
      if (pos == std::string_view::npos) {
        lines.emplace_back(decoded.substr(start));
        break;
      }
      if (pos > start) lines.emplace_back(decoded.substr(start, pos - start));
      start = pos + 1;
    }
    return lines;
  };
  return f;
}

InputFormat InputFormat::WithFileFilter(
    std::function<bool(const std::string& path)> accept) const {
  InputFormat f = *this;
  f.accept_file = std::move(accept);
  return f;
}

Status MapReduceJob::AddInputDir(const std::string& dir) {
  UNILOG_ASSIGN_OR_RETURN(auto files, fs_->ListRecursive(dir));
  for (const auto& file : files) {
    if (hdfs::IsHiddenWarehousePath(dir, file.path)) continue;
    inputs_.push_back(file.path);
  }
  return Status::OK();
}

void MapReduceJob::set_map_with_state(
    MapWithStateFn map, std::function<std::unique_ptr<TaskLocal>()> create,
    std::function<void(TaskLocal*)> merge) {
  map_with_state_ = std::move(map);
  create_state_ = std::move(create);
  merge_state_ = std::move(merge);
}

Result<std::vector<std::string>> MapReduceJob::SplitBody(
    std::string_view body) const {
  auto decoded = format_.decode(body);
  if (!decoded.ok()) return decoded.status();
  return format_.split(*decoded);
}

Status MapReduceJob::QuarantineInput(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string hidden =
      path.substr(0, slash + 1) + "_quarantined." + path.substr(slash + 1);
  UNILOG_RETURN_NOT_OK(quarantine_fs_->Rename(path, hidden));
  ++stats_.corrupt_inputs_quarantined;
  return Status::OK();
}

// Map tasks fan out one per accepted input file, the shuffle merge is
// stable and input-order-preserving, and reduce groups run concurrently
// with outputs concatenated in key order. Every phase writes only to
// per-task slots, so the output is byte-identical at any thread count.
Result<std::vector<std::pair<std::string, std::string>>> MapReduceJob::Run() {
  if (!map_ && !map_with_state_) {
    return Status::FailedPrecondition("no map function");
  }
  stats_ = JobStats{};
  exec::Executor* exec = exec::OrInline(exec_);

  // ----- Plan: accept-filter, stat and read bodies on the calling thread
  // (MiniHdfs access stays single-threaded; decode/map is the hot part).
  std::vector<std::string> bodies;
  std::vector<std::string> accepted;
  for (const auto& path : inputs_) {
    if (format_.accept_file && !format_.accept_file(path)) continue;
    UNILOG_ASSIGN_OR_RETURN(auto st, fs_->Stat(path));
    stats_.map_tasks += st.block_count;
    stats_.bytes_scanned += st.size;
    UNILOG_ASSIGN_OR_RETURN(std::string body, fs_->ReadFile(path));
    bodies.push_back(std::move(body));
    accepted.push_back(path);
  }

  // ----- Map phase: one task per file, each with a private emitter (and
  // private by-product state).
  size_t num_tasks = bodies.size();
  std::vector<Emitter> task_out(num_tasks);
  std::vector<uint64_t> task_records(num_tasks, 0);
  // Corrupt inputs are flagged per slot inside the workers and renamed
  // aside afterwards on the calling thread (MiniHdfs stays single-threaded).
  std::vector<uint8_t> corrupt(num_tasks, 0);
  std::vector<std::unique_ptr<TaskLocal>> task_state(num_tasks);
  if (map_with_state_) {
    for (auto& state : task_state) state = create_state_();
  }
  UNILOG_RETURN_NOT_OK(
      exec->ParallelForStatus("map", num_tasks, [&](size_t i) -> Status {
        auto records_or = SplitBody(bodies[i]);
        if (!records_or.ok()) {
          if (quarantine_fs_ != nullptr &&
              records_or.status().IsCorruption()) {
            corrupt[i] = 1;
            return Status::OK();
          }
          return records_or.status();
        }
        const std::vector<std::string>& records = *records_or;
        task_records[i] = records.size();
        for (const auto& record : records) {
          if (map_with_state_) {
            UNILOG_RETURN_NOT_OK(
                map_with_state_(record, &task_out[i], task_state[i].get()));
          } else {
            UNILOG_RETURN_NOT_OK(map_(record, &task_out[i]));
          }
        }
        return Status::OK();
      }));
  for (size_t i = 0; i < num_tasks; ++i) {
    if (corrupt[i] != 0) {
      UNILOG_RETURN_NOT_OK(QuarantineInput(accepted[i]));
      continue;
    }
    stats_.records_read += task_records[i];
    stats_.records_emitted += task_out[i].pairs().size();
    if (task_state[i] != nullptr) merge_state_(task_state[i].get());
  }

  std::vector<std::pair<std::string, std::string>> output;
  if (!reduce_) {
    // Map-only: concatenate per-task emissions in input order, then sort
    // stably.
    for (Emitter& task : task_out) {
      for (auto& pair : task.mutable_pairs()) output.push_back(std::move(pair));
    }
    std::stable_sort(
        output.begin(), output.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    stats_.records_output = output.size();
    stats_.modeled_ms = ModelWallTimeMs(cost_model_, stats_);
    return output;
  }

  // ----- Shuffle: hash-partition keys so partitions group concurrently.
  // Each partition scans the task emitters in input order, so every key's
  // values stay in (task, emission) order; each key lives in exactly one
  // partition, so the partition count never affects the result. One
  // partition (inline) groups without hashing.
  const size_t num_parts = exec->Shards();
  std::vector<std::map<std::string, std::vector<std::string>>> parts(
      num_parts);
  std::vector<uint64_t> part_bytes(num_parts, 0);
  exec->ParallelFor("shuffle", num_parts, [&](size_t p) {
    std::hash<std::string_view> hasher;
    for (Emitter& task : task_out) {
      for (auto& [key, value] : task.mutable_pairs()) {
        if (num_parts > 1 && hasher(key) % num_parts != p) continue;
        part_bytes[p] += key.size() + value.size();
        parts[p][key].push_back(std::move(value));
      }
    }
  });
  size_t num_groups = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    stats_.bytes_shuffled += part_bytes[p];
    num_groups += parts[p].size();
  }
  stats_.reduce_tasks =
      std::min<uint64_t>(num_reducers_, std::max<size_t>(1, num_groups));

  // ----- Reduce phase: groups in global key order, one emitter each.
  using Group = std::pair<const std::string*, const std::vector<std::string>*>;
  std::vector<Group> groups;
  groups.reserve(num_groups);
  for (const auto& part : parts) {
    for (const auto& [key, values] : part) groups.emplace_back(&key, &values);
  }
  if (num_parts > 1) {
    std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
      return *a.first < *b.first;
    });
  }
  std::vector<Emitter> reduce_out(groups.size());
  UNILOG_RETURN_NOT_OK(
      exec->ParallelForStatus("reduce", groups.size(), [&](size_t g) {
        return reduce_(*groups[g].first, *groups[g].second, &reduce_out[g]);
      }));
  for (Emitter& group : reduce_out) {
    for (auto& pair : group.mutable_pairs()) output.push_back(std::move(pair));
  }
  std::stable_sort(
      output.begin(), output.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  stats_.records_output = output.size();
  stats_.modeled_ms = ModelWallTimeMs(cost_model_, stats_);
  return output;
}

}  // namespace unilog::dataflow
