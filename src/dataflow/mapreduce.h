#ifndef UNILOG_DATAFLOW_MAPREDUCE_H_
#define UNILOG_DATAFLOW_MAPREDUCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/cost_model.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"

namespace unilog::dataflow {

/// How a simulated map task turns a file body into records. Matches the
/// Hadoop InputFormat role — and, like Elephant Bird, hides the
/// decompress/deserialize boilerplate from job authors.
struct InputFormat {
  /// Decompresses/decodes a raw on-disk file body; identity by default.
  std::function<Result<std::string>(std::string_view body)> decode;
  /// Splits the decoded body into records. Default: varint-framed records.
  std::function<Result<std::vector<std::string>>(std::string_view decoded)>
      split;

  /// The standard format for unilog warehouse files: LZ decompression +
  /// varint framing.
  static InputFormat CompressedFramed();
  /// CompressedFramed that also accepts columnar (RCFile) parts: a file
  /// carrying an RCFile magic is decoded by reading every row and
  /// re-framing the serialized events, so map functions see the same
  /// compact-Thrift records either way. This is the format for warehouse
  /// directories that may mix layouts (LogMoverOptions::columnar_categories
  /// plus legacy hours).
  static InputFormat CompressedFramedOrColumnar();
  /// Framed records without compression.
  static InputFormat Framed();
  /// Newline-delimited text (legacy logs).
  static InputFormat Lines();
  /// Like CompressedFramed, but the InputFormat-level `accept` predicate
  /// can drop whole files before any record is produced — this is where
  /// Elephant Twin's index push-down hooks in (§6).
  InputFormat WithFileFilter(
      std::function<bool(const std::string& path)> accept) const;

  /// Optional pre-scan file filter (predicate push-down); nullptr = all.
  std::function<bool(const std::string& path)> accept_file;
};

/// Collects intermediate or final key/value pairs.
class Emitter {
 public:
  void Emit(std::string key, std::string value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return pairs_;
  }
  std::vector<std::pair<std::string, std::string>>& mutable_pairs() {
    return pairs_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
};

/// Base class for per-map-task by-product state (histograms, rollups):
/// jobs whose map function accumulates outside the emitter subclass this,
/// so every map task mutates private state and Run() merges the pieces in
/// input order — deterministic at any thread count.
struct TaskLocal {
  virtual ~TaskLocal() = default;
};

/// A simulated MapReduce job over MiniHdfs files: one map task per HDFS
/// block, hash-partitioned shuffle, one reduce wave. Executes locally and
/// deterministically while charging the JobCostModel for task startups,
/// scans, and shuffles — the same bookkeeping a Hadoop jobtracker would
/// see from the paper's Pig scripts.
///
/// Map tasks run one per input file on the attached exec::Executor
/// (set_executor), the shuffle merge preserves input order, and reduce
/// groups run as tasks with outputs emitted in key order — so the final
/// output is byte-identical at any thread count. With a parallel executor
/// map/reduce functions must be safe to call from multiple threads at
/// once (each task receives a private Emitter; shared accumulation goes
/// through the TaskLocal machinery).
class MapReduceJob {
 public:
  /// Map function: one input record → zero or more (key, value) pairs.
  using MapFn =
      std::function<Status(const std::string& record, Emitter* emitter)>;
  /// Map function with per-task by-product state.
  using MapWithStateFn = std::function<Status(
      const std::string& record, Emitter* emitter, TaskLocal* state)>;
  /// Reduce function: one key and all its values → zero or more outputs.
  using ReduceFn = std::function<Status(
      const std::string& key, const std::vector<std::string>& values,
      Emitter* emitter)>;

  MapReduceJob(const hdfs::MiniHdfs* fs, JobCostModel cost_model)
      : fs_(fs), cost_model_(cost_model) {}

  /// Adds every file under `dir` (recursively) as input; skips hidden
  /// paths, those with a '_'-prefixed component below `dir` (markers,
  /// caches; hdfs::IsHiddenWarehousePath). NotFound directories are an
  /// error.
  Status AddInputDir(const std::string& dir);
  size_t input_file_count() const { return inputs_.size(); }

  void set_input_format(InputFormat format) { format_ = std::move(format); }
  void set_map(MapFn map) { map_ = std::move(map); }
  /// Map with per-task state: `create` makes one state object per map
  /// task; after the map phase Run() calls `merge` once per task, in input
  /// order, on the calling thread.
  void set_map_with_state(MapWithStateFn map,
                          std::function<std::unique_ptr<TaskLocal>()> create,
                          std::function<void(TaskLocal*)> merge);
  /// Optional; omitting the reducer yields a map-only job whose map outputs
  /// are the final outputs.
  void set_reduce(ReduceFn reduce) { reduce_ = std::move(reduce); }
  void set_num_reducers(uint64_t n) { num_reducers_ = n; }
  /// Attaches the execution engine the tasks run on; nullptr (the
  /// default) runs them inline on the calling thread (exec::OrInline).
  void set_executor(exec::Executor* exec) { exec_ = exec; }
  /// Tolerates corrupt inputs: an input whose decode/split fails with a
  /// Corruption status (e.g. an RCFile part with a bad block checksum)
  /// is renamed to `_quarantined.<name>` on `fs` — hidden from future
  /// AddInputDir scans — counted in stats().corrupt_inputs_quarantined,
  /// and skipped, instead of failing the whole job. Without this (the
  /// default) any corrupt input fails the run, the historical behavior.
  void set_quarantine_fs(hdfs::MiniHdfs* fs) { quarantine_fs_ = fs; }

  /// Runs the job. Returns final (key, value) outputs sorted by key.
  Result<std::vector<std::pair<std::string, std::string>>> Run();

  /// Cost accounting of the last Run().
  const JobStats& stats() const { return stats_; }

 private:
  Result<std::vector<std::string>> SplitBody(std::string_view body) const;
  Status QuarantineInput(const std::string& path);

  const hdfs::MiniHdfs* fs_;
  JobCostModel cost_model_;
  std::vector<std::string> inputs_;
  InputFormat format_ = InputFormat::CompressedFramed();
  MapFn map_;
  MapWithStateFn map_with_state_;
  std::function<std::unique_ptr<TaskLocal>()> create_state_;
  std::function<void(TaskLocal*)> merge_state_;
  ReduceFn reduce_;
  uint64_t num_reducers_ = 16;
  exec::Executor* exec_ = nullptr;
  hdfs::MiniHdfs* quarantine_fs_ = nullptr;
  JobStats stats_;
};

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_MAPREDUCE_H_
