#ifndef UNILOG_EXEC_EXECUTOR_H_
#define UNILOG_EXEC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace unilog::obs {
class MetricsRegistry;
}  // namespace unilog::obs

namespace unilog::exec {

/// Execution configuration for the dataflow layer. `threads <= 1` selects
/// the inline engine: every region runs on the calling thread in index
/// order, with no pool, no locks, and no worker threads. Operators have
/// one body at every thread count; inline execution is that body run with
/// one chunk and one shard (see Executor::Shards).
struct ExecOptions {
  int threads = 1;
  /// Floor on items per chunk for the chunked variants, so tiny inputs do
  /// not shatter into per-row tasks.
  size_t min_items_per_chunk = 16;
};

/// Knobs for Executor::ParallelForMorsels. Items are packed greedily in
/// index order: a morsel closes once its accumulated byte weight reaches
/// `morsel_bytes` (every morsel holds at least one item, whatever its
/// weight). Boundaries depend only on the weights and this target — never
/// on scheduling — so per-item outputs merged in index order are
/// byte-identical at any thread count and any morsel size.
struct MorselOptions {
  uint64_t morsel_bytes = 256 * 1024;
};

/// Accounting of ParallelForMorsels regions.
struct MorselStats {
  uint64_t morsels = 0;
  uint64_t total_bytes = 0;
  uint64_t max_morsel_bytes = 0;

  void MergeFrom(const MorselStats& other);
};

/// A fixed-size pool of worker threads executing one "batch" (a bounded
/// parallel-for) at a time. Indices are claimed dynamically with an atomic
/// cursor, so stragglers do not serialize the batch; determinism comes
/// from callers writing results only into per-index slots, never from
/// completion order. The calling thread participates in the batch, so a
/// pool of N-1 workers yields N-way parallelism.
class ThreadPool {
 public:
  /// Spawns `num_workers` threads (0 is allowed: Run degenerates to an
  /// inline loop on the caller).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Runs task(i) for every i in [0, n) across the workers plus the
  /// calling thread; returns once all n indices completed. Batches are
  /// serialized: concurrent Run calls queue on an internal mutex. `task`
  /// must not throw.
  void Run(size_t n, const std::function<void(size_t)>& task);

 private:
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void WorkerLoop();
  void DrainBatch(Batch* batch);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Heap-owned so a worker that wakes late can still claim (and find
  // exhausted) a batch the caller has already abandoned.
  std::shared_ptr<Batch> batch_;  // guarded by mu_
  uint64_t batch_seq_ = 0;        // guarded by mu_; bumped per batch
  bool stop_ = false;             // guarded by mu_
  std::mutex run_mu_;             // serializes Run() calls
  std::vector<std::thread> workers_;
};

/// The deterministic parallel execution engine the dataflow layer runs on.
/// An Executor owns (at most) one ThreadPool and exposes ordered
/// parallel-for primitives whose outputs are byte-identical at any thread
/// count, provided bodies write only to state owned by their index.
///
/// Optionally reports per-stage task counts, region counts, and region
/// latencies into a shared obs::MetricsRegistry. Metrics are recorded by
/// the calling thread after each region completes, so the registry itself
/// is never touched concurrently by this class.
class Executor {
 public:
  explicit Executor(ExecOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int threads() const { return options_.threads; }
  /// True when a pool exists and regions actually fan out.
  bool parallel() const { return pool_ != nullptr; }
  const ExecOptions& options() const { return options_; }

  /// Attaches a metrics registry (may be nullptr to detach). Not
  /// thread-safe against in-flight regions.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Runs body(i) for i in [0, n). Serial mode (threads <= 1, or a nested
  /// call from inside a pool worker) runs inline in index order.
  void ParallelFor(const char* stage, size_t n,
                   const std::function<void(size_t)>& body);

  /// Number of contiguous chunks ParallelForChunked splits n items into.
  /// 1 when regions run inline. Chunk boundaries depend only on n and the
  /// options, never on scheduling, so chunk-indexed results are
  /// deterministic.
  size_t ChunksFor(size_t n) const;

  /// How many ways a hash-partitioning operator (the batch aggregation
  /// BatchRelation::FilterGroupBy, which GroupBy calls; Distinct; the
  /// MapReduce shuffle) splits its input: 1 when regions run inline (the
  /// serial engine, or a region nested inside another), 2 x threads
  /// otherwise. With one shard an operator neither hashes keys nor
  /// rescans rows per shard: it is the serial algorithm. Every key is
  /// owned by exactly one shard and merged in key order, so the count
  /// never shows up in the output.
  size_t Shards() const;

  /// Splits [0, n) into ChunksFor(n) contiguous chunks and runs
  /// body(chunk_index, begin, end) for each.
  void ParallelForChunked(
      const char* stage, size_t n,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& body);

  /// Status-collecting variant: runs body for every index and returns the
  /// non-OK status with the smallest index, or OK. The serial engine
  /// stops at the first failure (the historical behavior); the parallel
  /// engine runs all indices but reports the same status object.
  Status ParallelForStatus(const char* stage, size_t n,
                           const std::function<Status(size_t)>& body);

  /// Morsel-driven scheduler over `item_bytes.size()` items with the
  /// given byte weights. Items are packed into morsels in index order (see
  /// MorselOptions), and the morsels run through ParallelForStatus: the
  /// pool's workers claim them one at a time from its shared cursor, so a
  /// skewed morsel (one huge row group) never idles the rest of the pool
  /// behind a static chunk boundary.
  ///
  /// Runs body(morsel, begin, end) exactly once per morsel, where
  /// [begin, end) are item indices. Determinism contract: morsel
  /// boundaries are a pure function of the weights and options, and every
  /// morsel runs exactly once, so bodies that write only to per-item (or
  /// per-morsel) slots merged in index order produce byte-identical
  /// output at any thread count, morsel size, and schedule. Status
  /// semantics are ParallelForStatus's: serial stops at the first
  /// failure; parallel runs everything and reports the smallest-index
  /// non-OK status. Records `exec.morsel_size_bytes` into the attached
  /// metrics registry, plus the cumulative morsel_totals().
  Status ParallelForMorsels(
      const char* stage, const std::vector<uint64_t>& item_bytes,
      const MorselOptions& options,
      const std::function<Status(size_t morsel, size_t begin, size_t end)>&
          body,
      MorselStats* stats = nullptr);

  /// Cumulative ParallelForMorsels accounting across regions.
  MorselStats morsel_totals() const;

 private:
  /// True when regions run on the calling thread: no pool, or a region
  /// nested inside another.
  bool RunsInline() const;
  void Record(const char* stage, size_t tasks, double elapsed_ms);

  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  obs::MetricsRegistry* metrics_ = nullptr;
  mutable std::mutex morsel_mu_;
  MorselStats morsel_totals_;  // guarded by morsel_mu_
};

/// Concatenates per-chunk outputs (e.g. from ParallelForChunked) in chunk
/// order, moving the elements; chunk order is input order.
template <typename T>
std::vector<T> ConcatChunks(std::vector<std::vector<T>>* chunks) {
  std::vector<T> out;
  if (chunks->empty()) return out;
  out = std::move((*chunks)[0]);
  for (size_t c = 1; c < chunks->size(); ++c) {
    for (T& item : (*chunks)[c]) out.push_back(std::move(item));
  }
  return out;
}

/// The executor an operator runs on: `exec` itself, or for nullptr one
/// process-wide inline executor (threads = 1). This is the only place a
/// null executor is given a meaning; operators resolve their argument
/// here and keep a single body. The shared instance owns no pool and no
/// metrics registry, so any number of threads may run regions on it at
/// once; never attach metrics to it.
Executor* OrInline(Executor* exec);

}  // namespace unilog::exec

#endif  // UNILOG_EXEC_EXECUTOR_H_
