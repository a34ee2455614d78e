#include "exec/executor.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace unilog::exec {

namespace {
thread_local bool t_on_pool_worker = false;
// True while this thread is the *caller* of an in-flight ThreadPool::Run.
// A nested region started from inside a task body on the calling thread
// must run inline: Run() holds the batch mutex, so re-entering it from the
// same thread would self-deadlock.
thread_local bool t_in_region = false;

bool InParallelContext() { return t_on_pool_worker || t_in_region; }
}  // namespace

void MorselStats::MergeFrom(const MorselStats& other) {
  morsels += other.morsels;
  total_bytes += other.total_bytes;
  max_morsel_bytes = std::max(max_morsel_bytes, other.max_morsel_bytes);
}

ThreadPool::ThreadPool(int num_workers) {
  workers_.reserve(static_cast<size_t>(std::max(0, num_workers)));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::DrainBatch(Batch* batch) {
  size_t completed = 0;
  while (true) {
    size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) break;
    (*batch->task)(i);
    ++completed;
  }
  if (completed == 0) return;
  size_t done = batch->done.fetch_add(completed, std::memory_order_acq_rel) +
                completed;
  if (done == batch->n) {
    // Take the mutex (empty critical section) so the notification cannot
    // race past the caller's predicate check in Run().
    { std::lock_guard<std::mutex> lock(mu_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  uint64_t last_seq = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && batch_seq_ != last_seq);
      });
      if (stop_) return;
      batch = batch_;
      last_seq = batch_seq_;
    }
    DrainBatch(batch.get());
  }
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& task) {
  if (n == 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
    ++batch_seq_;
  }
  work_cv_.notify_all();
  DrainBatch(batch.get());  // the caller participates
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
    batch_.reset();
  }
}

Executor::Executor(ExecOptions options) : options_(options) {
  if (options_.threads > 1) {
    // N-way parallelism = N-1 workers + the calling thread.
    pool_ = std::make_unique<ThreadPool>(options_.threads - 1);
  }
}

Executor::~Executor() = default;

void Executor::Record(const char* stage, size_t tasks, double elapsed_ms) {
  if (metrics_ == nullptr) return;
  obs::Labels labels{{"stage", stage}};
  metrics_->GetCounter("exec_tasks", labels)->Increment(tasks);
  metrics_->GetCounter("exec_regions", labels)->Increment();
  metrics_->GetHistogram("exec_region_ms", labels)->Observe(elapsed_ms);
  metrics_->GetGauge("exec_threads")->Set(options_.threads);
}

void Executor::ParallelFor(const char* stage, size_t n,
                           const std::function<void(size_t)>& body) {
  if (n == 0) return;
  auto start = std::chrono::steady_clock::now();
  if (RunsInline()) {
    // Serial engine, or a nested region (from a pool worker or from the
    // calling thread's own task body): inline, in index order.
    for (size_t i = 0; i < n; ++i) body(i);
  } else {
    t_in_region = true;
    pool_->Run(n, body);
    t_in_region = false;
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  Record(stage, n, ms);
}

bool Executor::RunsInline() const {
  return !parallel() || InParallelContext();
}

size_t Executor::ChunksFor(size_t n) const {
  if (n == 0) return 0;
  if (RunsInline()) return 1;
  // Oversubscribe ~4 chunks per thread so dynamic claiming absorbs skew.
  size_t target = static_cast<size_t>(options_.threads) * 4;
  size_t min_chunk = std::max<size_t>(1, options_.min_items_per_chunk);
  size_t chunk_size = std::max(min_chunk, (n + target - 1) / target);
  return (n + chunk_size - 1) / chunk_size;
}

size_t Executor::Shards() const {
  return RunsInline() ? 1 : static_cast<size_t>(options_.threads) * 2;
}

void Executor::ParallelForChunked(
    const char* stage, size_t n,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  size_t chunks = ChunksFor(n);
  size_t base = n / chunks;
  size_t rem = n % chunks;
  ParallelFor(stage, chunks, [&](size_t c) {
    size_t begin = c * base + std::min(c, rem);
    size_t end = begin + base + (c < rem ? 1 : 0);
    body(c, begin, end);
  });
}

Status Executor::ParallelForStatus(const char* stage, size_t n,
                                   const std::function<Status(size_t)>& body) {
  if (n == 0) return Status::OK();
  if (RunsInline()) {
    auto start = std::chrono::steady_clock::now();
    Status status = Status::OK();
    size_t ran = 0;
    for (size_t i = 0; i < n; ++i) {
      ++ran;
      status = body(i);
      if (!status.ok()) break;  // historical serial semantics: stop early
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    Record(stage, ran, ms);
    return status;
  }
  std::vector<Status> statuses(n);
  ParallelFor(stage, n, [&](size_t i) { statuses[i] = body(i); });
  for (auto& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status Executor::ParallelForMorsels(
    const char* stage, const std::vector<uint64_t>& item_bytes,
    const MorselOptions& options,
    const std::function<Status(size_t, size_t, size_t)>& body,
    MorselStats* stats) {
  const size_t n = item_bytes.size();
  if (n == 0) return Status::OK();
  const uint64_t target = std::max<uint64_t>(1, options.morsel_bytes);

  // Greedy byte-packing in index order: a pure function of the weights
  // and the target, so boundaries never depend on scheduling.
  std::vector<size_t> bounds;
  bounds.push_back(0);
  MorselStats local;
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += item_bytes[i];
    local.total_bytes += item_bytes[i];
    if (acc >= target) {
      bounds.push_back(i + 1);
      local.max_morsel_bytes = std::max(local.max_morsel_bytes, acc);
      acc = 0;
    }
  }
  if (bounds.back() != n) {
    bounds.push_back(n);
    local.max_morsel_bytes = std::max(local.max_morsel_bytes, acc);
  }
  const size_t morsels = bounds.size() - 1;
  local.morsels = morsels;

  // ThreadPool::Run hands the morsels out from its one shared cursor, so
  // a thread that finishes early simply claims the next morsel.
  Status result = ParallelForStatus(stage, morsels, [&](size_t m) {
    return body(m, bounds[m], bounds[m + 1]);
  });

  if (metrics_ != nullptr) {
    auto* hist =
        metrics_->GetHistogram("exec.morsel_size_bytes", {{"stage", stage}});
    for (size_t m = 0; m < morsels; ++m) {
      uint64_t bytes = 0;
      for (size_t i = bounds[m]; i < bounds[m + 1]; ++i) bytes += item_bytes[i];
      hist->Observe(static_cast<double>(bytes));
    }
  }
  {
    std::lock_guard<std::mutex> lock(morsel_mu_);
    morsel_totals_.MergeFrom(local);
  }
  if (stats != nullptr) stats->MergeFrom(local);
  return result;
}

MorselStats Executor::morsel_totals() const {
  std::lock_guard<std::mutex> lock(morsel_mu_);
  return morsel_totals_;
}

Executor* OrInline(Executor* exec) {
  if (exec != nullptr) return exec;
  static Executor inline_executor;
  return &inline_executor;
}

}  // namespace unilog::exec
