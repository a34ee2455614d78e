#ifndef UNILOG_HDFS_MINI_HDFS_H_
#define UNILOG_HDFS_MINI_HDFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace unilog::hdfs {

/// Configuration for a MiniHdfs instance.
struct HdfsOptions {
  /// Block size in bytes. Hadoop defaults to 64-128 MiB; the simulated
  /// warehouse uses a small block so laptop-scale datasets still split
  /// into many map tasks, preserving the paper's task-count economics.
  uint64_t block_size = 1 * 1024 * 1024;
  /// Number of simulated datanodes. With the default of 1 the placement
  /// machinery is dormant and the file system behaves exactly as the
  /// single-node original; larger fleets place every block on
  /// `replication` distinct datanodes so a brownout (a subset of
  /// datanodes down) only fails the blocks whose whole replica set is
  /// dark.
  int num_datanodes = 1;
  /// Replicas per block, clamped to num_datanodes.
  int replication = 1;
};

/// Directory-entry metadata.
struct FileStatus {
  std::string path;
  bool is_dir = false;
  uint64_t size = 0;
  uint64_t block_count = 0;
  TimeMs mtime = 0;
  /// The file's write generation (0 for directories). Every create,
  /// append, rename and CorruptFile takes the next value of one
  /// namespace-wide counter, so a (path, generation) pair never names two
  /// different byte strings — the key under which readers may memoize
  /// anything derived from a file's bytes.
  uint64_t generation = 0;
};

/// Fleet-wide replica health, for brownout tests and the soak SLO report.
struct ReplicaReport {
  uint64_t blocks = 0;
  /// Blocks whose every replica sits on a live datanode.
  uint64_t fully_available = 0;
  /// Blocks with at least one — but not all — replicas live.
  uint64_t degraded = 0;
  /// Blocks with no live replica (reads fail until a node returns).
  uint64_t unreadable = 0;
  /// Blocks written with fewer than `replication` replicas because some
  /// datanodes were down at write time.
  uint64_t under_replicated = 0;
};

/// An in-memory single-namespace file system with HDFS-shaped semantics:
/// hierarchical directories, create/append/read, *atomic rename* (the
/// primitive the log mover uses to slide an hour of logs into the
/// warehouse in one step, §2), recursive delete, and listing. Files are
/// accounted in blocks; downstream, the dataflow engine spawns one map
/// task per block, which is what makes raw-log scans expensive in the
/// same way the paper describes.
///
/// Availability injection: SetAvailable(false) makes every data operation
/// return Unavailable, modeling the HDFS outages that force Scribe
/// aggregators to buffer on local disk.
class MiniHdfs {
 public:
  /// `metrics`/`instance`: the registry this file system reports into and
  /// the label distinguishing it from sibling instances (warehouse vs.
  /// per-DC staging). A private registry is used when none is supplied.
  explicit MiniHdfs(Simulator* sim = nullptr, HdfsOptions options = {},
                    obs::MetricsRegistry* metrics = nullptr,
                    std::string instance = "hdfs");

  MiniHdfs(const MiniHdfs&) = delete;
  MiniHdfs& operator=(const MiniHdfs&) = delete;

  /// Creates a directory and any missing ancestors.
  Status Mkdirs(const std::string& path);

  /// Creates a new file with the given content. Parent directories are
  /// created implicitly (HDFS create semantics). Fails if the file exists.
  Status WriteFile(const std::string& path, std::string_view content);

  /// Appends to an existing file (creates it if absent).
  Status AppendFile(const std::string& path, std::string_view content);

  /// Reads a whole file.
  Result<std::string> ReadFile(const std::string& path) const;

  /// Atomically renames a file or directory subtree. `dst` must not exist;
  /// the parent of `dst` must exist and be a directory.
  Status Rename(const std::string& src, const std::string& dst);

  /// Deletes a file, or a directory subtree when `recursive` (a non-empty
  /// directory without `recursive` fails).
  Status Delete(const std::string& path, bool recursive = false);

  /// Lists direct children of a directory, sorted by name.
  Result<std::vector<FileStatus>> List(const std::string& path) const;

  /// Lists all files (not dirs) under a directory subtree, sorted.
  Result<std::vector<FileStatus>> ListRecursive(const std::string& path) const;

  bool Exists(const std::string& path) const;
  bool IsDir(const std::string& path) const;
  Result<FileStatus> Stat(const std::string& path) const;

  /// Number of blocks a file of `size` bytes occupies.
  uint64_t BlocksFor(uint64_t size) const;

  // --- Failure injection ---
  void SetAvailable(bool available) { available_ = available; }
  bool available() const { return available_; }

  /// Makes the next WriteFile of exactly `path` fail with Unavailable —
  /// a one-file fault, e.g. an index write that fails after the data it
  /// indexes was written.
  void InjectWriteFailureOnce(std::string path) {
    failing_write_ = std::move(path);
  }

  /// Takes one datanode down (or back up). Metadata operations (list,
  /// stat, rename, delete, mkdirs) are namenode-only and keep working; a
  /// read fails only when some block of the file has no live replica, and
  /// a write fails only when no datanode at all can take its new blocks.
  /// No-op for indexes outside [0, num_datanodes).
  void SetDatanodeAvailable(int datanode, bool available);
  bool datanode_available(int datanode) const;
  int num_datanodes() const { return static_cast<int>(datanode_up_.size()); }
  int live_datanodes() const;

  /// Chaos backdoor: XOR-flips one content byte of a file (at
  /// `offset % size`), bypassing the availability checks and the write
  /// accounting — models silent on-disk corruption that only the
  /// checksum layer can catch. Fails on directories and empty files.
  /// The mtime stays, but the file takes a new write generation: the
  /// bytes changed, so nothing memoized under the old one may be served
  /// (a real datanode's block scanner would report the replica).
  Status CorruptFile(const std::string& path, uint64_t offset);

  /// Walks every file and classifies its blocks against the current
  /// datanode liveness.
  ReplicaReport Replicas() const;

  // --- Metrics (backed by the obs registry: hdfs.*{fs=<instance>}) ---
  uint64_t total_file_bytes() const {
    return static_cast<uint64_t>(file_bytes_gauge_->value());
  }
  uint64_t total_blocks() const;
  uint64_t file_count() const {
    return static_cast<uint64_t>(file_count_gauge_->value());
  }
  uint64_t bytes_written() const { return bytes_written_->value(); }
  uint64_t bytes_read() const { return bytes_read_->value(); }
  /// Operations rejected while the namenode was unavailable.
  uint64_t unavailable_rejections() const {
    return unavailable_rejections_->value();
  }
  /// Reads/writes rejected because a block had no live replica (datanode
  /// brownout, as opposed to a namenode outage).
  uint64_t brownout_rejections() const {
    return brownout_rejections_->value();
  }
  /// Blocks written with fewer live replicas than configured.
  uint64_t replica_shortfalls() const { return replica_shortfalls_->value(); }
  uint64_t chaos_corruptions() const { return chaos_corruptions_->value(); }

  const HdfsOptions& options() const { return options_; }

 private:
  struct Node {
    bool is_dir = false;
    std::string content;  // files only
    TimeMs mtime = 0;
    uint64_t generation = 0;  // files only; see FileStatus::generation
    /// Replica placement, `replication` datanode indexes per block in
    /// block order. Populated only on sharded instances
    /// (num_datanodes > 1); placement follows the node through renames,
    /// the way real HDFS blocks stay put when a path moves.
    std::vector<uint16_t> block_nodes;
  };

  static Status ValidatePath(const std::string& path);
  static std::string ParentOf(const std::string& path);
  Status CheckAvailable() const;
  uint64_t NextGeneration() { return ++last_generation_; }
  TimeMs Now() const { return sim_ != nullptr ? sim_->Now() : 0; }
  FileStatus MakeStatus(const std::string& path, const Node& node) const;

  bool sharded() const { return datanode_up_.size() > 1; }
  /// Blocks a file of `size` bytes needs placement for (empty files own
  /// one placeholder block, matching BlocksFor's accounting).
  uint64_t PlacementBlocksFor(uint64_t size) const { return BlocksFor(size); }
  /// Extends `node`'s placement out to the block count implied by
  /// `new_size`, choosing `replication` distinct live datanodes per new
  /// block from a deterministic rotating cursor. Fails Unavailable when
  /// no datanode at all is live.
  Status PlaceBlocks(Node* node, uint64_t new_size);
  /// True when every block of `node` has at least one live replica.
  bool AllBlocksReadable(const Node& node) const;

  Simulator* sim_;
  HdfsOptions options_;
  bool available_ = true;
  std::string failing_write_;  // InjectWriteFailureOnce's path, or empty
  std::vector<bool> datanode_up_;
  uint64_t placement_cursor_ = 0;
  uint64_t last_generation_ = 0;
  std::map<std::string, Node> nodes_;  // sorted by path

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* bytes_read_;
  obs::Counter* bytes_written_;
  obs::Counter* files_created_;
  obs::Counter* files_deleted_;
  obs::Counter* unavailable_rejections_;
  obs::Counter* brownout_rejections_;
  obs::Counter* replica_shortfalls_;
  obs::Counter* chaos_corruptions_;
  obs::Gauge* file_count_gauge_;
  obs::Gauge* file_bytes_gauge_;
  obs::Gauge* datanodes_down_gauge_;
};

/// True when any path component of `path` below the `dir` prefix starts
/// with '_' — the warehouse convention for metadata and cache subtrees
/// (_SUCCESS-style markers, _dictionary files, /warehouse/_cache
/// artifacts, _quarantined parts). Every reader of a listing (MapReduce
/// inputs, scans, Pig loaders, Oink manifests, the scrubber) skips hidden
/// paths, so cached intermediate results written next to the data never
/// feed back into a job, a scan, an input fingerprint, or delivery
/// accounting.
bool IsHiddenWarehousePath(const std::string& dir, const std::string& path);

}  // namespace unilog::hdfs

#endif  // UNILOG_HDFS_MINI_HDFS_H_
