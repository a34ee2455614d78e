#ifndef UNILOG_OINK_ARTIFACT_CACHE_H_
#define UNILOG_OINK_ARTIFACT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"

namespace unilog::oink {

/// One cached intermediate result, as Put stores it.
struct CacheArtifact {
  /// The full input manifest the result was computed from. Stored verbatim
  /// (not just its hash) so a hit re-verifies the inputs byte-for-byte —
  /// a 64-bit key collision can steer a probe to this artifact, but never
  /// get a stale or foreign result served.
  std::string manifest;
  /// Bytes the cold computation decompressed to produce this result; a hit
  /// credits this much to oink.bytes_saved.
  uint64_t cold_cost_bytes = 0;
  /// Serialized relation bytes (dataflow::SerializeRelation).
  std::string payload;
};

/// What a hit returns: the artifact's cold cost and its verified payload,
/// shared with the cache's memo (immutable, so holders never copy it).
struct CacheHit {
  uint64_t cold_cost_bytes = 0;
  std::shared_ptr<const std::string> payload;
};

struct ArtifactCacheOptions {
  /// Directory the artifacts live in. The '_' basename keeps warehouse
  /// scans and the delivery audit from counting cache files as log data
  /// (same convention as _audit/ and other bookkeeping dirs).
  std::string root = "/warehouse/_cache";
  /// Total artifact bytes kept on disk; least-recently-used entries are
  /// evicted past this. 0 means unlimited.
  uint64_t byte_budget = 64ull * 1024 * 1024;
};

/// Content-addressed store for Oink intermediate results, kept in sim-HDFS
/// so cached work survives engine restarts the way Twitter's warehouse
/// outlives any one Oink run. Keys are plan+input fingerprints (hex);
/// artifacts are checksummed end-to-end and compressed.
///
/// File format ("OKC1"): magic | varint whole-file FNV-64 (over everything
/// after it) | varint payload FNV-64 (over the *decompressed* payload) |
/// varint cold_cost_bytes | length-prefixed manifest | length-prefixed
/// compressed payload. Any truncation, bit flip, or parse failure makes a
/// probe delete the entry and report a miss — corrupt bytes are never
/// returned, and a recompute repairs the cache.
///
/// Verified-artifact memo: for each entry it has verified or written, the
/// cache keeps the artifact file's write generation, manifest, cold cost
/// and decompressed payload. A probe whose file generation has not moved
/// since (MiniHdfs advances it on every write, rename and CorruptFile)
/// compares manifests and returns the memoized payload with no ReadFile,
/// checksum or decompression; every other probe reads and verifies the
/// file. Eviction, overwrite and a degraded probe drop the memo.
class ArtifactCache {
 public:
  ArtifactCache(hdfs::MiniHdfs* fs, ArtifactCacheOptions options = {},
                obs::MetricsRegistry* metrics = nullptr);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Probes for `key`. NotFound on a miss — including the degraded cases,
  /// which additionally delete the entry: checksum/parse corruption, and a
  /// *stale* entry whose stored manifest differs from `expected_manifest`
  /// (the inputs changed under the same plan, e.g. a late-arriving part).
  /// Any other error status is a real fault (e.g. HDFS unavailable).
  Result<CacheHit> Get(const std::string& key,
                       const std::string& expected_manifest);

  /// Stores an artifact under `key`, replacing any existing entry, then
  /// evicts least-recently-used entries beyond the byte budget (never the
  /// entry just written).
  Status Put(const std::string& key, CacheArtifact artifact);

  uint64_t hits() const { return hits_->value(); }
  uint64_t misses() const { return misses_->value(); }
  uint64_t evictions() const { return evictions_->value(); }
  uint64_t corrupt_entries() const { return corrupt_->value(); }
  uint64_t stale_entries() const { return stale_->value(); }
  uint64_t resident_bytes() const { return resident_bytes_b_; }

  const ArtifactCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    uint64_t size = 0;
    std::list<std::string>::iterator lru_pos;
    /// The memo, valid while the artifact file's write generation is
    /// `generation`; `payload` is null when none is held.
    uint64_t generation = 0;
    std::string manifest;
    uint64_t cold_cost_bytes = 0;
    std::shared_ptr<const std::string> payload;
  };

  std::string PathFor(const std::string& key) const;
  /// Lists the cache root and rebuilds the LRU index; a fresh engine over
  /// an existing warehouse inherits the persisted artifacts.
  Status EnsureLoaded();
  void Touch(Entry* entry);
  void Forget(const std::string& key);
  Entry& Insert(const std::string& key, uint64_t size);
  /// Deletes the entry and records a degraded probe; always returns
  /// NotFound so callers treat every degraded case as a plain miss.
  Status DropDegraded(const std::string& key, obs::Counter* reason);

  hdfs::MiniHdfs* fs_;
  ArtifactCacheOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;

  bool loaded_ = false;
  /// LRU order: front = coldest, back = most recently used.
  std::list<std::string> lru_;
  std::map<std::string, Entry> entries_;
  uint64_t resident_bytes_b_ = 0;

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* corrupt_;
  obs::Counter* stale_;
  obs::Gauge* bytes_gauge_;
};

}  // namespace unilog::oink

#endif  // UNILOG_OINK_ARTIFACT_CACHE_H_
