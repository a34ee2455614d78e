#include "oink/artifact_cache.h"

#include <algorithm>

#include "common/coding.h"
#include "common/compress.h"
#include "dataflow/plan_fingerprint.h"

namespace unilog::oink {

namespace {
constexpr std::string_view kMagic = "OKC1";
}  // namespace

ArtifactCache::ArtifactCache(hdfs::MiniHdfs* fs, ArtifactCacheOptions options,
                             obs::MetricsRegistry* metrics)
    : fs_(fs), options_(std::move(options)), metrics_(metrics) {
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  hits_ = metrics_->GetCounter("oink.cache_hits");
  misses_ = metrics_->GetCounter("oink.cache_misses");
  evictions_ = metrics_->GetCounter("oink.cache_evictions");
  corrupt_ = metrics_->GetCounter("oink.cache_corrupt");
  stale_ = metrics_->GetCounter("oink.cache_stale");
  bytes_gauge_ = metrics_->GetGauge("oink.cache_bytes");
}

std::string ArtifactCache::PathFor(const std::string& key) const {
  std::string path;
  path.reserve(options_.root.size() + key.size() + 5);
  path.append(options_.root).append("/").append(key).append(".okc");
  return path;
}

Status ArtifactCache::EnsureLoaded() {
  if (loaded_) return Status::OK();
  loaded_ = true;
  if (!fs_->IsDir(options_.root)) return Status::OK();
  UNILOG_ASSIGN_OR_RETURN(auto listing, fs_->ListRecursive(options_.root));
  // Listing order is lexicographic, not recency — close enough for a
  // rebuilt LRU seed; real use order reasserts itself as probes Touch.
  for (const auto& entry : listing) {
    size_t slash = entry.path.rfind('/');
    std::string base = entry.path.substr(slash + 1);
    if (base.size() <= 4 || base.substr(base.size() - 4) != ".okc") continue;
    Insert(base.substr(0, base.size() - 4), entry.size);
  }
  return Status::OK();
}

void ArtifactCache::Touch(Entry* entry) {
  lru_.splice(lru_.end(), lru_, entry->lru_pos);
}

ArtifactCache::Entry& ArtifactCache::Insert(const std::string& key,
                                            uint64_t size) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    resident_bytes_b_ -= it->second.size;
    it->second.size = size;
    Touch(&it->second);
  } else {
    lru_.push_back(key);
    Entry entry;
    entry.size = size;
    entry.lru_pos = std::prev(lru_.end());
    it = entries_.emplace(key, std::move(entry)).first;
  }
  resident_bytes_b_ += size;
  bytes_gauge_->Set(static_cast<int64_t>(resident_bytes_b_));
  return it->second;
}

void ArtifactCache::Forget(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  resident_bytes_b_ -= it->second.size;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  bytes_gauge_->Set(static_cast<int64_t>(resident_bytes_b_));
}

Status ArtifactCache::DropDegraded(const std::string& key,
                                   obs::Counter* reason) {
  reason->Increment();
  misses_->Increment();
  Forget(key);
  if (fs_->Exists(PathFor(key))) {
    UNILOG_RETURN_NOT_OK(fs_->Delete(PathFor(key)));
  }
  return Status::NotFound("oink cache: entry dropped");
}

Result<CacheHit> ArtifactCache::Get(const std::string& key,
                                    const std::string& expected_manifest) {
  UNILOG_RETURN_NOT_OK(EnsureLoaded());
  const std::string path = PathFor(key);
  Result<hdfs::FileStatus> stat = fs_->Stat(path);
  if (!stat.ok()) {
    misses_->Increment();
    return Status::NotFound("oink cache: no entry");
  }
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.payload != nullptr &&
      it->second.generation == stat->generation &&
      it->second.manifest == expected_manifest) {
    // The file has not been written since its bytes were verified.
    Touch(&it->second);
    hits_->Increment();
    return CacheHit{it->second.cold_cost_bytes, it->second.payload};
  }
  UNILOG_ASSIGN_OR_RETURN(std::string raw, fs_->ReadFile(path));

  Decoder dec(raw);
  std::string_view magic;
  uint64_t stored_total_fnv = 0;
  if (!dec.GetBytes(kMagic.size(), &magic).ok() || magic != kMagic ||
      !dec.GetVarint64(&stored_total_fnv).ok()) {
    return DropDegraded(key, corrupt_);
  }
  std::string_view remainder = raw;
  remainder.remove_prefix(dec.position());
  if (dataflow::Fingerprint::OfBytes(remainder) != stored_total_fnv) {
    return DropDegraded(key, corrupt_);
  }

  uint64_t payload_fnv = 0;
  uint64_t cold_cost_bytes = 0;
  std::string_view manifest, compressed;
  if (!dec.GetVarint64(&payload_fnv).ok() ||
      !dec.GetVarint64(&cold_cost_bytes).ok() ||
      !dec.GetLengthPrefixed(&manifest).ok() ||
      !dec.GetLengthPrefixed(&compressed).ok() || !dec.AtEnd()) {
    return DropDegraded(key, corrupt_);
  }
  if (manifest != expected_manifest) {
    // The plan would read different bytes now than when this was cached
    // (e.g. a late part landed in the hour). Recompute, never serve stale.
    return DropDegraded(key, stale_);
  }
  Result<std::string> payload = Lz::Decompress(compressed);
  if (!payload.ok() ||
      dataflow::Fingerprint::OfBytes(*payload) != payload_fnv) {
    return DropDegraded(key, corrupt_);
  }

  auto shared = std::make_shared<const std::string>(std::move(*payload));
  if (it != entries_.end()) {
    Entry& entry = it->second;
    Touch(&entry);
    entry.generation = stat->generation;
    entry.manifest = expected_manifest;
    entry.cold_cost_bytes = cold_cost_bytes;
    entry.payload = shared;
  }
  hits_->Increment();
  return CacheHit{cold_cost_bytes, std::move(shared)};
}

Status ArtifactCache::Put(const std::string& key, CacheArtifact artifact) {
  UNILOG_RETURN_NOT_OK(EnsureLoaded());

  std::string body;
  PutVarint64(&body, dataflow::Fingerprint::OfBytes(artifact.payload));
  PutVarint64(&body, artifact.cold_cost_bytes);
  PutLengthPrefixed(&body, artifact.manifest);
  PutLengthPrefixed(&body, Lz::Compress(artifact.payload));

  std::string file;
  file.reserve(kMagic.size() + 10 + body.size());
  file.append(kMagic);
  PutVarint64(&file, dataflow::Fingerprint::OfBytes(body));
  file.append(body);

  const std::string path = PathFor(key);
  if (fs_->Exists(path)) {
    UNILOG_RETURN_NOT_OK(fs_->Delete(path));
  }
  UNILOG_RETURN_NOT_OK(fs_->WriteFile(path, file));
  UNILOG_ASSIGN_OR_RETURN(hdfs::FileStatus stat, fs_->Stat(path));
  Entry& entry = Insert(key, file.size());
  entry.generation = stat.generation;
  entry.manifest = std::move(artifact.manifest);
  entry.cold_cost_bytes = artifact.cold_cost_bytes;
  entry.payload =
      std::make_shared<const std::string>(std::move(artifact.payload));

  // Budget enforcement; the entry just written is at the MRU end and so
  // survives unless it alone exceeds the whole budget.
  while (options_.byte_budget > 0 && resident_bytes_b_ > options_.byte_budget &&
         lru_.size() > 1) {
    const std::string victim = lru_.front();
    Forget(victim);
    if (fs_->Exists(PathFor(victim))) {
      UNILOG_RETURN_NOT_OK(fs_->Delete(PathFor(victim)));
    }
    evictions_->Increment();
  }
  return Status::OK();
}

}  // namespace unilog::oink
