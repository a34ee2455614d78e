#include "hdfs/mini_hdfs.h"

#include <algorithm>

#include "common/strings.h"

namespace unilog::hdfs {

MiniHdfs::MiniHdfs(Simulator* sim, HdfsOptions options,
                   obs::MetricsRegistry* metrics, std::string instance)
    : sim_(sim), options_(options) {
  if (options_.num_datanodes < 1) options_.num_datanodes = 1;
  if (options_.replication < 1) options_.replication = 1;
  if (options_.replication > options_.num_datanodes) {
    options_.replication = options_.num_datanodes;
  }
  datanode_up_.assign(static_cast<size_t>(options_.num_datanodes), true);
  nodes_["/"] = Node{/*is_dir=*/true, "", 0};
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(sim_);
    metrics = owned_metrics_.get();
  }
  obs::Labels labels{{"fs", std::move(instance)}};
  bytes_read_ = metrics->GetCounter("hdfs.bytes_read", labels);
  bytes_written_ = metrics->GetCounter("hdfs.bytes_written", labels);
  files_created_ = metrics->GetCounter("hdfs.files_created", labels);
  files_deleted_ = metrics->GetCounter("hdfs.files_deleted", labels);
  unavailable_rejections_ =
      metrics->GetCounter("hdfs.unavailable_rejections", labels);
  brownout_rejections_ =
      metrics->GetCounter("hdfs.brownout_rejections", labels);
  replica_shortfalls_ = metrics->GetCounter("hdfs.replica_shortfalls", labels);
  chaos_corruptions_ = metrics->GetCounter("hdfs.chaos_corruptions", labels);
  file_count_gauge_ = metrics->GetGauge("hdfs.file_count", labels);
  file_bytes_gauge_ = metrics->GetGauge("hdfs.file_bytes", labels);
  datanodes_down_gauge_ = metrics->GetGauge("hdfs.datanodes_down", labels);
}

void MiniHdfs::SetDatanodeAvailable(int datanode, bool available) {
  if (datanode < 0 || datanode >= static_cast<int>(datanode_up_.size())) {
    return;
  }
  datanode_up_[static_cast<size_t>(datanode)] = available;
  int64_t down = 0;
  for (bool up : datanode_up_) {
    if (!up) ++down;
  }
  datanodes_down_gauge_->Set(down);
}

bool MiniHdfs::datanode_available(int datanode) const {
  if (datanode < 0 || datanode >= static_cast<int>(datanode_up_.size())) {
    return false;
  }
  return datanode_up_[static_cast<size_t>(datanode)];
}

int MiniHdfs::live_datanodes() const {
  int live = 0;
  for (bool up : datanode_up_) {
    if (up) ++live;
  }
  return live;
}

Status MiniHdfs::PlaceBlocks(Node* node, uint64_t new_size) {
  if (!sharded()) {
    if (!datanode_up_[0]) {
      brownout_rejections_->Increment();
      return Status::Unavailable("datanode down");
    }
    return Status::OK();
  }
  const size_t n = datanode_up_.size();
  const size_t rep = static_cast<size_t>(options_.replication);
  uint64_t want = PlacementBlocksFor(new_size);
  while (node->block_nodes.size() < want * rep) {
    // Rotating primary; replicas are the next live nodes after it. A
    // brownout at write time yields fewer distinct replicas (padded so
    // every block keeps a fixed `replication`-wide stride) — that is the
    // under-replication the soak's replica report surfaces.
    std::vector<uint16_t> chosen;
    uint64_t start = placement_cursor_++;
    for (size_t probe = 0; probe < n && chosen.size() < rep; ++probe) {
      size_t candidate = (start + probe) % n;
      if (datanode_up_[candidate]) {
        chosen.push_back(static_cast<uint16_t>(candidate));
      }
    }
    if (chosen.empty()) {
      brownout_rejections_->Increment();
      return Status::Unavailable("no live datanode for new block");
    }
    if (chosen.size() < rep) {
      replica_shortfalls_->Increment();
      while (chosen.size() < rep) chosen.push_back(chosen.front());
    }
    node->block_nodes.insert(node->block_nodes.end(), chosen.begin(),
                             chosen.end());
  }
  return Status::OK();
}

bool MiniHdfs::AllBlocksReadable(const Node& node) const {
  if (!sharded()) return datanode_up_[0];
  const size_t rep = static_cast<size_t>(options_.replication);
  for (size_t b = 0; b * rep < node.block_nodes.size(); ++b) {
    bool live = false;
    for (size_t r = 0; r < rep; ++r) {
      if (datanode_up_[node.block_nodes[b * rep + r]]) {
        live = true;
        break;
      }
    }
    if (!live) return false;
  }
  return true;
}

Status MiniHdfs::CorruptFile(const std::string& path, uint64_t offset) {
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such file: " + path);
  if (it->second.is_dir) {
    return Status::FailedPrecondition("is a directory: " + path);
  }
  if (it->second.content.empty()) {
    return Status::FailedPrecondition("empty file: " + path);
  }
  // Silent corruption: no mtime bump, no byte accounting — only a
  // checksum recompute can tell. The generation still moves, so no memo
  // of the old bytes survives.
  it->second.content[offset % it->second.content.size()] ^=
      static_cast<char>(0x5A);
  it->second.generation = NextGeneration();
  chaos_corruptions_->Increment();
  return Status::OK();
}

ReplicaReport MiniHdfs::Replicas() const {
  ReplicaReport report;
  const size_t rep = static_cast<size_t>(options_.replication);
  for (const auto& [path, node] : nodes_) {
    if (node.is_dir) continue;
    if (!sharded()) {
      uint64_t blocks = BlocksFor(node.content.size());
      report.blocks += blocks;
      report.fully_available += blocks;
      continue;
    }
    for (size_t b = 0; b * rep < node.block_nodes.size(); ++b) {
      ++report.blocks;
      std::vector<uint16_t> distinct;
      size_t live = 0;
      for (size_t r = 0; r < rep; ++r) {
        uint16_t dn = node.block_nodes[b * rep + r];
        if (std::find(distinct.begin(), distinct.end(), dn) !=
            distinct.end()) {
          continue;
        }
        distinct.push_back(dn);
        if (datanode_up_[dn]) ++live;
      }
      if (distinct.size() < rep) ++report.under_replicated;
      if (live == 0) {
        ++report.unreadable;
      } else if (live == distinct.size()) {
        ++report.fully_available;
      } else {
        ++report.degraded;
      }
    }
  }
  return report;
}

Status MiniHdfs::ValidatePath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must start with '/': " + path);
  }
  if (path.size() > 1 && path.back() == '/') {
    return Status::InvalidArgument("path must not end with '/': " + path);
  }
  if (path.find("//") != std::string::npos) {
    return Status::InvalidArgument("path has empty component: " + path);
  }
  return Status::OK();
}

std::string MiniHdfs::ParentOf(const std::string& path) {
  size_t pos = path.rfind('/');
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

Status MiniHdfs::CheckAvailable() const {
  if (!available_) {
    unavailable_rejections_->Increment();
    return Status::Unavailable("HDFS outage");
  }
  return Status::OK();
}

Status MiniHdfs::Mkdirs(const std::string& path) {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  // Walk down from the root creating missing components.
  std::vector<std::string> parts = Split(path.substr(1), '/');
  std::string cur;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    cur += "/" + part;
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) {
      nodes_[cur] = Node{/*is_dir=*/true, "", Now()};
    } else if (!it->second.is_dir) {
      return Status::FailedPrecondition("not a directory: " + cur);
    }
  }
  return Status::OK();
}

Status MiniHdfs::WriteFile(const std::string& path, std::string_view content) {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  if (path == failing_write_) {
    failing_write_.clear();
    return Status::Unavailable("injected write failure: " + path);
  }
  if (nodes_.count(path)) {
    return Status::AlreadyExists("file exists: " + path);
  }
  Node node{/*is_dir=*/false, std::string(content), Now(), NextGeneration(),
            {}};
  UNILOG_RETURN_NOT_OK(PlaceBlocks(&node, content.size()));
  UNILOG_RETURN_NOT_OK(Mkdirs(ParentOf(path)));
  nodes_[path] = std::move(node);
  bytes_written_->Increment(content.size());
  files_created_->Increment();
  file_bytes_gauge_->Add(static_cast<int64_t>(content.size()));
  file_count_gauge_->Add(1);
  return Status::OK();
}

Status MiniHdfs::AppendFile(const std::string& path,
                            std::string_view content) {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return WriteFile(path, content);
  }
  if (it->second.is_dir) {
    return Status::FailedPrecondition("is a directory: " + path);
  }
  // The append pipeline extends the file's last block before opening new
  // ones, so that block needs a live replica — and the new blocks need
  // somewhere to land.
  if (!AllBlocksReadable(it->second)) {
    brownout_rejections_->Increment();
    return Status::Unavailable("block replicas dark: " + path);
  }
  UNILOG_RETURN_NOT_OK(
      PlaceBlocks(&it->second, it->second.content.size() + content.size()));
  it->second.content.append(content.data(), content.size());
  it->second.mtime = Now();
  it->second.generation = NextGeneration();
  bytes_written_->Increment(content.size());
  file_bytes_gauge_->Add(static_cast<int64_t>(content.size()));
  return Status::OK();
}

Result<std::string> MiniHdfs::ReadFile(const std::string& path) const {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such file: " + path);
  if (it->second.is_dir) {
    return Status::FailedPrecondition("is a directory: " + path);
  }
  if (!AllBlocksReadable(it->second)) {
    brownout_rejections_->Increment();
    return Status::Unavailable("block replicas dark: " + path);
  }
  bytes_read_->Increment(it->second.content.size());
  return it->second.content;
}

Status MiniHdfs::Rename(const std::string& src, const std::string& dst) {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(src));
  UNILOG_RETURN_NOT_OK(ValidatePath(dst));
  auto it = nodes_.find(src);
  if (it == nodes_.end()) return Status::NotFound("no such path: " + src);
  if (nodes_.count(dst)) return Status::AlreadyExists("exists: " + dst);
  std::string dst_parent = ParentOf(dst);
  auto pit = nodes_.find(dst_parent);
  if (pit == nodes_.end() || !pit->second.is_dir) {
    return Status::NotFound("destination parent missing: " + dst_parent);
  }
  if (StartsWith(dst, src + "/")) {
    return Status::InvalidArgument("cannot rename under itself");
  }

  // Collect the subtree, then move atomically (no observable intermediate
  // state: this is single-threaded simulated HDFS, so "atomic" means the
  // whole subtree moves in one call).
  std::vector<std::pair<std::string, Node>> moved;
  moved.emplace_back(dst, std::move(it->second));
  std::string prefix = src + "/";
  std::vector<std::string> to_erase = {src};
  for (auto sub = nodes_.upper_bound(prefix);
       sub != nodes_.end() && StartsWith(sub->first, prefix); ++sub) {
    moved.emplace_back(dst + sub->first.substr(src.size()),
                       std::move(sub->second));
    to_erase.push_back(sub->first);
  }
  for (const auto& p : to_erase) nodes_.erase(p);
  for (auto& [path, node] : moved) {
    node.mtime = Now();
    if (!node.is_dir) node.generation = NextGeneration();
    nodes_.emplace(std::move(path), std::move(node));
  }
  return Status::OK();
}

Status MiniHdfs::Delete(const std::string& path, bool recursive) {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  if (path == "/") return Status::InvalidArgument("cannot delete root");
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such path: " + path);

  std::string prefix = path + "/";
  auto first_child = nodes_.upper_bound(prefix);
  bool has_children = first_child != nodes_.end() &&
                      StartsWith(first_child->first, prefix);
  if (has_children && !recursive) {
    return Status::FailedPrecondition("directory not empty: " + path);
  }

  std::vector<std::string> to_erase = {path};
  for (auto sub = nodes_.upper_bound(prefix);
       sub != nodes_.end() && StartsWith(sub->first, prefix); ++sub) {
    to_erase.push_back(sub->first);
  }
  for (const auto& p : to_erase) {
    auto nit = nodes_.find(p);
    if (!nit->second.is_dir) {
      file_bytes_gauge_->Add(-static_cast<int64_t>(nit->second.content.size()));
      file_count_gauge_->Add(-1);
      files_deleted_->Increment();
    }
    nodes_.erase(nit);
  }
  return Status::OK();
}

FileStatus MiniHdfs::MakeStatus(const std::string& path,
                                const Node& node) const {
  FileStatus st;
  st.path = path;
  st.is_dir = node.is_dir;
  st.size = node.content.size();
  st.block_count = node.is_dir ? 0 : BlocksFor(st.size);
  st.mtime = node.mtime;
  st.generation = node.generation;
  return st;
}

Result<std::vector<FileStatus>> MiniHdfs::List(const std::string& path) const {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such path: " + path);
  if (!it->second.is_dir) {
    return Status::FailedPrecondition("not a directory: " + path);
  }
  std::string prefix = path == "/" ? "/" : path + "/";
  std::vector<FileStatus> out;
  for (auto sub = nodes_.upper_bound(prefix);
       sub != nodes_.end() && StartsWith(sub->first, prefix); ++sub) {
    std::string rest = sub->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) {
      out.push_back(MakeStatus(sub->first, sub->second));
    }
  }
  return out;
}

Result<std::vector<FileStatus>> MiniHdfs::ListRecursive(
    const std::string& path) const {
  UNILOG_RETURN_NOT_OK(CheckAvailable());
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such path: " + path);
  if (!it->second.is_dir) {
    return Status::FailedPrecondition("not a directory: " + path);
  }
  std::string prefix = path == "/" ? "/" : path + "/";
  std::vector<FileStatus> out;
  for (auto sub = nodes_.upper_bound(prefix);
       sub != nodes_.end() && StartsWith(sub->first, prefix); ++sub) {
    if (!sub->second.is_dir) {
      out.push_back(MakeStatus(sub->first, sub->second));
    }
  }
  return out;
}

bool MiniHdfs::Exists(const std::string& path) const {
  return nodes_.count(path) > 0;
}

bool MiniHdfs::IsDir(const std::string& path) const {
  auto it = nodes_.find(path);
  return it != nodes_.end() && it->second.is_dir;
}

Result<FileStatus> MiniHdfs::Stat(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such path: " + path);
  return MakeStatus(path, it->second);
}

uint64_t MiniHdfs::BlocksFor(uint64_t size) const {
  if (size == 0) return 1;
  return (size + options_.block_size - 1) / options_.block_size;
}

uint64_t MiniHdfs::total_blocks() const {
  uint64_t blocks = 0;
  for (const auto& [path, node] : nodes_) {
    if (!node.is_dir) blocks += BlocksFor(node.content.size());
  }
  return blocks;
}

bool IsHiddenWarehousePath(const std::string& dir, const std::string& path) {
  // Listings hand back absolute paths under `dir`; anything else is
  // checked whole (defensive — never out of bounds).
  size_t start = path.compare(0, dir.size(), dir) == 0 ? dir.size() : 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    if (path[start] == '_') return true;
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return false;
}

}  // namespace unilog::hdfs
