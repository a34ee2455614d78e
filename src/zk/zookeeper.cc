#include "zk/zookeeper.h"

#include <cstdio>

namespace unilog::zk {

const char* WatchEventName(WatchEvent ev) {
  switch (ev) {
    case WatchEvent::kCreated:
      return "created";
    case WatchEvent::kDeleted:
      return "deleted";
    case WatchEvent::kDataChanged:
      return "data_changed";
    case WatchEvent::kChildrenChanged:
      return "children_changed";
  }
  return "unknown";
}

ZooKeeper::ZooKeeper(Simulator* sim, obs::MetricsRegistry* metrics)
    : sim_(sim) {
  nodes_["/"].child_stamp = ++last_stamp_;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(sim_);
    metrics = owned_metrics_.get();
  }
  sessions_opened_ = metrics->GetCounter("zk.sessions_opened");
  sessions_closed_ = metrics->GetCounter("zk.sessions_closed");
  znodes_created_ = metrics->GetCounter("zk.znodes_created");
  znodes_deleted_ = metrics->GetCounter("zk.znodes_deleted");
  watch_fires_ = metrics->GetCounter("zk.watch_fires");
}

SessionId ZooKeeper::CreateSession() {
  SessionId id = next_session_++;
  live_sessions_.insert(id);
  sessions_opened_->Increment();
  return id;
}

bool ZooKeeper::SessionAlive(SessionId session) const {
  return live_sessions_.count(session) > 0;
}

Status ZooKeeper::CloseSession(SessionId session) {
  if (!live_sessions_.erase(session)) {
    return Status::NotFound("no such session");
  }
  sessions_closed_->Increment();
  auto it = session_ephemerals_.find(session);
  if (it != session_ephemerals_.end()) {
    // Copy: DeleteInternal mutates the set via erase callbacks.
    std::set<std::string> paths = it->second;
    session_ephemerals_.erase(it);
    for (const auto& path : paths) {
      // Ignore NotFound: the node may have been deleted explicitly.
      DeleteInternal(path);
    }
  }
  return Status::OK();
}

Status ZooKeeper::ValidatePath(const std::string& path) {
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

std::string ZooKeeper::ParentOf(const std::string& path) {
  size_t pos = path.rfind('/');
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

uint64_t ZooKeeper::ChildStamp(std::string_view path) const {
  auto it = nodes_.find(path);
  return it == nodes_.end() ? 0 : it->second.child_stamp;
}

Result<std::string> ZooKeeper::Create(SessionId session,
                                      const std::string& path,
                                      const std::string& data,
                                      CreateMode mode) {
  if (!SessionAlive(session)) {
    return Status::FailedPrecondition("session closed");
  }
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  if (path == "/") return Status::AlreadyExists("root already exists");

  std::string parent = ParentOf(path);
  auto pit = nodes_.find(parent);
  if (pit == nodes_.end()) {
    return Status::NotFound("parent does not exist: " + parent);
  }
  if (pit->second.ephemeral_owner != 0) {
    return Status::FailedPrecondition(
        "ephemeral znodes may not have children: " + parent);
  }

  std::string actual = path;
  bool sequential = (mode == CreateMode::kPersistentSequential ||
                     mode == CreateMode::kEphemeralSequential);
  if (sequential) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%010llu",
                  static_cast<unsigned long long>(pit->second.seq_counter++));
    actual += suffix;
  }
  if (nodes_.count(actual)) {
    return Status::AlreadyExists("znode exists: " + actual);
  }

  Znode node;
  node.data = data;
  bool ephemeral = (mode == CreateMode::kEphemeral ||
                    mode == CreateMode::kEphemeralSequential);
  if (ephemeral) {
    node.ephemeral_owner = session;
    session_ephemerals_[session].insert(actual);
  }
  node.parent = &pit->second;
  // A fresh stamp for the new node: a re-created path never repeats one.
  node.child_stamp = ++last_stamp_;
  nodes_[actual] = std::move(node);
  pit->second.child_stamp = ++last_stamp_;
  znodes_created_->Increment();

  FireWatches(&exists_watchers_, &pending_exists_, actual,
              WatchEvent::kCreated);
  FireWatches(&children_watchers_, &pending_children_, parent,
              WatchEvent::kChildrenChanged);
  return actual;
}

Status ZooKeeper::DeleteInternal(const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such znode: " + path);

  const DescendantsOf below = Below(path);
  auto child = nodes_.upper_bound(below);
  if (child != nodes_.end() && IsBelow(child->first, below)) {
    return Status::FailedPrecondition("znode has children: " + path);
  }

  SessionId owner = it->second.ephemeral_owner;
  it->second.parent->child_stamp = ++last_stamp_;
  nodes_.erase(it);
  znodes_deleted_->Increment();
  if (owner != 0) {
    auto sit = session_ephemerals_.find(owner);
    if (sit != session_ephemerals_.end()) sit->second.erase(path);
  }
  FireWatches(&exists_watchers_, &pending_exists_, path, WatchEvent::kDeleted);
  FireWatches(&data_watchers_, &pending_data_, path, WatchEvent::kDeleted);
  FireWatches(&children_watchers_, &pending_children_, ParentOf(path),
              WatchEvent::kChildrenChanged);
  return Status::OK();
}

Status ZooKeeper::Delete(SessionId session, const std::string& path) {
  if (!SessionAlive(session)) {
    return Status::FailedPrecondition("session closed");
  }
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  if (path == "/") return Status::InvalidArgument("cannot delete root");
  return DeleteInternal(path);
}

Result<std::string> ZooKeeper::GetData(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such znode: " + path);
  return it->second.data;
}

Status ZooKeeper::SetData(SessionId session, const std::string& path,
                          const std::string& data) {
  if (!SessionAlive(session)) {
    return Status::FailedPrecondition("session closed");
  }
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such znode: " + path);
  it->second.data = data;
  ++it->second.version;
  if (it->second.parent != nullptr) {
    it->second.parent->child_stamp = ++last_stamp_;
  }
  FireWatches(&data_watchers_, &pending_data_, path, WatchEvent::kDataChanged);
  return Status::OK();
}

Result<std::vector<std::string>> ZooKeeper::GetChildren(
    const std::string& path) const {
  UNILOG_RETURN_NOT_OK(ValidatePath(path));
  std::vector<std::string> children;
  UNILOG_RETURN_NOT_OK(VisitChildren(
      path, [&](std::string_view name, const std::string&) {
        children.emplace_back(name);
      }));
  return children;
}

bool ZooKeeper::Exists(const std::string& path) const {
  return nodes_.count(path) > 0;
}

Result<ZnodeStat> ZooKeeper::Stat(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound("no such znode: " + path);
  ZnodeStat stat;
  stat.version = it->second.version;
  stat.ephemeral_owner = it->second.ephemeral_owner;
  (void)VisitChildren(path, [&](std::string_view, const std::string&) {
    ++stat.num_children;
  });
  return stat;
}

void ZooKeeper::WatchExists(const std::string& path, Watcher watcher) {
  exists_watchers_.emplace(path, std::move(watcher));
}

void ZooKeeper::WatchChildren(const std::string& path, Watcher watcher) {
  children_watchers_.emplace(path, std::move(watcher));
}

void ZooKeeper::WatchData(const std::string& path, Watcher watcher) {
  data_watchers_.emplace(path, std::move(watcher));
}

void ZooKeeper::FireWatches(std::multimap<std::string, Watcher>* table,
                            PendingTable* pending, const std::string& path,
                            WatchEvent ev) {
  // A fired watch stays live until its callback runs: events landing in the
  // fire→delivery window update the pending record so the callback reports
  // the latest transition instead of a stale (possibly reverted) one.
  auto prange = pending->equal_range(path);
  for (auto it = prange.first; it != prange.second; ++it) {
    it->second->event = ev;
  }

  auto range = table->equal_range(path);
  if (range.first == range.second) return;
  std::vector<std::shared_ptr<PendingWatch>> fired;
  for (auto it = range.first; it != range.second; ++it) {
    fired.push_back(std::make_shared<PendingWatch>(
        PendingWatch{std::move(it->second), ev, path}));
  }
  table->erase(range.first, range.second);  // one-shot semantics
  watch_fires_->Increment(fired.size());
  for (auto& w : fired) {
    if (sim_ != nullptr) {
      // Deliver asynchronously on the virtual clock, as a real client would
      // observe.
      pending->emplace(path, w);
      sim_->After(0, [this, pending, w]() { DeliverPending(pending, w); });
    } else {
      w->watcher(w->event, w->path);
    }
  }
}

void ZooKeeper::DeliverPending(PendingTable* pending,
                               const std::shared_ptr<PendingWatch>& watch) {
  // Unregister before invoking: events caused by the callback itself must
  // go to whatever watch the client re-arms, not coalesce into this
  // already-delivered record.
  auto range = pending->equal_range(watch->path);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == watch) {
      pending->erase(it);
      break;
    }
  }
  watch->watcher(watch->event, watch->path);
}

}  // namespace unilog::zk
