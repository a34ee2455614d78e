#ifndef UNILOG_ZK_ZOOKEEPER_H_
#define UNILOG_ZK_ZOOKEEPER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace unilog::zk {

/// Session handle. Sessions model client connections: ephemeral znodes are
/// tied to the session that created them and disappear when it ends —
/// which is exactly the mechanism the paper's Scribe daemons use to
/// discover live aggregators (§2).
using SessionId = uint64_t;

/// Creation modes, as in ZooKeeper.
enum class CreateMode {
  kPersistent,
  kEphemeral,
  kPersistentSequential,
  kEphemeralSequential,
};

/// Watch notification kinds.
enum class WatchEvent {
  kCreated,
  kDeleted,
  kDataChanged,
  kChildrenChanged,
};

/// Returns a printable name for a watch event.
const char* WatchEventName(WatchEvent ev);

/// Metadata about a znode.
struct ZnodeStat {
  int64_t version = 0;
  SessionId ephemeral_owner = 0;  // 0 = persistent
  size_t num_children = 0;
};

/// A ZooKeeper-like coordination service: a hierarchical namespace of data
/// nodes ("znodes") with ephemeral nodes, sequential nodes, and one-shot
/// watches. Single-replica and synchronous — the coordination *protocol*
/// (ZAB) is out of scope; the paper's infrastructure only relies on the
/// client-visible semantics modeled here.
class ZooKeeper {
 public:
  /// `sim` supplies the virtual clock used to defer watch callbacks; may be
  /// nullptr, in which case watches fire synchronously. `metrics` is the
  /// registry zk.* counters report into; a private registry is used when
  /// none is supplied.
  explicit ZooKeeper(Simulator* sim = nullptr,
                     obs::MetricsRegistry* metrics = nullptr);

  ZooKeeper(const ZooKeeper&) = delete;
  ZooKeeper& operator=(const ZooKeeper&) = delete;

  /// Watch callback: receives the event kind and the affected path.
  using Watcher = std::function<void(WatchEvent, const std::string& path)>;

  // --- Sessions ---

  /// Opens a new session.
  SessionId CreateSession();

  /// Ends a session: all its ephemeral znodes are deleted (firing watches).
  /// Used both for graceful close and crash-induced expiry.
  Status CloseSession(SessionId session);

  /// True if the session exists and has not been closed.
  bool SessionAlive(SessionId session) const;

  // --- Znode operations ---

  /// Creates a znode. The parent must exist. For sequential modes a
  /// monotonically increasing 10-digit suffix is appended (per parent);
  /// the actual created path is returned. Ephemeral znodes may not have
  /// children, matching ZooKeeper.
  Result<std::string> Create(SessionId session, const std::string& path,
                             const std::string& data, CreateMode mode);

  /// Deletes a znode; fails if it has children.
  Status Delete(SessionId session, const std::string& path);

  /// Reads znode data.
  Result<std::string> GetData(const std::string& path) const;

  /// Replaces znode data, bumping the version.
  Status SetData(SessionId session, const std::string& path,
                 const std::string& data);

  /// Lists direct children (names, not full paths), sorted.
  Result<std::vector<std::string>> GetChildren(const std::string& path) const;

  /// Calls `visit(name, data)` for every direct child of `path`, in name
  /// order, without copying either (`name` is a std::string_view, `data` a
  /// const std::string&; both are valid only during the call).
  /// NotFound when `path` does not exist.
  template <typename Visit>
  Status VisitChildren(std::string_view path, Visit&& visit) const;

  /// A stamp of the direct children of `path`. It moves whenever a child
  /// is created, deleted (an ephemeral one at session close or expiry
  /// included) or has its data set, and it never takes a value it had
  /// before, also across a delete and re-create of `path`: anything
  /// computed from the children's names and data alone is unchanged while
  /// the stamp is. 0 when `path` does not exist.
  uint64_t ChildStamp(std::string_view path) const;

  /// The last child stamp handed out. Every change of any ChildStamp value
  /// moves it, so while it has not moved no ChildStamp has either.
  uint64_t LastStamp() const { return last_stamp_; }

  bool Exists(const std::string& path) const;
  Result<ZnodeStat> Stat(const std::string& path) const;

  // --- Watches (one-shot, as in ZooKeeper) ---
  //
  // Delivery is deferred onto the virtual clock (sim_->After(0)), and a
  // fired watch stays armed until its callback actually runs: an event
  // striking the same path between fire and delivery is coalesced into the
  // pending callback (which then reports the *latest* transition) rather
  // than lost. Without this, a client that re-registers inside its
  // callback has a re-arm race — a create immediately undone by a delete
  // would be reported as "created" for a node that no longer exists, which
  // is fatal for leader election built on ephemeral candidate znodes.

  /// Fires once on the next create or delete of `path`.
  void WatchExists(const std::string& path, Watcher watcher);

  /// Fires once on the next change to the children of `path`.
  void WatchChildren(const std::string& path, Watcher watcher);

  /// Fires once on the next data change or deletion of `path`.
  void WatchData(const std::string& path, Watcher watcher);

  // --- Introspection ---

  size_t znode_count() const { return nodes_.size(); }
  uint64_t watch_fires() const { return watch_fires_->value(); }
  uint64_t sessions_opened() const { return sessions_opened_->value(); }
  uint64_t sessions_closed() const { return sessions_closed_->value(); }

 private:
  struct Znode {
    std::string data;
    SessionId ephemeral_owner = 0;
    int64_t version = 0;
    uint64_t seq_counter = 0;  // for sequential children
    uint64_t child_stamp = 0;  // see ChildStamp()
    // Never dangles: a znode with children cannot be deleted. Null for
    // the root.
    Znode* parent = nullptr;
  };

  /// Stands for `dir + "/"` in path order without building it, so the
  /// first descendant of `dir` is one tree lookup (upper_bound: the root's
  /// own key "/" equals it). `dir` is empty for the root.
  struct DescendantsOf {
    std::string_view dir;

    // Three-way comparison of `path` with `dir + "/"`.
    static int Compare(std::string_view path, std::string_view dir) {
      if (int c = path.substr(0, dir.size()).compare(dir); c != 0) return c;
      if (path.size() == dir.size()) return -1;
      const unsigned char next = path[dir.size()];
      if (next != '/') return next < '/' ? -1 : 1;
      return path.size() == dir.size() + 1 ? 0 : 1;
    }
    friend bool operator<(const std::string& path, DescendantsOf d) {
      return Compare(path, d.dir) < 0;
    }
    friend bool operator<(DescendantsOf d, const std::string& path) {
      return Compare(path, d.dir) > 0;
    }
  };
  static DescendantsOf Below(std::string_view path) {
    return DescendantsOf{path == "/" ? std::string_view() : path};
  }
  static bool IsBelow(std::string_view path, DescendantsOf d) {
    return path.size() > d.dir.size() + 1 && path.starts_with(d.dir) &&
           path[d.dir.size()] == '/';
  }

  static Status ValidatePath(const std::string& path);
  static std::string ParentOf(const std::string& path);

  /// A watch that has fired but whose callback has not yet run on the
  /// virtual clock. Until delivery the watch is still live: further events
  /// on the path overwrite `event`, so the callback observes the latest
  /// transition instead of a stale one.
  struct PendingWatch {
    Watcher watcher;
    WatchEvent event;
    std::string path;
  };
  using PendingTable = std::multimap<std::string, std::shared_ptr<PendingWatch>>;

  void FireWatches(std::multimap<std::string, Watcher>* table,
                   PendingTable* pending, const std::string& path,
                   WatchEvent ev);
  void DeliverPending(PendingTable* pending,
                      const std::shared_ptr<PendingWatch>& watch);
  Status DeleteInternal(const std::string& path);

  Simulator* sim_;
  // Sorted, with heterogeneous lookup: enables child scans by
  // DescendantsOf and lookups by std::string_view.
  std::map<std::string, Znode, std::less<>> nodes_;
  uint64_t last_stamp_ = 0;
  std::map<SessionId, std::set<std::string>> session_ephemerals_;
  std::set<SessionId> live_sessions_;
  SessionId next_session_ = 1;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* sessions_opened_;
  obs::Counter* sessions_closed_;
  obs::Counter* znodes_created_;
  obs::Counter* znodes_deleted_;
  obs::Counter* watch_fires_;

  std::multimap<std::string, Watcher> exists_watchers_;
  std::multimap<std::string, Watcher> children_watchers_;
  std::multimap<std::string, Watcher> data_watchers_;

  PendingTable pending_exists_;
  PendingTable pending_children_;
  PendingTable pending_data_;
};

template <typename Visit>
Status ZooKeeper::VisitChildren(std::string_view path, Visit&& visit) const {
  if (nodes_.find(path) == nodes_.end()) {
    return Status::NotFound("no such znode: " + std::string(path));
  }
  const DescendantsOf below = Below(path);
  for (auto it = nodes_.upper_bound(below);
       it != nodes_.end() && IsBelow(it->first, below); ++it) {
    std::string_view name = std::string_view(it->first).substr(
        below.dir.size() + 1);
    if (name.find('/') != std::string_view::npos) continue;  // grandchild
    visit(name, it->second.data);
  }
  return Status::OK();
}

}  // namespace unilog::zk

#endif  // UNILOG_ZK_ZOOKEEPER_H_
