// Unit tests for the ZooKeeper-style coordination service, focused on the
// semantics the Scribe infrastructure depends on: ephemeral registration,
// session expiry, and one-shot watches (§2 of the paper).

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::zk {
namespace {

TEST(ZooKeeperTest, RootExists) {
  ZooKeeper zk;
  EXPECT_TRUE(zk.Exists("/"));
  EXPECT_EQ(zk.znode_count(), 1u);
}

TEST(ZooKeeperTest, CreateGetSetDelete) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  auto created = zk.Create(s, "/config", "v1", CreateMode::kPersistent);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(*created, "/config");
  EXPECT_EQ(zk.GetData("/config").value(), "v1");

  ASSERT_TRUE(zk.SetData(s, "/config", "v2").ok());
  EXPECT_EQ(zk.GetData("/config").value(), "v2");
  EXPECT_EQ(zk.Stat("/config")->version, 1);

  ASSERT_TRUE(zk.Delete(s, "/config").ok());
  EXPECT_FALSE(zk.Exists("/config"));
}

TEST(ZooKeeperTest, PathValidation) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  EXPECT_TRUE(zk.Create(s, "noslash", "", CreateMode::kPersistent)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(zk.Create(s, "/trailing/", "", CreateMode::kPersistent)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(zk.Create(s, "/a//b", "", CreateMode::kPersistent)
                  .status().IsInvalidArgument());
}

TEST(ZooKeeperTest, ParentMustExist) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  EXPECT_TRUE(zk.Create(s, "/a/b", "", CreateMode::kPersistent)
                  .status().IsNotFound());
  ASSERT_TRUE(zk.Create(s, "/a", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(zk.Create(s, "/a/b", "", CreateMode::kPersistent).ok());
}

TEST(ZooKeeperTest, DuplicateCreateFails) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/x", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(zk.Create(s, "/x", "", CreateMode::kPersistent)
                  .status().IsAlreadyExists());
}

TEST(ZooKeeperTest, DeleteWithChildrenFails) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/a", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.Create(s, "/a/b", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(zk.Delete(s, "/a").IsFailedPrecondition());
  ASSERT_TRUE(zk.Delete(s, "/a/b").ok());
  EXPECT_TRUE(zk.Delete(s, "/a").ok());
}

TEST(ZooKeeperTest, GetChildrenSorted) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/agg", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.Create(s, "/agg/c", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.Create(s, "/agg/a", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.Create(s, "/agg/b", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.Create(s, "/agg/a/nested", "", CreateMode::kPersistent).ok());
  auto children = zk.GetChildren("/agg");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"a", "b", "c"}));
  // Nested nodes are not direct children.
  auto root_children = zk.GetChildren("/");
  ASSERT_TRUE(root_children.ok());
  EXPECT_EQ(*root_children, std::vector<std::string>{"agg"});
}

TEST(ZooKeeperTest, SequentialNodesGetIncreasingSuffixes) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/q", "", CreateMode::kPersistent).ok());
  auto a = zk.Create(s, "/q/item-", "", CreateMode::kPersistentSequential);
  auto b = zk.Create(s, "/q/item-", "", CreateMode::kPersistentSequential);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, "/q/item-0000000000");
  EXPECT_EQ(*b, "/q/item-0000000001");
  EXPECT_LT(*a, *b);
}

TEST(ZooKeeperTest, EphemeralNodesDieWithSession) {
  ZooKeeper zk;
  SessionId daemon = zk.CreateSession();
  SessionId agg = zk.CreateSession();
  ASSERT_TRUE(zk.Create(daemon, "/aggregators", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(
      zk.Create(agg, "/aggregators/agg1", "host1:1463", CreateMode::kEphemeral)
          .ok());
  EXPECT_TRUE(zk.Exists("/aggregators/agg1"));
  EXPECT_EQ(zk.Stat("/aggregators/agg1")->ephemeral_owner, agg);

  // Aggregator crashes → session expires → ephemeral node disappears (§2).
  ASSERT_TRUE(zk.CloseSession(agg).ok());
  EXPECT_FALSE(zk.Exists("/aggregators/agg1"));
  // Persistent parent survives.
  EXPECT_TRUE(zk.Exists("/aggregators"));
}

TEST(ZooKeeperTest, ChildStampMovesOnEveryChildMutationAndNeverRepeats) {
  ZooKeeper zk;
  SessionId admin = zk.CreateSession();
  SessionId owner = zk.CreateSession();
  EXPECT_EQ(zk.ChildStamp("/dir"), 0u);  // no such directory
  ASSERT_TRUE(zk.Create(admin, "/dir", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.Create(admin, "/other", "", CreateMode::kPersistent).ok());

  std::set<uint64_t> seen = {0};
  uint64_t stamp = zk.ChildStamp("/dir");
  // True when the stamp moved to a value it never had before.
  auto moved = [&] {
    const uint64_t now = zk.ChildStamp("/dir");
    const bool fresh = now != stamp && seen.insert(now).second;
    stamp = now;
    return fresh;
  };
  auto held = [&] { return zk.ChildStamp("/dir") == stamp; };
  EXPECT_NE(stamp, 0u);
  seen.insert(stamp);

  auto candidate =
      zk.Create(owner, "/dir/m-", "0", CreateMode::kEphemeralSequential);
  ASSERT_TRUE(candidate.ok());
  EXPECT_TRUE(moved());  // child create
  ASSERT_TRUE(zk.SetData(owner, *candidate, "7").ok());
  EXPECT_TRUE(moved());  // child SetData
  ASSERT_TRUE(zk.SetData(owner, *candidate, "7").ok());
  EXPECT_TRUE(moved());  // even to the same bytes (the version moves)
  ASSERT_TRUE(zk.Create(admin, "/dir/p", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(zk.Delete(admin, "/dir/p").ok());
  EXPECT_TRUE(moved());  // child delete

  // Reads never move it.
  EXPECT_TRUE(zk.GetChildren("/dir").ok());
  EXPECT_TRUE(zk.GetData(*candidate).ok());
  EXPECT_TRUE(zk.Stat("/dir").ok());
  EXPECT_TRUE(zk.Exists(*candidate));
  EXPECT_TRUE(zk.VisitChildren("/dir", [](std::string_view,
                                          const std::string&) {}).ok());
  EXPECT_TRUE(held());

  // Neither do mutations outside its children: the directory's own data,
  // a sibling's children, or a grandchild.
  ASSERT_TRUE(zk.SetData(admin, "/dir", "meta").ok());
  ASSERT_TRUE(zk.Create(admin, "/other/x", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.SetData(admin, "/other/x", "1").ok());
  ASSERT_TRUE(zk.Create(admin, "/dir/p", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(zk.Create(admin, "/dir/p/q", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(zk.SetData(admin, "/dir/p/q", "2").ok());
  EXPECT_TRUE(held());
  ASSERT_TRUE(zk.Delete(admin, "/dir/p/q").ok());
  ASSERT_TRUE(zk.Delete(admin, "/dir/p").ok());
  EXPECT_TRUE(moved());

  // Session close (a crash or an expiry) deletes the ephemeral child.
  ASSERT_TRUE(zk.Create(owner, "/other/e", "", CreateMode::kEphemeral).ok());
  EXPECT_TRUE(held());
  ASSERT_TRUE(zk.CloseSession(owner).ok());
  EXPECT_FALSE(zk.Exists(*candidate));
  EXPECT_TRUE(moved());

  // Delete and re-create: 0 while it is gone, then a value never seen.
  ASSERT_TRUE(zk.Delete(admin, "/dir").ok());
  EXPECT_EQ(zk.ChildStamp("/dir"), 0u);
  const uint64_t highest = *seen.rbegin();
  ASSERT_TRUE(zk.Create(admin, "/dir", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(moved());
  EXPECT_GT(stamp, highest);
}

TEST(ZooKeeperTest, VisitChildrenSeesDirectChildrenInPlace) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  for (const char* path : {"/a", "/a-b", "/a.c", "/a/x", "/a/x/deep", "/a/y",
                           "/a0", "/b"}) {
    ASSERT_TRUE(zk.Create(s, path, std::string(path) + "!",
                          CreateMode::kPersistent)
                    .ok());
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(zk.VisitChildren("/a", [&](std::string_view name,
                                         const std::string& data) {
                    seen.push_back(std::string(name) + "=" + data);
                  }).ok());
  // Siblings sorting just before ("/a-b", "/a.c") and after ("/a0") the
  // "/a/" range stay out, as does the grandchild.
  EXPECT_EQ(seen, (std::vector<std::string>{"x=/a/x!", "y=/a/y!"}));
  seen.clear();
  ASSERT_TRUE(zk.VisitChildren("/", [&](std::string_view name,
                                        const std::string&) {
                    seen.emplace_back(name);
                  }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "a-b", "a.c", "a0", "b"}));
  EXPECT_TRUE(zk.VisitChildren("/missing", [](std::string_view,
                                              const std::string&) {})
                  .IsNotFound());
  EXPECT_EQ(zk.Stat("/a")->num_children, 2u);
  EXPECT_TRUE(zk.Delete(s, "/a-b").ok());  // no children, despite "/a-b/"
  EXPECT_TRUE(zk.Delete(s, "/a").IsFailedPrecondition());
}

TEST(ZooKeeperTest, EphemeralCannotHaveChildren) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/e", "", CreateMode::kEphemeral).ok());
  EXPECT_TRUE(zk.Create(s, "/e/child", "", CreateMode::kPersistent)
                  .status().IsFailedPrecondition());
}

TEST(ZooKeeperTest, ClosedSessionRejected) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.CloseSession(s).ok());
  EXPECT_FALSE(zk.SessionAlive(s));
  EXPECT_TRUE(zk.Create(s, "/x", "", CreateMode::kPersistent)
                  .status().IsFailedPrecondition());
  EXPECT_TRUE(zk.CloseSession(s).IsNotFound());
}

TEST(ZooKeeperTest, ExistsWatchFiresOnceOnCreate) {
  ZooKeeper zk;  // synchronous watches (no simulator)
  SessionId s = zk.CreateSession();
  std::vector<std::string> fired;
  zk.WatchExists("/new", [&](WatchEvent ev, const std::string& path) {
    fired.push_back(std::string(WatchEventName(ev)) + ":" + path);
  });
  ASSERT_TRUE(zk.Create(s, "/new", "", CreateMode::kPersistent).ok());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "created:/new");
  // One-shot: a second change does not re-fire.
  ASSERT_TRUE(zk.Delete(s, "/new").ok());
  EXPECT_EQ(fired.size(), 1u);
}

TEST(ZooKeeperTest, ChildrenWatchFiresOnMembershipChange) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/agg", "", CreateMode::kPersistent).ok());
  int fires = 0;
  zk.WatchChildren("/agg", [&](WatchEvent ev, const std::string&) {
    EXPECT_EQ(ev, WatchEvent::kChildrenChanged);
    ++fires;
  });
  ASSERT_TRUE(zk.Create(s, "/agg/a", "", CreateMode::kEphemeral).ok());
  EXPECT_EQ(fires, 1);
  // Re-arm, then delete.
  zk.WatchChildren("/agg", [&](WatchEvent, const std::string&) { ++fires; });
  ASSERT_TRUE(zk.Delete(s, "/agg/a").ok());
  EXPECT_EQ(fires, 2);
}

TEST(ZooKeeperTest, DataWatchFiresOnSetAndDelete) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/d", "v0", CreateMode::kPersistent).ok());
  std::vector<WatchEvent> events;
  zk.WatchData("/d", [&](WatchEvent ev, const std::string&) {
    events.push_back(ev);
  });
  ASSERT_TRUE(zk.SetData(s, "/d", "v1").ok());
  zk.WatchData("/d", [&](WatchEvent ev, const std::string&) {
    events.push_back(ev);
  });
  ASSERT_TRUE(zk.Delete(s, "/d").ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], WatchEvent::kDataChanged);
  EXPECT_EQ(events[1], WatchEvent::kDeleted);
}

TEST(ZooKeeperTest, SessionExpiryFiresWatches) {
  // This is the re-discovery mechanism: daemons watch the aggregator
  // registry; when an aggregator's session dies, the children watch fires
  // and daemons re-consult the registry.
  Simulator sim;
  ZooKeeper zk(&sim);
  SessionId agg = zk.CreateSession();
  SessionId daemon = zk.CreateSession();
  ASSERT_TRUE(
      zk.Create(daemon, "/aggregators", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(
      zk.Create(agg, "/aggregators/a1", "h1", CreateMode::kEphemeral).ok());
  sim.Run();

  bool notified = false;
  zk.WatchChildren("/aggregators", [&](WatchEvent, const std::string&) {
    notified = true;
    auto children = zk.GetChildren("/aggregators");
    ASSERT_TRUE(children.ok());
    EXPECT_TRUE(children->empty());
  });
  ASSERT_TRUE(zk.CloseSession(agg).ok());
  EXPECT_FALSE(notified);  // deferred onto the virtual clock
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_GE(zk.watch_fires(), 1u);
}

TEST(ZooKeeperTest, WatchCoalescesEventsBeforeDelivery) {
  // Regression for the one-shot watch re-arm race: with deferred delivery,
  // an event striking between the watch firing and the callback running
  // used to be lost — the callback saw a stale "created" for a node that a
  // same-tick delete had already removed, and nothing ever re-fired.
  Simulator sim;
  ZooKeeper zk(&sim);
  SessionId s = zk.CreateSession();
  int fires = 0;
  WatchEvent last = WatchEvent::kChildrenChanged;
  zk.WatchExists("/n", [&](WatchEvent ev, const std::string&) {
    ++fires;
    last = ev;
  });
  ASSERT_TRUE(zk.Create(s, "/n", "", CreateMode::kPersistent).ok());
  // Delivery is pending on the virtual clock; the delete lands first.
  ASSERT_TRUE(zk.Delete(s, "/n").ok());
  sim.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(last, WatchEvent::kDeleted);
}

TEST(ZooKeeperTest, WatchRearmedInCallbackSeesSubsequentEvents) {
  // The re-arm-then-recompute pattern leader election uses: each callback
  // re-registers the watch before reading state, so a chain of changes is
  // never silently dropped.
  Simulator sim;
  ZooKeeper zk(&sim);
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/members", "", CreateMode::kPersistent).ok());
  int notifications = 0;
  std::function<void()> arm = [&]() {
    zk.WatchChildren("/members", [&](WatchEvent, const std::string&) {
      arm();  // re-arm before acting on the event
      ++notifications;
    });
  };
  arm();
  ASSERT_TRUE(zk.Create(s, "/members/a", "", CreateMode::kEphemeral).ok());
  sim.Run();
  EXPECT_EQ(notifications, 1);
  // A burst within one delivery window coalesces to at least one
  // notification, after which the re-armed watch still tracks new events.
  ASSERT_TRUE(zk.Create(s, "/members/b", "", CreateMode::kEphemeral).ok());
  ASSERT_TRUE(zk.Delete(s, "/members/b").ok());
  sim.Run();
  EXPECT_GE(notifications, 2);
  int before = notifications;
  ASSERT_TRUE(zk.Create(s, "/members/c", "", CreateMode::kEphemeral).ok());
  sim.Run();
  EXPECT_EQ(notifications, before + 1);
}

TEST(ZooKeeperTest, EphemeralSequentialCombines) {
  ZooKeeper zk;
  SessionId s = zk.CreateSession();
  ASSERT_TRUE(zk.Create(s, "/members", "", CreateMode::kPersistent).ok());
  auto a = zk.Create(s, "/members/m-", "", CreateMode::kEphemeralSequential);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(zk.Stat(*a)->ephemeral_owner, s);
  ASSERT_TRUE(zk.CloseSession(s).ok());
  EXPECT_FALSE(zk.Exists(*a));
}

// Session-expiry storm: 120 members register ephemerals under one registry
// node while a re-arming children watcher (the daemon re-discovery pattern)
// follows membership. Three quarters of the sessions expire in a burst; the
// registry must converge to exactly the survivors, and the watcher must get
// there in a bounded number of fires — deliveries coalesce per round, so the
// storm cannot fan out into one notification per expiry.
TEST(ZooKeeperTest, SessionExpiryStormConvergesWithBoundedWatchFires) {
  Simulator sim;
  ZooKeeper zk(&sim);
  SessionId root = zk.CreateSession();
  ASSERT_TRUE(zk.Create(root, "/members", "", CreateMode::kPersistent).ok());

  constexpr int kMembers = 120;
  std::vector<SessionId> sessions;
  for (int i = 0; i < kMembers; ++i) {
    SessionId s = zk.CreateSession();
    ASSERT_TRUE(zk.Create(s, "/members/m" + std::to_string(i), "",
                          CreateMode::kEphemeral)
                    .ok());
    sessions.push_back(s);
  }
  sim.Run();
  ASSERT_EQ(zk.GetChildren("/members")->size(),
            static_cast<size_t>(kMembers));

  int notifications = 0;
  size_t last_seen = 0;
  std::function<void()> arm = [&] {
    zk.WatchChildren("/members", [&](WatchEvent, const std::string&) {
      arm();  // one-shot watch: re-arm first, then re-read membership
      ++notifications;
      auto children = zk.GetChildren("/members");
      ASSERT_TRUE(children.ok());
      last_seen = children->size();
    });
  };
  arm();

  int expired = 0;
  for (int i = 0; i < kMembers; ++i) {
    if (i % 4 == 0) continue;  // every fourth member survives the storm
    ASSERT_TRUE(zk.CloseSession(sessions[i]).ok());
    ++expired;
  }
  sim.Run();

  auto children = zk.GetChildren("/members");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children->size(), static_cast<size_t>(kMembers - expired));
  for (int i = 0; i < kMembers; ++i) {
    EXPECT_EQ(zk.SessionAlive(sessions[i]), i % 4 == 0);
  }
  // The watcher converged to the post-storm membership without one fire
  // per expiry.
  EXPECT_EQ(last_seen, children->size());
  EXPECT_GE(notifications, 1);
  EXPECT_LT(notifications, expired);
}

}  // namespace
}  // namespace unilog::zk
