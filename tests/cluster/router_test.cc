#include "cluster/router.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/random.h"

namespace velox {
namespace {

TEST(HashPartitionerTest, StaysInRange) {
  HashPartitioner p(7);
  for (uint64_t k = 0; k < 10000; ++k) {
    int32_t part = p.PartitionForKey(k);
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 7);
  }
}

TEST(HashPartitionerTest, Deterministic) {
  HashPartitioner p(16);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(p.PartitionForKey(k), p.PartitionForKey(k));
  }
}

TEST(HashPartitionerTest, SequentialKeysSpreadEvenly) {
  HashPartitioner p(10);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (uint64_t k = 0; k < n; ++k) ++counts[p.PartitionForKey(k)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(HashPartitionerTest, MixHashAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t a = HashPartitioner::MixHash(0x1234);
  uint64_t b = HashPartitioner::MixHash(0x1235);
  int differing = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(ConsistentHashRouterTest, EmptyRingFails) {
  ConsistentHashRouter router;
  EXPECT_TRUE(router.NodeForKey(1).status().IsFailedPrecondition());
}

TEST(ConsistentHashRouterTest, SingleNodeOwnsEverything) {
  ConsistentHashRouter router;
  ASSERT_TRUE(router.AddNode(3).ok());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(router.NodeForKey(k).value(), 3);
  }
}

TEST(ConsistentHashRouterTest, DuplicateAddRejected) {
  ConsistentHashRouter router;
  ASSERT_TRUE(router.AddNode(1).ok());
  EXPECT_TRUE(router.AddNode(1).IsAlreadyExists());
}

TEST(ConsistentHashRouterTest, RemoveUnknownRejected) {
  ConsistentHashRouter router;
  EXPECT_TRUE(router.RemoveNode(9).IsNotFound());
}

TEST(ConsistentHashRouterTest, KeysSpreadAcrossNodes) {
  ConsistentHashRouter router(128);
  for (NodeId n = 0; n < 4; ++n) ASSERT_TRUE(router.AddNode(n).ok());
  std::map<NodeId, int> counts;
  const int keys = 40000;
  for (uint64_t k = 0; k < keys; ++k) ++counts[router.NodeForKey(k).value()];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [node, count] : counts) {
    // Each node should own 25% +/- 10 percentage points.
    EXPECT_NEAR(count, keys / 4, keys * 0.10) << "node " << node;
  }
}

TEST(ConsistentHashRouterTest, SmallKeysDoNotAliasVnodePositions) {
  // Regression: vnode positions used to be MixHash((node << 32) | v) —
  // the same function applied to raw keys — so key k < vnodes-per-node
  // hashed exactly onto node 0's vnode (0, k) and lower_bound routed
  // every small key to node 0. Small sequential uids (the common case)
  // all piled onto one node, silently defeating routing locality and
  // replica placement.
  ConsistentHashRouter router(64);
  for (NodeId n = 0; n < 4; ++n) ASSERT_TRUE(router.AddNode(n).ok());
  std::map<NodeId, int> counts;
  for (uint64_t k = 0; k < 64; ++k) ++counts[router.NodeForKey(k).value()];
  EXPECT_GT(counts.size(), 1u) << "all small keys routed to a single node";
  EXPECT_LT(counts[0], 48) << "node 0 still captures nearly all small keys";
}

TEST(ConsistentHashRouterTest, NodeRemovalOnlyRemapsItsKeys) {
  ConsistentHashRouter router(128);
  for (NodeId n = 0; n < 4; ++n) ASSERT_TRUE(router.AddNode(n).ok());
  const int keys = 20000;
  std::vector<NodeId> before(keys);
  for (uint64_t k = 0; k < keys; ++k) before[k] = router.NodeForKey(k).value();
  ASSERT_TRUE(router.RemoveNode(2).ok());
  int moved = 0;
  for (uint64_t k = 0; k < keys; ++k) {
    NodeId now = router.NodeForKey(k).value();
    EXPECT_NE(now, 2);
    if (before[k] != 2) {
      // Keys not owned by the removed node must not move.
      EXPECT_EQ(now, before[k]) << "key " << k;
    } else {
      ++moved;
    }
  }
  // Roughly a quarter of keys belonged to node 2.
  EXPECT_NEAR(moved, keys / 4, keys * 0.10);
}

TEST(ConsistentHashRouterTest, NodeAdditionStealsOnlyNewShare) {
  ConsistentHashRouter router(128);
  for (NodeId n = 0; n < 3; ++n) ASSERT_TRUE(router.AddNode(n).ok());
  const int keys = 20000;
  std::vector<NodeId> before(keys);
  for (uint64_t k = 0; k < keys; ++k) before[k] = router.NodeForKey(k).value();
  ASSERT_TRUE(router.AddNode(3).ok());
  for (uint64_t k = 0; k < keys; ++k) {
    NodeId now = router.NodeForKey(k).value();
    // A key either stayed put or moved to the new node.
    if (now != before[k]) {
      EXPECT_EQ(now, 3) << "key " << k;
    }
  }
}

TEST(ConsistentHashRouterTest, ReplicasAreDistinctAndLedByPrimary) {
  ConsistentHashRouter router(64);
  for (NodeId n = 0; n < 5; ++n) ASSERT_TRUE(router.AddNode(n).ok());
  for (uint64_t k = 0; k < 200; ++k) {
    auto replicas = router.NodesForKey(k, 3).value();
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], router.NodeForKey(k).value());
    std::set<NodeId> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), 3u);
  }
}

TEST(ConsistentHashRouterTest, ReplicasCappedAtClusterSize) {
  ConsistentHashRouter router;
  ASSERT_TRUE(router.AddNode(0).ok());
  ASSERT_TRUE(router.AddNode(1).ok());
  auto replicas = router.NodesForKey(42, 5).value();
  EXPECT_EQ(replicas.size(), 2u);
}

TEST(ConsistentHashRouterTest, InvalidReplicaCountRejected) {
  ConsistentHashRouter router;
  ASSERT_TRUE(router.AddNode(0).ok());
  EXPECT_TRUE(router.NodesForKey(1, 0).status().IsInvalidArgument());
}

TEST(ConsistentHashRouterTest, RandomChurnPreservesInvariants) {
  // Property: under any add/remove sequence, (a) lookups succeed while
  // the ring is non-empty, (b) the owner is always a member, (c)
  // removing a node moves only that node's keys, (d) adding a node
  // steals keys only for itself.
  ConsistentHashRouter router(64);
  Rng rng(314);
  std::set<NodeId> members;
  const int keys = 3000;
  std::vector<NodeId> owner(keys, -1);
  NodeId next_id = 0;

  auto refresh = [&](const std::set<NodeId>& expect_members,
                     NodeId added, NodeId removed) {
    for (uint64_t k = 0; k < keys; ++k) {
      auto now = router.NodeForKey(k);
      ASSERT_TRUE(now.ok());
      ASSERT_TRUE(expect_members.count(now.value())) << "owner not a member";
      NodeId before = owner[k];
      if (before != -1 && now.value() != before) {
        // A moved key must be explained by this step's change.
        ASSERT_TRUE(now.value() == added || before == removed)
            << "key " << k << " moved " << before << "->" << now.value();
      }
      owner[k] = now.value();
    }
  };

  for (int step = 0; step < 40; ++step) {
    bool add = members.size() < 2 || rng.Bernoulli(0.55);
    if (add) {
      NodeId id = next_id++;
      ASSERT_TRUE(router.AddNode(id).ok());
      members.insert(id);
      refresh(members, id, -1);
    } else {
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.UniformU64(members.size())));
      NodeId id = *it;
      ASSERT_TRUE(router.RemoveNode(id).ok());
      members.erase(id);
      refresh(members, -1, id);
    }
    ASSERT_EQ(router.num_nodes(), members.size());
  }
}

TEST(ConsistentHashRouterTest, NodesListsMembership) {
  ConsistentHashRouter router;
  ASSERT_TRUE(router.AddNode(2).ok());
  ASSERT_TRUE(router.AddNode(0).ok());
  auto nodes = router.nodes();
  EXPECT_EQ(nodes.size(), 2u);
  EXPECT_EQ(router.num_nodes(), 2u);
}

}  // namespace
}  // namespace velox
