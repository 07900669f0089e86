// StorageCluster + StorageClient: placement, routing, and the locality
// accounting underpinning the paper's §5 claims.
#include "storage/storage_client.h"

#include <gtest/gtest.h>

#include "storage/storage_cluster.h"

namespace velox {
namespace {

StorageClusterOptions SmallCluster(int32_t nodes) {
  StorageClusterOptions opts;
  opts.num_nodes = nodes;
  opts.partitions_per_table = 4;
  opts.network.local_call_nanos = 10;
  opts.network.remote_latency_nanos = 1000;
  opts.network.nanos_per_byte = 0.0;
  return opts;
}

Value Payload(uint8_t tag) { return Value{tag, tag, tag}; }

TEST(StorageClusterTest, CreatesTablesOnEveryNode) {
  StorageCluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_TRUE(cluster.store(n)->GetTable("t").ok());
  }
  // Creating again fails everywhere.
  EXPECT_TRUE(cluster.CreateTable("t").IsAlreadyExists());
}

TEST(StorageClusterTest, OwnerIsStable) {
  StorageCluster cluster(SmallCluster(4));
  for (Key k = 0; k < 100; ++k) {
    EXPECT_EQ(cluster.OwnerOf(k).value(), cluster.OwnerOf(k).value());
  }
}

TEST(StorageClientTest, PutPlacesDataOnOwningNode) {
  StorageCluster cluster(SmallCluster(4));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(client.Put("t", k, Payload(static_cast<uint8_t>(k))).ok());
  }
  for (Key k = 0; k < 200; ++k) {
    NodeId owner = cluster.OwnerOf(k).value();
    auto table = cluster.store(owner)->GetTable("t");
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(table.value()->Contains(k)) << "key " << k;
    // And no other node has it.
    for (NodeId n = 0; n < 4; ++n) {
      if (n == owner) continue;
      EXPECT_FALSE(cluster.store(n)->GetTable("t").value()->Contains(k));
    }
  }
}

TEST(StorageClientTest, GetRoundTripsThroughOwner) {
  StorageCluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient writer(&cluster, 0);
  StorageClient reader(&cluster, 2);
  ASSERT_TRUE(writer.Put("t", 77, Payload(9)).ok());
  auto v = reader.Get("t", 77);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Payload(9));
}

TEST(StorageClientTest, GetMissingKeyIsNotFound) {
  StorageCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);
  EXPECT_TRUE(client.Get("t", 12345).status().IsNotFound());
}

TEST(StorageClientTest, UnknownTableIsNotFound) {
  StorageCluster cluster(SmallCluster(2));
  StorageClient client(&cluster, 0);
  EXPECT_TRUE(client.Get("missing", 1).status().IsNotFound());
  EXPECT_TRUE(client.Put("missing", 1, Payload(1)).IsNotFound());
}

TEST(StorageClientTest, SingleNodeTrafficIsAllLocal) {
  StorageCluster cluster(SmallCluster(1));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(client.Put("t", k, Payload(1)).ok());
    ASSERT_TRUE(client.Get("t", k).ok());
  }
  auto stats = cluster.network()->stats();
  EXPECT_EQ(stats.remote_messages, 0u);
  EXPECT_GT(stats.local_messages, 0u);
}

TEST(StorageClientTest, CrossNodeAccessesChargedRemote) {
  StorageCluster cluster(SmallCluster(4));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);
  for (Key k = 0; k < 400; ++k) {
    ASSERT_TRUE(client.Put("t", k, Payload(1)).ok());
  }
  auto stats = cluster.network()->stats();
  // With 4 nodes, ~3/4 of keys live remotely from node 0.
  double remote_fraction = stats.RemoteFraction();
  EXPECT_GT(remote_fraction, 0.55);
  EXPECT_LT(remote_fraction, 0.95);
}

TEST(StorageClientTest, AccessingOwnKeysIsLocal) {
  StorageCluster cluster(SmallCluster(4));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  // For every key, access it from its owner: traffic must be 100% local.
  for (Key k = 0; k < 200; ++k) {
    NodeId owner = cluster.OwnerOf(k).value();
    StorageClient client(&cluster, owner);
    ASSERT_TRUE(client.Put("t", k, Payload(1)).ok());
  }
  EXPECT_EQ(cluster.network()->stats().remote_messages, 0u);
}

TEST(StorageClientTest, PutSurfacesReplicaWriteFailure) {
  // Regression: Put used to ignore each replica table's Put() status,
  // reporting success while a wedged replica silently diverged.
  StorageClusterOptions opts = SmallCluster(3);
  opts.replication_factor = 2;
  StorageCluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);

  const Key key = 11;
  auto owners = cluster.OwnersOf(key).value();
  ASSERT_EQ(owners.size(), 2u);
  // Wedge the secondary replica's stores: reads fine, writes rejected.
  ASSERT_TRUE(cluster.SetNodeFailWrites(owners[1], true).ok());

  Status put = client.Put("t", key, Payload(7));
  EXPECT_FALSE(put.ok()) << "write failed on a replica but Put reported success";
  EXPECT_TRUE(put.IsUnavailable());
  // The primary still took the write, so this is a partial write.
  EXPECT_EQ(client.stats().partial_writes, 1u);
  EXPECT_TRUE(cluster.store(owners[0])->GetTable("t").value()->Contains(key));
  EXPECT_FALSE(cluster.store(owners[1])->GetTable("t").value()->Contains(key));

  // Unwedged, the same write replicates cleanly and the error clears.
  ASSERT_TRUE(cluster.SetNodeFailWrites(owners[1], false).ok());
  EXPECT_TRUE(client.Put("t", key, Payload(7)).ok());
  EXPECT_TRUE(cluster.store(owners[1])->GetTable("t").value()->Contains(key));
}

TEST(StorageClientTest, WasRemoteInitializedOnFailure) {
  // Regression: when every replica fails, Get used to leave the
  // caller's was_remote flag untouched (indeterminate).
  StorageCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);
  bool was_remote = true;  // poisoned: must be overwritten
  EXPECT_TRUE(client.Get("t", 999, &was_remote).status().IsNotFound());
  EXPECT_FALSE(was_remote);

  was_remote = true;
  EXPECT_TRUE(client.Get("missing", 1, &was_remote).status().IsNotFound());
  EXPECT_FALSE(was_remote);
}

TEST(StorageClientTest, OpReportCountsAttempts) {
  StorageCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  StorageClient client(&cluster, 0);
  ASSERT_TRUE(client.Put("t", 4, Payload(2)).ok());
  StorageOpReport report;
  ASSERT_TRUE(client.Get("t", 4, nullptr, &report).ok());
  EXPECT_EQ(report.attempts, 1);
  EXPECT_FALSE(report.hedged);
  EXPECT_FALSE(report.deadline_missed);
  EXPECT_EQ(report.backoff_nanos, 0);
  EXPECT_GT(report.sim_nanos, 0);
  // A lone Put and a lone Get each ran as one batch of one key.
  StorageClientStats stats = client.stats();
  EXPECT_EQ(stats.multiput_batches, 1u);
  EXPECT_EQ(stats.multiput_keys, 1u);
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, 1u);
}

TEST(StorageClientTest, ObservationsAppendToOriginShard) {
  StorageCluster cluster(SmallCluster(3));
  StorageClient c0(&cluster, 0);
  StorageClient c2(&cluster, 2);
  c0.AppendObservation(Observation{1, 1, 1.0, 0});
  c0.AppendObservation(Observation{2, 2, 2.0, 1});
  c2.AppendObservation(Observation{3, 3, 3.0, 2});
  EXPECT_EQ(cluster.observation_log(0)->size(), 2u);
  EXPECT_EQ(cluster.observation_log(1)->size(), 0u);
  EXPECT_EQ(cluster.observation_log(2)->size(), 1u);
  EXPECT_EQ(cluster.AllObservations().size(), 3u);
  // Observation writes never cross the network.
  EXPECT_EQ(cluster.network()->stats().remote_messages, 0u);
}

}  // namespace
}  // namespace velox
