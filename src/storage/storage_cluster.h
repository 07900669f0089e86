// The distributed storage tier: one KvStore per simulated node, a
// consistent-hash router assigning keys to nodes, and a shared
// SimulatedNetwork charging local/remote access costs. This is our
// from-scratch stand-in for Tachyon (see DESIGN.md §2).
//
// Access goes through StorageClient (storage/storage_client.h), which
// is bound to an origin node so the network model can distinguish
// node-local from remote operations — the mechanism behind the paper's
// §5 locality claims.
#ifndef VELOX_STORAGE_STORAGE_CLUSTER_H_
#define VELOX_STORAGE_STORAGE_CLUSTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/network.h"
#include "cluster/router.h"
#include "common/result.h"
#include "storage/kv_store.h"
#include "storage/observation_log.h"

namespace velox {

struct StorageClusterOptions {
  int32_t num_nodes = 1;
  int32_t partitions_per_table = 16;
  // Copies of each key (clamped to num_nodes). With R > 1, writes go to
  // the first R distinct ring successors and reads fall back along the
  // replica list — the fault-tolerance role Tachyon plays in the paper.
  int32_t replication_factor = 1;
  NetworkOptions network;
  // When set, the cluster constructs with this fault plan installed on
  // its network (deterministic under faults.seed). Benches and tests
  // can also install/adjust plans at runtime via network().
  bool inject_faults = false;
  FaultInjectionOptions faults;
};

class StorageCluster {
 public:
  explicit StorageCluster(StorageClusterOptions options);

  int32_t num_nodes() const { return static_cast<int32_t>(stores_.size()); }

  // Node owning `key` according to the ring (primary replica).
  Result<NodeId> OwnerOf(Key key) const;
  // OwnerOf(keys[i]) for every i, under one router-lock acquisition; a
  // key equal to its predecessor reuses its owner (a log groups each
  // user's ratings).
  Result<std::vector<NodeId>> OwnerOfEach(std::span<const Key> keys) const;

  // Replica list for `key`: primary first, then the next distinct alive
  // ring successors, up to the replication factor.
  Result<std::vector<NodeId>> OwnersOf(Key key) const;

  // Simulates a node crash: marks it dead and removes it from the ring,
  // so ownership immediately remaps to the survivors. Unreplicated data
  // on the node (including its observation-log shard) is lost, as it
  // would be on a real crash.
  Status FailNode(NodeId node);

  bool IsAlive(NodeId node) const;
  int32_t replication_factor() const { return replication_; }

  // Wedges one node's stores (reads fine, writes rejected) — the
  // partial-write fault the replica write path must surface.
  Status SetNodeFailWrites(NodeId node, bool fail);

  // Cluster-wide logical timestamps: monotone across all nodes, used to
  // order observations from different log shards (windowed retraining).
  int64_t NextTimestamp() { return logical_time_.fetch_add(1) + 1; }
  // Ensures future timestamps exceed `t` (called after loading
  // historical data that carries its own timestamps).
  void AdvanceTimestampTo(int64_t t);

  // Creates `name` on every node (each node stores the shard of keys
  // the ring assigns it).
  Status CreateTable(const std::string& name);

  // Direct handles (no network charge) — used by node-local components
  // and tests.
  KvStore* store(NodeId node) { return stores_[static_cast<size_t>(node)].get(); }
  const KvStore* store(NodeId node) const {
    return stores_[static_cast<size_t>(node)].get();
  }

  // The per-node observation log shard.
  ObservationLog* observation_log(NodeId node) {
    return logs_[static_cast<size_t>(node)].get();
  }

  // Reads every *alive* node's observation-log shard into one vector
  // (offline retraining input), reserved up front and copied once per
  // shard. Order: by node, then by sequence.
  std::vector<Observation> AllObservations() const;

  SimulatedNetwork* network() { return &network_; }
  const ConsistentHashRouter& router() const { return router_; }
  Cluster* cluster() { return &cluster_; }
  const StorageClusterOptions& options() const { return options_; }

 private:
  StorageClusterOptions options_;
  Cluster cluster_;
  // Guards the ring, which mutates on node failure.
  mutable std::mutex router_mu_;
  ConsistentHashRouter router_;
  SimulatedNetwork network_;
  int32_t replication_ = 1;
  std::atomic<int64_t> logical_time_{0};
  std::vector<std::unique_ptr<KvStore>> stores_;
  std::vector<std::unique_ptr<ObservationLog>> logs_;
};

}  // namespace velox

#endif  // VELOX_STORAGE_STORAGE_CLUSTER_H_
