#include "storage/storage_cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace velox {

StorageCluster::StorageCluster(StorageClusterOptions options)
    : options_(options), network_(options.network) {
  VELOX_CHECK_GT(options.num_nodes, 0);
  replication_ = std::clamp(options.replication_factor, 1, options.num_nodes);
  stores_.reserve(static_cast<size_t>(options.num_nodes));
  logs_.reserve(static_cast<size_t>(options.num_nodes));
  for (int32_t i = 0; i < options.num_nodes; ++i) {
    VELOX_CHECK_OK(cluster_.AddNode(i, StrFormat("node-%d:7077", i)));
    VELOX_CHECK_OK(router_.AddNode(i));
    stores_.push_back(std::make_unique<KvStore>());
    logs_.push_back(std::make_unique<ObservationLog>());
  }
  if (options.inject_faults) network_.InjectFaults(options.faults);
}

Status StorageCluster::SetNodeFailWrites(NodeId node, bool fail) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument(StrFormat("no such node %d", node));
  }
  stores_[static_cast<size_t>(node)]->SetFailWrites(fail);
  return Status::OK();
}

Result<NodeId> StorageCluster::OwnerOf(Key key) const {
  std::lock_guard<std::mutex> lock(router_mu_);
  return router_.NodeForKey(key);
}

Result<std::vector<NodeId>> StorageCluster::OwnerOfEach(std::span<const Key> keys) const {
  std::vector<NodeId> owners(keys.size());
  std::lock_guard<std::mutex> lock(router_mu_);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      owners[i] = owners[i - 1];
      continue;
    }
    VELOX_ASSIGN_OR_RETURN(owners[i], router_.NodeForKey(keys[i]));
  }
  return owners;
}

Result<std::vector<NodeId>> StorageCluster::OwnersOf(Key key) const {
  std::lock_guard<std::mutex> lock(router_mu_);
  return router_.NodesForKey(key, replication_);
}

Status StorageCluster::FailNode(NodeId node) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument(StrFormat("no such node %d", node));
  }
  VELOX_RETURN_NOT_OK(cluster_.MarkDead(node));
  std::lock_guard<std::mutex> lock(router_mu_);
  VELOX_RETURN_NOT_OK(router_.RemoveNode(node));
  if (router_.num_nodes() == 0) {
    return Status::FailedPrecondition("last node failed; cluster is down");
  }
  return Status::OK();
}

void StorageCluster::AdvanceTimestampTo(int64_t t) {
  int64_t current = logical_time_.load();
  while (current < t && !logical_time_.compare_exchange_weak(current, t)) {
  }
}

bool StorageCluster::IsAlive(NodeId node) const {
  auto info = cluster_.GetNode(node);
  return info.ok() && info->state == NodeState::kAlive;
}

Status StorageCluster::CreateTable(const std::string& name) {
  for (auto& store : stores_) {
    auto r = store->CreateTable(name, options_.partitions_per_table);
    VELOX_RETURN_NOT_OK(r.status());
  }
  return Status::OK();
}

std::vector<Observation> StorageCluster::AllObservations() const {
  std::vector<bool> alive(logs_.size());
  size_t total = 0;
  for (size_t n = 0; n < logs_.size(); ++n) {
    alive[n] = IsAlive(static_cast<NodeId>(n));
    if (alive[n]) total += logs_[n]->size();
  }
  std::vector<Observation> out;
  out.reserve(total);
  for (size_t n = 0; n < logs_.size(); ++n) {
    if (alive[n]) logs_[n]->CopyTo(&out);
  }
  return out;
}

}  // namespace velox
