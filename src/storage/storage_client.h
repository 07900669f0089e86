// StorageClient: node-bound, fault-tolerant access to the StorageCluster.
//
// A client is constructed with an origin node (the node the calling
// Velox predictor/manager process runs on). Every operation resolves
// the owning replicas via the ring and charges the simulated network —
// a local call when owner == origin, a remote RPC otherwise. This makes
// the paper's locality properties measurable: with uid-routing enabled
// the user-weight table sees 100% local traffic; item-feature fetches
// are remote unless cached.
//
// Robustness (Clipper-style bounded latency + "The Tail at Scale"):
// under an injected fault plan (cluster/network.h) messages can drop,
// time out, or slow down, so every operation runs inside a per-op
// deadline of simulated nanoseconds, transient (Unavailable) failures
// are retried with exponential backoff + jitter, and reads hedge to a
// second replica when the primary's projected round trip exceeds the
// hedge delay plus the secondary's. Definitive answers (NotFound, a
// missing table) are never retried.
//
// That policy has one implementation per direction: MultiGet for reads
// and MultiPut for writes. A lone Get is a MultiGet of one key and a
// lone Put a MultiPut of one entry, so they share every counter
// (storage.multiget.* / storage.multiput.* included) and every rule.
#ifndef VELOX_STORAGE_STORAGE_CLIENT_H_
#define VELOX_STORAGE_STORAGE_CLIENT_H_

#include <atomic>
#include <mutex>
#include <string>

#include "common/random.h"
#include "storage/storage_cluster.h"

namespace velox {

struct StorageClientOptions {
  // Total delivery passes per op (each pass walks the replica list);
  // 1 = no retries. Only transient (Unavailable) failures are retried.
  int32_t max_attempts = 3;
  // Backoff before retry k (1-based): base * multiplier^(k-1), then
  // jittered by +/- backoff_jitter fraction. Charged to the simulated
  // clock, never slept.
  int64_t backoff_base_nanos = 500'000;  // 0.5ms
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.5;
  // Per-op budget of simulated nanoseconds (message costs, fault
  // timeouts, backoff and hedge waits all count against it). 0
  // disables deadline enforcement.
  int64_t op_deadline_nanos = 50'000'000;  // 50ms
  // Hedged reads: when the projected primary round trip exceeds
  // hedge_delay_nanos plus the projected round trip of another
  // replica, race that replica (the abandoned primary request is still
  // charged as wire traffic).
  bool hedge_reads = true;
  int64_t hedge_delay_nanos = 1'000'000;  // 1ms
  // Seed for backoff jitter.
  uint64_t seed = 0xbacf0ffULL;
};

// Monotone counters describing how hard the client had to work; the
// serving layer surfaces these as storage.* metrics.
//
// Batched ops count hedges/failovers/retries once per *sub-batch*
// (one message to one node), never once per key: a 64-key sub-batch
// that gets hedged is one hedged read, not 64.
struct StorageClientStats {
  uint64_t retries = 0;           // delivery passes re-run after backoff
  uint64_t hedged_reads = 0;      // secondary replica raced
  uint64_t hedge_wins = 0;        // ...and served the read
  uint64_t deadline_misses = 0;   // op abandoned at its deadline
  uint64_t failovers = 0;         // read served by a non-primary replica
  uint64_t partial_writes = 0;    // Put landed on some but not all replicas
  int64_t backoff_nanos = 0;      // total simulated backoff + hedge waits
  // Batched reads: MultiGet calls, keys they asked for, sub-batch
  // messages they sent, and duplicate keys merged into one fetch.
  uint64_t multiget_batches = 0;
  uint64_t multiget_keys = 0;
  uint64_t multiget_sub_batches = 0;
  uint64_t multiget_merged_misses = 0;
  // Batched writes: MultiPut calls / entries / sub-batch messages.
  uint64_t multiput_batches = 0;
  uint64_t multiput_keys = 0;
  uint64_t multiput_sub_batches = 0;
};

// Optional per-op trace for stage accounting and benches.
struct StorageOpReport {
  int32_t attempts = 1;
  bool hedged = false;
  bool deadline_missed = false;
  // Simulated nanos the op spent waiting in backoff / hedge delays.
  int64_t backoff_nanos = 0;
  // Total simulated nanos the op consumed (messages + waits).
  int64_t sim_nanos = 0;
};

// Outcome of a batched read: per-key results plus the op-level trace.
struct MultiGetResult {
  // Parallel to the input keys. Each entry is the value, NotFound
  // (every replica answered and none had it — definitive), or
  // Unavailable (transient failures survived retries / the deadline).
  // Partial success is normal: some keys resolve, others do not.
  std::vector<Result<Value>> values;
  // True when any key was served by a non-origin replica (the batch
  // paid at least one network round trip).
  bool any_remote = false;
  StorageOpReport report;

  size_t found() const {
    size_t n = 0;
    for (const auto& v : values) n += v.ok() ? 1 : 0;
    return n;
  }
};

class StorageClient {
 public:
  StorageClient(StorageCluster* cluster, NodeId origin_node,
                StorageClientOptions options = {});

  NodeId origin() const { return origin_; }
  const StorageClientOptions& options() const { return options_; }

  // MultiGet of the one key `key`. When `was_remote` is non-null it
  // receives the batch's any_remote: whether the replica that served
  // the read lives on a different node than the origin (i.e. the read
  // paid a network round-trip) — stage tracing uses this to split local
  // vs. remote feature resolution. It is always assigned, false on
  // every error path. `report`, when non-null, receives the op trace.
  Result<Value> Get(const std::string& table, Key key, bool* was_remote = nullptr,
                    StorageOpReport* report = nullptr);
  // MultiPut of the one entry (key, value); returns its status.
  Status Put(const std::string& table, Key key, Value value);

  // Batched read of `keys`. Keys are grouped by owning replica via the
  // ring and each group travels as ONE sub-batch message per node per
  // delivery pass (one header charge + summed payload bytes), so a
  // B-key cold read costs O(nodes) round trips instead of O(B).
  // Duplicate keys are merged into a single fetch (multiget.
  // merged_misses). A key missing on one replica falls over to the
  // next within the pass (replica order 0, 1, 2, ...); retries after
  // backoff re-shard only the still-missing keys; whole sub-batches
  // (never individual keys) are hedged when the target node is
  // projected slower than "wait hedge_delay, then ask another replica":
  // a hedged key races its replica 1 and then falls back in the order
  // 1, 2, ..., 0. The op-wide deadline converts the remaining keys to
  // Unavailable. Results are positional and partial: each key carries
  // its own value or status.
  MultiGetResult MultiGet(const std::string& table, const std::vector<Key>& keys);

  // Batched write: every entry goes to all its replica owners, grouped
  // into one sub-batch message per node per delivery pass. Returns one
  // Status per entry, in input order: OK when every replica took the
  // value, the first error otherwise (counting a partial write when at
  // least one replica did). Transiently unreachable nodes are retried
  // with only their still-pending entries.
  std::vector<Status> MultiPut(const std::string& table,
                               std::vector<std::pair<Key, Value>> entries);

  // Appends to the *origin node's* observation-log shard (observation
  // writes are always local, matching the paper: "all writes — online
  // updates to user weight vectors — are local").
  uint64_t AppendObservation(const Observation& obs);

  // Cluster-wide monotone logical timestamp.
  int64_t NextTimestamp() { return cluster_->NextTimestamp(); }

  StorageClientStats stats() const;
  void ResetStats();

 private:
  // Backoff for the transition into delivery pass `attempt` (>= 1),
  // jittered. Charged to the network's wait ledger by the caller.
  int64_t BackoffNanos(int32_t attempt);

  StorageCluster* cluster_;
  NodeId origin_;
  StorageClientOptions options_;

  std::mutex rng_mu_;
  Rng rng_;

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> hedged_reads_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> partial_writes_{0};
  std::atomic<int64_t> backoff_nanos_{0};
  std::atomic<uint64_t> multiget_batches_{0};
  std::atomic<uint64_t> multiget_keys_{0};
  std::atomic<uint64_t> multiget_sub_batches_{0};
  std::atomic<uint64_t> multiget_merged_misses_{0};
  std::atomic<uint64_t> multiput_batches_{0};
  std::atomic<uint64_t> multiput_keys_{0};
  std::atomic<uint64_t> multiput_sub_batches_{0};
};

}  // namespace velox

#endif  // VELOX_STORAGE_STORAGE_CLIENT_H_
