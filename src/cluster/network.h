// Simulated cluster network.
//
// The paper's locality arguments (§5: partition W by uid so user-weight
// reads/writes are always local; item-feature fetches may be remote but
// are absorbed by an LRU cache because popularity is Zipfian) are about
// *which* accesses cross the network. This model charges a configurable
// latency + bandwidth cost per message to a logical clock and counts
// local vs remote traffic, which is exactly what the routing/locality
// ablation (bench/ablation_routing) reports.
//
// Fault injection: the paper leans on a fault-tolerant storage tier
// (§5: replication keeps serving alive through node loss), so the
// network can also *fail*. An installed FaultInjectionOptions plan adds
// per-message drops, response timeouts, latency jitter, per-node
// slow-replica multipliers, per-link drop overrides, and scripted
// partitions — all deterministic under a seeded Rng. Fault-aware
// callers use TryCharge(); Charge() remains the infallible legacy path
// (in-process calls, accounting-only charges).
#ifndef VELOX_CLUSTER_NETWORK_H_
#define VELOX_CLUSTER_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"

namespace velox {

using NodeId = int32_t;

struct NetworkOptions {
  // Cost of a local (same-node) call, e.g. an in-memory table lookup.
  int64_t local_call_nanos = 500;
  // One-way network latency for a remote call (per message).
  int64_t remote_latency_nanos = 150'000;  // 150us, intra-datacenter RPC
  // Payload cost: nanoseconds per byte on the wire (10 GbE ~ 0.8 ns/B).
  double nanos_per_byte = 0.8;
};

// A deterministic fault plan for the simulated network. Local
// (same-node) messages are never subject to faults: they model
// in-process calls, not wire traffic.
struct FaultInjectionOptions {
  // Probability that a remote message is lost in flight. The sender
  // waits `timeout_nanos` before declaring it lost.
  double drop_probability = 0.0;
  // Probability that a delivered message's response outlives the
  // sender's patience; charged exactly like a drop but counted apart so
  // loss and slowness are distinguishable in reports.
  double timeout_probability = 0.0;
  // Sender-perceived wait before a message is declared lost. Set this
  // above the typical round trip or timeouts become cheaper than
  // successes.
  int64_t timeout_nanos = 2'000'000;  // 2ms
  // Uniform extra one-way latency in [0, latency_jitter_nanos) added to
  // every delivered remote message.
  int64_t latency_jitter_nanos = 0;
  // Seed for the plan's private Rng; the same plan + seed + message
  // sequence reproduces the same faults bit-for-bit.
  uint64_t seed = 0x5eedf00dULL;
};

struct NetworkStats {
  uint64_t local_messages = 0;
  uint64_t remote_messages = 0;
  uint64_t local_bytes = 0;
  uint64_t remote_bytes = 0;
  int64_t charged_nanos = 0;
  // Fault-plan outcomes (all zero when no plan is installed).
  uint64_t dropped_messages = 0;
  uint64_t timed_out_messages = 0;
  // Batched (MultiGet/MultiPut sub-batch) messages and the keys they
  // carried. A batched message is also counted in the local/remote
  // totals above: it is one message on the wire, whatever it carries.
  uint64_t batched_messages = 0;
  uint64_t batched_keys = 0;

  double RemoteFraction() const {
    uint64_t total = local_messages + remote_messages;
    return total == 0 ? 0.0
                      : static_cast<double>(remote_messages) / static_cast<double>(total);
  }
};

class SimulatedNetwork {
 public:
  // `clock` may be null; when set, every charge advances it, so
  // end-to-end simulated time is observable.
  explicit SimulatedNetwork(NetworkOptions options = {}, SimulatedClock* clock = nullptr)
      : options_(options), clock_(clock) {}

  // Computes and records the cost of sending `bytes` from `from` to
  // `to`; returns the charged nanoseconds. Never fails — faults are
  // only applied on the TryCharge path.
  int64_t Charge(NodeId from, NodeId to, uint64_t bytes);

  // Fault-aware delivery. On success charges the (slowed, jittered)
  // cost and returns it; on a drop, timeout, or partition charges the
  // sender's timeout wait, counts the outcome, and returns Unavailable.
  // Equivalent to Charge() when no fault plan is installed.
  Result<int64_t> TryCharge(NodeId from, NodeId to, uint64_t bytes);

  // Batched delivery: one message carrying `keys` keys worth of
  // payload. Costs exactly one header charge (latency) plus the summed
  // payload bytes — the round-trip amortization MultiGet/MultiPut
  // exists for — and counts toward the batched_* stats. Faults apply
  // to the message as a whole: a drop loses every key it carried.
  Result<int64_t> TryChargeBatch(NodeId from, NodeId to, uint64_t bytes,
                                 uint32_t keys);

  // Cost without recording (for what-if analysis and hedging
  // decisions). Includes per-node slowdown multipliers but not jitter.
  int64_t CostNanos(NodeId from, NodeId to, uint64_t bytes) const;

  // Charges `nanos` of pure waiting (retry backoff, hedge delays) to
  // the ledger and the clock without counting a message.
  void ChargeWait(int64_t nanos);

  // Counts a message and its bytes without charging time: the sender
  // abandoned it (a fired hedge's primary request) so its latency
  // overlaps a wait that was already charged, but it still occupies
  // the wire.
  void ChargeAbandoned(NodeId from, NodeId to, uint64_t bytes);

  // ---- fault plan ----
  // Installs (or replaces) the fault plan; reseeds the plan Rng.
  void InjectFaults(const FaultInjectionOptions& faults);
  // Removes the plan plus all link/node/partition overrides.
  void ClearFaults();
  // Overrides the drop probability for the directed link from->to.
  void SetLinkDropProbability(NodeId from, NodeId to, double p);
  // Slow-replica multiplier: messages to or from `node` take
  // `multiplier`x the modeled latency. 1.0 removes the entry.
  void SetNodeSlowdown(NodeId node, double multiplier);
  // Scripted partition: while set, messages between `a` and `b` (both
  // directions) are always dropped.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  // Sender-perceived wait charged for a failed delivery (0 when no
  // plan is installed).
  int64_t fault_timeout_nanos() const;

  NetworkStats stats() const;
  void ResetStats();

  const NetworkOptions& options() const { return options_; }

 private:
  // Charged nanos for a failed delivery; also advances the clock.
  int64_t ChargeFailure(uint64_t bytes, std::atomic<uint64_t>* outcome_counter);
  double SlowdownFor(NodeId from, NodeId to) const;

  NetworkOptions options_;
  SimulatedClock* clock_;
  std::atomic<uint64_t> local_messages_{0};
  std::atomic<uint64_t> remote_messages_{0};
  std::atomic<uint64_t> local_bytes_{0};
  std::atomic<uint64_t> remote_bytes_{0};
  std::atomic<int64_t> charged_nanos_{0};
  std::atomic<uint64_t> dropped_messages_{0};
  std::atomic<uint64_t> timed_out_messages_{0};
  std::atomic<uint64_t> batched_messages_{0};
  std::atomic<uint64_t> batched_keys_{0};

  // True whenever a plan or any override is installed; lets the
  // fault-free hot path skip fault_mu_ entirely.
  std::atomic<bool> shaping_{false};
  mutable std::mutex fault_mu_;
  bool faults_enabled_ = false;
  FaultInjectionOptions faults_;
  Rng fault_rng_;
  std::map<std::pair<NodeId, NodeId>, double> link_drop_;
  std::map<NodeId, double> slowdown_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
};

}  // namespace velox

#endif  // VELOX_CLUSTER_NETWORK_H_
