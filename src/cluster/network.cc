#include "cluster/network.h"

#include <algorithm>
#include <cmath>

namespace velox {

namespace {

std::pair<NodeId, NodeId> OrderedPair(NodeId a, NodeId b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

double SimulatedNetwork::SlowdownFor(NodeId from, NodeId to) const {
  // Caller holds fault_mu_ or has verified shaping_ is false.
  double m = 1.0;
  auto it = slowdown_.find(from);
  if (it != slowdown_.end()) m = std::max(m, it->second);
  it = slowdown_.find(to);
  if (it != slowdown_.end()) m = std::max(m, it->second);
  return m;
}

int64_t SimulatedNetwork::CostNanos(NodeId from, NodeId to, uint64_t bytes) const {
  if (from == to) {
    return options_.local_call_nanos;
  }
  // llround, not truncation: fractional nanos-per-byte payload costs
  // would otherwise be systematically undercharged across millions of
  // messages (e.g. 0.3 ns/B * 5 B = 1.5ns -> 1ns, a 33% error).
  int64_t base = options_.remote_latency_nanos +
                 std::llround(options_.nanos_per_byte * static_cast<double>(bytes));
  if (shaping_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    base = std::llround(static_cast<double>(base) * SlowdownFor(from, to));
  }
  return base;
}

int64_t SimulatedNetwork::Charge(NodeId from, NodeId to, uint64_t bytes) {
  int64_t cost = CostNanos(from, to, bytes);
  if (from == to) {
    local_messages_.fetch_add(1, std::memory_order_relaxed);
    local_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    remote_messages_.fetch_add(1, std::memory_order_relaxed);
    remote_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  charged_nanos_.fetch_add(cost, std::memory_order_relaxed);
  if (clock_ != nullptr) clock_->AdvanceNanos(cost);
  return cost;
}

int64_t SimulatedNetwork::ChargeFailure(uint64_t bytes,
                                        std::atomic<uint64_t>* outcome_counter) {
  // The message was sent (it costs wire bytes) but never answered; the
  // sender burns its full patience waiting.
  remote_messages_.fetch_add(1, std::memory_order_relaxed);
  remote_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  outcome_counter->fetch_add(1, std::memory_order_relaxed);
  int64_t wait = faults_.timeout_nanos;
  charged_nanos_.fetch_add(wait, std::memory_order_relaxed);
  if (clock_ != nullptr) clock_->AdvanceNanos(wait);
  return wait;
}

Result<int64_t> SimulatedNetwork::TryCharge(NodeId from, NodeId to, uint64_t bytes) {
  if (from == to || !shaping_.load(std::memory_order_acquire)) {
    return Charge(from, to, bytes);
  }
  int64_t cost;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (partitions_.count(OrderedPair(from, to)) > 0) {
      ChargeFailure(bytes, &dropped_messages_);
      return Status::Unavailable("network partition between nodes");
    }
    if (faults_enabled_) {
      double drop_p = faults_.drop_probability;
      auto link = link_drop_.find({from, to});
      if (link != link_drop_.end()) drop_p = link->second;
      if (drop_p > 0.0 && fault_rng_.Bernoulli(drop_p)) {
        ChargeFailure(bytes, &dropped_messages_);
        return Status::Unavailable("message dropped");
      }
      if (faults_.timeout_probability > 0.0 &&
          fault_rng_.Bernoulli(faults_.timeout_probability)) {
        ChargeFailure(bytes, &timed_out_messages_);
        return Status::Unavailable("response timed out");
      }
    }
    int64_t base = options_.remote_latency_nanos +
                   std::llround(options_.nanos_per_byte * static_cast<double>(bytes));
    cost = std::llround(static_cast<double>(base) * SlowdownFor(from, to));
    if (faults_enabled_ && faults_.latency_jitter_nanos > 0) {
      cost += static_cast<int64_t>(
          fault_rng_.UniformU64(static_cast<uint64_t>(faults_.latency_jitter_nanos)));
    }
  }
  remote_messages_.fetch_add(1, std::memory_order_relaxed);
  remote_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  charged_nanos_.fetch_add(cost, std::memory_order_relaxed);
  if (clock_ != nullptr) clock_->AdvanceNanos(cost);
  return cost;
}

Result<int64_t> SimulatedNetwork::TryChargeBatch(NodeId from, NodeId to,
                                                 uint64_t bytes, uint32_t keys) {
  // One message on the wire regardless of key count: the header
  // (latency) is paid once, the payload bytes sum. Counted before the
  // fault roll — a dropped batch was still sent.
  batched_messages_.fetch_add(1, std::memory_order_relaxed);
  batched_keys_.fetch_add(keys, std::memory_order_relaxed);
  return TryCharge(from, to, bytes);
}

void SimulatedNetwork::ChargeWait(int64_t nanos) {
  if (nanos <= 0) return;
  charged_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  if (clock_ != nullptr) clock_->AdvanceNanos(nanos);
}

void SimulatedNetwork::ChargeAbandoned(NodeId from, NodeId to, uint64_t bytes) {
  if (from == to) {
    local_messages_.fetch_add(1, std::memory_order_relaxed);
    local_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    remote_messages_.fetch_add(1, std::memory_order_relaxed);
    remote_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void SimulatedNetwork::InjectFaults(const FaultInjectionOptions& faults) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_ = faults;
  faults_enabled_ = true;
  fault_rng_ = Rng(faults.seed);
  shaping_.store(true, std::memory_order_release);
}

void SimulatedNetwork::ClearFaults() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_enabled_ = false;
  faults_ = FaultInjectionOptions{};
  link_drop_.clear();
  slowdown_.clear();
  partitions_.clear();
  shaping_.store(false, std::memory_order_release);
}

void SimulatedNetwork::SetLinkDropProbability(NodeId from, NodeId to, double p) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  link_drop_[{from, to}] = p;
  // Link overrides only fire through the plan's sampling path.
  faults_enabled_ = true;
  shaping_.store(true, std::memory_order_release);
}

void SimulatedNetwork::SetNodeSlowdown(NodeId node, double multiplier) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (multiplier == 1.0) {
    slowdown_.erase(node);
  } else {
    slowdown_[node] = multiplier;
  }
  bool any = faults_enabled_ || !slowdown_.empty() || !partitions_.empty() ||
             !link_drop_.empty();
  shaping_.store(any, std::memory_order_release);
}

void SimulatedNetwork::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (partitioned) {
    partitions_.insert(OrderedPair(a, b));
  } else {
    partitions_.erase(OrderedPair(a, b));
  }
  bool any = faults_enabled_ || !slowdown_.empty() || !partitions_.empty() ||
             !link_drop_.empty();
  shaping_.store(any, std::memory_order_release);
}

int64_t SimulatedNetwork::fault_timeout_nanos() const {
  if (!shaping_.load(std::memory_order_acquire)) return 0;
  std::lock_guard<std::mutex> lock(fault_mu_);
  return faults_.timeout_nanos;
}

NetworkStats SimulatedNetwork::stats() const {
  NetworkStats s;
  s.local_messages = local_messages_.load(std::memory_order_relaxed);
  s.remote_messages = remote_messages_.load(std::memory_order_relaxed);
  s.local_bytes = local_bytes_.load(std::memory_order_relaxed);
  s.remote_bytes = remote_bytes_.load(std::memory_order_relaxed);
  s.charged_nanos = charged_nanos_.load(std::memory_order_relaxed);
  s.dropped_messages = dropped_messages_.load(std::memory_order_relaxed);
  s.timed_out_messages = timed_out_messages_.load(std::memory_order_relaxed);
  s.batched_messages = batched_messages_.load(std::memory_order_relaxed);
  s.batched_keys = batched_keys_.load(std::memory_order_relaxed);
  return s;
}

void SimulatedNetwork::ResetStats() {
  local_messages_.store(0, std::memory_order_relaxed);
  remote_messages_.store(0, std::memory_order_relaxed);
  local_bytes_.store(0, std::memory_order_relaxed);
  remote_bytes_.store(0, std::memory_order_relaxed);
  charged_nanos_.store(0, std::memory_order_relaxed);
  dropped_messages_.store(0, std::memory_order_relaxed);
  timed_out_messages_.store(0, std::memory_order_relaxed);
  batched_messages_.store(0, std::memory_order_relaxed);
  batched_keys_.store(0, std::memory_order_relaxed);
}

}  // namespace velox
