#include "storage/storage_client.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/logging.h"

namespace velox {

namespace {

// Fixed framing overhead modeled per message (request or response):
// routing header, table name, key count. Every op pays it, a lone
// Get/Put included (about 13 simulated ns at the default 0.8 ns/B);
// the per-message saving of batching is the latency header, not the
// framing.
constexpr uint64_t kBatchHeaderBytes = 16;

}  // namespace

StorageClient::StorageClient(StorageCluster* cluster, NodeId origin_node,
                             StorageClientOptions options)
    : cluster_(cluster),
      origin_(origin_node),
      options_(options),
      rng_(options.seed ^ (0x51edc11e47ULL + static_cast<uint64_t>(origin_node))) {
  VELOX_CHECK_GE(origin_node, 0);
  VELOX_CHECK_LT(origin_node, cluster->num_nodes());
  VELOX_CHECK_GE(options_.max_attempts, 1);
}

int64_t StorageClient::BackoffNanos(int32_t attempt) {
  double wait = static_cast<double>(options_.backoff_base_nanos);
  for (int32_t i = 1; i < attempt; ++i) wait *= options_.backoff_multiplier;
  const double j = options_.backoff_jitter;
  if (j > 0.0) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    wait *= (1.0 - j) + 2.0 * j * rng_.UniformDouble();
  }
  return std::max<int64_t>(0, std::llround(wait));
}

Result<Value> StorageClient::Get(const std::string& table, Key key, bool* was_remote,
                                 StorageOpReport* report) {
  MultiGetResult got = MultiGet(table, {key});
  // any_remote is false on every error path, so the caller's flag is
  // never left indeterminate.
  if (was_remote != nullptr) *was_remote = got.any_remote;
  if (report != nullptr) *report = got.report;
  return std::move(got.values.front());
}

Status StorageClient::Put(const std::string& table, Key key, Value value) {
  std::vector<std::pair<Key, Value>> entries;
  entries.emplace_back(key, std::move(value));
  return MultiPut(table, std::move(entries)).front();
}

MultiGetResult StorageClient::MultiGet(const std::string& table,
                                       const std::vector<Key>& keys) {
  MultiGetResult out;
  if (keys.empty()) return out;
  multiget_batches_.fetch_add(1, std::memory_order_relaxed);
  multiget_keys_.fetch_add(keys.size(), std::memory_order_relaxed);

  // Merge duplicate keys into one slot: a batch asking for the same
  // item twice fetches it once (the coalescer above relies on this).
  struct Slot {
    Key key = 0;
    std::vector<NodeId> owners;
    // Replica visiting order is owners[(start + step) % size]: start is
    // rotated to 1 when the slot's primary sub-batch gets hedged, step
    // counts replicas visited in the current delivery pass.
    size_t start = 0;
    size_t step = 0;
    bool transient = false;  // saw a transient failure this pass
    bool done = false;
    int hedge_group = -1;
    Status last = Status::NotFound("no replica produced the key");
  };
  std::vector<Slot> slots;
  std::vector<std::optional<Result<Value>>> results;
  std::vector<size_t> key_to_slot(keys.size());
  {
    std::unordered_map<Key, size_t> first;
    first.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, inserted] = first.emplace(keys[i], slots.size());
      if (inserted) {
        Slot s;
        s.key = keys[i];
        slots.push_back(std::move(s));
        results.emplace_back(std::nullopt);
      } else {
        multiget_merged_misses_.fetch_add(1, std::memory_order_relaxed);
      }
      key_to_slot[i] = it->second;
    }
  }
  for (size_t s = 0; s < slots.size(); ++s) {
    auto owners = cluster_->OwnersOf(slots[s].key);
    if (!owners.ok()) {
      slots[s].done = true;
      results[s] = owners.status();
      continue;
    }
    slots[s].owners = std::move(owners).value();
  }

  SimulatedNetwork* net = cluster_->network();
  const int64_t deadline = options_.op_deadline_nanos;
  const int64_t fail_wait = net->fault_timeout_nanos();
  int64_t spent = 0;
  StorageOpReport rep;
  // One hedge_win at most per fired hedge, however many keys it moved.
  std::vector<bool> hedge_won;
  bool deadline_missed = false;

  auto replica_pos = [](const Slot& s) {
    return (s.start + s.step) % s.owners.size();
  };

  const int32_t max_attempts = std::max(1, options_.max_attempts);
  for (int32_t attempt = 0; attempt < max_attempts; ++attempt) {
    bool any_pending = false;
    for (const Slot& s : slots) any_pending |= !s.done;
    if (!any_pending) break;
    if (attempt > 0) {
      // One backoff + one retry count per delivery pass, shared by
      // every still-missing key — never per key.
      int64_t wait = BackoffNanos(attempt);
      if (deadline > 0 && spent + wait > deadline) {
        deadline_missed = true;
        break;
      }
      net->ChargeWait(wait);
      backoff_nanos_.fetch_add(wait, std::memory_order_relaxed);
      rep.backoff_nanos += wait;
      spent += wait;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
    rep.attempts = attempt + 1;
    for (Slot& s : slots) {
      if (s.done) continue;
      s.step = 0;
      s.transient = false;
    }

    // Walk rounds within the pass: group still-missing keys by the
    // replica each is currently trying, send one sub-batch message per
    // node, advance keys that missed to their next replica, regroup.
    // Every processed slot advances `step`, so this terminates.
    while (true) {
      std::map<NodeId, std::vector<size_t>> groups;
      for (size_t s = 0; s < slots.size(); ++s) {
        Slot& sl = slots[s];
        if (sl.done || sl.step >= sl.owners.size()) continue;
        groups[sl.owners[replica_pos(sl)]].push_back(s);
      }
      if (groups.empty()) break;

      for (auto& [node, members] : groups) {
        const uint64_t req_bytes = kBatchHeaderBytes + sizeof(Key) * members.size();

        // Hedge whole sub-batches, never keys: when "wait out the hedge
        // delay, then ask the replica set" is projected faster than this
        // node, abandon the in-flight request (still wire traffic) and
        // rotate every member to its second replica.
        if (attempt == 0 && options_.hedge_reads && node != origin_) {
          bool hedgeable = true;
          for (size_t s : members) {
            const Slot& sl = slots[s];
            hedgeable &= sl.step == 0 && sl.start == 0 && sl.owners.size() > 1 &&
                         sl.hedge_group < 0;
          }
          if (hedgeable) {
            const Slot& probe = slots[members.front()];
            const int64_t primary_rtt = 2 * net->CostNanos(origin_, node, req_bytes);
            int64_t best_rtt = primary_rtt;
            for (size_t i = 1; i < probe.owners.size(); ++i) {
              int64_t rtt = options_.hedge_delay_nanos +
                            2 * net->CostNanos(origin_, probe.owners[i], req_bytes);
              best_rtt = std::min(best_rtt, rtt);
            }
            if (best_rtt < primary_rtt) {
              hedged_reads_.fetch_add(1, std::memory_order_relaxed);
              rep.hedged = true;
              net->ChargeWait(options_.hedge_delay_nanos);
              net->ChargeAbandoned(origin_, node, req_bytes);
              backoff_nanos_.fetch_add(options_.hedge_delay_nanos,
                                       std::memory_order_relaxed);
              rep.backoff_nanos += options_.hedge_delay_nanos;
              spent += options_.hedge_delay_nanos;
              int group = static_cast<int>(hedge_won.size());
              hedge_won.push_back(false);
              for (size_t s : members) {
                slots[s].start = 1;
                slots[s].hedge_group = group;
              }
              continue;  // members regroup at their second replicas
            }
          }
        }

        multiget_sub_batches_.fetch_add(1, std::memory_order_relaxed);
        Result<int64_t> sent =
            net->TryChargeBatch(origin_, node, req_bytes,
                                static_cast<uint32_t>(members.size()));
        if (!sent.ok()) {
          // The whole sub-batch is lost as one message.
          spent += fail_wait;
          for (size_t s : members) {
            slots[s].transient = true;
            slots[s].last = sent.status();
            ++slots[s].step;
          }
          continue;
        }
        spent += sent.value();

        auto t = cluster_->store(node)->GetTable(table);
        if (!t.ok()) {
          // The node answered: definitive for this replica.
          for (size_t s : members) {
            slots[s].last = t.status();
            ++slots[s].step;
          }
          continue;
        }
        std::vector<Key> batch_keys;
        batch_keys.reserve(members.size());
        for (size_t s : members) batch_keys.push_back(slots[s].key);
        std::vector<Result<Value>> vals = t.value()->MultiGet(batch_keys);
        uint64_t value_bytes = 0;
        for (const auto& v : vals) {
          if (v.ok()) value_bytes += v.value().size();
        }
        const uint64_t resp_bytes =
            kBatchHeaderBytes + members.size() + value_bytes;  // status byte per key
        Result<int64_t> resp =
            net->TryChargeBatch(node, origin_, resp_bytes,
                                static_cast<uint32_t>(members.size()));
        if (!resp.ok()) {
          // The replica served it, but the response (found values
          // included) was lost in flight — nothing is committed.
          spent += fail_wait;
          for (size_t s : members) {
            slots[s].transient = true;
            slots[s].last = resp.status();
            ++slots[s].step;
          }
          continue;
        }
        spent += resp.value();

        bool group_failover = false;
        for (size_t i = 0; i < members.size(); ++i) {
          Slot& sl = slots[members[i]];
          if (!vals[i].ok()) {
            sl.last = vals[i].status();  // definitive miss on this replica
            ++sl.step;
            continue;
          }
          if (replica_pos(sl) != 0) {
            if (sl.hedge_group >= 0 && !hedge_won[static_cast<size_t>(sl.hedge_group)]) {
              hedge_won[static_cast<size_t>(sl.hedge_group)] = true;
              hedge_wins_.fetch_add(1, std::memory_order_relaxed);
            } else {
              group_failover = true;
            }
          }
          sl.done = true;
          results[members[i]] = std::move(vals[i]);
          if (node != origin_) out.any_remote = true;
        }
        // A sub-batch served off the primary is one failover, not one
        // per key it carried.
        if (group_failover) failovers_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // End of pass: slots that saw only definitive answers on every
    // replica are final; transient ones re-shard into the next pass.
    bool any_transient = false;
    for (size_t s = 0; s < slots.size(); ++s) {
      Slot& sl = slots[s];
      if (sl.done) continue;
      if (sl.transient) {
        any_transient = true;
      } else {
        sl.done = true;
        results[s] = sl.last;
      }
    }
    if (!any_transient) break;
    if (deadline > 0 && spent >= deadline) {
      deadline_missed = true;
      break;
    }
  }

  if (deadline_missed) {
    // One deadline miss per op, however many keys it stranded.
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    rep.deadline_missed = true;
  }
  for (size_t s = 0; s < slots.size(); ++s) {
    if (results[s].has_value()) continue;
    results[s] = deadline_missed
                     ? Status::Unavailable("storage multiget: deadline exceeded")
                     : slots[s].last;
  }

  rep.sim_nanos = spent;
  out.report = rep;
  out.values.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out.values.push_back(*results[key_to_slot[i]]);
  }
  return out;
}

std::vector<Status> StorageClient::MultiPut(
    const std::string& table, std::vector<std::pair<Key, Value>> entries) {
  std::vector<Status> statuses(entries.size());
  if (entries.empty()) return statuses;
  multiput_batches_.fetch_add(1, std::memory_order_relaxed);
  multiput_keys_.fetch_add(entries.size(), std::memory_order_relaxed);

  // Per-entry replication state; each entry must land on every owner.
  struct Ent {
    std::vector<NodeId> pending;  // replicas not yet written
    size_t ok_replicas = 0;
    Status first_error;
  };
  std::vector<Ent> ents(entries.size());
  for (size_t e = 0; e < entries.size(); ++e) {
    auto owners = cluster_->OwnersOf(entries[e].first);
    if (!owners.ok()) {
      ents[e].first_error = owners.status();
      continue;
    }
    ents[e].pending = std::move(owners).value();
  }

  SimulatedNetwork* net = cluster_->network();
  const int64_t deadline = options_.op_deadline_nanos;
  const int64_t fail_wait = net->fault_timeout_nanos();
  int64_t spent = 0;
  bool deadline_missed = false;

  const int32_t max_attempts = std::max(1, options_.max_attempts);
  for (int32_t attempt = 0; attempt < max_attempts; ++attempt) {
    // Snapshot the still-pending (entry, replica) pairs and group them
    // into one sub-batch message per node.
    std::map<NodeId, std::vector<size_t>> groups;
    for (size_t e = 0; e < ents.size(); ++e) {
      for (NodeId node : ents[e].pending) groups[node].push_back(e);
      ents[e].pending.clear();
    }
    if (groups.empty()) break;
    if (attempt > 0) {
      int64_t wait = BackoffNanos(attempt);
      if (deadline > 0 && spent + wait > deadline) {
        deadline_missed = true;
        // Put the snapshot back so the entries finalize as unreachable.
        for (auto& [node, members] : groups) {
          for (size_t e : members) ents[e].pending.push_back(node);
        }
        break;
      }
      net->ChargeWait(wait);
      backoff_nanos_.fetch_add(wait, std::memory_order_relaxed);
      spent += wait;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }

    for (auto& [node, members] : groups) {
      uint64_t req_bytes = kBatchHeaderBytes;
      for (size_t e : members) req_bytes += sizeof(Key) + entries[e].second.size();
      multiput_sub_batches_.fetch_add(1, std::memory_order_relaxed);
      Result<int64_t> sent =
          net->TryChargeBatch(origin_, node, req_bytes,
                              static_cast<uint32_t>(members.size()));
      if (!sent.ok()) {
        // Transient: this node's writes re-shard into the next pass.
        spent += fail_wait;
        for (size_t e : members) ents[e].pending.push_back(node);
        continue;
      }
      spent += sent.value();
      auto t = cluster_->store(node)->GetTable(table);
      if (!t.ok()) {
        // Definitive: a missing table cannot be retried into existence.
        for (size_t e : members) {
          if (ents[e].first_error.ok()) ents[e].first_error = t.status();
        }
        continue;
      }
      std::vector<std::pair<Key, Value>> batch;
      batch.reserve(members.size());
      for (size_t e : members) batch.push_back(entries[e]);
      std::vector<Status> put = t.value()->MultiPut(std::move(batch));
      for (size_t i = 0; i < members.size(); ++i) {
        Ent& ent = ents[members[i]];
        if (put[i].ok()) {
          ++ent.ok_replicas;
        } else if (ent.first_error.ok()) {
          ent.first_error = put[i];
        }
      }
    }
    if (deadline > 0 && spent >= deadline) {
      bool any_pending = false;
      for (const Ent& e : ents) any_pending |= !e.pending.empty();
      if (any_pending) {
        deadline_missed = true;
        break;
      }
    }
  }

  if (deadline_missed) {
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  for (size_t e = 0; e < ents.size(); ++e) {
    Status s = ents[e].first_error;
    if (s.ok() && !ents[e].pending.empty()) {
      s = Status::Unavailable("replica unreachable for write");
    }
    if (!s.ok() && ents[e].ok_replicas > 0) {
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    statuses[e] = s;
  }
  return statuses;
}

uint64_t StorageClient::AppendObservation(const Observation& obs) {
  cluster_->network()->Charge(origin_, origin_, obs.Serialize().size());
  return cluster_->observation_log(origin_)->Append(obs);
}

StorageClientStats StorageClient::stats() const {
  StorageClientStats s;
  s.retries = retries_.load(std::memory_order_relaxed);
  s.hedged_reads = hedged_reads_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  s.backoff_nanos = backoff_nanos_.load(std::memory_order_relaxed);
  s.multiget_batches = multiget_batches_.load(std::memory_order_relaxed);
  s.multiget_keys = multiget_keys_.load(std::memory_order_relaxed);
  s.multiget_sub_batches = multiget_sub_batches_.load(std::memory_order_relaxed);
  s.multiget_merged_misses = multiget_merged_misses_.load(std::memory_order_relaxed);
  s.multiput_batches = multiput_batches_.load(std::memory_order_relaxed);
  s.multiput_keys = multiput_keys_.load(std::memory_order_relaxed);
  s.multiput_sub_batches = multiput_sub_batches_.load(std::memory_order_relaxed);
  return s;
}

void StorageClient::ResetStats() {
  retries_.store(0, std::memory_order_relaxed);
  hedged_reads_.store(0, std::memory_order_relaxed);
  hedge_wins_.store(0, std::memory_order_relaxed);
  deadline_misses_.store(0, std::memory_order_relaxed);
  failovers_.store(0, std::memory_order_relaxed);
  partial_writes_.store(0, std::memory_order_relaxed);
  backoff_nanos_.store(0, std::memory_order_relaxed);
  multiget_batches_.store(0, std::memory_order_relaxed);
  multiget_keys_.store(0, std::memory_order_relaxed);
  multiget_sub_batches_.store(0, std::memory_order_relaxed);
  multiget_merged_misses_.store(0, std::memory_order_relaxed);
  multiput_batches_.store(0, std::memory_order_relaxed);
  multiput_keys_.store(0, std::memory_order_relaxed);
  multiput_sub_batches_.store(0, std::memory_order_relaxed);
}

}  // namespace velox
