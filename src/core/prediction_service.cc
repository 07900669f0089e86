#include "core/prediction_service.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>

#include "cluster/router.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/topk_heap.h"
#include "linalg/scoring_kernels.h"

namespace velox {

namespace {

// Every scan path (serial plane, parallel shards + merge, ANN rescore)
// selects with the shared BoundedTopK under BetterTopKEntry
// (common/topk_heap.h) — one comparator is what makes their outputs
// identical even on tie-heavy tables.

// Scores plane rows [begin, end) into `top`, one ScoreRows block at a
// time so the factor rows stream through cache. `weights` must hold
// plane.stride() entries, zero beyond plane.dim(): scoring the full
// padded stride keeps every row on an exact kernel-block boundary (no
// per-row tail work) and is bit-identical to scoring dim entries by
// the kernel's zero-padding invariance.
void ScanPlaneRange(const ItemFactorPlane& plane, const double* weights, size_t begin,
                    size_t end, const PredictionService::ItemFilter& filter,
                    BoundedTopK* top) {
  constexpr size_t kBlockRows = 512;
  double scores[kBlockRows];
  const std::vector<uint64_t>& ids = plane.item_ids();
  for (size_t b = begin; b < end; b += kBlockRows) {
    size_t count = std::min(kBlockRows, end - b);
    ScoreRows(plane.data() + b * plane.stride(), count, plane.stride(), weights,
              plane.stride(), scores);
    for (size_t i = 0; i < count; ++i) {
      uint64_t item_id = ids[b + i];
      if (filter && !filter(item_id)) continue;  // application policy
      top->Offer(scores[i], item_id);
    }
  }
}

// Mixed-precision scan: stream the float mirror of the plane (half the
// memory traffic of the double rows), prune with a provably
// conservative error bound, and rescore the survivors in double
// through the shared DotKernel. The output is the exact double top-k —
// identical to the pure-double scan — because:
//  * for every row, |float_score - double_score| <= eps_max where
//    eps_max = 8(dim+8)·u_f·max_row_norm2·‖w‖₂ dominates the float
//    conversion, product, and blocked-summation rounding (γ-bound via
//    Cauchy-Schwarz, with ~8x slack — which also swallows the rounding
//    of the cutoff arithmetic below);
//  * with Tf the k-th largest *finite* float score over eligible rows,
//    at least k eligible rows have true score >= Tf - eps_max, so a
//    row with float score < Tf - 3·eps_max (upper bound below the
//    supported threshold, slack included) cannot be in the true top k;
//    at ties those k rows score strictly above it;
//  * any non-finite value (overflowed float, NaN weights) is never
//    offered to the threshold heap and never pruned, degrading to
//    "rescore it" — never to wrong pruning;
//  * both this path and the pure path emit the unique top-k under the
//    (score desc, item_id asc) total order, so their outputs agree
//    bit-for-bit regardless of visit order.
// Note: `filter` may be consulted up to twice per row (float pass and
// rescore), so it must be a pure predicate — the same contract the
// rest of the scan already assumes.
Result<std::vector<TopKEntry>> MixedPrecisionScan(
    const ItemFactorPlane& plane, const DenseVector& weights, size_t k,
    const PredictionService::ItemFilter& filter, size_t shards, ThreadPool* pool) {
  const size_t n = plane.num_items();
  const size_t dim = plane.dim();
  const std::vector<uint64_t>& ids = plane.item_ids();

  // Stride-padded float weights: scoring the full padded stride keeps
  // rows on exact kernel-block boundaries (see ScanPlaneRange).
  std::vector<float> fw(plane.stride(), 0.0f);
  double wsq = 0.0;
  for (size_t c = 0; c < dim; ++c) {
    fw[c] = static_cast<float>(weights[c]);
    wsq += weights[c] * weights[c];
  }
  constexpr double kFloatUlp = 5.9604644775390625e-08;  // 2^-24
  const double eps_max = 8.0 * (static_cast<double>(dim) + 8.0) * kFloatUlp *
                         std::sqrt(wsq) * plane.max_row_norm2();

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  // Phase 1 (sharded): float-score rows block by block and keep (a)
  // a per-shard bounded top-k of the finite eligible float scores and
  // (b) every row whose float score cleared the shard's *running*
  // cutoff (current k-th best - 3·eps_max) when it was visited. The
  // running cutoff only rises toward the final global cutoff, so the
  // kept rows are a superset of every row the final cutoff admits; a
  // skipped row was already provably outside the top k. The hot path
  // is one comparison per row.
  struct Candidate {
    uint32_t row;
    float sf;
  };
  std::vector<std::vector<Candidate>> shard_cands(shards);
  std::vector<BoundedTopK> float_tops(shards, BoundedTopK(k));
  const size_t per = (n + shards - 1) / shards;
  auto scan_shard = [&](size_t s) {
    size_t begin = s * per;
    size_t end = std::min(n, begin + per);
    if (begin >= end) return;
    std::vector<Candidate>& cands = shard_cands[s];
    cands.reserve(k + 64);
    BoundedTopK& ftop = float_tops[s];
    // The hot-loop compare stays in float: fcut is the running cutoff
    // rounded DOWN to float, so `sf <= fcut` implies sf <= cutoff in
    // double and the skip remains conservative.
    constexpr float kNegInfF = -std::numeric_limits<float>::infinity();
    constexpr float kLowestF = std::numeric_limits<float>::lowest();
    float fcut = kNegInfF;
    constexpr size_t kBlockRows = 512;
    float sbuf[kBlockRows];
    for (size_t b = begin; b < end; b += kBlockRows) {
      size_t count = std::min(kBlockRows, end - b);
      ScoreRowsF(plane.fdata() + b * plane.stride(), count, plane.stride(),
                 fw.data(), plane.stride(), sbuf);
      for (size_t i = 0; i < count; ++i) {
        float sf = sbuf[i];
        // NaN fails the first comparison, -inf (overflowed row, bound
        // invalid) the second — both stay candidates for exact
        // rescoring; only provably-out rows are skipped.
        if (sf <= fcut && sf != kNegInfF) continue;
        size_t r = b + i;
        cands.push_back(Candidate{static_cast<uint32_t>(r), sf});
        double sd = sf;
        if (std::isfinite(sd) && (!ftop.Full() || sd > ftop.Worst()) &&
            (!filter || filter(ids[r]))) {
          ftop.Offer(sd, ids[r]);
          if (ftop.Full()) {
            double cut = ftop.Worst() - 3.0 * eps_max;
            float f = static_cast<float>(cut);
            // Round-to-nearest may land above `cut`; step down one ulp
            // so (double)fcut <= cut always holds.
            if (static_cast<double>(f) > cut) f = std::nextafterf(f, kLowestF);
            fcut = f;
          }
        }
      }
    }
  };
  if (shards <= 1) {
    scan_shard(0);
  } else {
    // A throwing filter predicate (the only user code inside the shard
    // closures) fails the scan as a Status instead of the process.
    VELOX_RETURN_NOT_OK(ParallelFor(pool, shards, scan_shard));
  }

  // Final cutoff from Tf, the global k-th largest finite eligible
  // float score (-inf until k such rows exist, pruning nothing). The
  // global Tf is >= every shard's running value, so each shard's
  // candidate list is a superset of what this cutoff admits.
  double cutoff = kNegInf;
  {
    std::vector<double> floats;
    floats.reserve(shards * k);
    for (BoundedTopK& ftop : float_tops) {
      for (const TopKEntry& e : ftop.entries()) floats.push_back(e.score);
    }
    if (floats.size() >= k) {
      std::nth_element(floats.begin(), floats.begin() + (k - 1), floats.end(),
                       std::greater<double>());
      cutoff = floats[k - 1] - 3.0 * eps_max;
    }
  }

  // Phase 2 (serial, tiny): exact double rescore of the surviving
  // candidates — typically ~k rows plus whatever sits within eps of
  // the boundary.
  BoundedTopK top(k);
  for (const std::vector<Candidate>& cands : shard_cands) {
    for (const Candidate& c : cands) {
      double sf = c.sf;
      if (sf < cutoff && sf != kNegInf) continue;
      if (filter && !filter(ids[c.row])) continue;  // application policy
      const ItemFactorPlane::RowSpan row = plane.row_span(c.row);
      top.Offer(DotKernel(row.data, weights.data(), row.dim), row.item_id);
    }
  }
  return top.TakeSorted();
}

}  // namespace

FeatureResolver::FeatureResolver(StorageClient* client, std::string table_prefix)
    : client_(client), table_prefix_(std::move(table_prefix)) {
  VELOX_CHECK(client_ != nullptr);
  VELOX_CHECK(!table_prefix_.empty());
}

std::string FeatureResolver::TableForVersion(int32_t version) const {
  return StrFormat("%s_v%d", table_prefix_.c_str(), version);
}

std::vector<Result<DenseVector>> FeatureResolver::ResolveBatch(
    const ModelVersion& version, const std::vector<Item>& items, bool* served_remote,
    StorageOpReport* report) const {
  if (served_remote != nullptr) *served_remote = false;
  std::vector<Result<DenseVector>> out;
  out.reserve(items.size());
  if (client_ == nullptr) {
    for (const Item& item : items) out.push_back(version.features->Features(item));
    return out;
  }
  // Chunked so one giant batch cannot blow the per-op storage deadline:
  // each chunk is its own MultiGet with its own retry/deadline budget.
  constexpr size_t kMaxKeysPerOp = 256;
  const std::string table = TableForVersion(version.version);
  for (size_t begin = 0; begin < items.size(); begin += kMaxKeysPerOp) {
    const size_t end = std::min(items.size(), begin + kMaxKeysPerOp);
    std::vector<Key> keys;
    keys.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) keys.push_back(items[i].id);
    MultiGetResult got = client_->MultiGet(table, keys);
    if (served_remote != nullptr && got.any_remote) *served_remote = true;
    if (report != nullptr) {
      report->attempts = std::max(report->attempts, got.report.attempts);
      report->hedged |= got.report.hedged;
      report->deadline_missed |= got.report.deadline_missed;
      report->backoff_nanos += got.report.backoff_nanos;
      report->sim_nanos += got.report.sim_nanos;
    }
    for (Result<Value>& v : got.values) {
      if (v.ok()) {
        out.push_back(DecodeFactor(v.value()));
      } else {
        out.push_back(v.status());
      }
    }
  }
  return out;
}

Value EncodeFactor(const DenseVector& v) {
  ByteWriter w;
  w.PutDoubleVector(v.values());
  return w.Release();
}

Result<DenseVector> DecodeFactor(const Value& bytes) {
  ByteReader r(bytes);
  VELOX_ASSIGN_OR_RETURN(std::vector<double> values, r.GetDoubleVector());
  return DenseVector(std::move(values));
}

PredictionService::PredictionService(PredictionServiceOptions options,
                                     ModelRegistry* registry, UserWeightStore* weights,
                                     Bootstrapper* bootstrapper,
                                     FeatureCache* feature_cache,
                                     PredictionCache* prediction_cache,
                                     FeatureResolver resolver)
    : options_(options),
      registry_(registry),
      weights_(weights),
      bootstrapper_(bootstrapper),
      feature_cache_(feature_cache),
      prediction_cache_(prediction_cache),
      resolver_(std::move(resolver)) {
  VELOX_CHECK(registry_ != nullptr);
  VELOX_CHECK(weights_ != nullptr);
  VELOX_CHECK(bootstrapper_ != nullptr);
  VELOX_CHECK(feature_cache_ != nullptr);
  VELOX_CHECK(prediction_cache_ != nullptr);
}

Result<FeaturePtr> PredictionService::ResolveFeatures(const ModelVersion& version,
                                                      const Item& item) {
  StageTimer untimed(nullptr);
  return ResolveFeatures(version, item, untimed);
}

Result<FeaturePtr> PredictionService::ResolveFeatures(const ModelVersion& version,
                                                      const Item& item,
                                                      StageTimer& timer) {
  coalesce_keys_.fetch_add(1, std::memory_order_relaxed);
  if (options_.use_feature_cache) {
    // Hit fast path: a refcount bump, no allocation, no batch
    // bookkeeping. Cache hits are always local.
    StageTimer::Scope span(timer, Stage::kFeatureResolveLocal);
    FeaturePtr hit = feature_cache_->Get(item.id);
    if (hit != nullptr) {
      coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
      return Result<FeaturePtr>(std::move(hit));
    }
  }
  std::vector<Result<FeaturePtr>> one = ResolveMisses(version, {item}, timer);
  return std::move(one.front());
}

std::vector<Result<FeaturePtr>> PredictionService::BatchResolveFeatures(
    const ModelVersion& version, const std::vector<Item>& items, StageTimer& timer) {
  // Nothing to resolve (every item hit the prediction cache): no stage
  // sample and no counter traffic, exactly like a request that never
  // reached feature resolution.
  if (items.empty()) return {};
  // A lone item has nothing to dedup or coalesce: the per-key path
  // probes, counts and traces it identically, without the bookkeeping.
  if (items.size() == 1) return {ResolveFeatures(version, items.front(), timer)};
  coalesce_keys_.fetch_add(items.size(), std::memory_order_relaxed);
  std::vector<std::optional<Result<FeaturePtr>>> slots(items.size());

  // Duplicate items fold into their first occurrence: one cache probe,
  // one fetch, shared handle for every copy.
  std::unordered_map<uint64_t, size_t> first;
  first.reserve(items.size());
  std::vector<size_t> rep_of(items.size());
  std::vector<size_t> unique_pos;
  unique_pos.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto [it, inserted] = first.emplace(items[i].id, i);
    if (inserted) {
      unique_pos.push_back(i);
    } else {
      coalesce_merged_.fetch_add(1, std::memory_order_relaxed);
    }
    rep_of[i] = it->second;
  }

  // One cache probe per unique item — the same per-item probe
  // discipline as the per-key path, so cache counters stay faithful.
  std::vector<Item> misses;
  std::vector<size_t> miss_pos;
  {
    StageTimer::Scope span(timer, Stage::kFeatureResolveLocal);
    for (size_t pos : unique_pos) {
      if (options_.use_feature_cache) {
        FeaturePtr hit = feature_cache_->Get(items[pos].id);
        if (hit != nullptr) {
          coalesce_hits_.fetch_add(1, std::memory_order_relaxed);
          slots[pos] = Result<FeaturePtr>(std::move(hit));
          continue;
        }
      }
      misses.push_back(items[pos]);
      miss_pos.push_back(pos);
    }
  }

  if (!misses.empty()) {
    std::vector<Result<FeaturePtr>> resolved = ResolveMisses(version, misses, timer);
    for (size_t j = 0; j < misses.size(); ++j) {
      slots[miss_pos[j]] = std::move(resolved[j]);
    }
  }

  std::vector<Result<FeaturePtr>> out;
  out.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) out.push_back(*slots[rep_of[i]]);
  return out;
}

std::vector<Result<FeaturePtr>> PredictionService::ResolveMisses(
    const ModelVersion& version, const std::vector<Item>& misses, StageTimer& timer) {
  std::vector<std::optional<Result<FeaturePtr>>> out(misses.size());
  StageTimer::Scope span(timer, Stage::kFeatureResolveLocal);

  // Claim each miss: the inserter owns the fetch, everyone else waits
  // on the owner's Flight and shares its result.
  struct Claim {
    std::shared_ptr<Flight> flight;
    bool won = false;
  };
  std::vector<Claim> claims(misses.size());
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    for (size_t i = 0; i < misses.size(); ++i) {
      auto [it, inserted] =
          flights_.emplace(std::make_pair(version.version, misses[i].id), nullptr);
      if (inserted) it->second = std::make_shared<Flight>();
      claims[i].flight = it->second;
      claims[i].won = inserted;
    }
  }

  // Completes claim i's flight with `result`, wakes its waiters, and
  // retires it: waiters hold their own shared_ptr, and a failed fetch
  // must be retried by the next request, not pinned.
  auto finish = [&](size_t i, Result<FeaturePtr> result) {
    Flight& flight = *claims[i].flight;
    {
      std::lock_guard<std::mutex> lock(flight.mu);
      flight.finished = true;
      if (result.ok()) {
        flight.value = result.value();
      } else {
        flight.status = result.status();
      }
    }
    flight.cv.notify_all();
    out[i] = std::move(result);
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(std::make_pair(version.version, misses[i].id));
    if (it != flights_.end() && it->second == claims[i].flight) flights_.erase(it);
  };

  std::vector<size_t> won;
  std::vector<Item> fetch;
  for (size_t i = 0; i < misses.size(); ++i) {
    if (!claims[i].won) continue;
    // A claim won after the previous owner retired its flight finds that
    // owner's value in the cache (the caller's probe ran before the Put):
    // it shares the value like a flight wait instead of fetching again.
    // Peek counts no probe; the caller already counted this item's miss.
    if (options_.use_feature_cache) {
      if (FeaturePtr cached = feature_cache_->Peek(misses[i].id)) {
        coalesce_flight_waits_.fetch_add(1, std::memory_order_relaxed);
        finish(i, Result<FeaturePtr>(std::move(cached)));
        continue;
      }
    }
    won.push_back(i);
    fetch.push_back(misses[i]);
  }

  bool any_remote = false;
  StorageOpReport report;
  if (!fetch.empty()) {
    coalesce_fetches_.fetch_add(fetch.size(), std::memory_order_relaxed);
    std::vector<Result<DenseVector>> fetched =
        resolver_.ResolveBatch(version, fetch, &any_remote, &report);
    for (size_t j = 0; j < won.size(); ++j) {
      const size_t i = won[j];
      if (!fetched[j].ok()) {
        finish(i, fetched[j].status());
        continue;
      }
      auto ptr = std::make_shared<const DenseVector>(std::move(fetched[j]).value());
      if (options_.use_feature_cache) feature_cache_->Put(misses[i].id, ptr);
      finish(i, Result<FeaturePtr>(std::move(ptr)));
    }
  }

  for (size_t i = 0; i < misses.size(); ++i) {
    if (claims[i].won) continue;
    coalesce_flight_waits_.fetch_add(1, std::memory_order_relaxed);
    Flight& flight = *claims[i].flight;
    std::unique_lock<std::mutex> lock(flight.mu);
    flight.cv.wait(lock, [&flight] { return flight.finished; });
    out[i] = flight.status.ok() ? Result<FeaturePtr>(flight.value)
                                : Result<FeaturePtr>(flight.status);
  }

  span.Stop(any_remote ? Stage::kFeatureResolveRemote : Stage::kFeatureResolveLocal);
  // Simulated retry/hedge waits are logically part of the resolve but
  // belong to their own stage in the breakdown: they measure the fault
  // plan, not the storage path.
  if (report.backoff_nanos > 0) {
    timer.Add(Stage::kStorageBackoff, static_cast<double>(report.backoff_nanos) / 1e3);
  }

  std::vector<Result<FeaturePtr>> ret;
  ret.reserve(misses.size());
  for (size_t i = 0; i < misses.size(); ++i) ret.push_back(std::move(*out[i]));
  return ret;
}

size_t PredictionService::WarmFeatures(const ModelVersion& version,
                                       const std::vector<uint64_t>& item_ids) {
  if (item_ids.empty()) return 0;
  std::vector<Item> items(item_ids.size());
  for (size_t i = 0; i < item_ids.size(); ++i) items[i].id = item_ids[i];
  return WarmFeatures(version, items);
}

size_t PredictionService::WarmFeatures(const ModelVersion& version,
                                       const std::vector<Item>& items) {
  if (items.empty()) return 0;
  StageTimer untimed(nullptr);
  std::vector<Result<FeaturePtr>> resolved =
      BatchResolveFeatures(version, items, untimed);
  size_t warmed = 0;
  for (const auto& r : resolved) warmed += r.ok() ? 1 : 0;
  return warmed;
}

size_t StaleScoreBoard::SlotOf(uint64_t uid, uint64_t item_id) {
  return static_cast<size_t>(
      HashPartitioner::MixHash(uid ^ HashPartitioner::MixHash(item_id)) & (kSlots - 1));
}

void StaleScoreBoard::Put(uint64_t uid, uint64_t item_id, double score) {
  const size_t s = SlotOf(uid, item_id);
  std::lock_guard<std::mutex> lock(mus_[s % kStripes]);
  slots_[s] = Slot{uid, item_id, score, true};
}

std::optional<double> StaleScoreBoard::Get(uint64_t uid, uint64_t item_id) const {
  const size_t s = SlotOf(uid, item_id);
  std::lock_guard<std::mutex> lock(mus_[s % kStripes]);
  const Slot& slot = slots_[s];
  if (!slot.filled || slot.uid != uid || slot.item_id != item_id) return std::nullopt;
  return slot.score;
}

void PredictionService::NoteScores(uint64_t uid, const std::vector<size_t>& pos,
                                   std::vector<ScoredItem>& out, StageTimer& timer) {
  if (!options_.degrade_on_unavailable) return;
  // Board pass: computed scores land on the board in item order, and a
  // degraded item reads its slot as of its position.
  std::vector<size_t> mean_rung;
  for (size_t i : pos) {
    ScoredItem& item = out[i];
    if (!item.degraded) {
      stale_scores_.Put(uid, item.item_id, item.score);
      continue;
    }
    StageTimer::Scope span(timer, Stage::kDegradedServe);
    std::optional<double> stale = stale_scores_.Get(uid, item.item_id);
    if (stale.has_value()) {
      item.score = *stale;
      degraded_stale_.fetch_add(1, std::memory_order_relaxed);
    } else {
      mean_rung.push_back(i);
      degraded_mean_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Mean pass: one acquisition feeds every computed score in item order;
  // a mean-rung item gets the mean of everything noted before it.
  std::lock_guard<std::mutex> lock(fallback_mu_);
  auto next_mean = mean_rung.begin();
  for (size_t i : pos) {
    ScoredItem& item = out[i];
    if (!item.degraded) {
      score_sum_ += item.score;
      ++score_count_;
    } else if (next_mean != mean_rung.end() && *next_mean == i) {
      item.score = FallbackScoreLocked();
      ++next_mean;
    }
  }
}

ScoredItem PredictionService::ShedAnswer(uint64_t uid, uint64_t item_id) {
  StageTimer timer(stages_);
  StageTimer::Scope span(timer, Stage::kDegradedServe);
  ScoredItem out;
  out.item_id = item_id;
  out.degraded = true;
  std::optional<double> stale = stale_scores_.Get(uid, item_id);
  if (stale.has_value()) {
    out.score = *stale;
    degraded_stale_.fetch_add(1, std::memory_order_relaxed);
  } else {
    out.score = fallback_score();
    degraded_mean_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

Result<ScoredItem> PredictionService::Predict(uint64_t uid, const Item& item) {
  VELOX_ASSIGN_OR_RETURN(std::vector<ScoredItem> scored, PredictBatch(uid, {item}));
  return scored.front();
}

Result<std::vector<ScoredItem>> PredictionService::PredictBatch(
    uint64_t uid, const std::vector<Item>& items) {
  if (items.empty()) return std::vector<ScoredItem>();
  StageTimer timer(stages_);
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> version,
                         registry_->Current());
  return ScoreItems(*version, uid, items, /*with_uncertainty=*/false, timer);
}

Result<std::vector<ScoredItem>> PredictionService::ScoreItems(
    const ModelVersion& version, uint64_t uid, const std::vector<Item>& items,
    bool with_uncertainty, StageTimer& timer) {
  std::vector<ScoredItem> scored(items.size());
  StageTimer::Scope lookup(timer, Stage::kUserWeightLookup);
  uint64_t epoch = 0;
  DenseVector weights =
      weights_->GetOrBootstrapWeights(uid, bootstrapper_->MeanWeights(), &epoch);
  lookup.Stop();

  // Phase 1: one prediction-cache probe per item. Uncertainty mode
  // resolves every item's features anyway, so a hit there would save
  // only the dot product; it skips the cache.
  const bool use_cache = options_.use_prediction_cache && !with_uncertainty;
  std::vector<std::optional<double>> cached(items.size());
  if (use_cache) {
    StageTimer::Scope probe(timer, Stage::kPredictionCacheProbe);
    for (size_t i = 0; i < items.size(); ++i) {
      cached[i] =
          prediction_cache_->Get(PredictionKey{uid, items[i].id, epoch, version.version});
    }
  }

  // Phase 2: everything else resolves features through the coalescer —
  // one batched storage fetch for the whole request, duplicates merged.
  std::vector<Item> misses;
  std::vector<size_t> pos;
  misses.reserve(items.size());
  pos.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    scored[i].item_id = items[i].id;
    if (cached[i].has_value()) {
      scored[i].score = *cached[i];
    } else {
      misses.push_back(items[i]);
      pos.push_back(i);
    }
  }
  std::vector<Result<FeaturePtr>> features =
      BatchResolveFeatures(version, misses, timer);

  // Phase 3: errors, in item order. A transient failure degrades the
  // item (the rest still get real scores); anything else fails the
  // request before it records a score.
  size_t resolved = 0;
  for (size_t j = 0; j < features.size(); ++j) {
    if (!features[j].ok()) {
      if (!options_.degrade_on_unavailable || !features[j].status().IsUnavailable()) {
        return features[j].status();
      }
      scored[pos[j]].degraded = true;
      continue;
    }
    const DenseVector& f = *features[j].value();
    if (f.dim() != weights.dim()) {
      return Status::Internal(StrFormat("feature dim %zu != weight dim %zu", f.dim(),
                                        weights.dim()));
    }
    ++resolved;
  }

  // Phase 4: score. w_u' f with the same Dot for every path, so any
  // batching of the same items gives the same bits.
  if (resolved > 0) {
    StageTimer::Scope kernel(timer, Stage::kKernelScore);
    for (size_t j = 0; j < features.size(); ++j) {
      if (features[j].ok()) scored[pos[j]].score = Dot(weights, *features[j].value());
    }
  }

  // Phase 5: the uncertainty of every resolved item, under one
  // acquisition of the user's stripe lock. Degraded items keep zero: a
  // degraded pick must never look like an attractive exploration
  // target.
  if (with_uncertainty && resolved > 0) {
    StageTimer::Scope bandit(timer, Stage::kBanditOrder);
    std::vector<const DenseVector*> f;
    std::vector<size_t> at;
    f.reserve(resolved);
    at.reserve(resolved);
    for (size_t j = 0; j < features.size(); ++j) {
      if (!features[j].ok()) continue;
      f.push_back(features[j].value().get());
      at.push_back(pos[j]);
    }
    std::vector<double> u(f.size());
    weights_->Uncertainties(uid, f, u.data());
    for (size_t m = 0; m < at.size(); ++m) scored[at[m]].uncertainty = u[m];
  }

  if (use_cache) {
    for (size_t j = 0; j < features.size(); ++j) {
      if (!features[j].ok()) continue;
      const ScoredItem& s = scored[pos[j]];
      prediction_cache_->Put(PredictionKey{uid, s.item_id, epoch, version.version},
                             s.score);
    }
  }
  NoteScores(uid, pos, scored, timer);
  return scored;
}

Result<TopKResult> PredictionService::TopK(uint64_t uid,
                                           const std::vector<Item>& candidates,
                                           size_t k, const BanditPolicy* policy,
                                           Rng* rng) {
  if (candidates.empty()) {
    return Status::InvalidArgument("topK requires a non-empty candidate set");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  StageTimer timer(stages_);
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> version,
                         registry_->Current());
  VELOX_ASSIGN_OR_RETURN(std::vector<ScoredItem> items,
                         ScoreItems(*version, uid, candidates,
                                    /*with_uncertainty=*/policy != nullptr, timer));

  std::vector<BanditCandidate> scored(items.size());
  bool any_degraded = false;
  for (size_t i = 0; i < items.size(); ++i) {
    scored[i] = BanditCandidate{items[i].item_id, items[i].score, items[i].uncertainty};
    any_degraded |= items[i].degraded;
  }

  StageTimer::Scope bandit(timer, Stage::kBanditOrder);
  std::vector<size_t> order;
  if (policy != nullptr) {
    std::lock_guard<std::mutex> lock(rank_mu_);
    order = policy->Rank(scored, rng);
  } else {
    order = GreedyPolicy().Rank(scored, rng);
  }
  bandit.Stop();

  TopKResult result;
  result.model_version = version->version;
  result.degraded = any_degraded;
  size_t take = std::min(k, order.size());
  result.items.reserve(take);
  for (size_t i = 0; i < take; ++i) result.items.push_back(items[order[i]]);
  result.top_is_exploratory =
      !order.empty() && order[0] != BanditPolicy::GreedyTop(scored);
  return result;
}

size_t PredictionService::EstimateEligibleRows(const ItemFactorPlane& plane,
                                               const ItemFilter& filter) {
  const size_t n = plane.num_items();
  if (filter == nullptr || n == 0) return n;
  // Evenly-spaced sample — deterministic, cheap, and unbiased enough
  // for a fan-out decision (the cost of a misestimate is a few shards,
  // not a wrong answer).
  constexpr size_t kMaxSamples = 512;
  const size_t step = std::max<size_t>(1, n / kMaxSamples);
  const std::vector<uint64_t>& ids = plane.item_ids();
  size_t sampled = 0, kept = 0;
  for (size_t r = 0; r < n; r += step) {
    ++sampled;
    if (filter(ids[r])) ++kept;
  }
  return (n * kept) / sampled;
}

size_t PredictionService::PlannedScanShards(const ItemFactorPlane& plane,
                                            const ItemFilter& filter) const {
  if (scan_pool_ == nullptr || scan_pool_->num_threads() <= 1) return 1;
  // Shards below options_.topk_min_shard_rows pay more in fan-out than
  // they save in scoring; small catalogs stay serial. The floor is
  // applied to the *filter-adjusted* row estimate: a raw-plane count
  // would fan a heavily-filtered scan out over rows it mostly skips.
  const size_t min_shard_rows = std::max<size_t>(1, options_.topk_min_shard_rows);
  const size_t eligible = EstimateEligibleRows(plane, filter);
  return std::min(scan_pool_->num_threads(),
                  std::max<size_t>(1, eligible / min_shard_rows));
}

Result<TopKResult> PredictionService::ScanPlane(const ItemFactorPlane& plane,
                                                int32_t model_version,
                                                const DenseVector& weights,
                                                size_t k,
                                                const ItemFilter& filter) const {
  const size_t n = plane.num_items();
  const size_t shards = PlannedScanShards(plane, filter);

  // Stride-padded copy of the weights so plane rows can be scored over
  // their full padded stride (bit-identical, no per-row kernel tail).
  std::vector<double> wpad(plane.stride(), 0.0);
  std::copy(weights.data(), weights.data() + std::min(weights.dim(), plane.dim()),
            wpad.begin());

  std::vector<TopKEntry> best;
  if (options_.topk_mixed_precision && plane.float_ok()) {
    VELOX_ASSIGN_OR_RETURN(
        best, MixedPrecisionScan(plane, weights, k, filter, shards, scan_pool_));
  } else if (shards <= 1) {
    BoundedTopK top(k);
    ScanPlaneRange(plane, wpad.data(), 0, n, filter, &top);
    best = top.TakeSorted();
  } else {
    // Contiguous shards with deterministic boundaries: shard s scans
    // [s*per, ...). Each keeps its own bounded heap; the merge ranks
    // every surviving entry under the same total order the serial scan
    // uses, so the parallel result is bit-identical to serial.
    std::vector<BoundedTopK> tops(shards, BoundedTopK(k));
    size_t per = (n + shards - 1) / shards;
    VELOX_RETURN_NOT_OK(ParallelFor(scan_pool_, shards, [&](size_t s) {
      size_t begin = s * per;
      size_t end = std::min(n, begin + per);
      if (begin < end) {
        ScanPlaneRange(plane, wpad.data(), begin, end, filter, &tops[s]);
      }
    }));
    for (BoundedTopK& top : tops) {
      for (const TopKEntry& e : top.entries()) best.push_back(e);
    }
    std::sort(best.begin(), best.end(), BetterTopKEntry);
    if (best.size() > k) best.resize(k);
  }

  TopKResult result;
  result.model_version = model_version;
  result.items.reserve(best.size());
  for (const TopKEntry& e : best) {
    result.items.push_back(ScoredItem{e.id, e.score, 0.0});
  }
  return result;
}

TopKResult PredictionService::AnnScan(const IvfIndex& index, int32_t model_version,
                                      const DenseVector& weights, size_t k,
                                      const ItemFilter& filter, bool use_pq,
                                      StageTimer& timer) {
  const ItemFactorPlane& plane = index.plane();
  // Stride-padded weights, as in ScanPlane: rescoring the full padded
  // stride is bit-identical to the dim-length product (zero-padding
  // invariance), and the probe's centroid ranking reuses the buffer.
  std::vector<double> wpad(plane.stride(), 0.0);
  std::copy(weights.data(), weights.data() + std::min(weights.dim(), plane.dim()),
            wpad.begin());
  const size_t nprobe =
      options_.ann_nprobe != 0 ? options_.ann_nprobe : index.default_nprobe();

  IvfIndex::ProbeStats stats;
  std::vector<uint32_t> rows;
  {
    StageTimer::Scope probe(timer, Stage::kAnnCandidateProbe);
    if (use_pq && index.has_pq()) {
      const size_t shortlist =
          std::max(k, k * std::max<size_t>(1, index.options().rescore_multiple));
      rows = index.ProbePq(wpad.data(), nprobe, shortlist, filter, &stats);
    } else {
      rows = index.Probe(wpad.data(), nprobe, filter, &stats);
    }
  }

  TopKResult result;
  result.model_version = model_version;
  {
    StageTimer::Scope rescore(timer, Stage::kAnnRescore);
    BoundedTopK top(k);
    for (uint32_t r : rows) {
      const ItemFactorPlane::RowSpan row = plane.row_span(r);
      top.Offer(DotKernel(row.data, wpad.data(), row.padded), row.item_id);
    }
    for (const TopKEntry& e : top.TakeSorted()) {
      result.items.push_back(ScoredItem{e.id, e.score, 0.0});
    }
  }

  ann_queries_.fetch_add(1, std::memory_order_relaxed);
  ann_probes_.fetch_add(stats.lists_probed, std::memory_order_relaxed);
  ann_candidates_.fetch_add(stats.candidates, std::memory_order_relaxed);
  ann_rescored_.fetch_add(rows.size(), std::memory_order_relaxed);
  return result;
}

PredictionService::TopKAllMode PredictionService::ResolveTopKAllMode(
    const ModelVersion& version, const ItemFactorPlane& plane, size_t k,
    const ItemFilter& filter, TopKAllMode mode) const {
  if (mode != TopKAllMode::kAuto) return mode;
  // kAuto takes the ANN path only when the version carries an index,
  // k is small enough that the probe's candidate set dwarfs it, and
  // the *filter-adjusted* catalog estimate clears the threshold — a
  // filter that keeps few items makes the exact scan cheap and the
  // probed lists mostly empty.
  constexpr size_t kMaxAutoAnnK = 1000;
  if (version.ann_index != nullptr && k <= kMaxAutoAnnK &&
      EstimateEligibleRows(plane, filter) >= options_.topk_auto_ann_min_rows) {
    return TopKAllMode::kIvf;
  }
  return TopKAllMode::kExact;
}

Result<TopKResult> PredictionService::ExecuteTopKAll(const ModelVersion& version,
                                                    const ItemFactorPlane& plane,
                                                    const DenseVector& weights, size_t k,
                                                    const ItemFilter& filter,
                                                    TopKAllMode resolved,
                                                    StageTimer& timer) {
  if (resolved == TopKAllMode::kIvf || resolved == TopKAllMode::kIvfPq) {
    if (version.ann_index == nullptr) {
      return Status::FailedPrecondition(
          "TopKAll ANN mode requires an index; the current version was "
          "installed without one (see ModelRegistry::SetAnnBuild)");
    }
    return AnnScan(*version.ann_index, version.version, weights, k, filter,
                   resolved == TopKAllMode::kIvfPq, timer);
  }

  // The whole-catalog exact scan is kernel work — it bypasses the
  // per-item caches by design, so the scan's time all lands in one
  // stage.
  StageTimer::Scope kernel(timer, Stage::kKernelScore);
  return ScanPlane(plane, version.version, weights, k, filter);
}

Result<TopKResult> PredictionService::TopKAll(uint64_t uid, size_t k,
                                              const ItemFilter& filter,
                                              TopKAllMode mode) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  StageTimer timer(stages_);
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> version,
                         registry_->Current());
  const auto* materialized =
      dynamic_cast<const MaterializedFeatureFunction*>(version->features.get());
  if (materialized == nullptr) {
    return Status::FailedPrecondition(
        "TopKAll requires an in-process materialized feature table");
  }
  // Versions registered through the registry carry the plane; fall
  // back to the feature function's own copy otherwise.
  std::shared_ptr<const ItemFactorPlane> plane = version->item_plane;
  if (plane == nullptr) plane = materialized->plane();
  const TopKAllMode resolved = ResolveTopKAllMode(*version, *plane, k, filter, mode);

  StageTimer::Scope lookup(timer, Stage::kUserWeightLookup);
  DenseVector weights =
      weights_->GetOrBootstrapWeights(uid, bootstrapper_->MeanWeights());
  lookup.Stop();
  return ExecuteTopKAll(*version, *plane, weights, k, filter, resolved, timer);
}

Result<std::vector<TopKResult>> PredictionService::TopKAllBatch(
    const std::vector<uint64_t>& uids, size_t k, const ItemFilter& filter,
    TopKAllMode mode) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  VELOX_ASSIGN_OR_RETURN(std::shared_ptr<const ModelVersion> version,
                         registry_->Current());
  const auto* materialized =
      dynamic_cast<const MaterializedFeatureFunction*>(version->features.get());
  if (materialized == nullptr) {
    return Status::FailedPrecondition(
        "TopKAll requires an in-process materialized feature table");
  }
  std::shared_ptr<const ItemFactorPlane> plane = version->item_plane;
  if (plane == nullptr) plane = materialized->plane();
  // One version/plane/mode resolution amortized over the whole batch;
  // the plane (or the index's inverted lists) stays cache-hot across
  // consecutive users.
  const TopKAllMode resolved = ResolveTopKAllMode(*version, *plane, k, filter, mode);

  std::vector<TopKResult> results;
  results.reserve(uids.size());
  const DenseVector mean = bootstrapper_->MeanWeights();
  StageTimer timer(stages_);
  for (uint64_t uid : uids) {
    StageTimer::Scope lookup(timer, Stage::kUserWeightLookup);
    DenseVector weights = weights_->GetOrBootstrapWeights(uid, mean);
    lookup.Stop();
    VELOX_ASSIGN_OR_RETURN(TopKResult result,
                           ExecuteTopKAll(*version, *plane, weights, k, filter,
                                          resolved, timer));
    results.push_back(std::move(result));
    timer.Flush();  // one histogram sample per user, like TopKAll
  }
  return results;
}

}  // namespace velox
