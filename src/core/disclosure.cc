#include "cksafe/core/disclosure.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "cksafe/util/math_util.h"

namespace cksafe {

KnowledgeFormula WorstCaseDisclosure::ToFormula() const {
  KnowledgeFormula formula;
  for (const Atom& a : antecedents) {
    formula.AddSimple(SimpleImplication{a, target});
  }
  return formula;
}

DisclosureCache::Shard& DisclosureCache::ShardFor(
    std::span<const uint32_t> key) {
  return shards_[CountsHash{}(key) % kNumShards];
}

std::shared_ptr<const Minimize1Table> DisclosureCache::GetOrCompute(
    std::span<const uint32_t> sorted_counts, size_t max_k) {
  Shard& shard = ShardFor(sorted_counts);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tables.find(sorted_counts);
    if (it != shard.tables.end() && it->second->max_k() >= max_k) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compute outside the lock so a slow O(k^3) build does not serialize the
  // shard. Two threads may race to build the same table; the loser's copy
  // is dropped unless it has the larger budget.
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint32_t> key(sorted_counts.begin(), sorted_counts.end());
  auto table = std::make_shared<const Minimize1Table>(key, max_k);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.tables[std::move(key)];
  if (slot == nullptr || slot->max_k() < max_k) slot = std::move(table);
  return slot;  // covers max_k either way: ours, or a larger racing upgrade
}

size_t DisclosureCache::entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.tables.size();
  }
  return total;
}

void DisclosureCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.tables.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

void AppendBucketWitnessAtoms(const std::vector<PersonId>& members,
                              const BucketStats& stats,
                              const std::vector<uint32_t>& partition,
                              bool skip_target_atom, std::vector<Atom>* out) {
  CKSAFE_CHECK_LE(partition.size(), members.size());
  for (size_t person_i = 0; person_i < partition.size(); ++person_i) {
    const PersonId person = members[person_i];
    // Clamp to d: beyond that the structure is already impossible
    // (probability 0) and no distinct values remain (see minimize1.h).
    const size_t values = std::min<size_t>(partition[person_i], stats.d());
    for (size_t j = 0; j < values; ++j) {
      if (skip_target_atom && person_i == 0 && j == 0) continue;
      out->push_back(Atom{person, stats.value_codes[j]});
    }
  }
}

WorstCaseDisclosure AssembleImplicationWitness(
    LogProb log_r_min, const std::vector<Minimize2Placement>& placements,
    const std::vector<const std::vector<PersonId>*>& members,
    const std::vector<const BucketStats*>& stats,
    const std::vector<Minimize2Bucket>& buckets) {
  WorstCaseDisclosure result;
  result.disclosure = DisclosureFromLogRatio(log_r_min);
  result.log_r_min = log_r_min;
  for (size_t i = 0; i < placements.size(); ++i) {
    const Minimize2Placement& p = placements[i];
    if (p.has_target) {
      // A lives in bucket i together with p.atoms antecedent atoms.
      result.target = Atom{(*members[i])[0], stats[i]->value_codes[0]};
      AppendBucketWitnessAtoms(*members[i], *stats[i],
                               buckets[i].table->WitnessPartition(p.atoms + 1),
                               /*skip_target_atom=*/true, &result.antecedents);
    } else if (p.atoms > 0) {
      AppendBucketWitnessAtoms(*members[i], *stats[i],
                               buckets[i].table->WitnessPartition(p.atoms),
                               /*skip_target_atom=*/false, &result.antecedents);
    }
  }
  return result;
}

WorstCaseDisclosure MaxNegationsOverBuckets(
    const std::vector<const BucketStats*>& stats,
    const std::vector<const std::vector<PersonId>*>& members, size_t k) {
  CKSAFE_CHECK_EQ(stats.size(), members.size());
  WorstCaseDisclosure best;
  best.disclosure = -1.0;
  size_t best_bucket = 0;
  BucketNegationBest best_local;
  for (size_t i = 0; i < stats.size(); ++i) {
    const BucketNegationBest local = ComputeBucketNegationBest(*stats[i], k);
    if (local.disclosure > best.disclosure) {
      best.disclosure = local.disclosure;
      best_bucket = i;
      best_local = local;
    }
  }
  CKSAFE_CHECK_GE(best.disclosure, 0.0);
  // The negation adversary is computed directly as a disclosure; derive
  // the log-ratio view so both adversary classes report the same fields.
  best.log_r_min = LogRatioFromDisclosure(best.disclosure);
  const BucketStats& winner = *stats[best_bucket];
  const PersonId person = (*members[best_bucket])[0];
  best.target = Atom{person, winner.value_codes[best_local.value_index]};
  for (size_t j = 0; j < best_local.negated + 1 &&
                     best.antecedents.size() < best_local.negated;
       ++j) {
    if (j == best_local.value_index) continue;
    best.antecedents.push_back(Atom{person, winner.value_codes[j]});
  }
  return best;
}

BucketNegationBest ComputeBucketNegationBest(const BucketStats& stats,
                                             size_t k) {
  BucketNegationBest best;
  for (size_t t = 0; t < stats.d(); ++t) {
    // Negate the e most frequent values other than t, where
    // e = min(k, d - 1); negating values absent from the bucket changes
    // nothing.
    const size_t e = std::min<size_t>(k, stats.d() - 1);
    uint32_t eliminated;
    if (t < e + 1) {
      eliminated = stats.prefix[e + 1] - stats.counts[t];
    } else {
      eliminated = stats.prefix[e];
    }
    const double denom = static_cast<double>(stats.n) - eliminated;
    CKSAFE_CHECK_GT(denom, 0.0);
    const double disclosure = static_cast<double>(stats.counts[t]) / denom;
    if (disclosure > best.disclosure) {
      best.disclosure = disclosure;
      best.value_index = t;
      best.negated = e;
    }
  }
  return best;
}

std::vector<LogProb> ImplicationLogRatioCurveFromSweep(
    const Minimize2Forward& dp) {
  CKSAFE_CHECK_GT(dp.num_buckets(), 0u);
  std::vector<LogProb> curve(dp.k() + 1);
  for (size_t h = 0; h <= dp.k(); ++h) {
    const LogProb log_r_min = dp.LogRMinAt(h);
    CKSAFE_CHECK(log_r_min != kLogInfeasible) << "no feasible atom placement";
    curve[h] = log_r_min;
  }
  return curve;
}

std::vector<double> ImplicationCurveFromSweep(const Minimize2Forward& dp) {
  std::vector<double> curve = ImplicationLogRatioCurveFromSweep(dp);
  for (double& value : curve) value = DisclosureFromLogRatio(value);
  return curve;
}

std::vector<double> NegationCurveOverBuckets(
    const std::vector<const BucketStats*>& stats, size_t max_k) {
  CKSAFE_CHECK(!stats.empty());
  std::vector<double> curve(max_k + 1);
  for (size_t k = 0; k <= max_k; ++k) {
    double best = -1.0;
    for (const BucketStats* bucket : stats) {
      const double local = ComputeBucketNegationBest(*bucket, k).disclosure;
      if (local > best) best = local;
    }
    CKSAFE_CHECK_GE(best, 0.0);
    curve[k] = best;
  }
  return curve;
}

namespace {

// Points ws->inputs at MINIMIZE1 tables valid to atom budget `budget`, one
// per bucket, where counts_of(i) is bucket i's sorted counts. Each distinct
// count vector is looked up in `cache` once: ws->first_bucket maps it to
// the first bucket holding it, whose table its repeats share, and the
// repeats are counted as hits. The shared_ptrs pin the tables for the
// whole computation even if a concurrent analyzer upgrades the cache.
template <typename CountsOf>
void FillMinimize2Inputs(size_t num_buckets, const CountsOf& counts_of,
                         size_t budget, DisclosureCache* cache,
                         Minimize2Workspace* ws) {
  ws->inputs.resize(num_buckets);
  size_t capacity = 1;  // a power of two, at least twice the buckets
  while (capacity < 2 * num_buckets) capacity *= 2;
  ws->first_bucket.assign(capacity, 0);
  uint64_t repeats = 0;
  for (size_t i = 0; i < num_buckets; ++i) {
    const std::span<const uint32_t> counts = counts_of(i);
    Minimize2Bucket& input = ws->inputs[i];
    for (size_t slot = CountsHash{}(counts) & (capacity - 1);;
         slot = (slot + 1) & (capacity - 1)) {
      const uint32_t first = ws->first_bucket[slot];
      if (first == 0) {
        ws->first_bucket[slot] = static_cast<uint32_t>(i + 1);
        input.table = cache->GetOrCompute(counts, budget);
        break;
      }
      if (CountsEqual{}(counts_of(first - 1), counts)) {
        input.table = ws->inputs[first - 1].table;
        ++repeats;
        break;
      }
    }
    uint32_t n = 0;
    for (uint32_t count : counts) n += count;
    input.ratio = static_cast<double>(n) / static_cast<double>(counts[0]);
  }
  cache->CountRepeatHits(repeats);
}

void FillMinimize2Inputs(const std::vector<BucketStats>& stats, size_t budget,
                         DisclosureCache* cache, Minimize2Workspace* ws) {
  FillMinimize2Inputs(
      stats.size(),
      [&](size_t i) { return std::span<const uint32_t>(stats[i].counts); },
      budget, cache, ws);
}

// The implication curves of one MINIMIZE2 sweep over the filled inputs,
// whose tables must cover budget max_k + 1: the target atom A joins the
// antecedents in its own bucket.
DisclosureProfile SweepImplicationProfile(size_t max_k,
                                          Minimize2Workspace* ws) {
  Minimize2Forward& dp = ws->SweepForBudget(max_k);
  dp.Recompute(ws->inputs, 0);
  DisclosureProfile profile;
  profile.implication_log_r = ImplicationLogRatioCurveFromSweep(dp);
  profile.implication = ImplicationCurveFromSweep(dp);
  ws->inputs.clear();  // release table pins, keep capacity
  return profile;
}

}  // namespace

DisclosureProfile ImplicationProfile(const NodeHistograms& histograms,
                                     size_t max_k, DisclosureCache* cache,
                                     Minimize2Workspace* workspace,
                                     double* sum_of_squares) {
  CKSAFE_CHECK_GT(histograms.num_buckets(), 0u);
  // The budgets the sweep's tables (built at max_k + 1) can hold, on both
  // paths below.
  CKSAFE_CHECK_LT(max_k, Minimize1Table::kMaxBudget);
  // One scan: Σ n_b² in bucket order, and whether some bucket holds a
  // single value.
  double squares = 0.0;
  bool single_valued = false;
  for (size_t b = 0; b < histograms.num_buckets(); ++b) {
    uint32_t n = 0;
    size_t present = 0;
    for (uint32_t count : histograms.histogram(b)) {
      n += count;
      if (count != 0) ++present;
    }
    squares += static_cast<double>(n) * n;
    if (present == 1) single_valued = true;
  }
  if (sum_of_squares != nullptr) *sum_of_squares = squares;
  if (single_valued) {
    // Such a bucket discloses its value with certainty at k = 0, so the
    // sweep's log R_min is kLogZero at every budget (DESIGN.md §11.4).
    DisclosureProfile profile;
    profile.implication_log_r.assign(max_k + 1, kLogZero);
    profile.implication.assign(max_k + 1, DisclosureFromLogRatio(kLogZero));
    return profile;
  }
  Minimize2Workspace local;
  Minimize2Workspace& ws = workspace != nullptr ? *workspace : local;
  // Each bucket's present counts, descending: the key BucketStats builds.
  ws.counts.clear();
  ws.count_offsets.assign(1, 0);
  for (size_t b = 0; b < histograms.num_buckets(); ++b) {
    const size_t begin = ws.counts.size();
    for (uint32_t count : histograms.histogram(b)) {
      if (count != 0) ws.counts.push_back(count);
    }
    std::sort(ws.counts.begin() + begin, ws.counts.end(), std::greater<>());
    ws.count_offsets.push_back(static_cast<uint32_t>(ws.counts.size()));
  }
  FillMinimize2Inputs(
      histograms.num_buckets(),
      [&](size_t b) {
        return std::span<const uint32_t>(
            ws.counts.data() + ws.count_offsets[b],
            ws.count_offsets[b + 1] - ws.count_offsets[b]);
      },
      max_k + 1, cache, &ws);
  return SweepImplicationProfile(max_k, &ws);
}

DisclosureAnalyzer::DisclosureAnalyzer(const Bucketization& bucketization,
                                       DisclosureCache* cache)
    : bucketization_(bucketization),
      stats_(ComputeBucketStats(bucketization)),
      cache_(cache != nullptr ? cache : &local_cache_) {
  CKSAFE_CHECK_GT(bucketization.num_buckets(), 0u)
      << "cannot analyze an empty bucketization";
}

WorstCaseDisclosure DisclosureAnalyzer::MaxDisclosureImplications(
    size_t k, Minimize2Workspace* workspace) const {
  Minimize2Workspace local;
  Minimize2Workspace& ws = workspace != nullptr ? *workspace : local;
  FillMinimize2Inputs(stats_, k + 1, cache_, &ws);
  Minimize2Forward& dp = ws.SweepForBudget(k);
  dp.Recompute(ws.inputs, 0);
  const LogProb log_r_min = dp.LogRMin();
  CKSAFE_CHECK(log_r_min != kLogInfeasible) << "no feasible atom placement";

  std::vector<const std::vector<PersonId>*> members(stats_.size());
  std::vector<const BucketStats*> stats(stats_.size());
  for (size_t i = 0; i < stats_.size(); ++i) {
    members[i] = &bucketization_.bucket(i).members;
    stats[i] = &stats_[i];
  }
  WorstCaseDisclosure result = AssembleImplicationWitness(
      log_r_min, dp.WitnessPlacements(), members, stats, ws.inputs);
  // Drop the table pins (capacity stays): a long-lived worker thread's
  // workspace must not keep the last node's MINIMIZE1 tables alive.
  ws.inputs.clear();
  return result;
}

WorstCaseDisclosure DisclosureAnalyzer::MaxDisclosureNegations(size_t k) const {
  std::vector<const BucketStats*> stats(stats_.size());
  std::vector<const std::vector<PersonId>*> members(stats_.size());
  for (size_t i = 0; i < stats_.size(); ++i) {
    stats[i] = &stats_[i];
    members[i] = &bucketization_.bucket(i).members;
  }
  return MaxNegationsOverBuckets(stats, members, k);
}

bool DisclosureAnalyzer::IsCkSafe(double c, size_t k,
                                  Minimize2Workspace* workspace) const {
  // Verdict straight off the sweep in log space: no witness assembly, and
  // exact where the linear disclosure saturates at 1.0 (DESIGN.md §9.3).
  Minimize2Workspace local;
  Minimize2Workspace& ws = workspace != nullptr ? *workspace : local;
  FillMinimize2Inputs(stats_, k + 1, cache_, &ws);
  Minimize2Forward& dp = ws.SweepForBudget(k);
  dp.Recompute(ws.inputs, 0);
  const LogProb log_r_min = dp.LogRMin();
  CKSAFE_CHECK(log_r_min != kLogInfeasible) << "no feasible atom placement";
  ws.inputs.clear();  // release table pins, keep capacity
  return IsSafeLogRatio(log_r_min, c);
}

std::vector<double> DisclosureAnalyzer::PerBucketDisclosure(
    size_t k, Minimize2Workspace* workspace) const {
  Minimize2Workspace local;
  Minimize2Workspace& ws = workspace != nullptr ? *workspace : local;
  FillMinimize2Inputs(stats_, k + 1, cache_, &ws);
  Minimize2Forward& prefix = ws.SweepForBudget(k);
  prefix.Recompute(ws.inputs, 0);
  ComputeNoASuffix(ws.inputs, k, &ws.suffix);
  std::vector<double> result =
      PerBucketLogRatioSweep(ws.inputs, k, prefix, ws.suffix);
  for (double& value : result) value = DisclosureFromLogRatio(value);
  ws.inputs.clear();  // release table pins, keep capacity
  return result;
}

DisclosureProfile DisclosureAnalyzer::Profile(
    size_t max_k, Minimize2Workspace* workspace) const {
  Minimize2Workspace local;
  Minimize2Workspace& ws = workspace != nullptr ? *workspace : local;
  FillMinimize2Inputs(stats_, max_k + 1, cache_, &ws);
  DisclosureProfile profile = SweepImplicationProfile(max_k, &ws);
  profile.negation = NegationCurve(max_k);
  return profile;
}

std::vector<double> DisclosureAnalyzer::ImplicationCurve(
    size_t max_k, Minimize2Workspace* workspace) const {
  Minimize2Workspace local;
  Minimize2Workspace& ws = workspace != nullptr ? *workspace : local;
  FillMinimize2Inputs(stats_, max_k + 1, cache_, &ws);
  return SweepImplicationProfile(max_k, &ws).implication;
}

std::vector<double> DisclosureAnalyzer::NegationCurve(size_t max_k) const {
  std::vector<const BucketStats*> stats(stats_.size());
  for (size_t i = 0; i < stats_.size(); ++i) stats[i] = &stats_[i];
  return NegationCurveOverBuckets(stats, max_k);
}

}  // namespace cksafe
