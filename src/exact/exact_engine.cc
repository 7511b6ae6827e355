#include "cksafe/exact/exact_engine.h"

#include <algorithm>

#include "cksafe/exact/world_enumerator.h"
#include "cksafe/util/math_util.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

// The best disclosure found so far: the first maximum of Pr(target | sat)
// under strict >, so a later tie never replaces it and the enumeration
// order picks the witness.
struct Best {
  double value = -1.0;  // below every probability: the first target wins
  size_t target = 0;    // dense atom index
};

// Scores the consistent world-set `sat`, |sat| = denom > 0, against every
// atom in index order. bound[t] >= |sat ∧ atom t|, and target t is skipped
// when min(bound[t], denom) / denom <= best->value. The skip changes no
// result: the numerator is at most that bound, IEEE division by a positive
// count is monotone, and a value that does not exceed best->value never
// replaces it. Returns true iff `best` changed.
bool ScoreLeaf(const std::vector<Bitset>& atoms, const Bitset& sat,
               size_t denom, const std::vector<size_t>& bound, Best* best) {
  const double d = static_cast<double>(denom);
  bool improved = false;
  for (size_t t = 0; t < atoms.size(); ++t) {
    if (static_cast<double>(std::min(bound[t], denom)) / d <= best->value) {
      continue;
    }
    const double p = static_cast<double>(Bitset::AndCount(sat, atoms[t])) / d;
    if (p > best->value) {
      *best = Best{p, t};
      improved = true;
    }
  }
  return improved;
}

// The one brute-force search of every formula family: it walks the
// conjunctions of k candidate world-sets and scores each consistent one
// with ScoreLeaf. The per-depth scratch bitsets and the target bounds are
// allocated once, so a step allocates nothing.
class FormulaSearch {
 public:
  FormulaSearch(const std::vector<Bitset>& atoms, size_t num_worlds, size_t k)
      : atoms_(atoms),
        scratch_(k + 1, Bitset(num_worlds, /*all_ones=*/true)),
        bound_(atoms.size(), num_worlds),
        chosen_(k),
        winner_(k) {}

  // Walks the k-multisets of `candidates` (k-sets unless `repeat`) in
  // lexicographic index order. Returns true iff some leaf improved best().
  bool Enumerate(const std::vector<Bitset>& candidates, bool repeat) {
    candidates_ = &candidates;
    repeat_ = repeat;
    improved_ = false;
    Walk(0, 0);
    return improved_;
  }

  bool found() const { return best_.value >= 0.0; }
  const Best& best() const { return best_; }
  // The best leaf's indices into the candidates of the last Enumerate that
  // returned true, in enumeration order.
  const std::vector<size_t>& winner() const { return winner_; }

 private:
  void Walk(size_t depth, size_t start) {
    const Bitset& prefix = scratch_[depth];
    if (depth == chosen_.size()) {
      const size_t denom = prefix.Count();
      if (denom > 0 && ScoreLeaf(atoms_, prefix, denom, bound_, &best_)) {
        improved_ = true;
        winner_ = chosen_;
      }
      return;
    }
    if (depth + 1 == chosen_.size()) {
      // Each leaf below is prefix ∧ candidate, a subset of prefix.
      for (size_t t = 0; t < atoms_.size(); ++t) {
        bound_[t] = Bitset::AndCount(prefix, atoms_[t]);
      }
    }
    for (size_t i = start; i < candidates_->size(); ++i) {
      scratch_[depth + 1] = prefix;
      scratch_[depth + 1] &= (*candidates_)[i];
      chosen_[depth] = i;
      Walk(depth + 1, repeat_ ? i : i + 1);
    }
  }

  const std::vector<Bitset>& atoms_;
  std::vector<Bitset> scratch_;  // [d] = conjunction of chosen_[0, d)
  // [t] = |scratch_[k - 1] ∧ atom t|, or the world count when k = 0.
  std::vector<size_t> bound_;
  std::vector<size_t> chosen_;
  std::vector<size_t> winner_;
  Best best_;
  const std::vector<Bitset>* candidates_ = nullptr;
  bool repeat_ = true;
  bool improved_ = false;
};

// C(n + k - 1, k): the number of k-multisets of n candidates.
double MultisetCount(double n, size_t k) {
  double count = 1.0;
  for (size_t i = 0; i < k; ++i) {
    count *= n + static_cast<double>(i);
    count /= static_cast<double>(i + 1);
  }
  return count;
}

// Refuses a search over `formula_count` formulas built from
// `candidate_count` candidate world-sets of `num_worlds` bits each, before
// any candidate is built.
Status CheckSearchBudget(double formula_count, double candidate_count,
                         size_t num_worlds, const BruteForceOptions& options) {
  if (formula_count > static_cast<double>(options.max_formulas)) {
    return Status::ResourceExhausted(
        StrFormat("brute force would evaluate %.3g formulas, cap is %llu",
                  formula_count,
                  static_cast<unsigned long long>(options.max_formulas)));
  }
  const double candidate_bytes =
      candidate_count *
      static_cast<double>(sizeof(Bitset) + (num_worlds + 63) / 64 * 8);
  if (candidate_bytes > static_cast<double>(kMaxCandidateBytes)) {
    return Status::ResourceExhausted(StrFormat(
        "brute force would hold %.3g bytes of candidate world-sets, cap is "
        "%llu",
        candidate_bytes, static_cast<unsigned long long>(kMaxCandidateBytes)));
  }
  return Status::OK();
}

// Every non-empty subset of {0, ..., n - 1} with at most `cap` elements, in
// lexicographic order.
std::vector<std::vector<size_t>> AtomSubsets(size_t n, size_t cap) {
  std::vector<std::vector<size_t>> subsets;
  std::vector<size_t> current;
  size_t next = 0;
  for (;;) {
    if (current.size() < cap && next < n) {
      current.push_back(next++);
      subsets.push_back(current);
    } else if (current.empty()) {
      return subsets;
    } else {
      next = current.back() + 1;
      current.pop_back();
    }
  }
}

}  // namespace

StatusOr<ExactEngine> ExactEngine::Create(const Bucketization& bucketization,
                                          ExactEngineOptions options) {
  WorldEnumerator enumerator(bucketization);
  const double world_count = enumerator.WorldCount();
  if (world_count > static_cast<double>(options.max_worlds)) {
    return Status::ResourceExhausted(
        StrFormat("instance has %.3g consistent worlds, cap is %llu",
                  world_count,
                  static_cast<unsigned long long>(options.max_worlds)));
  }

  ExactEngine engine;
  engine.domain_size_ = bucketization.sensitive_domain_size();
  for (const Bucket& b : bucketization.buckets()) {
    for (PersonId p : b.members) engine.persons_.push_back(p);
  }
  std::sort(engine.persons_.begin(), engine.persons_.end());
  const size_t max_person =
      engine.persons_.empty() ? 0 : engine.persons_.back() + 1;
  engine.person_index_.assign(max_person, -1);
  for (size_t i = 0; i < engine.persons_.size(); ++i) {
    engine.person_index_[engine.persons_[i]] = static_cast<int32_t>(i);
  }

  const size_t n_worlds = static_cast<size_t>(world_count);
  engine.num_worlds_ = n_worlds;
  engine.atom_bits_.assign(engine.persons_.size() * engine.domain_size_,
                           Bitset(n_worlds));
  engine.present_.assign(engine.atom_bits_.size(), false);
  for (const Bucket& b : bucketization.buckets()) {
    for (PersonId p : b.members) {
      const size_t dense = static_cast<size_t>(engine.person_index_[p]);
      for (size_t s = 0; s < engine.domain_size_; ++s) {
        if (b.histogram[s] > 0) {
          engine.present_[dense * engine.domain_size_ + s] = true;
        }
      }
    }
  }

  size_t world_index = 0;
  enumerator.ForEachWorld([&](const std::vector<int32_t>& world) {
    CKSAFE_CHECK_LT(world_index, n_worlds);
    for (size_t i = 0; i < engine.persons_.size(); ++i) {
      const int32_t value = world[engine.persons_[i]];
      CKSAFE_CHECK_GE(value, 0);
      engine.atom_bits_[i * engine.domain_size_ + static_cast<size_t>(value)]
          .Set(world_index);
    }
    ++world_index;
    return true;
  });
  CKSAFE_CHECK_EQ(world_index, n_worlds);
  return engine;
}

size_t ExactEngine::AtomIndex(const Atom& atom) const {
  CKSAFE_CHECK_LT(atom.person, person_index_.size());
  const int32_t dense = person_index_[atom.person];
  CKSAFE_CHECK_GE(dense, 0) << "person not in bucketization";
  CKSAFE_CHECK_GE(atom.value, 0);
  CKSAFE_CHECK_LT(static_cast<size_t>(atom.value), domain_size_);
  return static_cast<size_t>(dense) * domain_size_ +
         static_cast<size_t>(atom.value);
}

const Bitset& ExactEngine::AtomWorlds(const Atom& atom) const {
  return atom_bits_[AtomIndex(atom)];
}

Bitset ExactEngine::FormulaWorlds(const KnowledgeFormula& formula) const {
  Bitset result(num_worlds_, /*all_ones=*/true);
  for (const BasicImplication& imp : formula.implications()) {
    // (∧ antecedents) → (∨ consequents) == ¬(∧ antecedents) ∨ (∨ consequents)
    Bitset antecedent(num_worlds_, /*all_ones=*/true);
    for (const Atom& a : imp.antecedents) antecedent &= AtomWorlds(a);
    Bitset holds = antecedent.Not();
    for (const Atom& b : imp.consequents) holds |= AtomWorlds(b);
    result &= holds;
  }
  return result;
}

bool ExactEngine::IsConsistent(const KnowledgeFormula& formula) const {
  return FormulaWorlds(formula).Any();
}

uint64_t ExactEngine::CountWorlds(const KnowledgeFormula& formula) const {
  return FormulaWorlds(formula).Count();
}

StatusOr<double> ExactEngine::ConditionalProbability(
    const Atom& target, const KnowledgeFormula& formula) const {
  const Bitset sat = FormulaWorlds(formula);
  const size_t denom = sat.Count();
  if (denom == 0) {
    return Status::FailedPrecondition(
        "formula is inconsistent with the bucketization");
  }
  const size_t numer = Bitset::AndCount(sat, AtomWorlds(target));
  return static_cast<double>(numer) / static_cast<double>(denom);
}

StatusOr<ExactDisclosure> ExactEngine::DisclosureRisk(
    const KnowledgeFormula& formula) const {
  const Bitset sat = FormulaWorlds(formula);
  const size_t denom = sat.Count();
  if (denom == 0) {
    return Status::FailedPrecondition(
        "formula is inconsistent with the bucketization");
  }
  ExactDisclosure best;
  best.formula = formula;
  Best leaf;
  if (ScoreLeaf(atom_bits_, sat, denom,
                std::vector<size_t>(atom_bits_.size(), denom), &leaf)) {
    best.disclosure = leaf.value;
    best.target = AtomAt(leaf.target);
  }
  return best;
}

StatusOr<ExactDisclosure> ExactEngine::MaxDisclosureSimpleImplications(
    size_t k, bool same_consequent, BruteForceOptions options) const {
  const size_t num_atoms = persons_.size() * domain_size_;
  // Multisets of implications: num_atoms consequents x k-multisets of
  // antecedents, or k-multisets of all num_atoms^2 implications.
  const double atoms = static_cast<double>(num_atoms);
  CKSAFE_RETURN_IF_ERROR(CheckSearchBudget(
      same_consequent ? atoms * MultisetCount(atoms, k)
                      : MultisetCount(atoms * atoms, k),
      same_consequent ? atoms : atoms * atoms, num_worlds_, options));

  // The implications a -> c, as one list per consequent in consequent
  // order or as one list of every pair; ids[i] = a * num_atoms + c.
  FormulaSearch search(atom_bits_, num_worlds_, k);
  std::vector<Bitset> candidates;
  std::vector<size_t> ids;
  std::vector<size_t> winner;  // ids of the best formula's implications
  auto add = [&](size_t a, size_t c) {
    if (options.require_present_values &&
        (!IsPresentValue(a) || !IsPresentValue(c))) {
      return;
    }
    if (options.require_distinct_persons &&
        a / domain_size_ == c / domain_size_) {
      return;
    }
    candidates.push_back(atom_bits_[a].Not() | atom_bits_[c]);
    ids.push_back(a * num_atoms + c);
  };
  auto run = [&] {
    if (search.Enumerate(candidates, /*repeat=*/true)) {
      winner.clear();
      for (size_t i : search.winner()) winner.push_back(ids[i]);
    }
    candidates.clear();
    ids.clear();
  };
  if (same_consequent) {
    for (size_t c = 0; c < num_atoms; ++c) {
      if (options.require_present_values && !IsPresentValue(c)) continue;
      for (size_t a = 0; a < num_atoms; ++a) add(a, c);
      run();
    }
  } else {
    for (size_t a = 0; a < num_atoms; ++a) {
      for (size_t c = 0; c < num_atoms; ++c) add(a, c);
    }
    run();
  }

  if (!search.found()) {
    return Status::Internal("no consistent formula found (empty instance?)");
  }
  ExactDisclosure best{search.best().value, AtomAt(search.best().target), {}};
  for (size_t pair : winner) {
    best.formula.AddSimple(SimpleImplication{AtomAt(pair / num_atoms),
                                             AtomAt(pair % num_atoms)});
  }
  return best;
}

StatusOr<ExactDisclosure> ExactEngine::MaxDisclosureBasicImplications(
    size_t k, size_t max_antecedents, size_t max_consequents,
    BruteForceOptions options) const {
  if (max_antecedents == 0 || max_consequents == 0) {
    return Status::InvalidArgument(
        "basic implications need >= 1 atom per side");
  }
  const size_t num_atoms = persons_.size() * domain_size_;
  // A candidate is (non-empty atom subset of size <= max_antecedents) ->
  // (non-empty atom subset of size <= max_consequents). Count the subsets
  // of both sides, and so the formulas and the candidates' bytes, before
  // building either.
  const size_t side_caps[2] = {std::min(max_antecedents, num_atoms),
                               std::min(max_consequents, num_atoms)};
  double side_counts[2] = {0.0, 0.0};
  for (int side = 0; side < 2; ++side) {
    for (size_t i = 1; i <= side_caps[side]; ++i) {
      side_counts[side] += BinomialCoefficient(
          static_cast<uint32_t>(num_atoms), static_cast<uint32_t>(i));
    }
  }
  const double candidate_count = side_counts[0] * side_counts[1];
  CKSAFE_RETURN_IF_ERROR(
      CheckSearchBudget(MultisetCount(candidate_count, k), candidate_count,
                        num_worlds_, options));

  const auto antecedents = AtomSubsets(num_atoms, side_caps[0]);
  const auto consequents = AtomSubsets(num_atoms, side_caps[1]);
  // candidates[i]: antecedents[i / |consequents|] -> consequents[i % ...].
  std::vector<Bitset> candidates;
  candidates.reserve(antecedents.size() * consequents.size());
  for (const std::vector<size_t>& ante : antecedents) {
    Bitset ante_bits(num_worlds_, /*all_ones=*/true);
    for (size_t a : ante) ante_bits &= atom_bits_[a];
    const Bitset not_ante = ante_bits.Not();
    for (const std::vector<size_t>& cons : consequents) {
      Bitset holds = not_ante;
      for (size_t c : cons) holds |= atom_bits_[c];
      candidates.push_back(std::move(holds));
    }
  }
  FormulaSearch search(atom_bits_, num_worlds_, k);
  search.Enumerate(candidates, /*repeat=*/true);

  if (!search.found()) return Status::Internal("no consistent formula found");
  ExactDisclosure best{search.best().value, AtomAt(search.best().target), {}};
  for (size_t i : search.winner()) {
    BasicImplication imp;
    for (size_t a : antecedents[i / consequents.size()]) {
      imp.antecedents.push_back(AtomAt(a));
    }
    for (size_t c : consequents[i % consequents.size()]) {
      imp.consequents.push_back(AtomAt(c));
    }
    best.formula.Add(std::move(imp));
  }
  return best;
}

StatusOr<ExactDisclosure> ExactEngine::MaxDisclosureNegations(
    size_t k, BruteForceOptions options) const {
  const size_t num_atoms = persons_.size() * domain_size_;
  CKSAFE_RETURN_IF_ERROR(CheckSearchBudget(
      BinomialCoefficient(static_cast<uint32_t>(num_atoms),
                          static_cast<uint32_t>(k)),
      static_cast<double>(num_atoms), num_worlds_, options));

  // ¬atom per allowed atom. A duplicated negation is redundant, so the
  // search walks k-sets.
  std::vector<Bitset> candidates;
  std::vector<size_t> ids;  // candidate -> atom index
  for (size_t a = 0; a < num_atoms; ++a) {
    if (options.require_present_values && !IsPresentValue(a)) continue;
    candidates.push_back(atom_bits_[a].Not());
    ids.push_back(a);
  }
  FormulaSearch search(atom_bits_, num_worlds_, k);
  search.Enumerate(candidates, /*repeat=*/false);

  if (!search.found()) {
    return Status::Internal("no consistent negation set found");
  }
  // Only the witness is encoded: the negation encoding needs a second
  // domain value.
  ExactDisclosure best{search.best().value, AtomAt(search.best().target), {}};
  for (size_t i : search.winner()) {
    const Atom atom = AtomAt(ids[i]);
    best.formula.AddNegation(
        atom, (atom.value + 1) % static_cast<int32_t>(domain_size_));
  }
  return best;
}

}  // namespace cksafe
