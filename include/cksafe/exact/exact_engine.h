// Exact (enumeration-based) probability and disclosure computations.
//
// The engine materializes every world consistent with a bucketization and
// stores, per atom, the bitset of worlds where the atom holds. Conditional
// probabilities reduce to popcounts; maximum disclosure over small formula
// families reduces to a search over bitset conjunctions. This is the test
// oracle that the polynomial-time DP algorithms of src/core are validated
// against, and a live illustration of Theorem 8's hardness: its cost is the
// number of consistent worlds, which explodes with bucket sizes.

#ifndef CKSAFE_EXACT_EXACT_ENGINE_H_
#define CKSAFE_EXACT_EXACT_ENGINE_H_

#include <cstdint>
#include <vector>

#include "cksafe/anon/bucketization.h"
#include "cksafe/knowledge/formula.h"
#include "cksafe/util/bitset.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// Limits for the exact engine (it is deliberately capped).
struct ExactEngineOptions {
  /// Refuse instances with more consistent worlds than this.
  uint64_t max_worlds = 1ULL << 22;
};

/// The memory cap of every brute-force search, in bytes of candidate
/// world-set bitsets. Fixed, unlike the formula cap: a search over more
/// candidates than fit is refused whatever its options say.
inline constexpr uint64_t kMaxCandidateBytes = uint64_t{256} << 20;

/// Bounds for brute-force searches over formula families. Every search
/// scores each formula against every target atom (Definition 5), and
/// holds one world-set bitset per candidate implication or negation: a
/// search whose candidates would exceed kMaxCandidateBytes, or whose
/// formulas would exceed max_formulas, returns ResourceExhausted before
/// it builds any candidate.
struct BruteForceOptions {
  /// Refuse searches that would evaluate more formulas than this.
  uint64_t max_formulas = 20'000'000;
  /// Restrict simple implications to antecedent person != consequent
  /// person. Used to reproduce the paper's Section 2.3 example, which
  /// implicitly excludes self-implications (see DESIGN.md). Read only by
  /// MaxDisclosureSimpleImplications.
  bool require_distinct_persons = false;
  /// Restrict atoms to values actually present in the person's bucket.
  /// Without this, an implication whose consequent has zero probability
  /// still encodes a negation of its antecedent, so the Section 2.3
  /// example additionally needs this restriction to yield 10/19. Read by
  /// MaxDisclosureSimpleImplications and MaxDisclosureNegations;
  /// MaxDisclosureBasicImplications reads neither restriction.
  bool require_present_values = false;
};

/// A maximizing (formula, target) pair and its disclosure value.
struct ExactDisclosure {
  double disclosure = 0.0;
  Atom target;
  KnowledgeFormula formula;
};

/// Exact probability engine over the worlds consistent with a bucketization.
class ExactEngine {
 public:
  /// Fails with ResourceExhausted if the instance has too many worlds.
  static StatusOr<ExactEngine> Create(const Bucketization& bucketization,
                                      ExactEngineOptions options = {});

  size_t num_worlds() const { return num_worlds_; }
  size_t num_persons() const { return persons_.size(); }
  size_t domain_size() const { return domain_size_; }

  /// Bitset of worlds where the atom holds.
  const Bitset& AtomWorlds(const Atom& atom) const;

  /// Bitset of worlds where the formula holds.
  Bitset FormulaWorlds(const KnowledgeFormula& formula) const;

  /// True iff some consistent world satisfies the formula (the NP-complete
  /// consistency question of Theorem 8, answered by brute force).
  bool IsConsistent(const KnowledgeFormula& formula) const;

  /// Number of consistent worlds satisfying the formula (the #P-complete
  /// counting question of Theorem 8, answered by brute force).
  uint64_t CountWorlds(const KnowledgeFormula& formula) const;

  /// Pr(target | B ∧ formula). FailedPrecondition if the formula is
  /// inconsistent with the bucketization.
  StatusOr<double> ConditionalProbability(const Atom& target,
                                          const KnowledgeFormula& formula) const;

  /// Definition 5: max over persons and values of
  /// Pr(t_p = s | B ∧ formula).
  StatusOr<ExactDisclosure> DisclosureRisk(const KnowledgeFormula& formula) const;

  /// Definition 6 restricted to conjunctions of k *simple* implications
  /// (the family Theorem 9 proves sufficient when `same_consequent`).
  StatusOr<ExactDisclosure> MaxDisclosureSimpleImplications(
      size_t k, bool same_consequent, BruteForceOptions options = {}) const;

  /// Definition 6 restricted to conjunctions of k negated atoms
  /// (ℓ-diversity-style background knowledge).
  StatusOr<ExactDisclosure> MaxDisclosureNegations(
      size_t k, BruteForceOptions options = {}) const;

  /// Definition 6 over conjunctions of k *general* basic implications with
  /// up to `max_antecedents` antecedent atoms and `max_consequents`
  /// consequent atoms (distinct atoms per side). This searches a strict
  /// superset of the simple-implication family and is used to validate
  /// Theorem 9 (the richer family cannot beat same-consequent simple
  /// implications). Cost explodes combinatorially; tiny instances only.
  StatusOr<ExactDisclosure> MaxDisclosureBasicImplications(
      size_t k, size_t max_antecedents, size_t max_consequents,
      BruteForceOptions options = {}) const;

 private:
  ExactEngine() = default;

  size_t AtomIndex(const Atom& atom) const;

  /// The atom at dense index `atom_index`; inverse of AtomIndex.
  Atom AtomAt(size_t atom_index) const {
    return Atom{persons_[atom_index / domain_size_],
                static_cast<int32_t>(atom_index % domain_size_)};
  }

  /// True iff the atom's value occurs in the atom's person's bucket.
  bool IsPresentValue(size_t atom_index) const {
    return present_[atom_index];
  }

  size_t domain_size_ = 0;
  size_t num_worlds_ = 0;
  std::vector<PersonId> persons_;        // all persons, ascending
  std::vector<int32_t> person_index_;    // person id -> dense index or -1
  std::vector<Bitset> atom_bits_;        // [dense person * domain + value]
  std::vector<bool> present_;            // same indexing as atom_bits_
};

}  // namespace cksafe

#endif  // CKSAFE_EXACT_EXACT_ENGINE_H_
