// Full-domain generalization hierarchies (Samarati/Sweeney style ladders).
//
// A hierarchy maps every base value of one attribute to a coarser group at
// each level. Level 0 is always the identity; the top level of a ladder is
// typically full suppression ("*"). Levels must nest: the groups at level
// L+1 are unions of groups at level L, which is what makes the per-attribute
// ladders compose into the generalization lattice (see lattice/lattice.h)
// and what Theorem 14's monotonicity argument relies on.

#ifndef CKSAFE_HIERARCHY_HIERARCHY_H_
#define CKSAFE_HIERARCHY_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cksafe/data/schema.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// Interface for one attribute's generalization ladder.
///
/// Nesting contract: each level-l group lies inside exactly one
/// level-(l+1) group, so values grouped together stay together at every
/// coarser level. NodeHistograms::RollUp relies on it to take a child
/// bucket's coarser key from its lowest row. IntervalHierarchy and
/// TreeHierarchy reject ladders that break it at Create.
class AttributeHierarchy {
 public:
  virtual ~AttributeHierarchy() = default;

  /// The base attribute this ladder generalizes.
  virtual const AttributeDef& attribute() const = 0;

  /// Number of levels, >= 1. Level 0 is the identity mapping.
  virtual size_t num_levels() const = 0;

  /// Group id of `code` at `level`. Group ids are dense in [0, NumGroups),
  /// and 64-bit: an int32 value range can hold 2^32 distinct values.
  virtual int64_t GroupOf(int32_t code, size_t level) const = 0;

  /// Number of distinct groups at `level`.
  virtual size_t NumGroups(size_t level) const = 0;

  /// Number of base values `group` covers at `level`.
  virtual size_t GroupSize(int64_t group, size_t level) const = 0;

  /// Rendering of a group ("[20-39]", "Married", "*").
  virtual std::string GroupLabel(int64_t group, size_t level) const = 0;
};

/// Interval ladder for numeric attributes: level i groups values into
/// intervals of widths[i] anchored at the attribute minimum; an optional
/// final level suppresses the attribute entirely. Consecutive widths must
/// divide evenly so that intervals nest.
class IntervalHierarchy : public AttributeHierarchy {
 public:
  /// `widths` must be non-empty, start at 1 (identity level) and each width
  /// must be a multiple of its predecessor. If `add_suppressed_top` a final
  /// all-in-one level is appended.
  static StatusOr<IntervalHierarchy> Create(AttributeDef attribute,
                                            std::vector<int32_t> widths,
                                            bool add_suppressed_top);

  const AttributeDef& attribute() const override { return attribute_; }
  size_t num_levels() const override {
    return widths_.size() + (suppressed_top_ ? 1 : 0);
  }
  int64_t GroupOf(int32_t code, size_t level) const override;
  size_t NumGroups(size_t level) const override;
  size_t GroupSize(int64_t group, size_t level) const override;
  std::string GroupLabel(int64_t group, size_t level) const override;

 private:
  IntervalHierarchy() = default;

  AttributeDef attribute_{AttributeDef::Numeric("", 0, 0)};
  std::vector<int32_t> widths_;
  bool suppressed_top_ = false;
};

/// Explicit tree ladder for categorical attributes.
class TreeHierarchy : public AttributeHierarchy {
 public:
  /// One named group of base labels at some level.
  struct Group {
    std::string label;
    std::vector<std::string> members;  // base labels
  };

  /// `levels[i]` describes level i+1 (level 0 is the identity). Each level
  /// must partition the base domain and nest with the previous level
  /// (values grouped together stay together at coarser levels).
  static StatusOr<TreeHierarchy> Create(AttributeDef attribute,
                                        std::vector<std::vector<Group>> levels);

  /// Two-level ladder: identity, then everything suppressed to "*".
  static TreeHierarchy SuppressionOnly(AttributeDef attribute);

  const AttributeDef& attribute() const override { return attribute_; }
  size_t num_levels() const override { return group_of_.size(); }
  int64_t GroupOf(int32_t code, size_t level) const override;
  size_t NumGroups(size_t level) const override;
  size_t GroupSize(int64_t group, size_t level) const override;
  std::string GroupLabel(int64_t group, size_t level) const override;

 private:
  TreeHierarchy() = default;

  AttributeDef attribute_{AttributeDef::Numeric("", 0, 0)};
  // group_of_[level][code] -> group id; labels_[level][group] -> label;
  // sizes_[level][group] -> number of codes in the group.
  std::vector<std::vector<int32_t>> group_of_;
  std::vector<std::vector<std::string>> labels_;
  std::vector<std::vector<size_t>> sizes_;
};

/// A quasi-identifying column paired with its ladder.
struct QuasiIdentifier {
  size_t column = 0;
  std::shared_ptr<const AttributeHierarchy> hierarchy;
};

/// Convenience: wraps a hierarchy in a shared_ptr.
template <typename H>
std::shared_ptr<const AttributeHierarchy> ShareHierarchy(H hierarchy) {
  return std::make_shared<H>(std::move(hierarchy));
}

/// Default ladder when the user supplies none: numeric attributes get
/// interval widths 1, 4, 16, ... (ratio 4, at most four interval levels)
/// plus a suppressed top; categorical attributes get identity plus
/// suppression. Used by the CLI for ad-hoc datasets.
std::shared_ptr<const AttributeHierarchy> MakeDefaultHierarchy(
    const AttributeDef& attribute);

}  // namespace cksafe

#endif  // CKSAFE_HIERARCHY_HIERARCHY_H_
