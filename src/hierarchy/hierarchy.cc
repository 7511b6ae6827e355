#include "cksafe/hierarchy/hierarchy.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "cksafe/util/string_util.h"

namespace cksafe {

StatusOr<IntervalHierarchy> IntervalHierarchy::Create(
    AttributeDef attribute, std::vector<int32_t> widths,
    bool add_suppressed_top) {
  if (attribute.is_categorical()) {
    return Status::InvalidArgument("IntervalHierarchy requires a numeric attribute");
  }
  if (widths.empty()) return Status::InvalidArgument("widths must be non-empty");
  if (widths[0] != 1) {
    return Status::InvalidArgument("level 0 must be the identity (width 1)");
  }
  for (size_t i = 1; i < widths.size(); ++i) {
    if (widths[i] <= 0 || widths[i] % widths[i - 1] != 0 ||
        widths[i] == widths[i - 1]) {
      return Status::InvalidArgument(StrFormat(
          "width %d at level %zu must be a strictly larger multiple of %d",
          widths[i], i, widths[i - 1]));
    }
  }
  IntervalHierarchy h;
  h.attribute_ = std::move(attribute);
  h.widths_ = std::move(widths);
  h.suppressed_top_ = add_suppressed_top;
  return h;
}

int64_t IntervalHierarchy::GroupOf(int32_t code, size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  CKSAFE_CHECK(attribute_.IsValidCode(code)) << "code" << code;
  if (suppressed_top_ && level == widths_.size()) return 0;
  // In 64 bits: an int32 value range can be wider than INT32_MAX.
  return (int64_t{code} - attribute_.min_value()) / widths_[level];
}

size_t IntervalHierarchy::NumGroups(size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  if (suppressed_top_ && level == widths_.size()) return 1;
  const size_t width = static_cast<size_t>(widths_[level]);
  return (attribute_.domain_size() + width - 1) / width;
}

size_t IntervalHierarchy::GroupSize(int64_t group, size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  CKSAFE_CHECK_GE(group, 0);
  CKSAFE_CHECK_LT(static_cast<size_t>(group), NumGroups(level));
  if (suppressed_top_ && level == widths_.size()) {
    return attribute_.domain_size();
  }
  // Every interval is full width except the last, cut off at the maximum.
  const size_t width = static_cast<size_t>(widths_[level]);
  const size_t offset = static_cast<size_t>(group) * width;
  return std::min(width, attribute_.domain_size() - offset);
}

std::string IntervalHierarchy::GroupLabel(int64_t group, size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  CKSAFE_CHECK_GE(group, 0);
  CKSAFE_CHECK_LT(static_cast<size_t>(group), NumGroups(level));
  if (suppressed_top_ && level == widths_.size()) return "*";
  const int64_t w = widths_[level];
  const int64_t lo = attribute_.min_value() + group * w;
  if (w == 1) return std::to_string(lo);
  const int64_t hi = std::min<int64_t>(lo + w - 1, attribute_.max_value());
  return StrFormat("[%lld-%lld]", static_cast<long long>(lo),
                   static_cast<long long>(hi));
}

StatusOr<TreeHierarchy> TreeHierarchy::Create(
    AttributeDef attribute, std::vector<std::vector<Group>> levels) {
  if (!attribute.is_categorical()) {
    return Status::InvalidArgument("TreeHierarchy requires a categorical attribute");
  }
  TreeHierarchy h;
  const size_t domain = attribute.domain_size();

  // Level 0: identity.
  std::vector<int32_t> identity(domain);
  std::vector<std::string> identity_labels(domain);
  for (size_t c = 0; c < domain; ++c) {
    identity[c] = static_cast<int32_t>(c);
    identity_labels[c] = attribute.LabelOf(static_cast<int32_t>(c));
  }
  h.group_of_.push_back(std::move(identity));
  h.labels_.push_back(std::move(identity_labels));
  h.sizes_.emplace_back(domain, 1);

  for (size_t li = 0; li < levels.size(); ++li) {
    const auto& groups = levels[li];
    std::vector<int32_t> mapping(domain, -1);
    std::vector<std::string> labels;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].members.empty()) {
        return Status::InvalidArgument("empty group '" + groups[g].label + "'");
      }
      labels.push_back(groups[g].label);
      for (const std::string& member : groups[g].members) {
        CKSAFE_ASSIGN_OR_RETURN(int32_t code, attribute.CodeOf(member));
        if (mapping[static_cast<size_t>(code)] != -1) {
          return Status::InvalidArgument("label '" + member +
                                         "' assigned to two groups");
        }
        mapping[static_cast<size_t>(code)] = static_cast<int32_t>(g);
      }
    }
    for (size_t c = 0; c < domain; ++c) {
      if (mapping[c] == -1) {
        return Status::InvalidArgument(
            StrFormat("level %zu does not cover label '%s'", li + 1,
                      attribute.LabelOf(static_cast<int32_t>(c)).c_str()));
      }
    }
    // Nesting: same group at the previous level implies same group here.
    const std::vector<int32_t>& prev = h.group_of_.back();
    std::unordered_map<int32_t, int32_t> prev_to_new;
    for (size_t c = 0; c < domain; ++c) {
      auto [it, inserted] = prev_to_new.emplace(prev[c], mapping[c]);
      if (!inserted && it->second != mapping[c]) {
        return Status::InvalidArgument(StrFormat(
            "level %zu splits a level-%zu group (value '%s')", li + 1, li,
            attribute.LabelOf(static_cast<int32_t>(c)).c_str()));
      }
    }
    std::vector<size_t> sizes(groups.size(), 0);
    for (int32_t group : mapping) ++sizes[static_cast<size_t>(group)];
    h.group_of_.push_back(std::move(mapping));
    h.labels_.push_back(std::move(labels));
    h.sizes_.push_back(std::move(sizes));
  }
  h.attribute_ = std::move(attribute);
  return h;
}

TreeHierarchy TreeHierarchy::SuppressionOnly(AttributeDef attribute) {
  std::vector<Group> top(1);
  top[0].label = "*";
  for (const std::string& label : attribute.labels()) {
    top[0].members.push_back(label);
  }
  auto result = Create(std::move(attribute), {std::move(top)});
  CKSAFE_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::shared_ptr<const AttributeHierarchy> MakeDefaultHierarchy(
    const AttributeDef& attribute) {
  if (attribute.is_categorical()) {
    return ShareHierarchy(TreeHierarchy::SuppressionOnly(attribute));
  }
  const int64_t span = static_cast<int64_t>(attribute.max_value()) -
                       attribute.min_value() + 1;
  std::vector<int32_t> widths = {1};
  while (widths.size() < 4 && widths.back() * 4 < span) {
    widths.push_back(widths.back() * 4);
  }
  auto hierarchy = IntervalHierarchy::Create(attribute, std::move(widths),
                                             /*add_suppressed_top=*/true);
  CKSAFE_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  return ShareHierarchy(*std::move(hierarchy));
}

int64_t TreeHierarchy::GroupOf(int32_t code, size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  CKSAFE_CHECK(attribute_.IsValidCode(code)) << "code" << code;
  return group_of_[level][static_cast<size_t>(code)];
}

size_t TreeHierarchy::NumGroups(size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  return labels_[level].size();
}

size_t TreeHierarchy::GroupSize(int64_t group, size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  CKSAFE_CHECK_GE(group, 0);
  CKSAFE_CHECK_LT(static_cast<size_t>(group), sizes_[level].size());
  return sizes_[level][static_cast<size_t>(group)];
}

std::string TreeHierarchy::GroupLabel(int64_t group, size_t level) const {
  CKSAFE_CHECK_LT(level, num_levels());
  CKSAFE_CHECK_GE(group, 0);
  CKSAFE_CHECK_LT(static_cast<size_t>(group), labels_[level].size());
  return labels_[level][static_cast<size_t>(group)];
}

}  // namespace cksafe
