#include "cksafe/data/schema.h"

#include "cksafe/util/string_util.h"

namespace cksafe {

AttributeDef AttributeDef::Numeric(std::string name, int32_t min_value,
                                   int32_t max_value) {
  CKSAFE_CHECK_LE(min_value, max_value);
  AttributeDef def;
  def.name_ = std::move(name);
  def.type_ = AttributeType::kNumeric;
  def.min_value_ = min_value;
  def.max_value_ = max_value;
  return def;
}

AttributeDef AttributeDef::Categorical(std::string name,
                                       std::vector<std::string> labels) {
  CKSAFE_CHECK(!labels.empty()) << "categorical attribute needs labels";
  AttributeDef def;
  def.name_ = std::move(name);
  def.type_ = AttributeType::kCategorical;
  def.labels_ = std::move(labels);
  for (size_t i = 0; i < def.labels_.size(); ++i) {
    auto [it, inserted] =
        def.label_index_.emplace(def.labels_[i], static_cast<int32_t>(i));
    CKSAFE_CHECK(inserted) << "duplicate label" << def.labels_[i];
    (void)it;
  }
  def.min_value_ = 0;
  def.max_value_ = static_cast<int32_t>(def.labels_.size()) - 1;
  return def;
}

size_t AttributeDef::domain_size() const {
  // In 64 bits: [INT32_MIN, INT32_MAX] holds 2^32 values.
  return static_cast<size_t>(int64_t{max_value_} - min_value_ + 1);
}

StatusOr<int32_t> AttributeDef::CodeOf(std::string_view text) const {
  if (type_ == AttributeType::kCategorical) {
    auto it = label_index_.find(std::string(Trim(text)));
    if (it == label_index_.end()) {
      return Status::NotFound("no label '" + std::string(text) +
                              "' in attribute " + name_);
    }
    return it->second;
  }
  CKSAFE_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
  if (v < min_value_ || v > max_value_) {
    return Status::OutOfRange("value " + std::to_string(v) +
                              " outside domain of " + name_);
  }
  return static_cast<int32_t>(v);
}

std::string AttributeDef::LabelOf(int32_t code) const {
  if (type_ == AttributeType::kCategorical) {
    CKSAFE_CHECK(IsValidCode(code)) << "bad code" << code << "for" << name_;
    return labels_[static_cast<size_t>(code)];
  }
  return std::to_string(code);
}

bool AttributeDef::IsValidCode(int32_t code) const {
  return code >= min_value_ && code <= max_value_;
}

Schema::Schema(std::vector<AttributeDef> attributes)
    : attributes_(std::move(attributes)) {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    auto [it, inserted] = name_index_.emplace(attributes_[i].name(), i);
    CKSAFE_CHECK(inserted) << "duplicate attribute" << attributes_[i].name();
    (void)it;
  }
}

const AttributeDef& Schema::attribute(size_t i) const {
  CKSAFE_CHECK_LT(i, attributes_.size());
  return attributes_[i];
}

StatusOr<size_t> Schema::IndexOf(std::string_view name) const {
  auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) {
    return Status::NotFound("no attribute named '" + std::string(name) + "'");
  }
  return it->second;
}

}  // namespace cksafe
