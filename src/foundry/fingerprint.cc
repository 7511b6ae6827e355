#include "cksafe/foundry/fingerprint.h"

namespace cksafe {

uint64_t FingerprintTable(const Table& table) {
  Fingerprint fp;
  fp.MixSize(table.num_rows());
  fp.MixSize(table.num_columns());
  for (size_t col = 0; col < table.num_columns(); ++col) {
    fp.MixSize(table.schema().attribute(col).domain_size());
  }
  for (PersonId row = 0; row < table.num_rows(); ++row) {
    for (size_t col = 0; col < table.num_columns(); ++col) {
      fp.MixInt32(table.at(row, col));
    }
  }
  return fp.digest();
}

uint64_t FingerprintHierarchy(const AttributeHierarchy& hierarchy) {
  Fingerprint fp;
  const AttributeDef& attribute = hierarchy.attribute();
  const int32_t min_code =
      attribute.is_categorical() ? 0 : attribute.min_value();
  const int32_t max_code =
      attribute.is_categorical()
          ? static_cast<int32_t>(attribute.domain_size()) - 1
          : attribute.max_value();
  fp.MixSize(hierarchy.num_levels());
  fp.MixSize(attribute.domain_size());
  for (size_t level = 0; level < hierarchy.num_levels(); ++level) {
    fp.MixSize(hierarchy.NumGroups(level));
    for (int32_t code = min_code; code <= max_code; ++code) {
      fp.MixInt32(static_cast<int32_t>(hierarchy.GroupOf(code, level)));
    }
  }
  return fp.digest();
}

}  // namespace cksafe
