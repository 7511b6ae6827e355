// Table: column-major microdata storage.
//
// Each row is one person's record (the paper's t_p); the row index doubles as
// the person id used throughout the knowledge and disclosure modules. Rows
// may carry an optional display label ("Ed", "Hannah") for examples and
// diagnostics.

#ifndef CKSAFE_DATA_TABLE_H_
#define CKSAFE_DATA_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cksafe/data/schema.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// Row index == person id. Every record corresponds to a unique individual.
using PersonId = uint32_t;

/// Immutable-schema, append-only, column-major table of int32 cell codes.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Cell accessor. CHECK-fails on out-of-range indices; validity of the
  /// code against the attribute domain is enforced at append time.
  int32_t at(PersonId row, size_t col) const;

  /// OK iff `cells` has one valid code per attribute: InvalidArgument for
  /// the wrong cell count, OutOfRange for a code outside its domain.
  Status ValidateRow(const std::vector<int32_t>& cells) const;

  /// Appends a row that passes ValidateRow; returns its error otherwise.
  Status AppendRow(const std::vector<int32_t>& cells);

  /// Appends a row given textual values (parsed via the schema).
  Status AppendRowFromText(const std::vector<std::string>& cells);

  /// Optional display label for a row (defaults to "p" + the row number).
  void SetRowLabel(PersonId row, std::string label);
  std::string RowLabel(PersonId row) const;

  /// Person id for a display label, if one was registered.
  StatusOr<PersonId> FindRowByLabel(std::string_view label) const;

  /// Whole column by value.
  const std::vector<int32_t>& column(size_t col) const;

  /// New table with only the given columns (in the given order).
  StatusOr<Table> Project(const std::vector<size_t>& cols) const;

  /// Renders a row as "attr=value, ...".
  std::string RowToString(PersonId row) const;

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<std::vector<int32_t>> columns_;
  std::vector<std::string> row_labels_;  // may be shorter than num_rows_
};

}  // namespace cksafe

#endif  // CKSAFE_DATA_TABLE_H_
