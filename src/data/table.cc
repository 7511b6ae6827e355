#include "cksafe/data/table.h"

#include "cksafe/util/string_util.h"

namespace cksafe {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_attributes());
}

int32_t Table::at(PersonId row, size_t col) const {
  CKSAFE_CHECK_LT(row, num_rows_);
  CKSAFE_CHECK_LT(col, columns_.size());
  return columns_[col][row];
}

Status Table::ValidateRow(const std::vector<int32_t>& cells) const {
  if (cells.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu cells, schema has %zu attributes", cells.size(),
                  schema_.num_attributes()));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!schema_.attribute(i).IsValidCode(cells[i])) {
      return Status::OutOfRange(StrFormat(
          "code %d invalid for attribute %s", cells[i],
          schema_.attribute(i).name().c_str()));
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const std::vector<int32_t>& cells) {
  CKSAFE_RETURN_IF_ERROR(ValidateRow(cells));
  for (size_t i = 0; i < cells.size(); ++i) columns_[i].push_back(cells[i]);
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendRowFromText(const std::vector<std::string>& cells) {
  if (cells.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu cells, schema has %zu attributes", cells.size(),
                  schema_.num_attributes()));
  }
  std::vector<int32_t> codes(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    CKSAFE_ASSIGN_OR_RETURN(codes[i], schema_.attribute(i).CodeOf(cells[i]));
  }
  return AppendRow(codes);
}

void Table::SetRowLabel(PersonId row, std::string label) {
  CKSAFE_CHECK_LT(row, num_rows_);
  if (row_labels_.size() <= row) row_labels_.resize(row + 1);
  row_labels_[row] = std::move(label);
}

std::string Table::RowLabel(PersonId row) const {
  CKSAFE_CHECK_LT(row, num_rows_);
  if (row < row_labels_.size() && !row_labels_[row].empty()) {
    return row_labels_[row];
  }
  return "p" + std::to_string(row);
}

StatusOr<PersonId> Table::FindRowByLabel(std::string_view label) const {
  for (size_t i = 0; i < row_labels_.size(); ++i) {
    if (row_labels_[i] == label) return static_cast<PersonId>(i);
  }
  return Status::NotFound("no row labeled '" + std::string(label) + "'");
}

const std::vector<int32_t>& Table::column(size_t col) const {
  CKSAFE_CHECK_LT(col, columns_.size());
  return columns_[col];
}

StatusOr<Table> Table::Project(const std::vector<size_t>& cols) const {
  std::vector<AttributeDef> defs;
  for (size_t c : cols) {
    if (c >= schema_.num_attributes()) {
      return Status::OutOfRange("projection column out of range");
    }
    defs.push_back(schema_.attribute(c));
  }
  Table out{Schema(std::move(defs))};
  out.num_rows_ = num_rows_;
  out.columns_.clear();
  for (size_t c : cols) out.columns_.push_back(columns_[c]);
  out.row_labels_ = row_labels_;
  return out;
}

std::string Table::RowToString(PersonId row) const {
  std::string out = RowLabel(row) + ": ";
  for (size_t c = 0; c < schema_.num_attributes(); ++c) {
    if (c > 0) out += ", ";
    out += schema_.attribute(c).name() + "=" +
           schema_.attribute(c).LabelOf(at(row, c));
  }
  return out;
}

}  // namespace cksafe
