// Plain-text / markdown / CSV table emitter used by every experiment driver
// to print the paper's tables and figure series.
#pragma once

#include <string>
#include <vector>

namespace cny::util {

/// A rectangular table of strings with a header row and an optional title.
/// Rows may be added cell-by-cell or as whole rows; ragged rows are padded
/// with empty cells on render.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Replaces the header row.
  Table& header(std::vector<std::string> cells);

  /// Appends a full row.
  Table& row(std::vector<std::string> cells);

  /// Starts a new row and returns it for incremental appends.
  Table& begin_row();
  Table& cell(std::string value);

  /// Convenience: appends a numeric cell with 4 significant digits.
  Table& num(double value, int digits = 4);

  [[nodiscard]] std::size_t n_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t n_cols() const;
  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] const std::vector<std::string>& header_row() const { return header_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Renders with aligned columns and box-drawing rules, like
  ///   Table 1. ...
  ///   | a | b |
  [[nodiscard]] std::string to_text() const;

  /// Renders as GitHub-flavoured markdown.
  [[nodiscard]] std::string to_markdown() const;

  /// Renders as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  [[nodiscard]] std::string to_csv() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cny::util
