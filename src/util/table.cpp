#include "util/table.h"

#include <algorithm>
#include <sstream>

#include "util/contracts.h"
#include "util/strings.h"

namespace cny::util {

Table& Table::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::begin_row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string value) {
  CNY_EXPECT_MSG(!rows_.empty(), "cell() before begin_row()/row()");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::num(double value, int digits) {
  return cell(format_sig(value, digits));
}

std::size_t Table::n_cols() const {
  std::size_t n = header_.size();
  for (const auto& r : rows_) n = std::max(n, r.size());
  return n;
}

namespace {

std::vector<std::size_t> column_widths(const std::vector<std::string>& header,
                                       const std::vector<std::vector<std::string>>& rows,
                                       std::size_t n_cols) {
  std::vector<std::size_t> w(n_cols, 0);
  for (std::size_t c = 0; c < header.size(); ++c) w[c] = header[c].size();
  for (const auto& r : rows)
    for (std::size_t c = 0; c < r.size(); ++c) w[c] = std::max(w[c], r[c].size());
  return w;
}

void render_row(std::ostringstream& os, const std::vector<std::string>& cells,
                const std::vector<std::size_t>& widths) {
  os << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    const std::string& v = c < cells.size() ? cells[c] : std::string{};
    os << ' ' << v << std::string(widths[c] - v.size(), ' ') << " |";
  }
  os << '\n';
}

std::string csv_escape(const std::string& v) {
  if (v.find_first_of(",\"\n") == std::string::npos) return v;
  std::string out = "\"";
  for (char ch : v) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_text() const {
  const std::size_t nc = n_cols();
  const auto widths = column_widths(header_, rows_, nc);
  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';
  std::size_t total = 1;
  for (auto w : widths) total += w + 3;
  const std::string rule(total, '-');
  os << rule << '\n';
  if (!header_.empty()) {
    render_row(os, header_, widths);
    os << rule << '\n';
  }
  for (const auto& r : rows_) render_row(os, r, widths);
  os << rule << '\n';
  return os.str();
}

std::string Table::to_markdown() const {
  const std::size_t nc = n_cols();
  const auto widths = column_widths(header_, rows_, nc);
  std::ostringstream os;
  if (!title_.empty()) os << "**" << title_ << "**\n\n";
  render_row(os, header_, widths);
  os << '|';
  for (std::size_t c = 0; c < nc; ++c) os << std::string(widths[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& r : rows_) render_row(os, r, widths);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  const auto emit = [&os](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

}  // namespace cny::util
