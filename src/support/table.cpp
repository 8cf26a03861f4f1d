#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace fpsched {

std::string format_double(double value, int digits) {
  // Normalize NaN: iostreams print "-nan" when the sign bit is set (e.g.
  // the NaN an empty RunningStats returns after arithmetic), which reads
  // like a numeric value in tables/CSV.
  if (std::isnan(value)) return "nan";
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string format_double_full(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

std::string format_double_shortest(double value) {
  if (!std::isfinite(value)) return format_double_full(value);
  char buffer[64];
  // Integral values render plainly ("10", not the %.1g spelling "1e+01").
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    return buffer;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string json_quote(std::string_view value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ensure(!headers_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  ensure(cells.size() == headers_.size(), "row width must match header width");
  rows_.push_back(std::move(cells));
}

Table::RowBuilder& Table::RowBuilder::cell(std::string value) {
  cells_.push_back(std::move(value));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(double value, int digits) {
  cells_.push_back(format_double(value, digits));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(std::size_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

Table::RowBuilder::~RowBuilder() { table_.add_row(std::move(cells_)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << std::setw(static_cast<int>(widths[c])) << cells[c] << ' ';
    }
    os << "|\n";
  };

  print_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << "|" << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) print_row(row);
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::to_csv(std::ostream& os) const {
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace fpsched
