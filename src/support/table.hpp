// Fixed-width console tables and CSV output for benches and examples,
// and the number and string formatting that every machine-readable
// writer (CSV, NDJSON records, metrics, traces) shares.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fpsched {

/// Formats `value` with `digits` significant decimal places (fixed).
std::string format_double(double value, int digits = 3);

/// Round-trip formatting (max_digits10 significant digits): strtod of the
/// result recovers the exact bit pattern. Non-finite values normalize to
/// "inf" / "-inf" / "nan". For machine-readable sinks (CSV/NDJSON); human
/// tables keep format_double's fixed decimals.
std::string format_double_full(double value);

/// The shortest decimal text that strtod reads back as the same double
/// ("0.2", "3600", not 17-digit dumps); non-finite values as above.
std::string format_double_shortest(double value);

/// `value` as a quoted JSON string (escapes quotes, backslashes and
/// control characters) — the one escaper of every JSON-emitting layer:
/// records, the HTTP service, metrics and traces.
std::string json_quote(std::string_view value);

/// A small column-aligned table. Cells are strings; numeric helpers are
/// provided for the common case. Rendering pads every column to its widest
/// cell; `to_csv` emits RFC-4180-style rows (quoting cells that need it).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  std::size_t columns() const { return headers_.size(); }
  std::size_t rows() const { return rows_.size(); }

  /// Appends a row; must match the header width.
  void add_row(std::vector<std::string> cells);

  /// Row builder for mixed string/number rows.
  class RowBuilder {
   public:
    explicit RowBuilder(Table& table) : table_(table) {}
    RowBuilder& cell(std::string value);
    RowBuilder& cell(double value, int digits = 3);
    RowBuilder& cell(std::size_t value);
    ~RowBuilder();
    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };

  RowBuilder row() { return RowBuilder(*this); }

  void print(std::ostream& os) const;
  void to_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fpsched
