// The one set of strict text-to-value parsers, shared by the experiment
// option table (CLI and HTTP alike), CliParser's getters and the
// service's run ids. Each reads the whole text as one value or throws
// InvalidArgument "<what>: expected <kind>, got '<text>'".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fpsched {

/// Decimal digits only: no sign, no blanks, no overflow.
std::uint64_t parse_u64(std::string_view text, std::string_view what);

/// parse_u64 that is also >= `min_value` and fits a std::size_t.
std::size_t parse_count(std::string_view text, std::string_view what, std::size_t min_value = 0);

/// strtod over the whole text; overflow and underflow (to a subnormal or
/// zero) are rejected, not clamped.
double parse_number(std::string_view text, std::string_view what);

/// 1/0, true/false, yes/no, on/off (any case); the empty text (a bare
/// "?quick" query key) means true.
bool parse_bool(std::string_view text, std::string_view what);

/// Comma-separated items; an empty item ("50,,100") is an error.
std::vector<std::string> parse_list(std::string_view text, std::string_view what);

}  // namespace fpsched
