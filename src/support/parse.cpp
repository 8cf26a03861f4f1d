#include "support/parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>

#include "support/error.hpp"

namespace fpsched {

namespace {

[[noreturn]] void bad_value(std::string_view what, std::string_view expected,
                            std::string_view text) {
  throw InvalidArgument(std::string(what) + ": expected " + std::string(expected) + ", got '" +
                        std::string(text) + "'");
}

}  // namespace

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  // from_chars reads no sign into an unsigned type, skips no blanks, and
  // reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    bad_value(what, "a non-negative integer below 2^64", text);
  }
  return value;
}

std::size_t parse_count(std::string_view text, std::string_view what, std::size_t min_value) {
  const std::uint64_t value = parse_u64(text, what);
  if (value < min_value || value > std::numeric_limits<std::size_t>::max()) {
    bad_value(what, "an integer >= " + std::to_string(min_value), text);
  }
  return static_cast<std::size_t>(value);
}

double parse_number(std::string_view text, std::string_view what) {
  const std::string raw(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size()) bad_value(what, "a number", text);
  if (errno == ERANGE) bad_value(what, "a number in double's range", text);
  return value;
}

bool parse_bool(std::string_view text, std::string_view what) {
  std::string value(text);
  for (char& c : value) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (value.empty() || value == "1" || value == "true" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") return false;
  bad_value(what, "a boolean (1/0, true/false, yes/no, on/off)", text);
}

std::vector<std::string> parse_list(std::string_view text, std::string_view what) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string_view::npos) end = text.size();
    if (end == start) bad_value(what, "a comma-separated list without empty items", text);
    items.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

}  // namespace fpsched
