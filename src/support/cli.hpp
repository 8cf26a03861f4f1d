// Minimal command line parser for the examples and benches.
//
// Supported syntax: `--name value`, `--name=value`, boolean `--flag`.
// Unknown options raise an error that lists the registered options, so every
// binary self-documents via `--help`.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fpsched {

class CliParser {
 public:
  /// `program_summary` is printed at the top of --help output.
  explicit CliParser(std::string program_summary);

  /// Registers an option with a default value (all values are strings
  /// internally; typed getters convert on access).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Registers a boolean flag (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Accepts positional (non `--`) arguments, collected in order and
  /// returned by positionals(). Without this call parse() rejects them —
  /// a stray positional is almost always a mistyped option value.
  void allow_positionals(const std::string& placeholder, const std::string& help);

  /// Parses argv. Returns false when --help was requested (help text is
  /// written to stdout); throws InvalidArgument on unknown or malformed
  /// arguments.
  bool parse(int argc, const char* const* argv);

  // The typed getters read through the shared parsers of
  // support/parse.hpp and throw InvalidArgument naming the option.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Non-negative integer >= `min_value`, safe to use as a std::size_t
  /// (`--stride 0` and `--tasks -5` are errors, not garbage).
  std::size_t get_count(const std::string& name, std::size_t min_value = 0) const;

  /// Comma-separated list (e.g. "table,chart"); rejects empty items and
  /// empty lists.
  std::vector<std::string> get_string_list(const std::string& name) const;

  /// Positional arguments in command-line order (requires
  /// allow_positionals before parse).
  const std::vector<std::string>& positionals() const { return positionals_; }

  std::string help_text() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  const Option& find(const std::string& name) const;

  std::string summary_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  bool positionals_allowed_ = false;
  std::string positional_placeholder_;
  std::string positional_help_;
  std::vector<std::string> positionals_;
};

}  // namespace fpsched
