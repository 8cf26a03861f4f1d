#include "support/cli.hpp"

#include <iostream>
#include <sstream>

#include "support/error.hpp"
#include "support/parse.hpp"

namespace fpsched {

CliParser::CliParser(std::string program_summary) : summary_(std::move(program_summary)) {}

void CliParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  ensure(!options_.contains(name), "duplicate option: " + name);
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  ensure(!options_.contains(name), "duplicate option: " + name);
  options_[name] = Option{"false", help, /*is_flag=*/true};
}

void CliParser::allow_positionals(const std::string& placeholder, const std::string& help) {
  positionals_allowed_ = true;
  positional_placeholder_ = placeholder;
  positional_help_ = help;
}

const CliParser::Option& CliParser::find(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) throw InvalidArgument("unknown option --" + name + "\n" + help_text());
  return it->second;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help_text();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!positionals_allowed_) {
        throw InvalidArgument("positional arguments are not supported: " + arg + "\n" +
                              help_text());
      }
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const Option& opt = find(arg);
    if (opt.is_flag) {
      if (has_value) throw InvalidArgument("flag --" + arg + " does not take a value");
      values_[arg] = "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) throw InvalidArgument("option --" + arg + " expects a value");
      value = argv[++i];
    }
    values_[arg] = value;
  }
  return true;
}

std::string CliParser::get_string(const std::string& name) const {
  const Option& opt = find(name);
  const auto it = values_.find(name);
  return it == values_.end() ? opt.default_value : it->second;
}

double CliParser::get_double(const std::string& name) const {
  return parse_number(get_string(name), "option --" + name);
}

bool CliParser::get_flag(const std::string& name) const { return get_string(name) == "true"; }

std::size_t CliParser::get_count(const std::string& name, std::size_t min_value) const {
  return parse_count(get_string(name), "option --" + name, min_value);
}

std::vector<std::string> CliParser::get_string_list(const std::string& name) const {
  return parse_list(get_string(name), "option --" + name);
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << summary_ << "\n";
  if (positionals_allowed_) {
    os << "\narguments:\n  <" << positional_placeholder_ << ">...\n      " << positional_help_
       << "\n";
  }
  os << "\noptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value>";
    os << "\n      " << opt.help;
    if (!opt.is_flag && !opt.default_value.empty()) os << " (default: " << opt.default_value << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace fpsched
