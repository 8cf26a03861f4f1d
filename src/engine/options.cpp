#include "engine/options.hpp"

#include <algorithm>
#include <cmath>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

namespace fpsched::engine {

namespace {

template <class T, class Show>
std::string show_list(const std::vector<T>& values, Show show) {
  std::string out;
  for (const T& value : values) {
    if (!out.empty()) out += ',';
    out += show(value);
  }
  return out;
}

[[noreturn]] void out_of_range(const std::string& what, std::string_view expected,
                               std::string_view text) {
  throw InvalidArgument(what + ": expected " + std::string(expected) + ", got '" +
                        std::string(text) + "'");
}

/// A task count of a grid: a point of a grid's double axis (robustness
/// plots `tasks` on one too), which holds every integer only up to 2^53.
/// No instance that large can be built anyway.
std::size_t parse_task_count(std::string_view text, const std::string& what) {
  const std::size_t count = parse_count(text, what, 1);
  if (count > (std::size_t{1} << 53)) out_of_range(what, "task counts in [1, 2^53]", text);
  return count;
}

const FigureOption kTable[] = {
    {"sizes", "task-count grid of the size-axis figures", false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       o.sizes.clear();
       for (const std::string& item : parse_list(text, what)) {
         o.sizes.push_back(parse_task_count(item, what));
       }
     },
     [](const FigureOptions& o) {
       return show_list(o.sizes, [](std::size_t size) { return std::to_string(size); });
     }},
    {"stride", "N-sweep stride (1 = exhaustive, as in the paper)", false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       o.stride = parse_count(text, what, 1);
     },
     [](const FigureOptions& o) { return std::to_string(o.stride); }},
    {"seed", "workflow generation seed", false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       o.seed = parse_u64(text, what);
     },
     [](const FigureOptions& o) { return std::to_string(o.seed); }},
    {"weight_cv", "coefficient of variation of task weights (0 = the mean weight exactly)",
     false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       // Weights are gamma draws of shape 1/cv^2 and scale mean * cv^2
       // (Rng::gamma_mean_cv), so the shape must be finite. Below shape 1
       // a draw is multiplied by u^(cv^2), which is exactly 0 once
       // ln u < -745.1 / cv^2: a weight is 0 with probability
       // e^(-745.1 / cv^2), about 1e-13 at cv = 5, 6e-4 at 10 and every
       // draw at 1e150, whatever the mean.
       const double cv = parse_number(text, what);
       if (cv != 0.0 && !(cv > 0.0 && cv <= 5.0 && std::isfinite(1.0 / (cv * cv)))) {
         out_of_range(what, "0 or a cv in [7.5e-155, 5]", text);
       }
       o.weight_cv = cv;
     },
     [](const FigureOptions& o) { return format_double_shortest(o.weight_cv); }},
    {"eval_math",
     "evaluator algorithm: 'exact' (bit-identical to prior releases) or 'fast' "
     "(prefix-product recurrence, within 1e-10 relative of exact)",
     false,
     [](FigureOptions& o, std::string_view text, const std::string&) {
       o.eval_math = parse_eval_math(std::string(text));  // names --eval-math
     },
     [](const FigureOptions& o) { return to_string(o.eval_math); }},
    {"tasks", "fixed workflow size of the sweep experiments (fig7, downtime, robustness)",
     false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       o.tasks = parse_task_count(text, what);
     },
     [](const FigureOptions& o) { return std::to_string(o.tasks); }},
    {"downtimes", "downtime grid in seconds (downtime sweep only)", false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       o.downtimes.clear();
       for (const std::string& item : parse_list(text, what)) {
         const double downtime = parse_number(item, what);
         if (!(std::isfinite(downtime) && downtime >= 0.0)) {
           out_of_range(what, "finite downtimes >= 0", item);
         }
         o.downtimes.push_back(downtime);
       }
     },
     [](const FigureOptions& o) { return show_list(o.downtimes, format_double_shortest); }},
    {"trials", "Monte-Carlo trials per simulated cell (robustness experiment)", false,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       o.trials = parse_count(text, what, 1);
     },
     [](const FigureOptions& o) { return std::to_string(o.trials); }},
    {"quick", "small grid + strided sweep for a fast smoke run (overrides sizes)", true,
     [](FigureOptions& o, std::string_view text, const std::string& what) {
       if (parse_bool(text, what)) apply_quick_options(o);
     },
     [](const FigureOptions&) { return std::string("false"); }},
};

}  // namespace

std::string FigureOption::cli_name() const {
  std::string out(name);
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

std::string FigureOption::label() const {
  return "option " + std::string(name) + " (--" + cli_name() + ")";
}

std::span<const FigureOption> figure_option_table() { return kTable; }

void check_figure_options(const FigureOptions& options) {
  // A field is in range iff its text form reads back, so the parses hold
  // the one copy of every check.
  FigureOptions scratch;
  for (const FigureOption& row : kTable) row.parse(scratch, row.show(options), row.label());
}

FigureOptions read_figure_options(const std::map<std::string, std::string>& values) {
  std::string names;
  for (const FigureOption& row : kTable) {
    if (!names.empty()) names += ", ";
    names += row.name;
  }
  for (const auto& [key, value] : values) {
    if (std::none_of(std::begin(kTable), std::end(kTable),
                     [&](const FigureOption& row) { return row.name == key; })) {
      throw InvalidArgument("unknown parameter '" + key + "' (options: " + names + ")");
    }
  }
  FigureOptions options;
  for (const FigureOption& row : kTable) {
    const auto it = values.find(std::string(row.name));
    if (it != values.end()) row.parse(options, it->second, row.label());
  }
  return options;
}

void add_figure_options(CliParser& cli) {
  const FigureOptions defaults;
  for (const FigureOption& row : kTable) {
    if (row.flag) {
      cli.add_flag(row.cli_name(), std::string(row.help));
    } else {
      cli.add_option(row.cli_name(), row.show(defaults), std::string(row.help));
    }
  }
}

FigureOptions read_figure_options(const CliParser& cli) {
  std::map<std::string, std::string> values;
  for (const FigureOption& row : kTable) {
    values[std::string(row.name)] = cli.get_string(row.cli_name());
  }
  return read_figure_options(values);
}

void apply_quick_options(FigureOptions& options) {
  options.sizes = {50, 100, 200, 300};
  options.stride = std::max<std::size_t>(options.stride, 4);
}

}  // namespace fpsched::engine
