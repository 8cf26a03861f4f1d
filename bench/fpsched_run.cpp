// fpsched_run — ONE driver for every registered experiment.
//
//   $ fpsched_run --list
//   $ fpsched_run fig2 --quick                      # table + chart on stdout
//   $ fpsched_run fig2 fig7 --quick --format ndjson --out results/
//   $ fpsched_run fig2 --format ndjson --shard 1/2 --out results/   # process sharding
//
// The experiment options (--quick, --sizes, ...) are engine/options.hpp's
// table. Output is controlled by --format, a comma list over two sink
// levels: panel presentation (table, chart, csv) and per-scenario
// records (ndjson, json). Record sinks write full-precision (round-trip)
// values; scenario results are pure functions of their specs, so the
// NDJSON streams of `--shard 1/N .. N/N` concatenate to the
// bit-identical unsharded output — the basis for multi-process (and
// later multi-host) scale-out. Sharded runs skip panel assembly (a
// contiguous scenario slice does not cover whole panels) and accept
// only the concatenable NDJSON format.
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/result_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

using namespace fpsched;

namespace {

const std::vector<std::string>& known_formats() {
  // Canonical order doubles as emission order, so `--format csv,table`
  // still renders panels as table, chart, csv.
  static const std::vector<std::string> kFormats{"table", "chart", "csv", "ndjson", "json"};
  return kFormats;
}

std::set<std::string> parse_formats(const CliParser& cli) {
  std::set<std::string> formats;
  for (const std::string& item : cli.get_string_list("format")) {
    bool known = false;
    for (const std::string& format : known_formats()) known = known || format == item;
    if (!known) {
      throw InvalidArgument("option --format: unknown format '" + item +
                            "' (expected table, chart, csv, ndjson or json)");
    }
    formats.insert(item);
  }
  return formats;
}

void list_experiments(std::ostream& os) {
  const auto experiments = engine::ExperimentRegistry::global().experiments();
  std::size_t width = 0;
  for (const engine::Experiment* experiment : experiments)
    width = std::max(width, experiment->name.size());
  os << "registered experiments:\n";
  for (const engine::Experiment* experiment : experiments) {
    os << "  " << experiment->name << std::string(width - experiment->name.size() + 2, ' ')
       << experiment->summary << "\n";
  }
  os << "\nrun any subset by name, e.g.: fpsched_run fig2 fig7 --quick\n";
}

/// File stem for a record sink: sharded processes must not clobber each
/// other's output, so the shard id lands in the name.
std::string record_file(const std::string& out_dir, const std::string& experiment,
                        const engine::ShardSpec& shard, const std::string& extension) {
  std::string stem = out_dir + "/" + experiment;
  if (shard.active()) {
    stem += ".shard-" + std::to_string(shard.index) + "-of-" + std::to_string(shard.count);
  }
  return stem + "." + extension;
}

/// The per-experiment sink stack plus the streams backing it.
struct SinkStack {
  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::unique_ptr<engine::ResultSink>> sinks;
  bool text = false;  // any stdout presentation sink => print heading/notes

  std::vector<engine::ResultSink*> pointers() const {
    std::vector<engine::ResultSink*> out;
    for (const auto& sink : sinks) out.push_back(sink.get());
    return out;
  }
};

std::ostream& open_record_stream(SinkStack& stack, const std::string& out_dir,
                                 const std::string& experiment,
                                 const engine::ShardSpec& shard,
                                 const std::string& extension) {
  if (out_dir.empty()) return std::cout;
  const std::string path = record_file(out_dir, experiment, shard, extension);
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->good()) throw InvalidArgument("cannot open " + path + " for writing");
  std::ostream& os = *file;
  stack.files.push_back(std::move(file));
  return os;
}

SinkStack make_sinks(const std::set<std::string>& formats, const std::string& csv_dir,
                     const std::string& out_dir, const std::string& experiment,
                     const engine::ShardSpec& shard) {
  SinkStack stack;
  for (const std::string& format : known_formats()) {
    if (!formats.contains(format)) continue;
    if (format == "table") {
      stack.sinks.push_back(std::make_unique<engine::TableSink>(std::cout));
      stack.text = true;
    } else if (format == "chart") {
      stack.sinks.push_back(std::make_unique<engine::AsciiChartSink>(std::cout));
      stack.text = true;
    } else if (format == "csv") {
      const std::string dir = csv_dir.empty() ? out_dir : csv_dir;
      if (dir.empty()) {
        throw InvalidArgument("csv output needs a directory: pass --csv <dir> or --out <dir>");
      }
      stack.sinks.push_back(std::make_unique<engine::CsvSink>(dir, &std::cout));
    } else if (format == "ndjson") {
      stack.sinks.push_back(std::make_unique<engine::NdjsonSink>(
          open_record_stream(stack, out_dir, experiment, shard, "ndjson")));
    } else if (format == "json") {
      stack.sinks.push_back(std::make_unique<engine::JsonSink>(
          open_record_stream(stack, out_dir, experiment, shard, "json")));
    }
  }
  return stack;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "fpsched_run — list and run registered experiments (paper figures and sweep studies).");
  cli.allow_positionals("experiment", "experiment names to run, in order (see --list)");
  cli.add_flag("list", "list the registered experiments and exit");
  cli.add_option("format", "table,chart",
                 "comma list of output sinks: table, chart, csv (panel level), "
                 "ndjson, json (record level)");
  cli.add_option("out", "",
                 "output directory for file sinks (<experiment>.ndjson/.json, CSV when --csv "
                 "is not given); empty streams records to stdout");
  cli.add_option("csv", "", "directory for CSV output (<panel>.csv, created on demand)");
  cli.add_option("shard", "",
                 "run slice I/N of the flattened scenario list (e.g. 1/2); --format ndjson "
                 "only — shard outputs concatenate to the bit-identical unsharded run");
  engine::add_figure_options(cli);
  cli.add_option("threads", "0",
                 "worker threads (0 = all cores or FPSCHED_THREADS, 1 = serial); output is "
                 "bit-identical for every value");
  // Observability is stderr/file-only: record and panel output stay
  // byte-identical whether these are on or off.
  cli.add_option("trace", "",
                 "write a chrome://tracing JSON of the run's spans to this file");
  cli.add_flag("stats", "print the telemetry registry as JSON to stderr after the run");
  try {
    // SIGPIPE must not kill an hours-long run whose consumer went away
    // (`fpsched_run ... | head`, a vanished reader of --out on a FIFO):
    // with the signal ignored, writes fail with EPIPE, the stream check
    // after each run reports it, and the process exits cleanly.
    ignore_sigpipe();
    if (!cli.parse(argc, argv)) return 0;
    engine::FigureOptions options = engine::read_figure_options(cli);
    options.threads = cli.get_count("threads");
    if (cli.get_flag("list")) {
      list_experiments(std::cout);
      return 0;
    }
    const std::vector<std::string>& names = cli.positionals();
    if (names.empty()) {
      // An argument-less invocation is someone exploring, not a run:
      // show the usage, and exit non-zero so scripts notice.
      std::cerr << "error: no experiments named and no --list\n\nusage: fpsched_run "
                   "<experiment>... [options]\n\n"
                << cli.help_text();
      return 2;
    }

    engine::ShardSpec shard;
    if (const std::string raw = cli.get_string("shard"); !raw.empty()) {
      shard = engine::ShardSpec::parse(raw);
    }
    std::set<std::string> formats = parse_formats(cli);
    // --csv implies the csv sink; its directory is claimed up front.
    const std::string csv_dir = cli.get_string("csv");
    if (!csv_dir.empty()) {
      formats.insert("csv");
      engine::ensure_output_directory(csv_dir);
    }
    if (shard.active()) {
      for (const std::string& format : formats) {
        // Panel formats need the whole grid; JSON arrays are complete
        // documents, so concatenating per-shard arrays would not merge to
        // the unsharded file. Only the NDJSON stream concatenates.
        if (format != "ndjson") {
          throw InvalidArgument("--shard runs emit concatenable per-scenario records only; "
                                "use --format ndjson, not " +
                                format);
        }
      }
    }
    const std::string out_dir = cli.get_string("out");
    if (!out_dir.empty()) {
      // Fail fast when no sink would actually target --out: a possibly
      // hours-long run must not end with a created-but-empty directory.
      // CSV counts only when it falls back to --out (--csv wins).
      const bool out_used = formats.contains("ndjson") || formats.contains("json") ||
                            (formats.contains("csv") && csv_dir.empty());
      if (!out_used) {
        throw InvalidArgument(
            "--out would receive no output: add ndjson, json or csv to --format "
            "(csv writes to --csv when that is given)");
      }
      engine::ensure_output_directory(out_dir);
    }

    // Resolve every name before running anything: a typo in the last name
    // should fail fast, not after hours of grid evaluation.
    std::vector<const engine::Experiment*> experiments;
    for (const std::string& name : names) {
      experiments.push_back(&engine::ExperimentRegistry::global().find(name));
    }
    const std::string trace_path = cli.get_string("trace");
    if (!trace_path.empty()) obs::start_tracing();
    const bool records_to_stdout =
        out_dir.empty() && (formats.contains("ndjson") || formats.contains("json"));
    for (const engine::Experiment* experiment : experiments) {
      const SinkStack stack = make_sinks(formats, csv_dir, out_dir, experiment->name, shard);
      const auto sinks = stack.pointers();
      engine::run_experiment(*experiment, options, sinks, stack.text ? &std::cout : nullptr,
                             shard);
      // With SIGPIPE ignored a dead consumer surfaces as a failed
      // stream, not a dead process — but silently truncated output must
      // still fail the run. Flush first: a buffered failure (full disk)
      // would otherwise only surface in the destructor, after the check.
      for (const auto& file : stack.files) {
        file->flush();
        if (!file->good()) {
          throw Error("record stream for " + experiment->name +
                      " failed mid-write (closed pipe or out of disk space?)");
        }
      }
      if (records_to_stdout || stack.text) {
        std::cout.flush();
        if (!std::cout.good()) {
          throw Error("stdout stream failed mid-write (closed pipe?)");
        }
      }
    }
    if (!trace_path.empty()) {
      obs::stop_tracing();
      obs::write_trace_file(trace_path);
    }
    if (cli.get_flag("stats")) {
      std::cerr << obs::MetricsRegistry::global().json() << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
