// fpsched_merge — validate and concatenate per-shard NDJSON record
// files from a multi-host run.
//
//   host1$ fpsched_run fig2 --format ndjson --out out --shard 1/3
//   host2$ fpsched_run fig2 --format ndjson --out out --shard 2/3
//   host3$ fpsched_run fig2 --format ndjson --out out --shard 3/3
//   $ fpsched_merge out/fig2.shard-{1,2,3}-of-3.ndjson
//       --experiment fig2 --require-complete --out fig2.ndjson
//
// The merged file is byte-identical to the unsharded
// `fpsched_run fig2 --format ndjson` output. Pass the SAME options the
// producing runs used (--quick, --sizes, --seed, --eval-math, ...; the
// option table's rows, not --threads: the merge runs no engine and
// rejects it). It re-derives the experiment's flattened scenario list
// from them and requires every record to start with every field before
// "linearization" as its position renders them, so missing, duplicated
// or misordered shard files and option mismatches fail loudly instead
// of yielding a plausible-looking wrong merge.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "service/shard_merge.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

using namespace fpsched;

int main(int argc, char** argv) {
  CliParser cli(
      "fpsched_merge — validate per-shard NDJSON files against the experiment's scenario "
      "list and concatenate them into the unsharded stream.");
  cli.allow_positionals("shard-file", "per-shard NDJSON files, in shard order (1/N first)");
  cli.add_option("experiment", "",
                 "the experiment the shards came from (required; see fpsched_run --list)");
  cli.add_option("out", "", "merged NDJSON output file (default: stdout)");
  cli.add_flag("require-complete",
               "fail unless the shards cover every scenario of the experiment (without it, a "
               "gapless ordered prefix is accepted)");
  engine::add_figure_options(cli);
  try {
    ignore_sigpipe();
    if (!cli.parse(argc, argv)) return 0;
    const engine::FigureOptions options = engine::read_figure_options(cli);
    const std::string name = cli.get_string("experiment");
    if (name.empty()) {
      throw InvalidArgument("--experiment is required (see fpsched_run --list)");
    }
    const engine::Experiment& experiment = engine::ExperimentRegistry::global().find(name);
    const std::vector<std::string>& files = cli.positionals();
    if (files.empty()) {
      throw InvalidArgument("no shard files given; pass them as positionals, in shard order");
    }

    service::MergeOptions merge;
    merge.require_complete = cli.get_flag("require-complete");

    const std::string out_path = cli.get_string("out");
    std::ofstream out_file;
    if (!out_path.empty()) {
      // Opening truncates: an --out that names one of the inputs would
      // destroy that shard before it is ever read.
      std::error_code ec;
      const auto out_canonical = std::filesystem::weakly_canonical(out_path, ec);
      for (const std::string& file : files) {
        std::error_code file_ec;
        const auto file_canonical = std::filesystem::weakly_canonical(file, file_ec);
        if (!ec && !file_ec && out_canonical == file_canonical) {
          throw InvalidArgument("--out " + out_path +
                                " is one of the input shard files; writing would destroy it");
        }
      }
      out_file.open(out_path, std::ios::binary);
      if (!out_file.good()) {
        throw InvalidArgument("cannot open " + out_path + " for writing");
      }
    }
    std::ostream& out = out_path.empty() ? std::cout : out_file;

    const service::MergeReport report =
        service::merge_ndjson_shards(experiment, options, files, out, merge);
    out.flush();
    if (!out.good()) throw InvalidArgument("error writing the merged stream");
    std::cerr << "merged " << report.files << " shard file" << (report.files == 1 ? "" : "s")
              << ": " << report.records << "/" << report.expected << " records ("
              << (report.complete() ? "complete" : "prefix") << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
