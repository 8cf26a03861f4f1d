// Multi-host shard merging: validate and concatenate per-shard NDJSON
// record files back into the unsharded stream.
//
// The engine's contract is that `fpsched_run <exp> --format ndjson
// --shard I/N` streams a contiguous slice of the experiment's flattened
// scenario list, so the N per-shard files concatenated in shard order
// are byte-identical to the unsharded run. When the shards were produced
// on N different machines, though, "just cat them" silently accepts a
// missing shard, a duplicated one, or files passed in the wrong order.
// merge_ndjson_shards() re-derives the flattened scenario list from the
// experiment (name + the same FigureOptions the producing runs used) and
// requires every line to start with the fields its position in the
// unsharded stream renders, a function of the planned position (whose
// spec carries every option) — so ordering mistakes, gaps, overlaps, and
// option mismatches all fail loudly instead of producing a
// plausible-looking but wrong merge.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/experiment.hpp"

namespace fpsched::service {

struct MergeOptions {
  /// Require the shards to cover the experiment's whole scenario list.
  /// Off, a gapless ordered prefix is accepted (e.g. merging the first
  /// K of N shards while the rest still compute).
  bool require_complete = false;
};

struct MergeReport {
  std::size_t files = 0;    // shard files consumed
  std::size_t records = 0;  // records written to the merged stream
  std::size_t expected = 0; // the experiment's flattened scenario count

  bool complete() const { return records == expected; }
};

/// Validates `shard_paths` (in shard order) against the experiment's
/// flattened scenario list and writes their concatenation to `out`.
/// Each line must start with record_json_prefix + record_spec_json of the
/// position it lands on: every field before "linearization", a function
/// of the planned position. The concatenation must form a gapless
/// ordered prefix of the list (empty shard files are fine). Throws
/// InvalidArgument on options out of range, and naming the file, line,
/// position and first differing field on any violation:
/// unreadable/truncated files, out-of-order or duplicated shards, gaps,
/// records beyond the list, or (with require_complete) missing scenarios.
MergeReport merge_ndjson_shards(const engine::Experiment& experiment,
                                const engine::FigureOptions& options,
                                const std::vector<std::string>& shard_paths, std::ostream& out,
                                const MergeOptions& merge = {});

}  // namespace fpsched::service
