#!/usr/bin/env python3
"""Validate a perf_evaluator JSON snapshot (BENCH_evaluator.json).

Checks the schema the bench-trajectory tooling depends on: header fields,
per-row fields and types, and — when --reference points at the committed
snapshot — that every (strategy, math) combination tracked there is still
present in the file under test, so a refactor cannot silently drop a
measured configuration from the trajectory.

Usage:
    tools/check_bench_schema.py BENCH_evaluator.json
    tools/check_bench_schema.py fresh.json --reference BENCH_evaluator.json

Exits non-zero with a message naming the first violation.
"""

import argparse
import json
import sys

HEADER_KEYS = {"bench", "compiler", "threads_available", "fixture", "results"}
FIXTURE_KEYS = {"workflow", "seed", "lambda", "cost_model", "linearization",
                "checkpoint_every"}
ROW_KEYS = {"n", "strategy", "math", "threads", "ns_per_eval",
            "ns_per_eval_min", "evals", "repeats", "expected_makespan"}
STRATEGIES = {"serial", "algorithm1", "generate", "linearize"}
BACKENDS = {"exact", "fast"}
# Instance-scale rows (strategy generate/linearize) carry memory/shape
# provenance for the workflow instance they build.
INSTANCE_STRATEGIES = {"generate", "linearize"}
INSTANCE_KEYS = {"workflow", "edges", "instance_bytes", "peak_rss_mb"}
WORKFLOWS = {"montage", "ligo", "cybershake", "genome"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def check_number(row, key, index, minimum=0):
    value = row[key]
    # expected_makespan may legitimately be the quoted string "inf" on a
    # failure-dominated fixture (the emitter's non-finite convention).
    if key == "expected_makespan" and isinstance(value, str):
        if value in ("inf", "-inf", "nan"):
            return
        fail(f"results[{index}].{key}: non-finite marker {value!r} is not one of inf/-inf/nan")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"results[{index}].{key}: expected a number, got {value!r}")
    if value < minimum:
        fail(f"results[{index}].{key}: {value} < {minimum}")


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")


def check_snapshot(data, path):
    if not isinstance(data, dict):
        fail(f"{path}: top level must be an object")
    missing = HEADER_KEYS - data.keys()
    if missing:
        fail(f"{path}: missing top-level keys {sorted(missing)}")
    if data["bench"] != "evaluator":
        fail(f"{path}: bench is {data['bench']!r}, expected 'evaluator'")
    if not isinstance(data["compiler"], str) or not data["compiler"]:
        fail(f"{path}: compiler must be a non-empty string")
    if not isinstance(data["threads_available"], int) or data["threads_available"] < 0:
        fail(f"{path}: threads_available must be a non-negative integer")
    if "peak_rss_mb" in data:
        rss = data["peak_rss_mb"]
        if not isinstance(rss, (int, float)) or isinstance(rss, bool) or rss < 0:
            fail(f"{path}: peak_rss_mb must be a non-negative number, got {rss!r}")
    fixture_missing = FIXTURE_KEYS - data["fixture"].keys()
    if fixture_missing:
        fail(f"{path}: fixture is missing {sorted(fixture_missing)}")
    rows = data["results"]
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: results must be a non-empty array")

    seen = set()
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"results[{index}]: expected an object")
        missing = ROW_KEYS - row.keys()
        if missing:
            fail(f"results[{index}]: missing keys {sorted(missing)}")
        if row["strategy"] not in STRATEGIES:
            fail(f"results[{index}].strategy: {row['strategy']!r} not in {sorted(STRATEGIES)}")
        if row["math"] not in BACKENDS:
            fail(f"results[{index}].math: {row['math']!r} not in {sorted(BACKENDS)}")
        check_number(row, "n", index, minimum=1)
        check_number(row, "threads", index, minimum=1)
        check_number(row, "ns_per_eval", index)
        check_number(row, "ns_per_eval_min", index)
        check_number(row, "evals", index, minimum=1)
        check_number(row, "repeats", index, minimum=1)
        check_number(row, "expected_makespan", index)
        if row["strategy"] in INSTANCE_STRATEGIES:
            missing = INSTANCE_KEYS - row.keys()
            if missing:
                fail(f"results[{index}]: instance row missing keys {sorted(missing)}")
            if row["workflow"] not in WORKFLOWS:
                fail(f"results[{index}].workflow: {row['workflow']!r} not in "
                     f"{sorted(WORKFLOWS)}")
            check_number(row, "edges", index)
            check_number(row, "instance_bytes", index, minimum=1)
            check_number(row, "peak_rss_mb", index)
        if row["ns_per_eval_min"] > row["ns_per_eval"]:
            fail(f"results[{index}]: ns_per_eval_min > ns_per_eval (median)")
        key = (row["n"], row["strategy"], row["math"], row["threads"])
        if key in seen:
            fail(f"results[{index}]: duplicate row for n={key[0]} "
                 f"strategy={key[1]} math={key[2]} threads={key[3]}")
        seen.add(key)
    return {(row["strategy"], row["math"]) for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot", help="perf_evaluator JSON file to validate")
    parser.add_argument("--reference",
                        help="committed snapshot whose (strategy, math) coverage "
                             "the file under test must preserve")
    args = parser.parse_args()

    combos = check_snapshot(load(args.snapshot), args.snapshot)
    if args.reference:
        reference_combos = check_snapshot(load(args.reference), args.reference)
        dropped = reference_combos - combos
        if dropped:
            fail(f"{args.snapshot}: missing (strategy, math) rows tracked by "
                 f"{args.reference}: {sorted(dropped)}")
    print(f"ok: {args.snapshot} ({len(combos)} strategy/math combinations)")


if __name__ == "__main__":
    main()
