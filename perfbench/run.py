#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload fig2-sizes --seed 42 --seconds 20 --trace 0

Builds perfbench/ (the fpsched library, fpsched_serve and perfbench_driver)
into .bench_build/ (or $CARGO_TARGET_DIR), runs the workload, checks every
record it gets back, prints a report (metric, value, unit, workload, sample
count) and, as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is the
separate traced run that yields the per-layer metrics. README.md documents
the workloads, the metrics and which layer metric moves which end-to-end one.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 42
DEFAULT_SECONDS = 30

# Batch workloads: one pass runs these queries (the service's run parameters,
# plus shard=I/N) through run_experiment in the driver process. Every pass
# draws its grid seed from (workload seed, pass index), so a run averages over
# several instance sets. pass_s is the nominal pass time on a 4-core box; the
# pass count is chosen so that a run measures about --seconds.
BATCH = {
    "fig2-sizes": {
        "pass_s": 6.8,
        "runs": ["experiment=fig2&stride=8&seed={seed}"],
    },
    "fig7-downtime": {
        "pass_s": 2.9,
        "runs": ["experiment=fig7&stride=8&seed={seed}",
                 "experiment=downtime&stride=8&seed={seed}"],
    },
    "shard-tail": {
        "pass_s": 5.8,
        "runs": ["experiment=fig3&sizes=700&stride=2&seed={seed}&shard=2/8"],
    },
}
WORKLOADS = (*BATCH, "serve-mix")

# serve-mix: a closed loop of CLIENTS connections over a seeded script of
# small runs. REQUESTS_PER_SECOND sizes the script from --seconds.
CLIENTS = 3
REQUESTS_PER_SECOND = 40
SERVER_SPAWNS = 25
SERVE_SIZE_PAIRS = [(24, 40), (32, 48), (40, 56), (48, 64), (56, 72)]
SERVE_EXTRA_SIZE = 80
SERVE_TASKS = [32, 40, 48, 56, 64]
SERVE_DOWNTIMES = "0,60,300,900"
SERVE_EXTRA_DOWNTIME = "3600"


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def derived_seed(*parts):
    """A 32-bit grid seed drawn from the workload seed (no overlap between
    neighbouring workload seeds, unlike seed + i)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# --- Build ----------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(workers):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no fpsched sources next to {BENCH_DIR.name}/ "
                         "(need CMakeLists.txt and src/)")
    native = build_dir() / "perfbench"
    # Compiler scratch files stay inside the checkout too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (native / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(native),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(native), "-j", str(workers),
                  "--target", "perfbench_driver", "fpsched_serve"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return native / "perfbench_driver", native / "fpsched" / "fpsched_serve"


def bench_env(workers):
    env = dict(os.environ)
    env["FPSCHED_THREADS"] = str(workers)
    return env


def run_driver(driver, args, env):
    done = subprocess.run([str(driver), *args], stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, text=True)
    if done.returncode != 0:
        raise BenchError(f"perfbench_driver {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def write_runs(path, lines):
    path.write_text("".join(f"{p} {q}\n" for p, q in lines))


def provenance(driver, env, args, workers):
    info = run_driver(driver, ["info"], env)
    commit = "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    sources = hashlib.sha256()
    tree = [ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"), *(ROOT / "bench").rglob("*")]
    for path in sorted(tree):
        if path.is_file():
            sources.update(path.relative_to(ROOT).as_posix().encode())
            sources.update(path.read_bytes())
    return (f"provenance: nproc={os.cpu_count()} workers={workers} compiler=\"{info['compiler']}\" "
            f"build_type={info['build_type']} commit={commit} sources={sources.hexdigest()[:12]} "
            f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")


# --- Reference digests ----------------------------------------------------

def reference_digests():
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_digests(workload, seed, seconds, digests):
    """At the default seed, compares per-pass digests (batch) or the script
    digest (serve-mix) with the kept reference; returns the mismatch count and
    a report note."""
    if seed != DEFAULT_SEED:
        return 0, "digest check: only at the default seed"
    kept = reference_digests().get("digests", {}).get(workload)
    if kept is None:
        return 0, "digest check: no kept reference"
    if isinstance(kept, dict):  # serve-mix: keyed by --seconds (the script length)
        kept = kept.get(str(seconds))
        if kept is None:
            return 0, f"digest check: no kept reference for --seconds {seconds}"
        kept, digests = [kept], digests[:1]
    compared = min(len(kept), len(digests))
    bad = sum(1 for i in range(compared) if kept[i] != digests[i])
    return bad, f"digest check: {compared - bad}/{compared} match the kept reference"


# --- Report ---------------------------------------------------------------

class Report:
    def __init__(self, workload):
        self.workload = workload
        self.rows = []
        self.metrics = {}

    def add(self, name, value, unit, samples, emit=True):
        self.rows.append((name, value, unit, int(samples)))
        if emit:
            self.metrics[name] = {"value": value, "unit": unit}

    def print(self, notes):
        print(f"{'metric':<30} {'value':>16} {'unit':<9} {'workload':<14} samples")
        for name, value, unit, samples in self.rows:
            print(f"{name:<30} {value:>16.6g} {unit:<9} {self.workload:<14} {samples}")
        for note in notes:
            print(note)


def finish(args, report, notes, attempted, failed):
    """Prints the report and the result line; the emitted metrics must be
    exactly the BENCHMARK.json list this run kind promises."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    promised = {m["name"]: m["unit"] for m in listed}
    emitted = {name: m["unit"] for name, m in report.metrics.items()}
    if emitted != promised:
        raise BenchError(f"emitted metrics {emitted} differ from BENCHMARK.json {promised}")
    report.print(notes)
    result = {"correct": failed == 0, "attempted": int(attempted), "failed": int(failed),
              "metrics": report.metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# --- Batch workloads ------------------------------------------------------

def batch_runs(workload, seed, seconds):
    spec = BATCH[workload]
    passes = max(3, round(seconds / spec["pass_s"]))
    lines = []
    for p in range(passes):
        grid_seed = derived_seed(workload, seed, p)
        lines += [(p, q.format(seed=grid_seed)) for q in spec["runs"]]
    return lines


def batch_untraced(args, driver, env, work, workers):
    runs = work / "runs.txt"
    write_runs(runs, batch_runs(args.workload, args.seed, args.seconds))
    out = run_driver(driver, ["measure", "--runs", str(runs)], env)
    passes = len(out["wall_s"])
    report = Report(args.workload)
    report.add("wall_s", statistics.median(out["wall_s"]), "s", passes)
    report.add("cpu_s", statistics.median(out["cpu_s"]), "s", passes)
    report.add("setup_s", statistics.median(out["setup_s"]), "s", out["setup_reps"])
    report.add("peak_rss_mb", out["peak_rss_mb"], "MB", 1)
    failed = out["missing"] + out["inconsistent"]
    bad_digests, digest_note = check_digests(args.workload, args.seed, args.seconds, out["digests"])
    failed += bad_digests
    attempted = out["records"] + out["missing"]
    report.add("error_rate", failed / max(attempted, 1), "fraction", attempted, emit=False)
    report.add("first_record_s", statistics.median(out["first_record_s"]), "s", passes, emit=False)
    notes = [f"records: {out['records']} over {passes} passes, {out['missing']} missing, "
             f"{out['inconsistent']} inconsistent with their own (linearization, best_budget)",
             digest_note, "pass digests: " + " ".join(out["digests"])]
    return finish(args, report, notes, attempted, failed)


def batch_traced(args, driver, env, work, workers):
    runs = work / "runs.txt"
    lines = batch_runs(args.workload, args.seed, args.seconds)
    write_runs(runs, [line for line in lines if line[0] == 0])
    spans_dir = build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"
    obs_path = spans_dir / f"{args.workload}-seed{args.seed}.obs.json"
    reps = max(2, round(8 / BATCH[args.workload]["pass_s"]))
    out = run_driver(driver, ["replay", "--runs", str(runs), "--overhead-reps", str(reps),
                              "--obs-trace", str(obs_path), "--spans", str(spans_path)], env)
    ref, replay = out["reference"], out["replay"]
    counters = ref["counters"]
    layers = replay["layers"]
    report = Report(args.workload)
    layer_metrics(report, replay)
    report.add("core.evaluations", replay["evaluations"], "count", replay["scenarios"])
    report.add("workflows.generate_s", layers["workflows.generate"]["self_s"], "s",
               layers["workflows.generate"]["spans"])
    report.add("workflows.instances", replay["instances"], "count", replay["scenarios"])
    report.add("dag.linearize_s", layers["dag.linearize"]["self_s"], "s",
               layers["dag.linearize"]["spans"])
    report.add("dag.linearizations", replay["linearizations"], "count", replay["scenarios"])
    report.add("engine.core_utilization", ref["cpu_s"] / (ref["wall_s"] * workers), "fraction", 1)
    hits = counters.get("fpsched_instance_cache_hits_total", 0)
    misses = counters.get("fpsched_instance_cache_misses_total", 0)
    report.add("engine.instance_hit_ratio", hits / max(hits + misses, 1), "fraction", hits + misses)
    report.add("engine.emitter_buffered_peak", ref["emitter_buffered_peak"], "count", 1)
    report.add("support.threads_peak", ref["threads_peak"], "count", 1)
    timings = out["overhead"]
    overhead = statistics.median(timings["traced_s"]) / statistics.median(timings["untraced_s"]) - 1
    report.add("obs.trace_overhead", overhead, "fraction", len(out["overhead"]["traced_s"]))

    program = json.loads(obs_path.read_text())["traceEvents"]
    scenario_us = [e["dur"] for e in program if e["name"].startswith("scenario ")]
    report.add("obs.program_scenario_spans", len(scenario_us), "count", 1, emit=False)
    report.add("obs.program_scenario_s_max", max(scenario_us, default=0) * 1e-6, "s",
               len(scenario_us), emit=False)
    program_evals = counters.get("fpsched_eval_runs_total", 0)
    failed = replay["mismatches"] + (0 if program_evals == replay["evaluations"] else 1)
    notes = [f"replay: {replay['scenarios']} scenarios, {replay['mismatches']} differ from "
             f"run_experiment in linearization, best_budget or expected_makespan bits",
             f"core.evaluations {replay['evaluations']} vs fpsched_eval_runs_total delta "
             f"{program_evals} of the untraced pass",
             f"spans: {spans_path}, program trace: {obs_path}"]
    return finish(args, report, notes, replay["scenarios"], failed)


def layer_metrics(report, replay):
    """The replay-derived metrics shared by every workload's traced run."""
    layers = replay["layers"]
    evaluate = layers["core.evaluate"]
    report.add("core.evaluate_s", evaluate["self_s"], "s", evaluate["spans"])
    report.add("core.pairs", replay["pairs"], "count", evaluate["spans"])
    report.add("core.ns_per_pair", evaluate["self_s"] * 1e9 / max(replay["pairs"], 1), "ns",
               evaluate["spans"])
    schedule = layers["heuristics.schedule"]
    report.add("heuristics.schedule_s", schedule["self_s"], "s", schedule["spans"])
    report.add("heuristics.candidates", replay["candidates"], "count", schedule["spans"])
    report.add("engine.scenario_s_max", replay["scenario_s_max"], "s", replay["scenarios"])
    encode = layers["engine.encode"]
    report.add("engine.encode_s", encode["self_s"], "s", encode["spans"])
    report.add("engine.scenario_self_s", layers["engine.scenario"]["self_s"], "s",
               layers["engine.scenario"]["spans"], emit=False)
    report.add("replay.wall_s", replay["wall_s"], "s", 1, emit=False)


# --- serve-mix ------------------------------------------------------------

def serve_script(seed, total):
    """The seeded request script: about 1/3 first-seen grids (all misses), 1/10
    extensions of an earlier grid by one size or downtime (partial hits), and
    repeats of earlier requests (all hits). Returns the items (query, kind,
    index of its distinct request, item it depends on) and the distinct
    requests (query, and for a partial the distinct request it extends)."""
    rng = random.Random(derived_seed("serve-mix", seed))
    remaining = {"first": round(total / 3), "partial": round(total / 10)}
    remaining["repeat"] = total - remaining["first"] - remaining["partial"]
    experiments = ["fig2", "fig3", "fig7", "downtime"] * (remaining["first"] // 4 + 1)
    experiments = experiments[:remaining["first"]]
    rng.shuffle(experiments)
    counters = {name: 0 for name in ("fig2", "fig3", "fig7", "downtime")}
    used_seeds = set()
    items = []       # dicts: query, kind, ref (index into refs), dep (item index or None)
    refs = []        # distinct requests: query, base ref (partials) or None
    extendable = []  # item indices of first-seen fig2/fig3/downtime grids not yet extended
    for position in range(total):
        kinds = [k for k, n in remaining.items() for _ in range(n)]
        kind = "first" if position == 0 else rng.choice(kinds)
        if kind == "partial" and not extendable:
            kind = "repeat" if remaining["repeat"] else "first"
        if kind == "first" and not remaining["first"]:
            kind = "repeat"
        remaining[kind] -= 1
        if kind == "first":
            experiment = experiments.pop()
            grid_seed = derived_seed("serve-mix", seed, "grid", position)
            while grid_seed in used_seeds:
                grid_seed += 1
            used_seeds.add(grid_seed)
            c = counters[experiment]
            counters[experiment] += 1
            if experiment in ("fig2", "fig3"):
                a, b = SERVE_SIZE_PAIRS[c % len(SERVE_SIZE_PAIRS)]
                shape = f"sizes={a},{b}"
            elif experiment == "fig7":
                shape = f"tasks={SERVE_TASKS[c % len(SERVE_TASKS)]}"
            else:
                shape = f"tasks={SERVE_TASKS[c % len(SERVE_TASKS)]}&downtimes={SERVE_DOWNTIMES}"
            query = f"experiment={experiment}&{shape}&stride=4&seed={grid_seed}"
            refs.append({"query": query, "base": None})
            items.append({"query": query, "kind": kind, "ref": len(refs) - 1, "dep": None})
            if experiment != "fig7":
                extendable.append(len(items) - 1)
        elif kind == "partial":
            base_item = extendable.pop(rng.randrange(len(extendable)))
            base = items[base_item]["query"]
            if "downtimes=" in base:
                query = base.replace(f"downtimes={SERVE_DOWNTIMES}",
                                     f"downtimes={SERVE_DOWNTIMES},{SERVE_EXTRA_DOWNTIME}")
            else:
                sizes = base.split("sizes=")[1].split("&")[0]
                query = base.replace(f"sizes={sizes}", f"sizes={sizes},{SERVE_EXTRA_SIZE}")
            refs.append({"query": query, "base": items[base_item]["ref"]})
            items.append({"query": query, "kind": kind, "ref": len(refs) - 1, "dep": base_item})
        else:
            target = rng.randrange(len(items))
            items.append({"query": items[target]["query"], "kind": kind,
                          "ref": items[target]["ref"], "dep": target})
    return items, refs


def http_call(port, method, path, timeout=120):
    """One request on a fresh connection (the server closes after each
    response). Returns status, the decoded body, whether a chunked body was
    complete, and the arrival times of the first and last body bytes."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    buf = bytearray()
    header_end = -1
    first_ns = last_ns = None
    try:
        request = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n"
        sock.sendall(request.encode())
        while True:
            data = sock.recv(1 << 18)
            now = time.perf_counter_ns()
            if not data:
                break
            buf += data
            if header_end < 0:
                header_end = buf.find(b"\r\n\r\n")
            if header_end >= 0 and len(buf) > header_end + 4:
                first_ns = first_ns or now
                last_ns = now
    finally:
        sock.close()
    if header_end < 0:
        return 0, b"", False, first_ns, last_ns
    head = bytes(buf[:header_end]).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    body = bytes(buf[header_end + 4:])
    chunked = any(h.lower().replace(" ", "") == "transfer-encoding:chunked" for h in head[1:])
    if not chunked:
        return status, body, True, first_ns, last_ns
    out = bytearray()
    pos = 0
    while True:
        eol = body.find(b"\r\n", pos)
        if eol < 0:
            return status, bytes(out), False, first_ns, last_ns
        size = int(body[pos:eol].split(b";")[0], 16)
        pos = eol + 2
        if size == 0:
            return status, bytes(out), body[pos:pos + 2] == b"\r\n", first_ns, last_ns
        if pos + size + 2 > len(body):
            return status, bytes(out), False, first_ns, last_ns
        out += body[pos:pos + size]
        pos += size + 2


def scrape_metrics(port):
    status, body, _, _, _ = http_call(port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"GET /metrics answered {status}")
    values = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{")[0]
        values[name] = values.get(name, 0.0) + float(value)
    return values


def proc_status(pid, key):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key):
                return int(line.split()[1])
    return 0


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """fpsched_serve on an ephemeral port with a fresh --cache-dir."""

    def __init__(self, binary, env, cache_dir):
        cache_dir.mkdir(parents=True)
        start = time.perf_counter_ns()
        self.proc = subprocess.Popen([str(binary), "--port", "0", "--cache-dir", str(cache_dir)],
                                     stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on port" not in line:
                raise BenchError(f"fpsched_serve did not start: {line!r}")
            self.port = int(line.split("listening on port")[1].split()[0])
            deadline = time.monotonic() + 30
            while http_call(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise BenchError("fpsched_serve never answered /healthz with 200")
                time.sleep(0.0005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = (time.perf_counter_ns() - start) * 1e-9

    def stop(self):
        """SIGTERM and wait; True when the server exited cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        finally:
            self.proc.stdout.close()
        return code == 0


class ThreadPeak:
    """Samples a process's thread count every 5 ms until stopped."""

    def __init__(self, pid):
        self.pid, self.peak, self.running = pid, 0, True
        self.thread = threading.Thread(target=self.loop, daemon=True)
        self.thread.start()

    def loop(self):
        while self.running:
            self.peak = max(self.peak, proc_status(self.pid, "Threads:"))
            time.sleep(0.005)

    def stop(self):
        self.running = False
        self.thread.join()
        return self.peak


def drive_script(port, items, ref_bytes, traced):
    """The closed loop: CLIENTS threads take script items in order; each
    POSTs /runs, streams the records to the end, then takes the next item.
    An item that repeats or extends an earlier one is sent only after that
    one was accepted, so the FIFO executor has computed its scenarios first."""
    results = [None] * len(items)
    accepted = [threading.Event() for _ in items]
    lock = threading.Lock()
    cursor = [0]

    def one(i):
        item = items[i]
        if item["dep"] is not None:
            accepted[item["dep"]].wait()
        record = {"ok": False, "kind": item["kind"]}
        t0 = time.perf_counter_ns()
        try:
            status, body, _, _, _ = http_call(port, "POST", "/runs?" + item["query"])
            submitted_ns = time.perf_counter_ns()
            record["submit_ms"] = (submitted_ns - t0) * 1e-6
        finally:
            accepted[i].set()
        record["status"] = status
        if status != 201:
            return record
        job = json.loads(body)["id"]
        status, stream, complete, first_ns, last_ns = http_call(port, "GET", f"/runs/{job}/records")
        record["status"] = status
        if status != 200 or not complete or first_ns is None:
            return record
        record["ttfr_ms"] = (first_ns - t0) * 1e-6
        record["response_ms"] = (last_ns - t0) * 1e-6
        # Phases keyed by job id: submit, then (around the server's queued
        # span, added below when traced) the wait for the first record, then
        # the rest of the stream.
        record["spans"] = [(job, "submit", t0, submitted_ns),
                           (job, "first_record", submitted_ns, first_ns),
                           (job, "last_record", first_ns, last_ns)]
        record["ok"] = stream == ref_bytes[item["ref"]]
        if traced:
            status, body, _, _, _ = http_call(port, "GET", f"/runs/{job}/stats")
            if status != 200:
                record["ok"] = False
                return record
            stats = json.loads(body)
            record["queued_ms"] = stats["queued_seconds"] * 1e3
            record["run_ms"] = stats["run_seconds"] * 1e3
            queued_ns = int(stats["queued_seconds"] * 1e9)
            record["spans"].append((job, "queued", submitted_ns, submitted_ns + queued_ns))
        return record

    def client():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(items):
                return
            try:
                results[i] = one(i)
            except (OSError, ValueError, KeyError) as error:
                accepted[i].set()
                results[i] = {"ok": False, "kind": items[i]["kind"], "status": 0,
                              "error": str(error)}

    start = time.perf_counter_ns()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, (time.perf_counter_ns() - start) * 1e-9


def serve_session(serve_bin, env, work, name, items, ref_bytes, traced):
    """One fresh server driven through the whole script; returns its figures."""
    server = Server(serve_bin, env, work / f"cache-{name}")
    sampler = None
    try:
        pid = server.proc.pid
        sampler = ThreadPeak(pid) if traced else None
        before = scrape_metrics(server.port)
        cpu_start = proc_cpu_s(pid)
        results, wall = drive_script(server.port, items, ref_bytes, traced)
        cpu = proc_cpu_s(pid) - cpu_start
        after = scrape_metrics(server.port)
        rss_mb = proc_status(pid, "VmHWM:") / 1024
    finally:
        threads_peak = sampler.stop() if sampler else 0
        clean = server.stop()
    delta = {k: round(after.get(k, 0.0) - before.get(k, 0.0)) for k in after}
    return {"results": results, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb, "delta": delta,
            "after": after, "threads_peak": threads_peak, "clean_exit": clean,
            "setup_s": server.setup_s}


def expected_cache_counts(items, refs, ref_counts):
    hits = misses = 0
    for item in items:
        ref = refs[item["ref"]]
        total = ref_counts[item["ref"]]
        if item["kind"] == "repeat":
            hits += total
        elif item["kind"] == "partial":
            base = ref_counts[ref["base"]]
            hits += base
            misses += total - base
        else:
            misses += total
    return hits, misses


def check_session(session, items, refs, ref_counts):
    """Failures of one scripted session: bad requests, a server that did not
    exit cleanly, and cache counters that disagree with the script."""
    failed = sum(1 for r in session["results"] if not r["ok"])
    notes = []
    if not session["clean_exit"]:
        failed += 1
        notes.append("fpsched_serve did not exit cleanly on SIGTERM")
    hits, misses = expected_cache_counts(items, refs, ref_counts)
    got_hits = session["delta"].get("fpsched_result_cache_hits_total", 0)
    got_misses = session["delta"].get("fpsched_result_cache_misses_total", 0)
    if (got_hits, got_misses) != (hits, misses):
        failed += 1
        notes.append(f"result cache hits/misses {got_hits}/{got_misses}, "
                     f"script expects {hits}/{misses}")
    else:
        notes.append(f"result cache hits/misses {hits}/{misses} as the script expects")
    return failed, notes


def serve_untraced(args, driver, serve_bin, env, work, workers):
    items, refs = serve_script(args.seed, REQUESTS_PER_SECOND * args.seconds)
    runs = work / "refs.txt"
    write_runs(runs, [(0, ref["query"]) for ref in refs])
    ref_dir = work / "refs"
    ref_dir.mkdir()
    out = run_driver(driver, ["reference", "--runs", str(runs), "--out", str(ref_dir)], env)
    ref_counts = out["records"]
    ref_bytes = [(ref_dir / f"{i}.ndjson").read_bytes() for i in range(len(refs))]

    setup = []
    for k in range(SERVER_SPAWNS - 1):
        server = Server(serve_bin, env, work / f"cache-setup{k}")
        setup.append(server.setup_s)
        if not server.stop():
            raise BenchError("fpsched_serve did not exit cleanly on SIGTERM")
    session = serve_session(serve_bin, env, work, "timed", items, ref_bytes, False)
    setup.append(session["setup_s"])
    results = session["results"]
    failed, notes = check_session(session, items, refs, ref_counts)

    hit = [r["response_ms"] for r in results if r["ok"] and r["kind"] == "repeat"]
    miss = [r for r in results if r["ok"] and r["kind"] != "repeat"]
    report = Report(args.workload)
    report.add("wall_s", session["wall_s"], "s", len(items))
    report.add("cpu_s", session["cpu_s"], "s", 1)
    report.add("setup_s", statistics.median(setup), "s", len(setup))
    report.add("peak_rss_mb", session["rss_mb"], "MB", 1)
    report.add("error_rate", failed / len(items), "fraction", len(items), emit=False)
    if hit:
        report.add("hit_response_ms_p50", percentile(hit, 50), "ms", len(hit), emit=False)
        report.add("hit_response_ms_p90", percentile(hit, 90), "ms", len(hit), emit=False)
    if miss:
        ttfr = [r["ttfr_ms"] for r in miss]
        report.add("miss_ttfr_ms_p50", percentile(ttfr, 50), "ms", len(ttfr), emit=False)
        report.add("miss_ttfr_ms_p90", percentile(ttfr, 90), "ms", len(ttfr), emit=False)
        report.add("miss_response_ms_p50", percentile([r["response_ms"] for r in miss], 50), "ms",
                   len(miss), emit=False)
    script = hashlib.sha256(b"".join(ref_bytes[item["ref"]] for item in items)).hexdigest()[:16]
    bad_digest, digest_note = check_digests(args.workload, args.seed, args.seconds, [script])
    failed += bad_digest
    notes += [f"requests: {len(items)} ({sum(i['kind'] == 'first' for i in items)} first-seen, "
              f"{sum(i['kind'] == 'partial' for i in items)} partial, "
              f"{sum(i['kind'] == 'repeat' for i in items)} repeats) over {CLIENTS} clients, "
              f"{sum(1 for r in results if not r['ok'])} failed",
              digest_note, f"script digest: {script}"]
    return finish(args, report, notes, len(items), failed)


def serve_traced(args, driver, serve_bin, env, work, workers):
    items, refs = serve_script(args.seed, REQUESTS_PER_SECOND * args.seconds)
    runs = work / "refs.txt"
    write_runs(runs, [(0, ref["query"]) for ref in refs])
    ref_dir = work / "refs"
    ref_dir.mkdir()
    out = run_driver(driver, ["replay", "--runs", str(runs), "--dedupe", "--ref-out", str(ref_dir)],
                     env)
    replay = out["replay"]
    ref_counts = out["reference"]["records"]
    ref_bytes = [(ref_dir / f"{i}.ndjson").read_bytes() for i in range(len(refs))]

    plain = serve_session(serve_bin, env, work, "plain", items, ref_bytes, False)
    traced = serve_session(serve_bin, env, work, "traced", items, ref_bytes, True)
    failed = replay["mismatches"]
    notes = []
    for session in (plain, traced):
        session_failed, session_notes = check_session(session, items, refs, ref_counts)
        failed += session_failed
        notes += session_notes
    delta = traced["delta"]
    results = traced["results"]

    report = Report(args.workload)
    layer_metrics(report, replay)
    server_evals = delta.get("fpsched_eval_runs_total", 0)
    if server_evals != replay["evaluations"]:
        failed += 1
    report.add("core.evaluations", server_evals, "count", len(items))
    instances = delta.get("fpsched_instance_cache_misses_total", 0)
    linearizations = delta.get("fpsched_instance_linearizations_total", 0)
    generate_ns = delta.get("fpsched_instance_generate_ns_total", 0)
    report.add("workflows.generate_s", generate_ns * 1e-9, "s", instances)
    report.add("workflows.instances", instances, "count", len(items))
    report.add("dag.linearize_s", delta.get("fpsched_instance_linearize_ns_total", 0) * 1e-9, "s",
               linearizations)
    report.add("dag.linearizations", linearizations, "count", len(items))
    report.add("engine.core_utilization", plain["cpu_s"] / (plain["wall_s"] * workers), "fraction",
               1)
    hits = delta.get("fpsched_instance_cache_hits_total", 0)
    misses = delta.get("fpsched_instance_cache_misses_total", 0)
    report.add("engine.instance_hit_ratio", hits / max(hits + misses, 1), "fraction", hits + misses)
    buffered_peak = traced["after"].get("fpsched_engine_emitter_buffered_peak", 0)
    report.add("engine.emitter_buffered_peak", round(buffered_peak), "count", 1)
    report.add("support.threads_peak", traced["threads_peak"], "count", 1)
    report.add("obs.trace_overhead", traced["wall_s"] / plain["wall_s"] - 1, "fraction", 1)

    ok = [r for r in results if r["ok"]]
    hit_runs = [r["run_ms"] for r in ok if r["kind"] == "repeat"]
    queued = [r["queued_ms"] for r in ok]
    if ok:
        report.add("service.submit_ms_p50", percentile([r["submit_ms"] for r in ok], 50), "ms",
                   len(ok), emit=False)
    if hit_runs:
        report.add("service.hit_run_ms_p50", percentile(hit_runs, 50), "ms", len(hit_runs),
                   emit=False)
    if queued:
        report.add("service.queue_ms_p50", percentile(queued, 50), "ms", len(queued), emit=False)
        report.add("service.queue_ms_p90", percentile(queued, 90), "ms", len(queued), emit=False)
    cache_hits = delta.get("fpsched_result_cache_hits_total", 0)
    cache_misses = delta.get("fpsched_result_cache_misses_total", 0)
    lookups = cache_hits + cache_misses
    report.add("service.cache_hit_ratio", cache_hits / max(lookups, 1), "fraction", lookups,
               emit=False)
    report.add("service.cache_inserts", delta.get("fpsched_result_cache_inserts_total", 0), "count",
               1, emit=False)
    http_errors = sum(1 for r in results if r.get("status") not in (200, 201))
    report.add("service.http_errors", http_errors, "count", len(results), emit=False)

    spans_dir = build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"serve-mix-seed{args.seed}.json"
    spans_path.write_text(json.dumps([s for r in results for s in r.get("spans", [])]))
    notes += [f"replay: {replay['scenarios']} distinct scenarios, {replay['mismatches']} differ "
              "from run_experiment",
              f"core.evaluations {server_evals} (server fpsched_eval_runs_total delta) vs replay "
              f"{replay['evaluations']}", f"client spans: {spans_path}"]
    return finish(args, report, notes, len(items) * 2, failed)


# --- Entry point ----------------------------------------------------------

def run_workload(args, driver, serve_bin, env, workers):
    """One workload: its provenance line, report and result line."""
    print(provenance(driver, env, args, workers), flush=True)
    work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mix":
            run = serve_traced if args.trace else serve_untraced
            return run(args, driver, serve_bin, env, work, workers)
        run = batch_traced if args.trace else batch_untraced
        return run(args, driver, env, work, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all: every workload BENCHMARK.json lists, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    workers = min(os.cpu_count() or 1, 4)
    env = bench_env(workers)
    try:
        driver, serve_bin = build(workers)
        if args.workload != "all":
            return run_workload(args, driver, serve_bin, env, workers)
        codes = []
        for listed in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
            args.workload = listed["name"]
            codes.append(run_workload(args, driver, serve_bin, env, workers))
        return max(codes)
    except (BenchError, OSError) as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
