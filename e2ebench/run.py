#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the axf stack.

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py --record-reference [--reference-out PATH]

Builds the `axf-e2e` driver from source under .bench_build/ (first run only),
runs one workload for --seconds, checks every pass's output fingerprint
against the stored reference for the seed's input set, and prints as its
last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
run (--trace 1).  The line before it is the full report: host shape and each
metric's median, quartiles and sample count.  Exit status 0 = every output
correct, 1 = a pass threw, mismatched or the driver died, 2 = build or usage
failure.  See e2ebench/README.md for the metric table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD_DIR, "axf-e2e")
REFERENCE = os.path.join(HERE, "reference.json")

sys.dont_write_bytecode = True  # keep the source tree free of build products
sys.path.insert(0, HERE)
import fold_trace  # noqa: E402

WORKLOADS = ("library_build", "autoax_dse")
DEFAULT_SEED = 1
# The input sets reference.json stores; --seed N runs set N mod their count.
REFERENCE_SEEDS = range(50)
# Each run must end within this many seconds (the build excepted).
RUN_BUDGET_S = 175.0
# Timings taken while the hypervisor stole more than this share of the CPU
# time the host's threads wanted measure the neighbours, not the program.
STEAL_LIMIT = 0.05

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "circuits_per_s": "1/s",
    "configs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "front_coverage": "ratio",
    "exploration_speedup": "x",
    "autoax_win_rate": "ratio",
}

PER_LAYER = {
    "gen.build_library_s": "s",
    "gen.structural_s": "s",
    "gen.cgp_s": "s",
    "gen.circuits": "count",
    "error.analyze_s": "s",
    "error.vectors_per_s": "1/s",
    "circuit.compile_s": "s",
    "circuit.toggle_rates_s": "s",
    "synth.fpga_implement_s": "s",
    "synth.lutmap_s": "s",
    "synth.asic_s": "s",
    "core.characterize_s": "s",
    "core.pareto_s": "s",
    "ml.zoo_fit_predict_s": "s",
    "autoax.accelerator_setup_s": "s",
    "autoax.eval_batch_s": "s",
    "autoax.configs_per_s": "1/s",
    "autoax.train_estimators_s": "s",
    "autoax.memo_hit_ratio": "ratio",
    "search.epochs": "count",
    "search.epoch_s": "s",
    "fault.campaign_s": "s",
    "fault.sites_per_s": "1/s",
    "fault.static_skip_ratio": "ratio",
    "durable.checkpoint_write_s": "s",
    "durable.checkpoints_written": "count",
    "cache.load_s": "s",
    "cache.flush_s": "s",
    "cache.hit_ratio": "ratio",
    "util.threadpool_tasks": "count",
    "trace.span_coverage": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """A build or driver failure: no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------------

def ensure_built():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"the axf sources are missing next to {HERE}")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        _run_build(configure)
    _run_build(["cmake", "--build", BUILD_DIR, "--target", "axf-e2e",
                "-j", str(len(os.sched_getaffinity(0)))])


def _run_build(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("build failed: " + " ".join(cmd))


# --- driver --------------------------------------------------------------------

def pool_env(threads=None):
    """The driver's environment: the pool capped at the CPUs this process may use."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    if threads is None:
        try:
            threads = int(env.get("AXF_THREADS", nproc))
        except ValueError:
            threads = nproc
    env["AXF_THREADS"] = str(max(1, min(threads, nproc)))
    return env


def run_driver(args, deadline, env):
    """Runs the driver; returns its records and, if it died or overran, why."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before running the driver")
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        proc = subprocess.run([DRIVER, "--work-dir", WORK_DIR] + args, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=timeout)
        stdout, death = proc.stdout, None
        if proc.returncode != 0:
            death = f"driver exited with status {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout, death = exc.stdout or "", f"driver exceeded {timeout:.0f} s"
        if isinstance(stdout, bytes):
            stdout = stdout.decode("utf-8", "replace")
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass  # a record cut short by the driver's death
    return lines, death


def records(lines, kind):
    return [r for r in lines if r.get("kind") == kind]


def pipeline_fingerprints(seed, deadline, env):
    lines, death = run_driver(["--workload", WORKLOADS[0], "--seed", str(seed), "--pipeline"],
                              deadline, env)
    if death:
        raise BenchError(f"pipeline run of seed {seed}: {death}")
    (line,) = records(lines, "pipeline")
    return line


def load_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["seeds"]


def input_seed(seed, table):
    """The stored input set `seed` runs: seeds past the table wrap onto it,
    so every run is checked against a stored fingerprint."""
    return seed % len(table)


# --- accounting and statistics ---------------------------------------------------

def judge(passes, expected, died=False):
    """A pass fails when it threw or its fingerprint differs from `expected`;
    when the driver died, the pass it was running counts as failed too."""
    attempted = len(passes) + (1 if died else 0)
    failed = sum(1 for p in passes if "error" in p or p.get("fingerprint") != expected)
    failed += 1 if died else 0
    return {"attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted if attempted else 1.0,
            "correct": attempted > 0 and failed == 0}


def summary(values):
    """Median, quartiles and sample count of a list of measurements."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def undisturbed(timings):
    """The timings taken with at most STEAL_LIMIT steal, or at least the
    least-disturbed third of them when the host was busy throughout."""
    if not timings:
        return []
    steals = sorted(t["steal"] for t in timings)
    limit = max(STEAL_LIMIT, steals[(len(steals) - 1) // 3])
    return [t for t in timings if t["steal"] <= limit]


def end_to_end_samples(lines):
    """Samples of each end-to-end metric; empty where a dead driver left none."""
    good = undisturbed([p for p in records(lines, "pass") if "error" not in p])
    quality = (records(lines, "quality") or [{}])[0]
    memory = (records(lines, "memory") or [{}])[0]
    return {
        "setup_s": [s["seconds"] for s in undisturbed(records(lines, "setup"))],
        "wall_s": [p["seconds"] for p in good],
        "circuits_per_s": [p["circuits"] / p["seconds"] for p in good],
        "configs_per_s": [p["configs"] / p["seconds"] for p in good],
        "peak_rss_mb": [memory[k] for k in ("peak_rss_mb",) if k in memory],
        **{k: [quality[k]] if k in quality else []
           for k in ("front_coverage", "exploration_speedup", "autoax_win_rate")},
    }


def layer_values(folded, counts, delta, traced_s, untraced_median_s):
    """Per-layer metrics of one traced run (0 where the workload leaves a layer idle)."""
    def span(name):
        return folded["spans"].get(fold_trace.BENCH_PREFIX + name, {}).get("total_s", 0.0)

    def counter(name):
        m = delta.get(name)
        return float(m["value"]) if m else 0.0

    def hist(name, field):
        m = delta.get(name)
        return float(m[field]) if m else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    build, structural = span("gen.build_library"), span("gen.structural")
    campaign_s = hist("fault.campaign_seconds", "sum")
    values = {
        "gen.build_library_s": build,
        "gen.structural_s": structural,
        "gen.cgp_s": build - structural if build > 0 else 0.0,
        "gen.circuits": counts["library_circuits"],
        "error.analyze_s": span("error.analyze"),
        "error.vectors_per_s": ratio(counts["error_vectors"], span("error.analyze")),
        "autoax.eval_batch_s": span("autoax.eval_batch"),
        "autoax.configs_per_s": ratio(counts["probe_configs"], span("autoax.eval_batch")),
        "autoax.memo_hit_ratio": ratio(counter("eval.memo_hits"),
                                       counter("eval.configs_requested")),
        "search.epochs": counter("search.epochs"),
        "search.epoch_s": ratio(hist("search.epoch_seconds", "sum"),
                                hist("search.epoch_seconds", "count")),
        "fault.campaign_s": campaign_s,
        "fault.sites_per_s": ratio(counter("fault.sites_total"), campaign_s),
        "fault.static_skip_ratio": ratio(counter("fault.sites_static_skipped"),
                                         counter("fault.sites_total")),
        "durable.checkpoint_write_s": hist("durable.checkpoint_write_seconds", "sum"),
        "durable.checkpoints_written": counter("durable.checkpoints_written"),
        "cache.hit_ratio": ratio(counts["cache_hits"],
                                 counts["cache_hits"] + counts["cache_misses"]),
        "util.threadpool_tasks": counter("threadpool.tasks_run"),
        "trace.span_coverage": folded["coverage"] or 0.0,
        "trace.overhead_s": traced_s - untraced_median_s,
    }
    for name in ("circuit.compile", "circuit.toggle_rates", "synth.fpga_implement",
                 "synth.lutmap", "synth.asic", "core.characterize", "core.pareto",
                 "ml.zoo_fit_predict", "autoax.accelerator_setup", "autoax.train_estimators",
                 "cache.load", "cache.flush"):
        values[name + "_s"] = span(name)
    return values


# --- one run -------------------------------------------------------------------

def run_workload(args, deadline):
    env = pool_env()
    table = load_reference()
    seed = input_seed(args.seed, table)
    driver_args = ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds)]
    trace_file = os.path.join(WORK_DIR, f"trace-{args.workload}-{os.getpid()}.json")
    metrics_file = os.path.join(WORK_DIR, f"metrics-{args.workload}-{os.getpid()}.json")
    if args.trace:
        driver_args += ["--trace-file", trace_file, "--metrics-file", metrics_file]
    lines, death = run_driver(driver_args, deadline, env)

    verdict = judge(records(lines, "pass") + records(lines, "traced_pass"),
                    table[str(seed)][args.workload], died=death is not None)
    host = (records(lines, "host") or [{}])[0]
    timed = [p for p in records(lines, "pass") if "error" not in p]
    untraced = [p["seconds"] for p in undisturbed(timed)]
    report = {
        "schema": "axf-e2e.v1",
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "trace": args.trace,
        "host": {k: v for k, v in host.items() if k != "kind"},
        "failed_ratio": verdict["failed_ratio"],
        "driver_death": death,
        "steal_share": summary([p["steal"] for p in timed] or [0.0]),
        "undisturbed_passes": len(untraced),
        "metrics": {},
    }
    if death:
        log(f"e2ebench: {death}")
    if not args.trace:
        for name, samples in end_to_end_samples(lines).items():
            report["metrics"][name] = dict(summary(samples or [0.0]), unit=END_TO_END[name])
    elif death:
        for name, unit in PER_LAYER.items():
            report["metrics"][name] = dict(summary([0.0]), unit=unit)
    else:
        folded = fold_trace.fold(fold_trace.load_events(trace_file))
        with open(metrics_file, encoding="utf-8") as f:
            delta = {m["name"]: m for m in json.load(f)["metrics"]}
        (counts,) = records(lines, "probe_counts")
        (traced,) = records(lines, "traced_pass")
        values = layer_values(folded, counts, delta, traced["seconds"],
                              statistics.median(untraced) if untraced else 0.0)
        for name, unit in PER_LAYER.items():
            report["metrics"][name] = dict(summary([values[name]]), unit=unit)
        log(fold_trace.format_table(folded))
        log(fold_trace.format_metrics({"metrics": list(delta.values())}))
        for path in (trace_file, metrics_file):
            os.remove(path)

    log(f"{args.workload} seed {args.seed} (input set {seed}): {verdict['attempted']} passes, "
        f"{verdict['failed']} failed; host {report['host']}")
    for name, m in report["metrics"].items():
        log(f"  {name:<28} {m['median']:>14.6g} {m['unit']:<6} "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    print(json.dumps(report))
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def record_reference(args):
    """Writes every stage's fingerprint for each input set (the pipeline run)."""
    out = args.reference_out or REFERENCE
    table = {}
    for seed in REFERENCE_SEEDS:
        line = pipeline_fingerprints(seed, time.monotonic() + RUN_BUDGET_S, pool_env())
        table[str(seed)] = {w: line[w] for w in WORKLOADS}
        log(f"seed {seed}: {table[str(seed)]}")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"schema": "axf-e2e-reference.v1", "seeds": table}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="axf end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--reference-out")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        ensure_built()
        if args.record_reference:
            return record_reference(args)
        return run_workload(args, time.monotonic() + RUN_BUDGET_S)
    except BenchError as exc:
        log(f"e2ebench: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
