#!/usr/bin/env python3
"""Fold a Chrome trace from the axf stack into a per-layer table.

Usage:
    python3 e2ebench/fold_trace.py TRACE.json [--metrics SNAPSHOT.json]

Each span name gets its call count, total (inclusive) time and self time,
where self time is the span's duration minus the time its direct child
spans on the same thread cover.  Worker-side task spans (category "task")
are listed as "task:<phase>", which is the busy time of pool workers on
behalf of that phase.  The coverage of the measured pass (the "e2e/pass"
span) is the share of its time covered by spans the program itself opens
(names not starting with "e2e/", the prefix of the benchmark's own spans).
With --metrics, the registry snapshot (axf-metrics.v1) is appended below
the table.
"""

import argparse
import json
import sys

BENCH_PREFIX = "e2e/"
# Trace timestamps carry three decimals of a microsecond.
EPSILON_US = 0.002


def load_events(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["traceEvents"]


def _label(event):
    return ("task:" if event.get("cat") == "task" else "") + event["name"]


def _forest(events):
    """Per-thread nesting: returns nodes with their direct children."""
    nodes = []
    by_tid = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        node = {"label": _label(e), "ts": float(e["ts"]), "dur": float(e["dur"]),
                "tid": e.get("tid"), "children": []}
        nodes.append(node)
        by_tid.setdefault(node["tid"], []).append(node)
    for thread_nodes in by_tid.values():
        thread_nodes.sort(key=lambda n: (n["ts"], -n["dur"]))
        stack = []
        for node in thread_nodes:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= node["ts"] + EPSILON_US:
                stack.pop()
            if stack:
                stack[-1]["children"].append(node)
            stack.append(node)
    return nodes


def _program_covered(node):
    covered = 0.0
    for child in node["children"]:
        if child["label"].startswith(BENCH_PREFIX):
            covered += _program_covered(child)
        else:
            covered += child["dur"]
    return covered


def fold(events):
    """Returns {"spans": {label: {calls, total_s, self_s}}, "coverage": share or None}."""
    nodes = _forest(events)
    spans = {}
    for node in nodes:
        row = spans.setdefault(node["label"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        child_us = sum(c["dur"] for c in node["children"])
        row["calls"] += 1
        row["total_s"] += node["dur"] / 1e6
        row["self_s"] += max(0.0, node["dur"] - child_us) / 1e6
    roots = [n for n in nodes if n["label"] == BENCH_PREFIX + "pass"]
    coverage = None
    if roots:
        total = sum(n["dur"] for n in roots)
        coverage = sum(_program_covered(n) for n in roots) / total if total > 0 else 0.0
    return {"spans": spans, "coverage": coverage}


def format_table(folded):
    rows = sorted(folded["spans"].items(), key=lambda kv: -kv[1]["total_s"])
    width = max([len("span")] + [len(name) for name, _ in rows])
    lines = [f"{'span':<{width}}  {'calls':>7}  {'total_s':>10}  {'self_s':>10}"]
    for name, row in rows:
        lines.append(f"{name:<{width}}  {row['calls']:>7}  {row['total_s']:>10.4f}"
                     f"  {row['self_s']:>10.4f}")
    if folded["coverage"] is not None:
        lines.append(f"span coverage of the pass: {100.0 * folded['coverage']:.1f}%")
    return "\n".join(lines)


def format_metrics(snapshot):
    lines = ["registry counters (axf-metrics.v1):"]
    for m in snapshot.get("metrics", []):
        if m["kind"] == "histogram":
            lines.append(f"  {m['name']}: count={m['count']} sum={m['sum']:.6g}")
        else:
            lines.append(f"  {m['name']}: {m['value']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--metrics", help="axf-metrics.v1 snapshot to append")
    args = parser.parse_args(argv)
    print(format_table(fold(load_events(args.trace))))
    if args.metrics:
        with open(args.metrics, encoding="utf-8") as f:
            print(format_metrics(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
