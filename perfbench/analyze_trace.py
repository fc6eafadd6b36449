#!/usr/bin/env python3
"""Self time per span name in a traced benchmark run.

Reads the util::Tracer JSON (schema_version 2) that perfbench_driver writes
with --trace 1 and reports, for every span name, how many spans there were,
their total duration and their self time: a span's duration minus the part
of its interval that its child spans cover.

A child is a span whose parent_id names it. Spans recorded without a
request context (the library's set-up spans: qbs_sample, em_fit,
metasearcher_build, ...) carry parent_id 0; their parent is the innermost
span on the same thread, one nesting level up, whose interval contains
them.

perfbench/run.py calls it on every traced run and fails the run when the
tracer dropped any span (the per-layer figures would undercount).
"""

import json
import statistics
import sys
from collections import defaultdict

# Roots of the request trees the benchmark measures: closed-loop requests
# (trec4_adaptive, trec4_churn) and brokered requests (trec6_broker).
MEASURED_ROOTS = ("bench_request", "broker_submit")


def load(path):
    with open(path) as f:
        trace = json.load(f)
    if trace.get("schema_version") != 2:
        raise ValueError("%s: expected trace schema_version 2" % path)
    return trace


def parents_of(spans):
    """Index of each span's parent in `spans`, or -1 for a root."""
    by_id = {s["span_id"]: i for i, s in enumerate(spans) if s["span_id"]}
    parents = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s["parent_id"]:
            parents[i] = by_id.get(s["parent_id"], -1)
    # Nesting by containment, per thread, for the context-free spans.
    threads = {s["thread"] for s in spans
               if not s["parent_id"] and s["depth"] > 0}
    by_thread = defaultdict(list)
    for i, s in enumerate(spans):
        if s["thread"] in threads:
            by_thread[s["thread"]].append(i)
    for order in by_thread.values():
        order.sort(key=lambda i: (spans[i]["ts_us"], -spans[i]["dur_us"]))
        stack = []
        for i in order:
            s = spans[i]
            end = s["ts_us"] + s["dur_us"]
            # 1 ns of slack: timestamps are nanoseconds printed as
            # microseconds, so equal ends may differ in the last bit.
            while stack and (spans[stack[-1]]["ts_us"] +
                             spans[stack[-1]]["dur_us"] < end - 1e-3):
                stack.pop()
            if not s["parent_id"] and s["depth"] > 0:
                for j in reversed(stack):
                    if spans[j]["depth"] == s["depth"] - 1:
                        parents[i] = j
                        break
            stack.append(i)
    return parents


def covered(interval, children):
    """Length of the part of `interval` covered by the union of children."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_us(spans, parents):
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            s = spans[i]
            children[p].append((s["ts_us"], s["ts_us"] + s["dur_us"]))
    out = []
    for i, s in enumerate(spans):
        interval = (s["ts_us"], s["ts_us"] + s["dur_us"])
        out.append(s["dur_us"] - covered(interval, children.get(i, ())))
    return out


def roots_of(parents):
    roots = [-1] * len(parents)
    for i in range(len(parents)):
        path = [i]
        while parents[path[-1]] >= 0 and roots[path[-1]] < 0:
            path.append(parents[path[-1]])
        top = path[-1]
        root = roots[top] if roots[top] >= 0 else top
        for j in path:
            roots[j] = root
    return roots


def analyze(trace):
    """Per-name totals, overall and within the measured request trees.

    Returns {"dropped", "spans", "all": {name: row}, "measured": {name:
    row}, "measured_roots": n} where a row is {"count", "dur_us",
    "self_us"}.
    """
    spans = trace["spans"]
    parents = parents_of(spans)
    selfs = self_times_us(spans, parents)
    roots = roots_of(parents)
    every = defaultdict(lambda: {"count": 0, "dur_us": 0.0, "self_us": 0.0})
    measured = defaultdict(lambda: {"count": 0, "dur_us": 0.0, "self_us": 0.0})
    measured_roots = 0
    for i, s in enumerate(spans):
        for table, take in ((every, True),
                            (measured,
                             spans[roots[i]]["name"] in MEASURED_ROOTS)):
            if take:
                row = table[s["name"]]
                row["count"] += 1
                row["dur_us"] += s["dur_us"]
                row["self_us"] += selfs[i]
        if parents[i] < 0 and s["name"] in MEASURED_ROOTS:
            measured_roots += 1
    return {"dropped": trace.get("dropped", 0), "spans": len(spans),
            "all": dict(every), "measured": dict(measured),
            "measured_roots": measured_roots}


def subtree_accounting(trace_summary, root_name, layer_names):
    """(sum of self time over layer_names, total duration of root_name)
    within the measured trees, in microseconds."""
    measured = trace_summary["measured"]
    total = measured.get(root_name, {}).get("dur_us", 0.0)
    selfs = sum(measured.get(n, {}).get("self_us", 0.0) for n in layer_names)
    return selfs, total


def overhead_share(raw):
    """Median traced / median untraced time of the same serial pass, - 1."""
    series = raw["series"]
    untraced = statistics.median(series.get("trace.untraced_pass_s", [0.0]))
    traced = statistics.median(series.get("trace.traced_pass_s", [0.0]))
    return traced / untraced - 1.0 if untraced > 0 else 0.0


def print_table(summary, out=sys.stderr):
    rows = sorted(summary["all"].items(), key=lambda kv: -kv[1]["self_us"])
    total_self = sum(r["self_us"] for _, r in rows) or 1.0
    out.write("%-28s %9s %12s %12s %7s\n" %
              ("span", "count", "total_ms", "self_ms", "self%"))
    for name, r in rows:
        out.write("%-28s %9d %12.2f %12.2f %6.1f%%\n" %
                  (name, r["count"], r["dur_us"] / 1e3, r["self_us"] / 1e3,
                   100.0 * r["self_us"] / total_self))
    out.write("spans %d, dropped %d, measured request trees %d\n" %
              (summary["spans"], summary["dropped"],
               summary["measured_roots"]))

