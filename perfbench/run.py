#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
perfbench_driver from perfbench/CMakeLists.txt (the library is compiled
from src/) into $CARGO_TARGET_DIR or .bench_build, runs the workload,
checks the program's outputs and prints, as the last line of stdout:

  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md). Progress and
a human-readable report go to stderr. Exits 1 when the build fails, the
driver fails, or any check fails.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analyze_trace  # noqa: E402


# BENCHMARK.json at the checkout root is the one list of workloads and
# metrics.
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
    SPEC = json.load(f)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# name -> unit. Per-layer "1/req" counts are per SelectDatabases call of
# the measured phase; layers a workload does not run report 0.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# The spans below select_databases; their self times plus its own add up
# to its duration.
SELECT_LAYERS = ("select_databases", "adaptive_evaluation",
                 "posterior_grid_build", "statistics_cache_fill", "scoring")

# Tolerances the checks state.
ATTRIBUTION_TOLERANCE = 0.15  # |build - sum of constructor stages| / build
ACCOUNTING_TOLERANCE = 0.02   # |sum of self times - root duration| / root
PUBLISH_SLACK_S = 0.001       # last publish vs the readers' last completion
MIN_TAIL_SAMPLES = 10         # samples a reported percentile needs above it
TAIL_PERCENTILE = 99.0
WINDOWS = 5                   # closed-loop serve phases split for medians

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------- statistics --

def percentile(values, p):
    """Linear-interpolated p-th percentile (0 <= p <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_above(count, p):
    """Samples strictly above the p-th percentile of `count` samples."""
    # round() keeps float noise (1000 * 99.9 = 99900.00000000001) from
    # pushing the rank up by one.
    return count - math.ceil(round(count * p / 100.0, 6)) if count else 0


def highest_percentile(count, ladder=(50.0, 90.0, 99.0, 99.9, 99.99)):
    """Highest percentile of `ladder` with MIN_TAIL_SAMPLES samples above
    it, or None when even the lowest rung lacks them."""
    best = None
    for p in ladder:
        if samples_above(count, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ build --

def build_driver(root):
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"),
                        "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, timeout=300)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_driver", "-j", "4"],
                   check=True, stdout=log, stderr=log, timeout=700)
    return build_dir, build_dir / "perfbench_driver"


# ---------------------------------------------------------------- metrics --

def windows(raw):
    """Closed-loop requests split by completion time into WINDOWS equal
    windows of the serve phase: a list of latency lists."""
    v, series = raw["values"], raw["series"]
    width = v["serve.wall_s"] / WINDOWS
    out = [[] for _ in range(WINDOWS)]
    for ms, done in zip(series["latency_ms"], series["done_s"]):
        out[min(int(done / width), WINDOWS - 1)].append(ms)
    return out


def end_to_end(raw, workload):
    v, series = raw["values"], raw["series"]
    attempted = v["serve.attempted"]
    ok = v["serve.served"] - v["serve.wrong"]
    if workload == "trec6_broker":
        # Executions happen on the broker's workers; the library's own
        # select histogram times every SelectDatabases call they make.
        p50, p99 = v["serve.select_hist.p50_ms"], v["serve.select_hist.p99_ms"]
        goodput = median(series["broker.round_goodput_qps"])
    else:
        # Medians over the windows, so one scheduling hiccup moves one
        # window's figures and not the run's.
        ws = [w for w in windows(raw) if w]
        p50 = median([percentile(w, 50.0) for w in ws])
        p99 = median([percentile(w, TAIL_PERCENTILE) for w in ws])
        width = v["serve.wall_s"] / WINDOWS
        goodput = median([len(w) / width for w in ws]) * ok / attempted
    return {
        "setup_s": median(series["setup_s"]),
        # Peak resident memory above the generated testbed's: what set-up,
        # caches and serving add (the testbed is input, as for setup_s).
        "peak_rss_mb": v["peak_rss_mb"] - v["rss.testbed_mb"],
        "select_p50_ms": p50,
        "select_p99_ms": p99,
        "goodput_qps": goodput,
        "rk5": v["rk5"],
        "ok_share": ok / attempted,
        "full_share": v["serve.served_full"] / attempted,
    }


def latency_samples(raw, workload):
    """Samples behind each reported percentile (the smallest window)."""
    if workload == "trec6_broker":
        return int(raw["values"]["serve.select_hist.count"])
    return min(len(w) for w in windows(raw))


def per_layer(raw, workload, trace_summary):
    v, series = raw["values"], raw["series"]
    traced_builds = len(series.get("core.hierarchy_summaries_s", []))
    setups = len(series["setup_s"])
    calls = max(v["serve.serving.queries"], 1.0)
    out = {name: 0.0 for name in PER_LAYER}

    def per_call(counter):
        return v["serve." + counter] / calls

    out["corpus.testbed_build_s"] = v["corpus.testbed_build_s"]
    out["corpus.testbed_rss_mb"] = v["rss.testbed_mb"]
    out["core.setup_rss_mb"] = v["rss.setup_mb"] - v["rss.testbed_mb"]
    out["core.serve_rss_mb"] = v["peak_rss_mb"] - v["rss.setup_mb"]
    out["sampling.sample_s"] = median(series["sampling.sample_s"])
    out["sampling.queries_sent"] = v["setup.sampling.queries_sent"] / setups
    out["sampling.documents_sampled"] = (
        v["setup.sampling.documents_sampled"] / setups)
    stages = ("core.hierarchy_summaries_s", "core.shrinkage_build_s",
              "selection.plain_stats_s", "selection.shrunk_stats_s")
    for name in stages:
        out[name] = median(series.get(name, []))
    build = median(series["core.metasearcher_build_s"])
    out["core.metasearcher_build_s"] = build
    out["core.build_unattributed_s"] = build - sum(out[n] for n in stages)
    # The traced run builds a ShrinkageModel once in the stage timing and
    # once inside each (Live)Metasearcher.
    out["core.em_iterations"] = (v["setup.em.iterations_sum"] /
                                 (setups + traced_builds))

    evaluations = v["serve.adaptive.evaluations"]
    out["core.adaptive_evaluations"] = per_call("adaptive.evaluations")
    out["core.adaptive_gate_complete_sample"] = per_call(
        "adaptive.gate_complete_sample")
    out["core.adaptive_gate_no_mixed_evidence"] = per_call(
        "adaptive.gate_no_mixed_evidence")
    out["core.adaptive_chose_shrunk"] = per_call("adaptive.chose_shrunk")
    out["core.adaptive_chose_plain"] = per_call("adaptive.chose_plain")
    out["core.adaptive_draws_per_evaluation"] = (
        v["serve.adaptive.draws_sum"] / evaluations if evaluations else 0.0)
    hits, misses = v["serve.posterior_cache.hits"], v[
        "serve.posterior_cache.misses"]
    out["core.posterior_hits"] = hits / calls
    out["core.posterior_misses"] = misses / calls
    out["core.posterior_hit_rate"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    out["core.posterior_evictions"] = per_call("posterior_cache.evictions")
    out["core.posterior_stale_misses"] = per_call(
        "posterior_cache.stale_misses")
    out["selection.stats_cache_hits"] = per_call("scoring_stats_cache.hits")
    out["selection.stats_cache_misses"] = per_call(
        "scoring_stats_cache.misses")
    out["core.select_cpu_ms"] = v["serve.cpu_s"] * 1e3 / calls
    utilization = v["serve.cpu_s"] / (v["serve.wall_s"] * v["serve.threads"])
    out["core.cpu_utilization"] = utilization

    if workload == "trec4_churn":
        out["corpus.churn_epoch_s"] = median(series["corpus.churn_epoch_s"])
        out["sampling.reprobe_s"] = median(series["sampling.reprobe_s"])
        out["core.apply_refresh_s"] = median(series["core.apply_refresh_s"])
        out["core.refresh_s"] = median(series["core.refresh_s"])
        out["core.refresh_evictions"] = (
            v["serve.posterior_cache.evictions"] /
            max(v["churn.published_epochs"], 1.0))

    if workload == "trec6_broker":
        for name in ("served_full", "served_degraded", "shed_queue_full",
                     "shed_predicted_miss", "expired_in_queue",
                     "expired_executing", "downgrades", "batches"):
            out["broker." + name] = v["serve.broker." + name]
        out["broker.batch_size_mean"] = v["serve.broker.batch_size_mean"]
        out["broker.drain_s"] = v["broker.drain_s"]
        out["broker.cpu_utilization"] = utilization

    m = trace_summary["measured"]

    def mean_dur_us(name):
        row = m.get(name)
        return row["dur_us"] / row["count"] if row and row["count"] else 0.0

    selects = m.get("select_databases", {}).get("count", 0)
    if selects:
        def self_ms(name):
            return m.get(name, {}).get("self_us", 0.0) / selects / 1e3
        out["core.select_ms"] = mean_dur_us("select_databases") / 1e3
        out["core.select_self_ms"] = self_ms("select_databases")
        out["core.adaptive_evaluation_ms"] = self_ms("adaptive_evaluation")
        out["core.posterior_grid_build_ms"] = self_ms("posterior_grid_build")
        out["selection.statistics_cache_fill_ms"] = self_ms(
            "statistics_cache_fill")
        out["selection.scoring_ms"] = self_ms("scoring")
    if workload == "trec6_broker":
        out["broker.submit_us"] = mean_dur_us("broker_submit")
        out["broker.execute_ms"] = mean_dur_us("broker_execute") / 1e3
        out["broker.queue_wait_ms"] = mean_dur_us("broker_queue") / 1e3
    out["trace.overhead_share"] = analyze_trace.overhead_share(raw)
    return out


# ----------------------------------------------------------------- checks --

def checks(raw, workload, metrics_e2e, trace_summary=None):
    """List of (name, ok, detail)."""
    v, series = raw["values"], raw["series"]
    out = []

    def check(name, ok, detail):
        out.append((name, bool(ok), detail))

    attempted = int(v["serve.attempted"])
    check("attempted", attempted >= 1, "%d requests" % attempted)
    check("reference_ok", v["reference.ok"] == 1.0,
          "serial reference pass returned OK for every request")
    check("bit_identical", v["serve.wrong"] == 0,
          "%d responses differ from the serial reference" % v["serve.wrong"])
    check("status_ok", v["serve.not_ok"] == 0,
          "%d non-OK responses" % v["serve.not_ok"])
    count = latency_samples(raw, workload)
    check("tail_samples",
          samples_above(count, TAIL_PERCENTILE) >= MIN_TAIL_SAMPLES,
          "p%g over %d samples has %d above it (highest reportable: p%s)" %
          (TAIL_PERCENTILE, count, samples_above(count, TAIL_PERCENTILE),
           highest_percentile(count)))
    for name, value in metrics_e2e.items():
        check("nonzero_" + name, value > 0, "%s = %r" % (name, value))

    if workload == "trec6_broker":
        parts = sum(v["stats." + d] for d in (
            "served_full", "served_degraded", "shed_queue_full",
            "shed_predicted_miss", "expired_in_queue", "expired_executing"))
        check("every_request_resolves",
              v["stats.resolved"] == v["stats.submitted"] == attempted ==
              v["serve.results"] and v["stats.cancelled"] == 0,
              "%d submitted, %d resolved, %d cancelled" %
              (v["stats.submitted"], v["stats.resolved"],
               v["stats.cancelled"]))
        check("dispositions_partition", parts == v["stats.submitted"],
              "dispositions sum to %d of %d" % (parts, v["stats.submitted"]))
        check("path_downgrades", v["serve.broker.downgrades"] > 0,
              "%d downgrades" % v["serve.broker.downgrades"])
        sheds = (v["serve.broker.shed_queue_full"] +
                 v["serve.broker.shed_predicted_miss"])
        check("path_sheds", sheds > 0, "%d sheds" % sheds)
    else:
        evaluations = v["serve.adaptive.evaluations"]
        check("path_chose_shrunk", v["serve.adaptive.chose_shrunk"] > 0,
              "%d of %d evaluations chose the shrunk summary" %
              (v["serve.adaptive.chose_shrunk"], evaluations))
        check("path_not_all_complete_sample",
              evaluations > 0 and
              v["serve.adaptive.gate_complete_sample"] < evaluations,
              "%d of %d evaluations stopped at the complete-sample gate" %
              (v["serve.adaptive.gate_complete_sample"], evaluations))
        traffic = (v["serve.posterior_cache.hits"] +
                   v["serve.posterior_cache.misses"])
        check("path_posterior_traffic", traffic > 0,
              "%d posterior-cache lookups" % traffic)
    if workload == "trec4_churn":
        check("churn_published", v["churn.published_epochs"] >= 2,
              "%d epochs published" % v["churn.published_epochs"])
        check("churn_refreshes_beside_reads",
              v["churn.last_publish_s"] <= v["serve.wall_s"] + PUBLISH_SLACK_S,
              "last publish at %.3f s, last read at %.3f s" %
              (v["churn.last_publish_s"], v["serve.wall_s"]))

    if trace_summary is not None:
        check("trace_no_drops", trace_summary["dropped"] == 0,
              "%d spans dropped" % trace_summary["dropped"])
        stages = sum(median(series[n]) for n in (
            "core.hierarchy_summaries_s", "core.shrinkage_build_s",
            "selection.plain_stats_s", "selection.shrunk_stats_s"))
        build = median(series["core.metasearcher_build_s"])
        check("setup_attribution",
              abs(build - stages) <= ATTRIBUTION_TOLERANCE * build,
              "constructor stages %.3f s vs build %.3f s (tolerance %d%%)" %
              (stages, build, ATTRIBUTION_TOLERANCE * 100))
        root = "broker_execute" if workload == "trec6_broker" else \
            "select_databases"
        layers = SELECT_LAYERS + (("broker_execute",)
                                  if workload == "trec6_broker" else ())
        selfs, total = analyze_trace.subtree_accounting(
            trace_summary, root, layers)
        check("self_time_accounting",
              total > 0 and abs(selfs - total) <= ACCOUNTING_TOLERANCE * total,
              "layer self times %.1f ms vs %s %.1f ms (tolerance %d%%)" %
              (selfs / 1e3, root, total / 1e3, ACCOUNTING_TOLERANCE * 100))
    return out


def result_line(correct, attempted, failed, metrics, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def validate_result(result, expected_names):
    """Problems with a result line (empty when it meets the schema)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(
                result.get(key), bool):
            problems.append("%s is not an integer" % key)
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_names):
        problems.append("metric names differ: %s" %
                        sorted(set(metrics) ^ set(expected_names)))
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if set(m) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(m)))
            continue
        if not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool) or m["value"] != m["value"]:
            problems.append("%s: value %r is not a number" % (name, m["value"]))
        if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
            problems.append("%s: bad unit %r" % (name, m["unit"]))
    return problems


# ------------------------------------------------------------------- main --

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        build_dir, driver = build_driver(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    stem = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    raw_path = build_dir / ("raw-%s.json" % stem)
    trace_path = build_dir / ("trace-%s.json" % stem)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=160)
        with open(raw_path) as f:
            raw = json.load(f)
        trace_summary = None
        if args.trace:
            trace_summary = analyze_trace.analyze(
                analyze_trace.load(trace_path))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        print("perfbench: driver failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        for path in (raw_path, trace_path):
            if path.exists():
                path.unlink()

    e2e = end_to_end(raw, args.workload)
    results = checks(raw, args.workload, e2e, trace_summary)
    v = raw["values"]
    failed = int(v["serve.wrong"] + v["serve.not_ok"] +
                 (v["serve.attempted"] - v.get("stats.resolved",
                                               v["serve.attempted"])))
    correct = all(ok for _, ok, _ in results)
    if args.trace:
        metrics = per_layer(raw, args.workload, trace_summary)
        units = PER_LAYER
        analyze_trace.print_table(trace_summary)
    else:
        metrics = e2e
        units = END_TO_END
    for name in ("broker.arrival_rate_qps", "churn.reprobe_databases",
                 "churn.published_epochs", "churn.writer_tail_s"):
        if name in v:
            print("  %-38s %14.6g" % (name, v[name]), file=sys.stderr)
    for name, ok, detail in results:
        print("%s %-30s %s" % ("ok  " if ok else "FAIL", name, detail),
              file=sys.stderr)
    for name, value in metrics.items():
        print("  %-38s %14.6g %s" % (name, value, units[name]),
              file=sys.stderr)
    line = result_line(correct, v["serve.attempted"], failed, metrics, units)
    problems = validate_result(line, units)
    if problems:
        print("perfbench: malformed result: %s" % problems, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
