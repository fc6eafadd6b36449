"""Self-tests of the benchmark's own logic (no build, no measurement).

  python3 -m unittest discover -s perfbench/tests -v
"""

import json
import math
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
sys.path.insert(0, str(PERFBENCH))

import analyze_trace  # noqa: E402
import run  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_samples_above(self):
        self.assertEqual(run.samples_above(1000, 99.0), 10)
        self.assertEqual(run.samples_above(999, 99.0), 9)
        self.assertEqual(run.samples_above(10000, 99.9), 10)
        self.assertEqual(run.samples_above(20, 50.0), 10)
        self.assertEqual(run.samples_above(0, 50.0), 0)

    def test_highest_percentile_needs_ten_samples_above(self):
        self.assertEqual(run.highest_percentile(1000), 99.0)
        self.assertEqual(run.highest_percentile(999), 90.0)
        self.assertEqual(run.highest_percentile(10000), 99.9)
        self.assertEqual(run.highest_percentile(100000), 99.99)
        self.assertEqual(run.highest_percentile(20), 50.0)
        self.assertIsNone(run.highest_percentile(19))

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 0), 1)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertAlmostEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 99), 99.01)
        self.assertEqual(run.percentile([3.0], 99), 3.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_check_reports_the_sample_count(self):
        raw = synthetic_raw("trec4_adaptive")
        # 4999 samples over 5 windows: the smallest has 999, one too few
        # for 10 samples above its p99.
        raw["series"]["latency_ms"] = [1.0] * 4999
        raw["series"]["done_s"] = [i * 2.0 / 4999 for i in range(4999)]
        results = {n: (ok, d) for n, ok, d in run.checks(
            raw, "trec4_adaptive", run.end_to_end(raw, "trec4_adaptive"))}
        ok, detail = results["tail_samples"]
        self.assertFalse(ok)
        self.assertIn("999 samples", detail)


class MetricNameTest(unittest.TestCase):
    def test_every_metric_name_and_unit_is_valid(self):
        for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]:
            self.assertRegex(m["name"], run.NAME_RE, m["name"])
            self.assertRegex(m["unit"], run.UNIT_RE, m["name"])
            self.assertIn(m["better"], ("higher", "lower"), m["name"])

    def test_names_are_unique(self):
        names = [w["name"] for w in run.SPEC["workloads"]] + [
            m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.NAME_RE, name)

    def test_invalid_names_are_rejected(self):
        for bad in ("", "_lead", ".lead", "has space", "a/b", "x" * 65,
                    "tab\tname", "ünicode"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)
        for good in ("a", "0start", "core.select_ms", "a-b_c.d", "x" * 64):
            self.assertIsNotNone(run.NAME_RE.match(good), good)


class SchemaTest(unittest.TestCase):
    def line(self, **overrides):
        units = run.END_TO_END
        line = run.result_line(True, 10, 0, {n: 1.5 for n in units}, units)
        line.update(overrides)
        return line, units

    def test_valid_line(self):
        line, units = self.line()
        self.assertEqual(run.validate_result(line, units), [])
        # The line must survive a JSON round trip unchanged.
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_wrong_top_level_keys(self):
        line, units = self.line(extra=1)
        self.assertTrue(run.validate_result(line, units))
        line, units = self.line()
        del line["failed"]
        self.assertTrue(run.validate_result(line, units))

    def test_wrong_types(self):
        for overrides in ({"correct": 1}, {"attempted": 1.0},
                          {"attempted": True}, {"attempted": 0},
                          {"failed": "0"}):
            line, units = self.line(**overrides)
            self.assertTrue(run.validate_result(line, units), overrides)

    def test_metric_set_must_match(self):
        line, units = self.line()
        del line["metrics"]["rk5"]
        self.assertTrue(run.validate_result(line, units))

    def test_bad_metric_values_and_units(self):
        line, units = self.line()
        line["metrics"]["rk5"]["value"] = math.nan
        self.assertTrue(run.validate_result(line, units))
        line, units = self.line()
        line["metrics"]["rk5"]["unit"] = "bad unit"
        self.assertTrue(run.validate_result(line, units))
        line, units = self.line()
        line["metrics"]["rk5"]["extra"] = 1
        self.assertTrue(run.validate_result(line, units))


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json at the checkout root, which run.py reads its
    workloads and metrics from."""

    spec = run.SPEC

    def test_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertEqual(self.spec["command"],
                         ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads(self):
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_keys_and_bounds(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_size(self):
        self.assertLess(
            os.path.getsize(PERFBENCH.parent / "BENCHMARK.json"), 64 * 1024)


def span(name, span_id, ts, dur, parent=0, trace=0, thread=0, depth=0):
    return {"name": name, "trace_id": trace, "span_id": span_id,
            "parent_id": parent, "ts_us": ts, "dur_us": dur,
            "thread": thread, "depth": depth}


class AnalyzerTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span("bench_request", 1, 0, 100, trace=7),
            span("select_databases", 2, 10, 80, parent=1, trace=7, depth=1),
            # Two children cover [20, 60) = 40 us.
            span("adaptive_evaluation", 3, 20, 30, parent=2, trace=7,
                 depth=2),
            span("scoring", 4, 50, 10, parent=2, trace=7, depth=2),
        ]
        summary = analyze_trace.analyze(
            {"schema_version": 2, "dropped": 0, "spans": spans})
        m = summary["measured"]
        self.assertEqual(summary["measured_roots"], 1)
        self.assertAlmostEqual(m["bench_request"]["self_us"], 20)
        self.assertAlmostEqual(m["select_databases"]["self_us"], 40)
        self.assertAlmostEqual(m["adaptive_evaluation"]["self_us"], 30)
        selfs, total = analyze_trace.subtree_accounting(
            summary, "select_databases", run.SELECT_LAYERS)
        self.assertAlmostEqual(selfs, total)

    def test_covered_is_the_union_clipped_to_the_parent(self):
        self.assertAlmostEqual(
            analyze_trace.covered((10, 90), [(20, 50), (40, 60), (0, 15),
                                             (85, 120), (95, 99)]), 50)
        self.assertEqual(analyze_trace.covered((0, 10), []), 0)

    def test_context_free_spans_nest_by_thread_and_depth(self):
        spans = [
            span("bench_setup", 1, 0, 100, trace=9),
            span("metasearcher_build", 2, 10, 50, thread=0, depth=1),
            span("shrinkage_model_build", 3, 15, 20, thread=0, depth=2),
            # Same interval, other thread: must not nest here.
            span("qbs_sample", 4, 16, 5, thread=1, depth=1),
        ]
        parents = analyze_trace.parents_of(spans)
        self.assertEqual(parents, [-1, 0, 1, -1])
        selfs = analyze_trace.self_times_us(spans, parents)
        self.assertAlmostEqual(selfs[1], 30)
        self.assertAlmostEqual(selfs[0], 50)

    def test_unmeasured_roots_stay_out(self):
        spans = [
            span("bench_overhead_request", 1, 0, 10, trace=3),
            span("select_databases", 2, 1, 8, parent=1, trace=3, depth=1),
        ]
        summary = analyze_trace.analyze(
            {"schema_version": 2, "dropped": 0, "spans": spans})
        self.assertEqual(summary["measured"], {})
        self.assertEqual(summary["all"]["select_databases"]["count"], 1)


def synthetic_raw(workload):
    """A raw driver output that passes every check of `workload`."""
    values = {
        "serve.attempted": 10000.0, "serve.served": 10000.0,
        "serve.served_full": 10000.0, "serve.wrong": 0.0, "serve.not_ok": 0.0,
        "serve.wall_s": 2.0, "serve.cpu_s": 7.5, "serve.threads": 4.0,
        "serve.serving.queries": 10000.0, "reference.ok": 1.0,
        "peak_rss_mb": 200.0, "rss.testbed_mb": 140.0, "rk5": 0.9,
        "serve.adaptive.evaluations": 8000.0,
        "serve.adaptive.chose_shrunk": 4000.0,
        "serve.adaptive.gate_complete_sample": 0.0,
        "serve.posterior_cache.hits": 9000.0,
        "serve.posterior_cache.misses": 10.0,
        "churn.published_epochs": 2.0, "churn.last_publish_s": 1.5,
    }
    raw = {"values": values,
           "series": {"setup_s": [1.0, 1.1, 1.2],
                      "latency_ms": [1.0 + i * 1e-3 for i in range(10000)],
                      "done_s": [i * 2.0 / 10000 for i in range(10000)]}}
    if workload == "trec6_broker":
        values.update({
            "serve.attempted": 2000.0, "serve.serving.queries": 2000.0,
            "serve.select_hist.count": 2000.0, "serve.select_hist.p50_ms": 0.1,
            "serve.select_hist.p99_ms": 1.0, "serve.served": 1500.0,
            "serve.served_full": 800.0, "serve.results": 2000.0,
            "stats.submitted": 2000.0, "stats.resolved": 2000.0,
            "stats.cancelled": 0.0, "stats.served_full": 800.0,
            "stats.served_degraded": 700.0, "stats.shed_queue_full": 0.0,
            "stats.shed_predicted_miss": 300.0, "stats.expired_in_queue": 100.0,
            "stats.expired_executing": 100.0, "serve.broker.downgrades": 700.0,
            "serve.broker.shed_queue_full": 0.0,
            "serve.broker.shed_predicted_miss": 300.0,
        })
        raw["series"]["broker.round_goodput_qps"] = [700.0, 750.0, 720.0]
    return raw


class CheckTest(unittest.TestCase):
    def failing(self, raw, workload):
        e2e = run.end_to_end(raw, workload)
        return {name for name, ok, _ in run.checks(raw, workload, e2e)
                if not ok}

    def test_synthetic_runs_pass(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.failing(synthetic_raw(workload), workload),
                             set(), workload)

    def test_path_coverage_guard(self):
        raw = synthetic_raw("trec4_adaptive")
        raw["values"]["serve.adaptive.chose_shrunk"] = 0.0
        self.assertIn("path_chose_shrunk",
                      self.failing(raw, "trec4_adaptive"))
        raw = synthetic_raw("trec4_churn")
        raw["values"]["serve.adaptive.gate_complete_sample"] = 8000.0
        raw["values"]["serve.posterior_cache.hits"] = 0.0
        raw["values"]["serve.posterior_cache.misses"] = 0.0
        self.assertTrue({"path_not_all_complete_sample",
                         "path_posterior_traffic"} <=
                        self.failing(raw, "trec4_churn"))
        raw = synthetic_raw("trec6_broker")
        raw["values"]["serve.broker.downgrades"] = 0.0
        raw["values"]["serve.broker.shed_predicted_miss"] = 0.0
        self.assertTrue({"path_downgrades", "path_sheds"} <=
                        self.failing(raw, "trec6_broker"))

    def test_broker_dispositions_must_partition(self):
        raw = synthetic_raw("trec6_broker")
        raw["values"]["stats.expired_executing"] = 99.0
        self.assertIn("dispositions_partition",
                      self.failing(raw, "trec6_broker"))

    def test_wrong_results_fail(self):
        raw = synthetic_raw("trec4_adaptive")
        raw["values"]["serve.wrong"] = 1.0
        self.assertIn("bit_identical", self.failing(raw, "trec4_adaptive"))

    def test_churn_needs_two_epochs(self):
        raw = synthetic_raw("trec4_churn")
        raw["values"]["churn.published_epochs"] = 1.0
        self.assertIn("churn_published", self.failing(raw, "trec4_churn"))

    def test_traced_run_fails_on_dropped_spans(self):
        raw = synthetic_raw("trec4_adaptive")
        # Four constructor stages that add up to the build.
        for name in ("core.hierarchy_summaries_s", "core.shrinkage_build_s",
                     "selection.plain_stats_s", "selection.shrunk_stats_s"):
            raw["series"][name] = [0.5]
        raw["series"]["core.metasearcher_build_s"] = [2.0]
        spans = [span("bench_request", 1, 0, 100, trace=7),
                 span("select_databases", 2, 10, 80, parent=1, trace=7,
                      depth=1)]
        e2e = run.end_to_end(raw, "trec4_adaptive")
        for dropped, failing in ((0, set()), (5, {"trace_no_drops"})):
            summary = analyze_trace.analyze(
                {"schema_version": 2, "dropped": dropped, "spans": spans})
            self.assertEqual(
                {name for name, ok, _ in run.checks(
                    raw, "trec4_adaptive", e2e, summary) if not ok},
                failing, dropped)

    def test_churn_refreshes_must_run_beside_reads(self):
        raw = synthetic_raw("trec4_churn")
        # Readers stopped (serve.wall_s = 2 s) before the last publish.
        raw["values"]["churn.last_publish_s"] = 2.5
        self.assertIn("churn_refreshes_beside_reads",
                      self.failing(raw, "trec4_churn"))

    def test_peak_rss_is_growth_above_the_testbed(self):
        raw = synthetic_raw("trec4_adaptive")
        e2e = run.end_to_end(raw, "trec4_adaptive")
        self.assertEqual(e2e["peak_rss_mb"], 60.0)
        # A peak the testbed set leaves no growth, and fails the run.
        raw["values"]["rss.testbed_mb"] = 200.0
        self.assertIn("nonzero_peak_rss_mb",
                      self.failing(raw, "trec4_adaptive"))


if __name__ == "__main__":
    unittest.main()
