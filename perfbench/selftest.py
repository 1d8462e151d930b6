#!/usr/bin/env python3
"""Self-tests of the benchmark's own math and gates, on synthetic records.

    python3 perfbench/selftest.py

Checks the percentile, tail-support, lateness and self-time math against
hand-computed values, and plants a wrong answer, a degraded answer, a
path-identity violation and a low AUC into otherwise clean records: each
must fail its gate, and the clean records must pass.
"""

import copy
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import derive  # noqa: E402
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = list(range(1, 101))
        self.assertAlmostEqual(stats.percentile(xs, 0.5), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 0.99), 99.01)
        self.assertEqual(stats.percentile(xs, 0.0), 1)
        self.assertEqual(stats.percentile(xs, 1.0), 100)
        self.assertEqual(stats.percentile([], 0.5), 0.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 0.5), 2)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertTrue(stats.supported(1000, 0.99))
        self.assertFalse(stats.supported(999, 0.99))
        self.assertFalse(stats.supported(1000, 0.999))
        self.assertIsNone(stats.highest_supported(10))
        for n in (11, 100, 3600, 12345):
            xs = list(range(n))
            p = stats.highest_supported(n)
            value = stats.percentile(xs, p)
            self.assertEqual(sum(1 for x in xs if x > value), 10, n)

    def test_labels(self):
        self.assertEqual(stats.percentile_label(0.99), "p99")
        self.assertEqual(stats.percentile_label(1 - 10 / 3600), "p99.72")
        self.assertEqual(stats.percentile_label(0.5), "p50")

    def test_summary_reports_counts_and_omits_unsupported_p99(self):
        small = stats.latency_summary([0.001] * 500)
        self.assertEqual(small["count"], 500)
        self.assertIsNone(small["p99"])
        self.assertEqual(small["top_label"], "p98")
        big = stats.latency_summary([i * 1e-3 for i in range(2000)])
        self.assertAlmostEqual(big["p99"], 1979.01)
        self.assertAlmostEqual(big["p50"], 999.5)

    def test_quartile_spread_matches_statistics(self):
        xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartile_spread(xs), (q1, med, q3,
                                                     (q3 - q1) / med))


class Windows(unittest.TestCase):
    def test_partial_window_is_dropped(self):
        done = [0.1, 0.2, 0.5, 1.5, 2.1, 2.2, 2.9]
        self.assertEqual(stats.window_rates(done, 0.0, 2.5), [3.0, 1.0])

    def test_stalled_window_does_not_move_the_median(self):
        done = [k + i / 100 for k in range(5) for i in range(100)
                if k != 2 or i < 10]
        rates = stats.window_rates(done, 0.0, 5.0)
        self.assertEqual(rates, [100.0, 100.0, 10.0, 100.0, 100.0])
        self.assertEqual(statistics.median(rates), 100.0)


class CpuWindows(unittest.TestCase):
    def test_load_generator_cpu_is_not_charged(self):
        done = [i / 100 for i in range(300)]
        at = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        process = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        loadgen = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        # 100 completions per window, 1 CPU-s of it the system's.
        self.assertEqual(stats.cpu_windows(done, at, process, loadgen),
                         [100.0, 100.0, 100.0])

    def test_windows_span_at_least_the_window(self):
        at = [0.0, 0.6, 1.2, 1.8, 2.4]
        rates = stats.cpu_windows([0.1, 1.5], at, [0, 1, 2, 3, 4],
                                  [0, 0, 0, 0, 0])
        self.assertEqual(rates, [0.5, 0.5])


class Lateness(unittest.TestCase):
    def test_stall_is_charged_to_the_requests_behind_it(self):
        scheduled = [0.0, 1.0, 2.0]
        sent = [0.0, 5.0, 5.0]   # the generator stalled for 4 s
        done = [0.5, 5.5, 6.0]
        self.assertEqual(stats.open_loop_latency(scheduled, done),
                         [0.5, 4.5, 4.0])
        self.assertEqual(stats.lateness(scheduled, sent), [0.0, 4.0, 3.0])

    def test_early_send_is_not_negative_lateness(self):
        self.assertEqual(stats.lateness([1.0], [0.9]), [0.0])


def span(name, begin, end, depth=0, thread=1):
    return {"name": name, "begin": begin, "end": end, "depth": depth,
            "thread": thread}


class SelfTime(unittest.TestCase):
    def test_nested_on_one_thread(self):
        spans = [span("a", 0, 10), span("b", 2, 5, 1), span("c", 3, 4, 2),
                 span("d", 6, 7, 1)]
        self.assertEqual(stats.self_times(spans), [6, 2, 1, 1])

    def test_parallel_children_on_other_threads(self):
        # A scatter on the main thread with three overlapping shard calls
        # recorded from worker threads: the calls cover the scatter, but
        # not each other.
        spans = [span("scatter", 0, 10), span("shard-0", 1, 8, 0, 2),
                 span("shard-1", 2, 7, 0, 3), span("shard-2", 3, 9, 0, 4)]
        self.assertEqual(stats.self_times(spans), [2, 7, 5, 6])

    def test_identical_intervals(self):
        spans = [span("outer", 0, 4, 0), span("inner", 0, 4, 1)]
        self.assertEqual(stats.self_times(spans), [0, 4])

    def test_overlapping_children_are_not_double_counted(self):
        spans = [span("p", 0, 10), span("x", 1, 6, 0, 2),
                 span("y", 4, 9, 0, 3)]
        self.assertEqual(stats.self_times(spans)[0], 2)

    def test_aggregate(self):
        table = stats.aggregate_spans([
            [span("handler", 0, 4), span("scan", 1, 3, 1)],
            [span("handler", 10, 12), span("scan", 10, 11, 1)],
        ])
        self.assertEqual(table["handler"]["count"], 2)
        self.assertEqual(table["handler"]["total_s"], 6)
        self.assertEqual(table["handler"]["self_s"], 3)
        self.assertEqual(table["scan"]["self_s"], 3)
        self.assertAlmostEqual(table["scan"]["p50_ms"], 1500)


def neighbours(seed):
    return [[seed * 10 + j, 1065353216 - j] for j in range(10)]


def serve_record():
    scheduled = [i / 100 for i in range(50)]
    return {
        "workload": "serve-direct",
        "setup_s": [0.3, 0.31, 0.29],
        "store_write_s": [0.05], "store_open_s": [0.03],
        "server_start_s": [0.001], "warm_up_s": [0.2],
        "peak_rss_mib": 40.0,
        "answer_codes": [0] * 50,
        "sample": [{"request": i, "probe": i, "got": neighbours(i),
                    "want": neighbours(i)} for i in range(5)],
        "open": {"scheduled_s": scheduled,
                 "sent_s": [s + 1e-4 for s in scheduled],
                 "done_s": [s + 1e-3 for s in scheduled]},
        "rate_qps": 100.0,
        "closed": {"start_s": 100.0, "elapsed_s": 2.5,
                   "sent_s": [100.0 + i / 800 for i in range(2000)],
                   "done_s": [100.001 + i / 800 for i in range(2000)],
                   # 2 CPU-s per second, a quarter of it the generator's.
                   "cpu": {"at_s": [100.0, 100.5, 101.0, 101.5, 102.0],
                           "process_s": [0.0, 1.0, 2.0, 3.0, 4.0],
                           "loadgen_s": [0.0, 0.25, 0.5, 0.75, 1.0]}},
    }


def level(index, vertices, passes, partitioned=False):
    return {"level": index, "vertices": vertices, "arcs": 4 * vertices,
            "epochs": 10, "passes": passes, "partitioned": partitioned,
            "train_s": 0.5, "partitions": 4 if partitioned else 0,
            "rotations": 2 if partitioned else 0,
            "pair_kernels": 20 if partitioned else 0,
            "switches": 6 if partitioned else 0}


def train_record(workload, level0_partitioned):
    embed = {"ok": True, "status": "ok", "traced": False, "non_finite": 0,
             "wall_s": 2.0, "cpu_s": 8.0, "peak_rss_mib": 60.0,
             "negative_samples": 3,
             "batch_B": 5,
             "levels": [level(0, 1000, 20, level0_partitioned),
                        level(1, 300, 60), level(2, 90, 200)]}
    return {"workload": workload, "setup_s": [0.1, 0.1, 0.1],
            "auc": 0.9, "train_vertices": 1000,
            "train_edges": 4000, "test_edges": 1000,
            "embeds": [embed, copy.deepcopy(embed)]}


class Gates(unittest.TestCase):
    def test_clean_serve_record_passes(self):
        correct, attempted, failed, metrics, _ = derive.evaluate(
            serve_record(), 0)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (50, 0))
        # 800 completions per 1.5 system CPU-seconds in each window.
        self.assertAlmostEqual(metrics["ops_per_cpu_s"], 800 / 1.5)
        self.assertEqual(metrics["setup_s"], 0.3)

    def test_planted_wrong_answer_fails(self):
        raw = serve_record()
        raw["sample"][2]["got"][4][1] += 1  # one score, one ulp off
        correct, _, failed, _, details = derive.evaluate(raw, 0)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)
        self.assertIn("differ from the unsharded exact scan",
                      details["failures"][0])

    def test_planted_swapped_neighbours_fail(self):
        raw = serve_record()
        got = raw["sample"][0]["got"]
        got[0], got[1] = got[1], got[0]
        self.assertFalse(derive.evaluate(raw, 0)[0])

    def test_degraded_and_non_200_answers_fail(self):
        raw = serve_record()
        raw["answer_codes"][7] = 4
        raw["answer_codes"][9] = 2
        correct, _, failed, _, details = derive.evaluate(raw, 0)
        self.assertFalse(correct)
        self.assertEqual(failed, 2)
        self.assertEqual(len(details["failures"]), 2)

    def test_clean_train_records_pass(self):
        for workload, partitioned in (("train-resident", False),
                                      ("train-partitioned", True)):
            correct, attempted, failed, metrics, _ = derive.evaluate(
                train_record(workload, partitioned), 0)
            self.assertTrue(correct, workload)
            self.assertEqual((attempted, failed), (3, 0))
        # 20 x 1000 + 60 x 300 + 200 x 90 positives, 4 updates each, over
        # 8 CPU-seconds.
        _, _, _, metrics, _ = derive.evaluate(
            train_record("train-resident", False), 0)
        self.assertAlmostEqual(metrics["ops_per_cpu_s"],
                               (20000 + 18000 + 18000) * 4 / 8.0)

    def test_partitioned_levels_count_rotation_work(self):
        lv = level(0, 1000, 20, partitioned=True)
        # 2 rotations x B=5 x K=4 parts x 1000 vertices x (1 + 3).
        self.assertEqual(derive.level_samples(lv, 3, 5), 2 * 5 * 4 * 1000 * 4)

    def test_planted_path_identity_violation_fails(self):
        raw = train_record("train-resident", False)
        raw["embeds"][1]["levels"][1]["partitioned"] = True
        correct, _, failed, _, details = derive.evaluate(raw, 0)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)
        self.assertIn("path identity", details["failures"][0])
        raw = train_record("train-partitioned", False)
        self.assertFalse(derive.evaluate(raw, 0)[0])

    def test_low_auc_non_finite_and_failed_embed_fail(self):
        raw = train_record("train-resident", False)
        raw["auc"] = 0.84
        self.assertFalse(derive.evaluate(raw, 0)[0])
        raw = train_record("train-resident", False)
        raw["embeds"][0]["non_finite"] = 3
        self.assertFalse(derive.evaluate(raw, 0)[0])
        raw = train_record("train-resident", False)
        raw["embeds"][0] = {"ok": False, "status": "out_of_memory",
                            "traced": False}
        self.assertFalse(derive.evaluate(raw, 0)[0])


if __name__ == "__main__":
    unittest.main()
