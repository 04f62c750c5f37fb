"""Tests of bench_pairs' summary on fixed numbers.

Run from the repository root: python3 -m unittest tools/test_bench_pairs.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402


def runs(workload, name, unit, parent, change):
    out = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, v in (("parent", p), ("change", c)):
            out.append({"side": side, "workload": workload, "seed": seed, "failed": 0, "attempted": 10,
                        "metrics": {name: {"value": v, "unit": unit}}})
    return out


class SummaryTest(unittest.TestCase):

    def test_quantiles_interpolate_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(bench_pairs.quantile(xs, 0.5), 2.5)
        self.assertEqual(bench_pairs.quantile(xs, 0.25), 1.75)
        self.assertEqual(bench_pairs.quantile(xs, 0.75), 3.25)

    def test_gain_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_parents_iqr(self):
        parent = [10.0, 11, 9, 10, 12, 10, 11, 9, 10, 10]
        change = [7.0, 8, 7, 7, 8, 7, 8, 7, 7, 10.5]  # the last pair lost
        s = bench_pairs.metric_summary(list(zip(parent, change)), "lower", 0.25)
        self.assertEqual(s["change_won_pairs"], 9)
        self.assertEqual(s["parent_median"], 10.0)
        self.assertEqual(s["change_median"], 7.0)
        self.assertEqual(s["parent_quartiles"], [10.0, 10.75])
        self.assertEqual(s["parent_iqr"], 0.75)
        self.assertEqual(s["change_worse_by"], -0.3)
        self.assertEqual(s["verdict"], "gain")
        # two lost pairs: 8 of 10 is not enough, and the gap alone does not count
        change[8] = 10.5
        s = bench_pairs.metric_summary(list(zip(parent, change)), "lower", 0.25)
        self.assertEqual(s["change_won_pairs"], 8)
        self.assertEqual(s["verdict"], "within bound")

    def test_gain_inside_the_parents_iqr_is_not_a_gain(self):
        parent = [10.0, 14, 6, 12, 8, 10, 13, 7, 11, 9]
        change = [p - 0.5 for p in parent]  # wins every pair by less than the IQR
        s = bench_pairs.metric_summary(list(zip(parent, change)), "lower", 0.5)
        self.assertEqual(s["change_won_pairs"], 10)
        self.assertNotEqual(s["verdict"], "gain")

    def test_higher_is_better_metrics_and_ties(self):
        parent = [2.0, 2.0, 2.0, 2.0]
        change = [2.0, 1.0, 1.0, 1.0]
        s = bench_pairs.metric_summary(list(zip(parent, change)), "higher", 0.2)
        self.assertEqual(s["change_won_pairs"], 0)  # the tie counts for neither side
        self.assertEqual(s["change_worse_by"], 0.5)
        self.assertEqual(s["verdict"], "regression")

    def test_identical_and_unresolved(self):
        s = bench_pairs.metric_summary([(4.5, 4.5), (6.2, 6.2)], "lower", 0.25)
        self.assertTrue(s["identical_per_seed"])
        self.assertEqual(s["verdict"], "identical")
        # medians 1.0 vs 1.05, but the parent's runs spread 0.6 around 1.0
        parent = [0.7, 1.0, 1.3, 0.8, 1.2]
        change = [1.0, 1.05, 1.0, 1.1, 1.2]
        s = bench_pairs.metric_summary(list(zip(parent, change)), "lower", 0.25)
        self.assertFalse(s["identical_per_seed"])
        self.assertEqual(s["verdict"], "unresolved")
        # the same medians with a tight spread are within the bound
        s = bench_pairs.metric_summary([(1.0, 1.05), (1.01, 1.04), (0.99, 1.06)], "lower", 0.25)
        self.assertEqual(s["verdict"], "within bound")

    def test_max_rel_diff_per_seed_tells_a_last_bit_change_from_a_real_one(self):
        x = 1234.5678
        s = bench_pairs.metric_summary([(x, x), (2.0, 2.0)], "lower", 0.25)
        self.assertEqual(s["max_rel_diff_per_seed"], 0.0)
        last_bit = x + x * 2.0 ** -52  # the next double above x
        s = bench_pairs.metric_summary([(x, last_bit), (2.0, 2.0)], "lower", 0.25)
        self.assertFalse(s["identical_per_seed"])
        self.assertGreater(s["max_rel_diff_per_seed"], 0.0)
        self.assertLess(s["max_rel_diff_per_seed"], 1e-15)
        # the largest pair decides, relative to the larger magnitude of the two
        s = bench_pairs.metric_summary([(x, last_bit), (2.0, 2.5), (0.0, 0.0)], "lower", 0.25)
        self.assertEqual(s["max_rel_diff_per_seed"], 0.2)

    def test_summarize_pairs_by_seed_and_counts_failures(self):
        rs = runs("w", "wall_s", "s", [10.0, 12.0, 11.0], [8.0, 9.0, 13.0])
        rs[1]["failed"] = 2
        rs.append({"side": "parent", "workload": "w", "seed": 4, "failed": 0, "attempted": 10,
                   "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}})  # its change run is missing
        rs.append({"side": "change", "workload": "w", "seed": 4, "error": "run timed out"})
        s = bench_pairs.summarize(rs, [{"name": "wall_s", "better": "lower", "bound": 0.25}])["w"]
        self.assertEqual(s["wall_s"]["pairs"], 3)
        self.assertEqual(s["wall_s"]["change_won_pairs"], 2)
        self.assertEqual(s["wall_s"]["parent_median"], 11.0)
        self.assertEqual(s["failed"], {"parent": 0, "change": 2})
        self.assertEqual(s["attempted"], {"parent": 40, "change": 30})
        self.assertEqual(s["runs_without_result"], {"parent": 0, "change": 1})

    def test_traced_table_gives_each_sides_median_and_range_per_layer(self):
        def traced(side, w, values):
            return {"side": side, "workload": w, "seed": 1,
                    "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}
        rs = [traced("parent", "w", {"stats.kpca_fit_ms": 2.0, "core.iicp_fit_ms": 9.0}),
              traced("change", "w", {"stats.kpca_fit_ms": 1.0, "core.iicp_fit_ms": 8.0}),
              traced("change", "w", {"stats.kpca_fit_ms": 1.5, "core.iicp_fit_ms": 7.0}),
              traced("parent", "w", {"stats.kpca_fit_ms": 3.0, "core.iicp_fit_ms": 12.0}),
              traced("parent", "w", {"stats.kpca_fit_ms": 2.5, "core.iicp_fit_ms": 10.0}),
              {"side": "change", "workload": "w", "seed": 1, "error": "run timed out"},
              traced("parent", "v", {"gp.predict_us": 40.0})]
        t = bench_pairs.traced_table(rs)
        self.assertEqual(t["w"]["stats.kpca_fit_ms"], {
            "unit": "ms",
            "parent": {"median": 2.5, "min": 2.0, "max": 3.0, "runs": [2.0, 3.0, 2.5]},
            "change": {"median": 1.25, "min": 1.0, "max": 1.5, "runs": [1.0, 1.5]}})
        self.assertEqual(t["w"]["core.iicp_fit_ms"]["parent"]["median"], 10.0)
        self.assertEqual(t["w"]["core.iicp_fit_ms"]["change"]["max"], 8.0)
        # a workload only one side traced has no entry for the other side
        self.assertEqual(t["v"]["gp.predict_us"]["parent"]["runs"], [40.0])
        self.assertIsNone(t["v"]["gp.predict_us"]["change"])

    def test_checkout_info_names_the_commit_and_says_whether_the_tree_is_dirty(self):
        with tempfile.TemporaryDirectory() as repo:
            def git(*argv):
                return subprocess.run(["git", "-C", repo, "-c", "user.name=t", "-c", "user.email=t@t"] + list(argv),
                                      check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
            git("init", "-q")
            with open(os.path.join(repo, "f.txt"), "w") as fh:
                fh.write("one\n")
            git("add", "f.txt")
            git("commit", "-q", "-m", "one")
            head = git("rev-parse", "HEAD")
            self.assertEqual(bench_pairs.checkout_info(repo), {"path": repo, "commit": head, "dirty": False})
            with open(os.path.join(repo, "f.txt"), "w") as fh:
                fh.write("two\n")
            self.assertEqual(bench_pairs.checkout_info(repo), {"path": repo, "commit": head, "dirty": True})

    def test_seed_ranges(self):
        self.assertEqual(bench_pairs.parse_seeds("11-14"), [11, 12, 13, 14])
        self.assertEqual(bench_pairs.parse_seeds("1,3,5-6"), [1, 3, 5, 6])


if __name__ == "__main__":
    unittest.main()
