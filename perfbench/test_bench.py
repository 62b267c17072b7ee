#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload at a tiny input size through perfbench/run.py in both
modes and checks that every metric BENCHMARK.json names is printed with its
unit, that the correctness check passes on real results and fails on a
deliberately corrupted copy, that every layer a workload exercises reads
non-zero, that the span coverage check catches untimed gaps, that
perfbench/compare.py refuses result sets from different hosts, and that
perfbench/ab.py flags a metric worse than its bound.

Run from the repository root:
    python3 perfbench/test_bench.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import ab  # noqa: E402
import run  # noqa: E402

SCALE = "0.01"
SEED = "7"

# Per-layer metrics each workload exercises, by name prefix; each must read
# non-zero there. ZERO_OK may legitimately be 0: no parks, no reordering,
# and no wasted FIFO pops, which phantoms prevent under mp5_options.
EXERCISED = {
    "sim-flowlet-dense": ("domino.", "mp5.", "trace.gen_s", "sim.", "fifo.",
                          "phantom.", "shard.", "verify."),
    "sim-flowlet-sparse-faults": ("domino.", "mp5.", "trace.gen_s", "sim.",
                                  "fifo.", "phantom.", "shard.", "verify."),
    "native-flowlet": ("domino.", "mp5.", "trace.", "native.", "verify."),
    "fabric-conga": ("fabric.", "sim.norm_throughput", "sim.latency_"),
}
ZERO_OK = {"native.parks_per_pkt", "fabric.reordered", "fifo.pop_wasted"}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "0.1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.binary = run.build()

    def test_every_metric_is_printed_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[group]}
                    self.assertEqual(set(result["metrics"]), set(want))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)
                        if trace == 0 or (
                                name.startswith(EXERCISED[w["name"]]) and
                                name not in ZERO_OK):
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_result_fails_the_check(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                base = [self.binary, "--workload", w["name"], "--seed", SEED,
                        "--scale", SCALE, "--verify"]
                good = run.run_rep(self.binary, w["name"], SEED, float(SCALE),
                                   ["--verify"])
                self.assertTrue(good["correct"], good["why"])
                proc = subprocess.run(base + ["--corrupt"],
                                      stdout=subprocess.PIPE, text=True,
                                      check=True)
                bad = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(bad["correct"])
                self.assertTrue(bad["why"])
                ok, _ = run.consistent([bad])
                self.assertFalse(ok)

    def test_span_check_catches_uncovered_wall_time(self):
        covered = {"spans": [["wall", 0, 1000, -1], ["setup", 0, 400, 0],
                             ["sim.run", 400, 995, 0]]}
        run.check_spans(covered, False)   # 5 of 1000 ns uncovered: passes
        gap = {"spans": [["wall", 0, 1000, -1], ["setup", 0, 400, 0],
                         ["sim.run", 500, 1000, 0]]}
        with self.assertRaises(run.BenchError):
            run.check_spans(gap, False)

    def test_ab_flags_only_metrics_past_their_bound(self):
        def seed(wall, rate):
            return {m["name"]: {"value": v, "unit": m["unit"]}
                    for m, v in zip(self.spec["end_to_end"],
                                    (0.01, wall, rate, 10.0))}
        base = [seed(1.0, 100.0), seed(1.1, 90.0), seed(0.9, 110.0)]
        same = ab.verdicts({"base": base, "new": base}, self.spec)
        self.assertFalse(any(row[-1] for row in same))
        slower = [seed(1.5, 100.0), seed(1.6, 90.0), seed(1.4, 110.0)]
        rows = {row[0]: row for row in
                ab.verdicts({"base": base, "new": slower}, self.spec)}
        self.assertTrue(rows["wall_s"][-1])
        self.assertEqual(rows["wall_s"][5], 0)   # new better on no seed
        self.assertFalse(rows["pkts_per_s"][-1])

    def test_compare_refuses_other_hosts(self):
        record = {"fingerprint": {"host": {"affinity_cpus": 4},
                                  "git_sha": "a", "source": "b"},
                  "workload": "fabric-conga", "seed": 1, "trace": 0,
                  "scale": 1.0, "digest": "0",
                  "result": {"metrics": {"wall_s": {"value": 1.0,
                                                    "unit": "s"}}}}
        other = copy.deepcopy(record)
        other["fingerprint"]["host"]["affinity_cpus"] = 1
        with tempfile.TemporaryDirectory(dir=os.path.dirname(
                run.build_dir())) as tmp:
            paths = []
            for i, r in enumerate((record, other, record)):
                paths.append(os.path.join(tmp, f"{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(r, f)
            compare = [sys.executable, os.path.join(HERE, "compare.py")]
            refused = subprocess.run(compare + paths[:2],
                                     stdout=subprocess.PIPE, text=True)
            self.assertEqual(refused.returncode, 2)
            self.assertEqual(len(refused.stdout.strip().splitlines()), 1)
            self.assertIn("affinity_cpus", refused.stdout)
            same = subprocess.run(compare + [paths[0], paths[2]],
                                  stdout=subprocess.PIPE, text=True)
            self.assertEqual(same.returncode, 0, same.stdout)


if __name__ == "__main__":
    unittest.main()
