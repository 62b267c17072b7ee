#!/usr/bin/env python3
"""Compare two versions of the library with interleaved repetitions.

Usage (from the repository root):
    python3 perfbench/ab.py --base OLD_CHECKOUT --new . \
        --workload sim-flowlet-dense --seeds 1,2,3,4,5 --seconds 20

Builds this perfbench/mp5bench.cpp against <base>/src and <new>/src (into
<build>/ab-base and <build>/ab-new). Per seed it alternates whole-run
repetitions of the two binaries, base-new then new-base, until each side
has had about --seconds. Load from other tenants of a shared host then
falls on both sides alike, which two result sets taken at different times
(compare.py) cannot promise. Per seed, each side's end-to-end metrics are
aggregated as run.py aggregates them; the medians over seeds are then
compared against BENCHMARK.json's bounds.

Exit code 1 when a metric of new is worse than base by more than its
bound, a correctness check fails, or the result digests of a seed differ;
0 otherwise.
"""
import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SIDES = ("base", "new")


def paired_reps(binaries, workload, seed, seconds, scale):
    """Repetitions of both binaries on one seed, interleaved."""
    reps = {side: [] for side in SIDES}
    start, rounds = time.monotonic(), 0
    while True:
        t0 = time.monotonic()
        for side in SIDES if rounds % 2 == 0 else SIDES[::-1]:
            extra = [] if reps[side] else ["--verify"]
            reps[side].append(
                run.run_rep(binaries[side], workload, seed, scale, extra))
        rounds += 1
        per_round = time.monotonic() - t0
        if rounds >= run.MIN_REPS and \
                time.monotonic() - start + per_round > 2 * seconds:
            return reps


def verdicts(per_seed, spec):
    """per_seed: {side: [metrics dict of one seed, ...]}, seeds in the same
    order on both sides. Returns rows (name, base median, new median,
    change, bound, seeds where new is better, worse) over seeds."""
    rows = []
    for m in spec["end_to_end"]:
        values = {side: [r[m["name"]]["value"] for r in per_seed[side]]
                  for side in SIDES}
        base = statistics.median(values["base"])
        new = statistics.median(values["new"])
        change = (new - base) / base
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (n - b) < 0
                   for b, n in zip(values["base"], values["new"]))
        rows.append((m["name"], base, new, change, m["bound"], wins,
                     sign * change > m["bound"]))
    return rows


def main():
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout to compare "
                        "against (its src/ is built)")
    parser.add_argument("--new", default=run.ROOT)
    parser.add_argument("--workload", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per side per seed")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload.split(",")
    for w in workloads:
        if w not in names:
            raise run.BenchError(f"unknown workload '{w}'")
    seeds = [int(s) for s in args.seeds.split(",")]

    top = os.path.dirname(run.build_dir())
    binaries = {side: run.build(root, os.path.join(top, f"ab-{side}"))
                for side, root in (("base", args.base), ("new", args.new))}
    bad = False
    for w in workloads:
        per_seed = {side: [] for side in SIDES}
        for seed in seeds:
            reps = paired_reps(binaries, w, seed, args.seconds, args.scale)
            digests = {}
            for side in SIDES:
                ok, why = run.consistent(reps[side])
                if not ok:
                    print(f"{w} seed {seed}: {side} failed its check: {why}")
                    bad = True
                digests[side] = reps[side][0]["digest"]
                per_seed[side].append(
                    run.end_to_end_metrics(reps[side], spec))
            if digests["base"] != digests["new"]:
                print(f"{w} seed {seed}: result digests differ "
                      f"({digests['base']} != {digests['new']}): the "
                      f"simulated outputs changed")
                bad = True
            run.log(f"{w} seed {seed}: {len(reps['base'])} rounds")
        print(f"{w}, seeds {args.seeds}, medians over seeds")
        print(f"  {'metric':<16}{'base':>14}{'new':>14}{'change':>9}"
              f"  bound  new better")
        for name, base, new, change, bound, wins, worse in \
                verdicts(per_seed, spec):
            print(f"  {name:<16}{base:>14.6g}{new:>14.6g}"
                  f"{100 * change:>8.1f}%  {bound:.2f}"
                  f"  {wins}/{len(seeds)}" + ("  WORSE" if worse else ""))
            bad = bad or worse
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (run.BenchError, OSError, ValueError) as e:
        run.log(f"perfbench: {e}")
        sys.exit(1)
