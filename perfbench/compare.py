#!/usr/bin/env python3
"""Compare two perfbench result sets and flag metrics worse than their bound.

Usage:
    python3 perfbench/compare.py BASE.json NEW.json

Both files are written by perfbench/run.py (under <build>/results/). The
comparison is refused, with a one-line reason and exit code 2, when the two
result sets come from different hosts (CPU affinity count, hardware
concurrency, cgroup CPU quota, compiler, build type) or measure different
things (workload, trace mode, input scale). The git sha and source digest
are printed but may differ: comparing two commits is the point.

Exit code 1 when a metric is worse than BENCHMARK.json's bound or the
result digests differ; 0 otherwise.

The host fingerprint cannot see other tenants. On a shared host two result
sets of the same code taken minutes apart have differed by more than the
bounds (perfbench/README.md); perfbench/ab.py interleaves the two versions'
repetitions so that such load falls on both alike.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def refusal(base, new):
    for key in sorted(set(base["fingerprint"]["host"]) |
                      set(new["fingerprint"]["host"])):
        a = base["fingerprint"]["host"].get(key)
        b = new["fingerprint"]["host"].get(key)
        if a != b:
            return f"host fingerprints differ: {key} {a!r} != {b!r}"
    for key in ("workload", "trace", "scale"):
        if base[key] != new[key]:
            return f"result sets differ in {key}: {base[key]!r} != {new[key]!r}"
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    why = refusal(base, new)
    if why:
        print(f"compare refused: {why}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    for label, r in (("base", base), ("new", new)):
        fp = r["fingerprint"]
        print(f"{label}: seed {r['seed']}, git {fp['git_sha'][:12]}, "
              f"source {fp['source']}, digest {r['digest']}")
    bad = base["digest"] != new["digest"] and base["seed"] == new["seed"]
    if bad:
        print("result digests differ: the simulated outputs changed")
    print(f"{'metric':<26}{'base':>14}{'new':>14}{'change':>9}  bound")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None or name not in metrics:
            continue
        m = metrics[name]
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = ""
        if "bound" in m:
            verdict = f"{m['bound']:.2f}"
            if worse > m["bound"]:
                verdict += "  WORSE"
                bad = True
        print(f"{name:<26}{b['value']:>14.6g}{n['value']:>14.6g}"
              f"{100 * change:>8.1f}%  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
