#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload sim-flowlet-dense --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (which builds ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each
repetition is one fresh mp5bench process doing one whole run: setup
(compile, trace generation, executor construction) at least five times,
whose median round is its setup_s, then the run call. Repetitions continue
until --seconds is used up. Host times and rates are the mean of the best
quarter of the repetitions; everything else is a median.

--trace 0 prints the end-to-end metrics of untraced repetitions.
--trace 1 alternates traced and untraced repetitions and prints the
per-layer metrics of the traced ones, plus tracing.overhead_frac. It also
writes a Chrome-trace JSON of the first traced repetition (open it in
Perfetto) and prints each span's self time to stderr. It fails when more
than 2% of a traced wall lies outside every layer span.

Correctness is checked outside the timed window: the first repetition (and
every traced one) is verified against the reference, and every other
repetition must reproduce the verified one's result digest.

Every invocation also writes its full result set, with the host
fingerprint, to <build>/results/; perfbench/compare.py compares two of
them and refuses when the hosts differ. Result sets taken at different
times on a shared host can differ by more than the bounds; perfbench/ab.py
interleaves two versions' repetitions instead. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3           # untraced repetitions per --trace 0 run
MIN_TRACED_PAIRS = 2   # traced + untraced pairs per --trace 1 run
REP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(src_root=ROOT, out=None):
    """Configure (once) and build mp5bench against <src_root>/src into
    `out` (default build_dir()); returns the binary's path."""
    src = os.path.join(os.path.abspath(src_root), "src")
    if not os.path.isfile(os.path.join(src, "CMakeLists.txt")):
        raise BenchError(f"no src/CMakeLists.txt in {src_root}: "
                         "nothing to build")
    out = out or build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", f"-DMP5_SRC={src}"])
    steps.append(["cmake", "--build", out, "--target", "mp5bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd[:2]))
    return os.path.join(out, "mp5bench")


def source_digest():
    """sha256 over the benchmark's and the library's source files."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(
        ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def fingerprint(binary):
    proc = subprocess.run([binary, "--fingerprint"], stdout=subprocess.PIPE,
                          text=True, check=True)
    host = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"host": host, "git_sha": git_sha(), "source": source_digest()}


def run_rep(binary, workload, seed, scale, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition exceeded {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: mp5bench exited {proc.returncode}: "
                         + proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


MAX_UNCOVERED = 0.02   # most of a traced wall that may lie outside layers


def self_times(spans):
    """Self time of every span: its duration minus the part its children
    cover."""
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    own = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children.get(i, []), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own.append((end - start) - covered)
    return own


def check_spans(rep, show):
    """The layer spans under the root `wall` span must cover it: time in
    `wall` that no layer span accounts for (its own self time) must stay
    below MAX_UNCOVERED of the traced wall. With `show`, prints each span
    name's self time to stderr."""
    spans = rep["spans"]
    own = self_times(spans)
    walls = [i for i, s in enumerate(spans) if s[0] == "wall" and s[3] == -1]
    if len(walls) != 1:
        raise BenchError(f"expected one root wall span, found {len(walls)}")
    wall = walls[0]
    wall_ns = spans[wall][2] - spans[wall][1]
    if own[wall] > MAX_UNCOVERED * wall_ns:
        raise BenchError(f"{own[wall]} ns of the {wall_ns} ns traced wall "
                         f"are outside every layer span")
    if show:
        by_name = {}
        for (name, _, _, _), ns in zip(spans, own):
            by_name[name] = by_name.get(name, 0) + ns
        log(f"{'span':<18}{'self ms':>12}{'of wall':>9}")
        for name, ns in by_name.items():
            share = "       -" if name.startswith("verify") else \
                f"{100.0 * ns / wall_ns:8.2f}%"
            log(f"{name:<18}{ns / 1e6:12.3f}{share}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def consistent(reps):
    """Correctness over a run: every verified repetition passed, and every
    repetition reproduced the same deterministic result digest."""
    verified = [r for r in reps if r["verified"]]
    if not verified:
        return False, "no repetition was verified"
    for r in verified:
        if not r["correct"]:
            return False, r["why"]
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        return False, f"result digests differ across repetitions: {digests}"
    return True, ""


def untraced(binary, args):
    reps, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(run_rep(binary, args.workload, args.seed, args.scale,
                            ["--verify"] if not reps else []))
        per_rep = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
            return reps


def traced(binary, args):
    """Traced and untraced repetitions alternate (native adds a 1-worker
    repetition per round, for native.scaling)."""
    kinds = ["traced", "untraced"]
    if args.workload == "native-flowlet":
        kinds.append("one-worker")
    trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir,
                              f"{args.workload}-seed{args.seed}.json")
    reps, start, rounds = [], time.monotonic(), 0
    while True:
        t0 = time.monotonic()
        for kind in kinds:
            extra = []
            if kind == "traced":
                extra = ["--traced", "--verify"]
                if rounds == 0:
                    extra += ["--trace-out", trace_path]
            elif kind == "one-worker":
                extra = ["--workers", "1"]
            rep = run_rep(binary, args.workload, args.seed, args.scale, extra)
            rep["kind"] = kind
            reps.append(rep)
        rounds += 1
        per_round = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if rounds >= MIN_TRACED_PAIRS and elapsed + per_round > args.seconds:
            log(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
            return reps


def best_quarter(values, higher_is_better=False):
    """Mean of the best quarter of the repetitions (at least one).

    Other tenants of a shared host only ever slow a repetition down, in
    bursts that can cover most of a run, so a run's median moves with the
    host while its best repetitions track the code (README.md gives the
    measured spreads of both)."""
    ordered = sorted(values, reverse=higher_is_better)
    return statistics.mean(ordered[:max(1, (len(ordered) + 3) // 4)])


HOST_TIME_UNITS = ("s", "ns", "1/s")


def summarize(values, metric):
    """Host times and rates take the best quarter; counts and ratios of
    counts, which the host cannot slow down, take the median."""
    if metric["unit"] in HOST_TIME_UNITS:
        return best_quarter(values, metric["better"] == "higher")
    return statistics.median(values)


def end_to_end_metrics(reps, spec):
    return {m["name"]: {"value": summarize([r[m["name"]] for r in reps], m),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer_metrics(reps, spec):
    by_kind = {}
    for r in reps:
        by_kind.setdefault(r["kind"], []).append(r)
    tr, un = by_kind["traced"], by_kind["untraced"]
    for i, r in enumerate(tr):
        check_spans(r, i == 0)
    samples = {}
    for r in tr:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    values = {m["name"]: summarize(samples[m["name"]], m)
              for m in spec["per_layer"] if m["name"] in samples}
    # wall_s (median setup round + run call) on both sides: the traced
    # `wall` span also holds every setup round and teardown.
    values["tracing.overhead_frac"] = \
        best_quarter([r["wall_s"] for r in tr]) / \
        best_quarter([r["wall_s"] for r in un]) - 1.0
    if "one-worker" in by_kind:
        full = best_quarter([r["pkts_per_s"] for r in un], True)
        one = best_quarter([r["pkts_per_s"] for r in by_kind["one-worker"]],
                           True)
        values["native.scaling"] = full / one
        values["native.cost_ratio"] = full / values["verify.ref_pkts_per_s"]
    # A layer the workload does not exercise reads 0 (see README.md).
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (tests use a tiny one)")
    args = parser.parse_args()

    binary = build()
    finger = fingerprint(binary)
    reps = traced(binary, args) if args.trace else untraced(binary, args)
    ok, why = consistent(reps)
    if not ok:
        log(f"correctness check failed: {why}")
    metrics = per_layer_metrics(reps, spec) if args.trace else \
        end_to_end_metrics(reps, spec)
    first = next(r for r in reps if r["verified"])
    attempted = first["offered"]
    failed = (first["offered"] - first["delivered"] - first["declared_drops"]
              if ok else attempted)
    result = {"correct": ok, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    results_dir = os.path.join(os.path.dirname(build_dir()), "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"fingerprint": finger, "workload": args.workload,
              "seed": args.seed, "trace": args.trace, "scale": args.scale,
              "digest": first["digest"], "reps": reps, "result": result}
    scale = "" if args.scale == 1.0 else f"-scale{args.scale:g}"
    path = os.path.join(
        results_dir,
        f"{args.workload}-seed{args.seed}-trace{args.trace}{scale}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
        f"digest {first['digest']}, host {json.dumps(finger['host'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
