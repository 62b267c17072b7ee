#!/usr/bin/env python3
"""Coverage ratchet: every src/ and tools/ function that no test runs is listed.

Usage:
    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -E perfbench_selftest -j
    python3 tools/coverage_gate.py build-cov

Runs `gcov --json-format` over every object of the build and collects the
functions of the repository's src/ and tools/ whose execution count is zero
in every object that holds them. A function is keyed by its source file and
its demangled name (a template or lambda instance is its own function), not
by line, so unrelated edits do not move the list.

The list is compared with the ratchet file (tools/coverage_ratchet.json, a
JSON list of {"file", "function", "reason"}) in both directions. The gate
fails when a function never runs and is not listed (test it or delete it),
when a listed function now runs or no longer exists (take it off the list),
and when an entry has no reason. Exit status 0 means the list is exact.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SCOPES = ("src/", "tools/")


def source_root(build: pathlib.Path) -> pathlib.Path:
    """The source tree the build was configured from (CMAKE_HOME_DIRECTORY)."""
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return pathlib.Path(line.split("=", 1)[1]).resolve()
    sys.exit(f"coverage_gate: {build}/CMakeCache.txt names no source directory")


def function_counts(build: pathlib.Path, root: pathlib.Path) -> dict:
    """(file, demangled name) -> execution count summed over every object."""
    notes = sorted(str(p) for p in build.resolve().rglob("*.gcno"))
    if not notes:
        sys.exit(f"coverage_gate: no .gcno files under {build} "
                 "(configure it with --coverage)")
    counts = {}
    with tempfile.TemporaryDirectory() as scratch:
        out = subprocess.run(["gcov", "--json-format", "--stdout", *notes],
                             cwd=scratch, check=True, capture_output=True,
                             text=True).stdout
    for line in out.splitlines():
        if not line.startswith("{"):
            continue
        for entry in json.loads(line)["files"]:
            path = pathlib.Path(entry["file"])
            if not path.is_absolute():
                continue
            try:
                rel = path.resolve().relative_to(root).as_posix()
            except ValueError:
                continue
            if not rel.startswith(SCOPES):
                continue
            for fn in entry["functions"]:
                key = (rel, fn["demangled_name"])
                counts[key] = counts.get(key, 0) + fn["execution_count"]
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build", type=pathlib.Path,
                        help="a --coverage build directory after its tests ran")
    args = parser.parse_args()
    ratchet = pathlib.Path(__file__).with_name("coverage_ratchet.json")

    counts = function_counts(args.build, source_root(args.build))
    never_run = {key for key, n in counts.items() if n == 0}
    entries = json.loads(ratchet.read_text())
    listed = {(e["file"], e["function"]) for e in entries}

    problems = []
    for key in sorted(never_run - listed):
        problems.append(f"never runs, not listed (test or delete it): "
                        f"{key[0]}: {key[1]}")
    for key in sorted(listed - never_run):
        state = "runs now" if key in counts else "no longer exists"
        problems.append(f"listed, but {state} (take it off the list): "
                        f"{key[0]}: {key[1]}")
    for e in entries:
        if not e.get("reason", "").strip():
            problems.append(f"listed without a reason: {e['file']}: "
                            f"{e['function']}")

    ran = sum(1 for n in counts.values() if n > 0)
    print(f"coverage_gate: {ran} of {len(counts)} src/+tools/ functions ran; "
          f"{len(never_run)} never ran, {len(listed)} listed in "
          f"{os.path.relpath(ratchet)}")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
