#!/usr/bin/env python3
"""Two runs of one command on one seed write the same results document once
the run envelope's host, build and profile sections are removed.

Usage: check_determinism.py MP5SIM MP5FABRIC MP5NATIVE WORKDIR

Runs each case twice, compares the stripped documents with json.load
(key order is not part of the contract), and also requires the native
backend's digest to be the same at one and two cores. Two more cases
resume mp5sim from a mid-run checkpoint (the MP5 design with telemetry,
and the relaxed design) and require the resumed run's document to equal
the uninterrupted run's. Exits 1 on the first difference.
"""
import json
import os
import subprocess
import sys

NON_DETERMINISTIC = ("host", "build", "profile")


def document(command, path):
    subprocess.run(command + ["--json", path], check=True,
                   stdout=subprocess.DEVNULL)
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    for key in NON_DETERMINISTIC:
        del doc[key]
    return doc


def resumed_document(command, workdir, label):
    """The document of `command` resumed from the last checkpoint a
    checkpointing run of it wrote. The telemetry event ring records only
    the resumed segment (the checkpoint carries every count and histogram
    the telemetry export reads, not the ring), so its summary is
    removed."""
    ckpt = os.path.join(workdir, f"{label}.ckpt")
    subprocess.run(command + ["--checkpoint-interval", "400",
                              "--checkpoint-out", ckpt],
                   check=True, stdout=subprocess.DEVNULL)
    doc = document(command + ["--restore", ckpt],
                   os.path.join(workdir, f"{label}-resumed.json"))
    if doc.get("telemetry") is not None:
        del doc["telemetry"]["events"]
    return doc


def main(argv):
    if len(argv) != 5:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    mp5sim, mp5fabric, mp5native, workdir = argv[1:]
    os.makedirs(workdir, exist_ok=True)
    sim = [mp5sim, "--builtin", "flowlet", "--packets", "3000", "--seed", "5"]
    native = [mp5native, "--builtin", "flowlet", "--packets", "20000",
              "--seed", "5", "--check", "--quiet"]
    cases = {
        "mp5sim mp5": sim + ["--telemetry"],
        "mp5sim relaxed": sim + ["--design", "relaxed", "--staleness", "16"],
        "mp5fabric conga": [mp5fabric, "--flows", "400", "--lb", "conga",
                            "--seed", "5", "--telemetry", "--quiet"],
        "mp5native --cores 1": native + ["--cores", "1"],
        "mp5native --cores 2": native + ["--cores", "2"],
    }
    docs = {}
    for i, (label, command) in enumerate(cases.items()):
        first, again = (document(command,
                                 os.path.join(workdir, f"case{i}-{n}.json"))
                        for n in (1, 2))
        if first != again:
            print(f"FAIL {label}: two runs wrote different documents "
                  f"(case{i}-1.json, case{i}-2.json)", file=sys.stderr)
            return 1
        print(f"ok   {label}: digest {first['digest']}")
        docs[label] = first
    one, two = (docs[f"mp5native --cores {k}"]["digest"] for k in (1, 2))
    if one != two:
        print(f"FAIL mp5native: digest {one} at one core, {two} at two",
              file=sys.stderr)
        return 1
    for label, tag in (("mp5sim mp5", "resume-mp5"),
                       ("mp5sim relaxed", "resume-relaxed")):
        whole = docs[label]
        if whole.get("telemetry") is not None:
            del whole["telemetry"]["events"]
        if resumed_document(cases[label], workdir, tag) != whole:
            print(f"FAIL {label}: the run resumed from a checkpoint wrote a "
                  f"different document ({tag}-resumed.json)", file=sys.stderr)
            return 1
        print(f"ok   {label}: resumed run matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
