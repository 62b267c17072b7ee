#!/usr/bin/env python3
"""Validate MP5 machine-readable artifacts (stdlib only).

Checks any mix of the JSON schemas this repo emits, plus the binary
checkpoint format:

  mp5-results        mp5sim --json            (schema_version 2)
  mp5-chrome-trace   mp5sim --trace-out       (schema_version 1)
  mp5-bench          bench_* BENCH_<name>.json (schema_version 1)
  mp5-fuzz-repro     mp5fuzz reproducers       (schema_version 1)
  mp5-fabric-results mp5fabric --json          (schema_version 2)
  mp5-native-results mp5native --json          (schema_version 2)
  mp5-checkpoint     mp5sim --checkpoint-out   (binary, version 1)

The three results documents (version 2) share one run envelope: host,
build, the run's result digest and a non-deterministic profile section.

Usage:  validate_results.py FILE [FILE...]

The schema is sniffed per file (the binary checkpoint magic at offset 0,
a top-level "schema" key, or the Chrome trace's "traceEvents"/"otherData"
envelope), so callers can pass results, traces, bench reports and
checkpoints in one invocation. Exits nonzero on the first malformed file
with a one-line diagnostic naming the file and the check.
"""

import json
import math
import re
import struct
import sys

SUPPORTED_VERSIONS = {
    "mp5-results": 2,
    "mp5-chrome-trace": 1,
    "mp5-bench": 1,
    "mp5-fuzz-repro": 1,
    "mp5-fabric-results": 2,
    "mp5-native-results": 2,
}


class ValidationError(Exception):
    pass


def fail(msg):
    raise ValidationError(msg)


def require(obj, key, types, where):
    if not isinstance(obj, dict):
        fail(f"{where}: expected object, got {type(obj).__name__}")
    if key not in obj:
        fail(f"{where}: missing required key '{key}'")
    if not isinstance(obj[key], types):
        names = (
            types.__name__
            if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        fail(f"{where}: '{key}' must be {names}, "
             f"got {type(obj[key]).__name__}")
    return obj[key]


NUM = (int, float)
NULL = type(None)


def keys(names, types):
    """A shape fragment: each space-separated name in `names` of `types`."""
    return dict.fromkeys(names.split(), types)


def check_shape(obj, shape, where):
    """require() every key of `shape` (name -> types, or name -> shape of a
    nested object) in `obj`; returns `obj`."""
    for key, types in shape.items():
        if isinstance(types, dict):
            check_shape(require(obj, key, dict, where), types,
                        f"{where}.{key}")
        else:
            require(obj, key, types, where)
    return obj


def check_version(doc, schema, where):
    version = require(doc, "schema_version", int, where)
    expected = SUPPORTED_VERSIONS[schema]
    if version != expected:
        fail(f"{where}: unsupported {schema} schema_version {version} "
             f"(this validator knows {expected})")


# The run envelope of the three results documents (run_envelope.hpp):
# profile is their only section that may differ between two runs.
ENVELOPE = {
    "host": {**keys("usable_cpus affinity_cpus hardware_concurrency", int),
             "cpu_max": (int, NULL)},
    "build": keys("compiler compiler_version build_type cxx_flags git_sha",
                  str),
    "digest": str,
    "profile": (dict, NULL),
}


def check_envelope(doc, schema, where):
    check_version(doc, schema, where)
    check_shape(doc, ENVELOPE, where)
    if not re.fullmatch(r"0x[0-9a-f]{16}", doc["digest"]):
        fail(f"{where}: digest '{doc['digest']}' is not 0x<16 hex>")


def check_metric_map(obj, where):
    """A {name: number} map — counters, gauges, or bench metrics."""
    if not isinstance(obj, dict):
        fail(f"{where}: expected object of named numbers")
    for name, value in obj.items():
        if not isinstance(value, NUM):
            fail(f"{where}: metric '{name}' is not a number")


def check_telemetry_section(telem, where):
    check_metric_map(require(telem, "counters", dict, where),
                     f"{where}.counters")
    check_metric_map(require(telem, "gauges", dict, where),
                     f"{where}.gauges")
    histograms = require(telem, "histograms", dict, where)
    for name, hist in histograms.items():
        hwhere = f"{where}.histograms['{name}']"
        # Empty histograms quantile to NaN, which the writer emits as
        # null; both shapes are legal.
        check_shape(hist, {"bucket_width": NUM, "total": int,
                           **keys("p50 p90 p99", (int, float, NULL)),
                           "buckets": list}, hwhere)
        total = hist["total"]
        for q in ("p50", "p90", "p99"):
            if total == 0 and isinstance(hist[q], NUM):
                fail(f"{hwhere}: empty histogram has non-null {q}")
        if sum(int(b) for b in hist["buckets"]) != total:
            fail(f"{hwhere}: bucket sum != total")
    events = require(telem, "events", (dict, NULL), where)
    if events is not None:
        ewhere = f"{where}.events"
        check_shape(events, keys("capacity recorded retained dropped", int),
                    ewhere)
        capacity, recorded, retained, dropped = (
            events[k] for k in ("capacity", "recorded", "retained", "dropped"))
        if retained > capacity:
            fail(f"{ewhere}: retained {retained} exceeds capacity {capacity}")
        if retained + dropped != recorded:
            fail(f"{ewhere}: retained + dropped != recorded")


# Telemetry counters that must equal a field of the run's own result (of
# each switch's entry, for fabric results): the simulator counts each event
# once and exports it, so any difference means the telemetry covers a
# different run (e.g. only a resumed segment).
RESULT_TWINS = (
    ("sim.admitted", "packets", "offered"),
    ("sim.egressed", "packets", "egressed"),
    ("sim.steers", "mechanics", "steers"),
    ("fifo.pop_blocked", "mechanics", "blocked_cycles"),
    ("fifo.pop_wasted", "mechanics", "wasted_cycles"),
    ("shard.rebalance_moves", "mechanics", "remap_moves"),
)

# SimResult's 25 counters by mp5-results section. This is the validator's
# own list, kept apart from the C++ table on purpose: a counter the C++
# side drops from its table must fail here.
SIM_COUNTERS = {
    "packets": keys("offered egressed dropped_phantom dropped_data "
                    "dropped_starved dropped_fault ecn_marked", int),
    "timing": keys("first_arrival last_arrival last_egress cycles_run", int),
    "mechanics": keys("steers wasted_cycles blocked_cycles remap_moves "
                      "recirculations max_queue_depth", int),
    "faults": keys("pipeline_failures pipeline_recoveries "
                   "fault_remapped_indices phantom_lost phantom_delayed "
                   "stalled_cycles time_to_recover", int),
    "correctness": keys("c1_violating_packets", int),
}


def check_twin(counters, name, expected, where):
    if name not in counters:
        fail(f"{where}: telemetry counter '{name}' is missing")
    if counters[name] != expected:
        fail(f"{where}: telemetry counter '{name}' = {counters[name]} "
             f"but the result says {expected}")


def check_staleness(variant, staleness, where):
    if variant == "relaxed" and staleness < 1:
        fail(f"{where}: relaxed variant needs staleness >= 1")
    if variant != "relaxed" and staleness != 0:
        fail(f"{where}: staleness is only meaningful for the relaxed "
             "variant")


def validate_results(doc, where):
    if doc["profile"] is not None:
        require(doc["profile"], "wall_seconds", NUM, f"{where}.profile")
    meta = check_shape(require(doc, "meta", dict, where),
                       {**keys("design variant program", str),
                        **keys("staleness pipelines packets seed", int),
                        "load": NUM}, f"{where}.meta")
    if meta["variant"] not in FUZZ_VARIANTS:
        fail(f"{where}.meta: variant '{meta['variant']}' not in "
             f"{sorted(FUZZ_VARIANTS)}")
    check_staleness(meta["variant"], meta["staleness"], f"{where}.meta")

    check_shape(doc, SIM_COUNTERS, where)
    packets = doc["packets"]
    accounted = sum(packets[k] for k in ("egressed", "dropped_data",
                                         "dropped_starved", "dropped_fault"))
    if accounted > packets["offered"]:
        fail(f"{where}.packets: conservation violated "
             f"({accounted} accounted > {packets['offered']} offered)")

    check_shape(doc, {"timing": keys("input_rate normalized_throughput", NUM),
                      "correctness": keys("c1_fraction drop_fraction", NUM)},
                where)
    for key in ("c1_fraction", "drop_fraction"):
        v = doc["correctness"][key]
        if not 0.0 <= v <= 1.0:
            fail(f"{where}.correctness: {key}={v} outside [0, 1]")

    telem = require(doc, "telemetry", (dict, NULL), where)
    if telem is not None:
        check_telemetry_section(telem, f"{where}.telemetry")
        for name, section, key in RESULT_TWINS:
            check_twin(telem["counters"], name, doc[section][key],
                       f"{where}.telemetry")


def validate_chrome_trace(doc, where):
    other = require(doc, "otherData", dict, where)
    schema = require(other, "schema", str, f"{where}.otherData")
    if schema != "mp5-chrome-trace":
        fail(f"{where}.otherData: schema '{schema}' != 'mp5-chrome-trace'")
    check_version(other, "mp5-chrome-trace", f"{where}.otherData")
    check_shape(other, {**keys("events_recorded events_dropped", int),
                        "counters": dict}, f"{where}.otherData")
    recorded, dropped = other["events_recorded"], other["events_dropped"]
    check_metric_map(other["counters"], f"{where}.otherData.counters")

    events = require(doc, "traceEvents", list, where)
    instants = [e for e in events if e.get("ph") == "i"]
    if recorded > 0 and not instants:
        fail(f"{where}: recorded {recorded} events but traceEvents has "
             f"no instant events")
    if len(instants) + dropped != recorded:
        fail(f"{where}: instant events ({len(instants)}) + dropped "
             f"({dropped}) != recorded ({recorded})")
    last_ts = None
    for i, ev in enumerate(events):
        ewhere = f"{where}.traceEvents[{i}]"
        check_shape(ev, {**keys("name ph", str), "pid": int}, ewhere)
        if ev["ph"] == "M":
            continue
        check_shape(ev, keys("tid ts", int), ewhere)
        ts = ev["ts"]
        if last_ts is not None and ts < last_ts:
            fail(f"{ewhere}: timestamps not monotonic ({ts} < {last_ts})")
        last_ts = ts


def validate_bench(doc, where):
    require(doc, "bench", str, where)
    rows = require(doc, "rows", list, where)
    if not rows:
        fail(f"{where}: rows must be non-empty")
    seen = set()
    for i, row in enumerate(rows):
        rwhere = f"{where}.rows[{i}]"
        name = require(row, "name", str, rwhere)
        if name in seen:
            fail(f"{rwhere}: duplicate row name '{name}'")
        seen.add(name)
        metrics = require(row, "metrics", dict, rwhere)
        if not metrics:
            fail(f"{rwhere}: metrics must be non-empty")
        check_metric_map(metrics, f"{rwhere}.metrics")
        labels = require(row, "labels", dict, rwhere)
        for key, value in labels.items():
            if not isinstance(value, str):
                fail(f"{rwhere}.labels: '{key}' is not a string")


FUZZ_EXPECT = {"pass", "oracle-divergence", "sim-divergence",
               "checkpoint-divergence", "crash", "variant-divergence"}
FUZZ_VARIANTS = {"mp5", "scr", "relaxed"}
# ShardingPolicy's one set of names (mp5/shard_map.hpp): the fuzz corpus
# and mp5-native-results both use it.
SHARDING_POLICIES = {"dynamic", "static-random", "single-pipeline",
                     "ideal-lpt"}


def validate_repro(doc, where):
    expect = require(doc, "expect", str, where)
    if expect not in FUZZ_EXPECT:
        fail(f"{where}: expect '{expect}' not in {sorted(FUZZ_EXPECT)}")
    check_shape(doc, {"seed": int, "inject_floor_mod_bug": bool,
                      "detail": str}, where)
    program = require(doc, "program", str, where)
    if not program.endswith(".dom"):
        fail(f"{where}: program '{program}' must end in .dom")
    trace = require(doc, "trace", str, where)
    if not trace.endswith(".trace.csv"):
        fail(f"{where}: trace '{trace}' must end in .trace.csv")
    config = require(doc, "config", dict, where)
    cwhere = f"{where}.config"
    for key in ("pipelines", "remap_period"):
        if require(config, key, int, cwhere) < 1:
            fail(f"{cwhere}: {key} must be >= 1")
    sharding = require(config, "sharding", str, cwhere)
    if sharding not in SHARDING_POLICIES:
        fail(f"{cwhere}: sharding '{sharding}' not in "
             f"{sorted(SHARDING_POLICIES)}")
    # Older files also carry the selector keys of retired cycle walks; the
    # loader ignores them, so they are neither required nor checked.
    if require(config, "fifo_capacity", int, cwhere) < 0:
        fail(f"{cwhere}: fifo_capacity must be >= 0")
    require(config, "seed", int, cwhere)
    # Added after schema_version 1 shipped; absent in older corpus files.
    if "checkpoint_restore" in config:
        require(config, "checkpoint_restore", bool, cwhere)
    if "variant" in config:
        variant = require(config, "variant", str, cwhere)
        if variant not in FUZZ_VARIANTS:
            fail(f"{cwhere}: variant '{variant}' not in "
                 f"{sorted(FUZZ_VARIANTS)}")
        check_staleness(variant, require(config, "staleness", int, cwhere),
                        cwhere)
    elif expect == "variant-divergence":
        fail(f"{cwhere}: variant-divergence entries must name their variant")


FABRIC_LB_MODES = {"ecmp", "wcmp", "flowlet", "conga"}
FABRIC_DROP_FATES = ("dead_source", "dead_destination", "switch_killed",
                     "in_switch")


FABRIC_SHAPE = {
    "config": {
        **keys("leaves spines hosts_per_leaf pipelines remap_period "
               "util_window salt seed link_latency", int),
        **keys("lb hash", str),
        "link_bytes_per_cycle": NUM,
        "workload": {
            **keys("flows max_flow_packets burst_size packet_bytes seed", int),
            **keys("flow_rate mean_lifetime zipf_exponent burst_spacing", NUM),
        },
    },
    "totals": {
        **keys("injected delivered in_flight_end cycles_run", int),
        "dropped": keys(" ".join(FABRIC_DROP_FATES) + " total", int),
        **keys("conserved truncated", bool),
        **keys("throughput_pkts_per_cycle offered_pkts_per_cycle "
               "delivered_fraction", NUM),
    },
    "flows": {
        **keys("total started completed fully_delivered peak_concurrent "
               "reordered_packets", int),
        "fct": {"count": int, **keys("p50 p90 p99 mean max", NUM)},
    },
    "latency": keys("p50 p90 p99", NUM),
    "uplinks": keys("util_max util_mean util_skew", NUM),
}
FABRIC_LINK = {"name": str, **keys("from to packets bytes", int),
               **keys("uplink killed", bool),
               **keys("weight busy_cycles peak_queue_cycles utilization",
                      NUM)}
FABRIC_SWITCH = {"name": str, "killed": bool, "killed_at": int,
                 **{k: int for section in SIM_COUNTERS.values()
                    for k in section},
                 "c1_fraction": NUM}


def validate_fabric_results(doc, where):
    check_shape(doc, FABRIC_SHAPE, where)
    config, totals, flows = doc["config"], doc["totals"], doc["flows"]
    leaves, spines = config["leaves"], config["spines"]
    if config["lb"] not in FABRIC_LB_MODES:
        fail(f"{where}.config: lb '{config['lb']}' not in "
             f"{sorted(FABRIC_LB_MODES)}")

    twhere = f"{where}.totals"
    dropped = totals["dropped"]
    if sum(dropped[k] for k in FABRIC_DROP_FATES) != dropped["total"]:
        fail(f"{twhere}.dropped: fates do not sum to total")
    injected, delivered, in_flight = (
        totals[k] for k in ("injected", "delivered", "in_flight_end"))
    # The fabric's core invariant: every packet delivered, dropped with a
    # recorded fate, or in flight at truncation.
    balanced = injected == delivered + dropped["total"] + in_flight
    if balanced != totals["conserved"]:
        fail(f"{twhere}: conserved flag disagrees with the ledger")
    if not balanced:
        fail(f"{twhere}: conservation violated ({injected} injected != "
             f"{delivered} delivered + {dropped['total']} dropped + "
             f"{in_flight} in flight)")

    fwhere = f"{where}.flows"
    if flows["fully_delivered"] > flows["completed"]:
        fail(f"{fwhere}: fully_delivered exceeds completed")
    if flows["completed"] > flows["started"]:
        fail(f"{fwhere}: completed exceeds started")

    links = require(doc, "links", list, where)
    if len(links) != 2 * leaves * spines:
        fail(f"{where}.links: {len(links)} links != 2*{leaves}*{spines}")
    for i, link in enumerate(links):
        lwhere = f"{where}.links[{i}]"
        util = check_shape(link, FABRIC_LINK, lwhere)["utilization"]
        if not 0.0 <= util <= 1.0:
            fail(f"{lwhere}: utilization {util} outside [0, 1]")

    switches = require(doc, "switches", list, where)
    if len(switches) != leaves + spines:
        fail(f"{where}.switches: {len(switches)} switches != "
             f"{leaves}+{spines}")
    for i, sw in enumerate(switches):
        swhere = f"{where}.switches[{i}]"
        c1 = check_shape(sw, FABRIC_SWITCH, swhere)["c1_fraction"]
        if not 0.0 <= c1 <= 1.0:
            fail(f"{swhere}: c1_fraction {c1} outside [0, 1]")

    telem = require(doc, "telemetry", (dict, NULL), where)
    if telem is not None:
        check_telemetry_section(telem, f"{where}.telemetry")
        for i, sw in enumerate(switches):
            for name, _, key in RESULT_TWINS:
                check_twin(telem["counters"],
                           f"fabric.{sw['name']}.{name}", sw[key],
                           f"{where}.telemetry (switches[{i}])")


NATIVE_SHAPE = {
    "meta": {**keys("program policy", str),
             **keys("cores batch ring_capacity pool_packets rebalance_packets "
                    "seed", int),
             "pinned": bool},
    "throughput": {"packets": int},
    "sharding": {"policy": str},
    "oracle": {"checked": bool, "equivalent": (bool, NULL)},
    # Wall time and thread interleaving decide everything in the profile.
    "profile": {
        "throughput": keys("seconds pkts_per_sec", NUM),
        "sharding": keys("moves rebalances", int),
        "profiler": {
            **keys("workers registers", list),
            "dispatcher": keys("admitted reaped idle_spins pool_full "
                               "busy_ns idle_ns", int),
            "serializing_register": (str, NULL),
            "serial_fraction": NUM,
        },
    },
}
NATIVE_WORKER = keys("hops stages accesses forwards parks idle_spins busy_ns "
                     "idle_ns", int)
NATIVE_REGISTER = {"name": str, "owner_share": NUM,
                   **keys("claimed performed remote parks busiest_owner "
                          "busiest_owner_accesses", int)}


def validate_native_results(doc, where):
    check_shape(doc, NATIVE_SHAPE, where)
    meta, prof = doc["meta"], doc["profile"]["profiler"]
    cores, packets = meta["cores"], doc["throughput"]["packets"]
    if cores < 1:
        fail(f"{where}.meta: cores must be >= 1")
    if meta["policy"] not in SHARDING_POLICIES:
        fail(f"{where}.meta: policy '{meta['policy']}' not in "
             f"{sorted(SHARDING_POLICIES)}")

    pwhere = f"{where}.profile.profiler"
    workers = prof["workers"]
    if len(workers) != cores:
        fail(f"{pwhere}.workers: {len(workers)} entries != {cores} cores")
    for i, w in enumerate(workers):
        check_shape(w, NATIVE_WORKER, f"{pwhere}.workers[{i}]")
    disp = prof["dispatcher"]
    # A finished run has admitted and reaped every packet it reports.
    if not disp["admitted"] == disp["reaped"] == packets:
        fail(f"{pwhere}.dispatcher: admitted {disp['admitted']} / reaped "
             f"{disp['reaped']} != {packets} packets")
    registers = prof["registers"]
    # The backend's merge: each register's busiest owner is the worker that
    # ran most of its claims; the serializing register is the first whose
    # busiest owner ran the most, as a fraction of all packets.
    serial = None
    for i, reg in enumerate(registers):
        rwhere = f"{pwhere}.registers[{i}]"
        check_shape(reg, NATIVE_REGISTER, rwhere)
        claimed, busiest = reg["claimed"], reg["busiest_owner_accesses"]
        if reg["performed"] > claimed:
            fail(f"{rwhere}: performed exceeds claimed")
        if busiest > claimed:
            fail(f"{rwhere}: busiest_owner_accesses {busiest} exceeds "
                 f"claimed {claimed}")
        if reg["busiest_owner"] >= cores:
            fail(f"{rwhere}: busiest_owner {reg['busiest_owner']} out of "
                 f"range for {cores} cores")
        share = reg["owner_share"]
        if not 0.0 <= share <= 1.0:
            fail(f"{rwhere}: owner_share {share} outside [0, 1]")
        if not math.isclose(share, busiest / claimed if claimed else 0.0):
            fail(f"{rwhere}: owner_share {share} != busiest_owner_accesses "
                 f"/ claimed")
        if busiest > (serial["busiest_owner_accesses"] if serial else 0):
            serial = reg
    serializing = prof["serializing_register"]
    expected = serial["name"] if serial else None
    if serializing != expected:
        fail(f"{pwhere}: serializing_register {serializing!r} is not the "
             f"register with the most busiest-owner accesses ({expected!r})")
    fraction = prof["serial_fraction"]
    if not 0.0 <= fraction <= 1.0:
        fail(f"{pwhere}: serial_fraction {fraction} outside [0, 1]")
    busiest = serial["busiest_owner_accesses"] if serial else 0
    if not math.isclose(fraction, busiest / packets if packets else 0.0):
        fail(f"{pwhere}: serial_fraction {fraction} != {busiest} "
             f"busiest-owner accesses / {packets} packets")

    owhere = f"{where}.oracle"
    checked, equivalent = doc["oracle"]["checked"], doc["oracle"]["equivalent"]
    if checked and equivalent is None:
        fail(f"{owhere}: checked run must record an equivalent verdict")
    if not checked and equivalent is not None:
        fail(f"{owhere}: unchecked run cannot claim a verdict")


CHECKPOINT_MAGIC = b"mp5-checkpoint v1\n"
CHECKPOINT_VERSION = 1
# magic + u32 version + u64 fingerprint + u64 cycle + u64 payload length
CHECKPOINT_HEADER = len(CHECKPOINT_MAGIC) + 4 + 8 + 8 + 8


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def validate_checkpoint(blob, where):
    """An mp5-checkpoint v1 file written by mp5sim --checkpoint-out: one
    frame, or two back-to-back (simulator frame + verifier frame) when an
    MP5 design ran with --check-equivalence."""
    frames = 0
    offset = 0
    while offset < len(blob):
        fwhere = f"{where}: frame {frames}"
        frame = blob[offset:]
        if not frame.startswith(CHECKPOINT_MAGIC):
            fail(f"{fwhere}: bad magic")
        if len(frame) < CHECKPOINT_HEADER + 8:
            fail(f"{fwhere}: truncated header")
        version, = struct.unpack_from("<I", frame, len(CHECKPOINT_MAGIC))
        if version != CHECKPOINT_VERSION:
            fail(f"{fwhere}: unsupported version {version}")
        payload_len, = struct.unpack_from("<Q", frame, CHECKPOINT_HEADER - 8)
        total = CHECKPOINT_HEADER + payload_len + 8
        if total > len(frame):
            fail(f"{fwhere}: frame exceeds file "
                 f"(payload length {payload_len})")
        stored, = struct.unpack_from("<Q", frame, total - 8)
        if fnv1a(frame[:total - 8]) != stored:
            fail(f"{fwhere}: checksum mismatch")
        frames += 1
        offset += total
    if frames == 0:
        fail(f"{where}: empty checkpoint file")
    if frames > 2:
        fail(f"{where}: {frames} frames (expected 1 or 2)")


VALIDATORS = {
    "mp5-results": validate_results,
    "mp5-bench": validate_bench,
    "mp5-fuzz-repro": validate_repro,
    "mp5-fabric-results": validate_fabric_results,
    "mp5-native-results": validate_native_results,
}
# The documents that carry the run envelope (check_envelope).
RUN_DOCUMENTS = ("mp5-results", "mp5-fabric-results", "mp5-native-results")


def validate_file(path):
    # Binary checkpoint files are sniffed by magic before any JSON parse.
    with open(path, "rb") as fp:
        head = fp.read(len(CHECKPOINT_MAGIC))
        if head == CHECKPOINT_MAGIC:
            blob = head + fp.read()
            validate_checkpoint(blob, path)
            return "mp5-checkpoint"
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    if "traceEvents" in doc:
        validate_chrome_trace(doc, path)
        return "mp5-chrome-trace"
    schema = require(doc, "schema", str, path)
    if schema not in VALIDATORS:
        fail(f"{path}: unknown schema '{schema}'")
    if schema in RUN_DOCUMENTS:
        check_envelope(doc, schema, path)
    else:
        check_version(doc, schema, path)
    VALIDATORS[schema](doc, path)
    return schema


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            schema = validate_file(path)
        except ValidationError as err:
            print(f"FAIL {err}", file=sys.stderr)
            return 1
        except (OSError, json.JSONDecodeError) as err:
            print(f"FAIL {path}: {err}", file=sys.stderr)
            return 1
        print(f"ok   {path} ({schema})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
