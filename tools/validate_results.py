#!/usr/bin/env python3
"""Validate MP5 machine-readable artifacts (stdlib only).

Checks any mix of the JSON schemas this repo emits, plus the binary
checkpoint format:

  mp5-results        mp5sim --json            (schema_version 1)
  mp5-chrome-trace   mp5sim --trace-out       (schema_version 1)
  mp5-bench          bench_* BENCH_<name>.json (schema_version 1)
  mp5-fuzz-repro     mp5fuzz reproducers       (schema_version 1)
  mp5-fabric-results mp5fabric --json          (schema_version 1)
  mp5-native-results mp5native --json          (schema_version 1)
  mp5-checkpoint     mp5sim --checkpoint-out / mp5soak (binary, version 1)

Usage:  validate_results.py FILE [FILE...]

The schema is sniffed per file (the binary checkpoint magic at offset 0,
a top-level "schema" key, or the Chrome trace's "traceEvents"/"otherData"
envelope), so callers can pass results, traces, bench reports and
checkpoints in one invocation. Exits nonzero on the first malformed file
with a one-line diagnostic naming the file and the check.
"""

import json
import struct
import sys

SUPPORTED_VERSIONS = {
    "mp5-results": 1,
    "mp5-chrome-trace": 1,
    "mp5-bench": 1,
    "mp5-fuzz-repro": 1,
    "mp5-fabric-results": 1,
    "mp5-native-results": 1,
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


def check_version(doc, schema, where):
    version = require(doc, "schema_version", int, where)
    expected = SUPPORTED_VERSIONS[schema]
    if version != expected:
        fail(f"{where}: unsupported {schema} schema_version {version} "
             f"(this validator knows {expected})")


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
        require(hist, "bucket_width", NUM, hwhere)
        total = require(hist, "total", int, hwhere)
        for q in ("p50", "p90", "p99"):
            # Empty histograms quantile to NaN, which the writer emits as
            # null; both shapes are legal.
            v = require(hist, q, (int, float, type(None)), hwhere)
            if total == 0 and isinstance(v, NUM):
                fail(f"{hwhere}: empty histogram has non-null {q}")
        buckets = require(hist, "buckets", list, hwhere)
        if sum(int(b) for b in buckets) != total:
            fail(f"{hwhere}: bucket sum != total")
    events = require(telem, "events", (dict, type(None)), where)
    if events is not None:
        ewhere = f"{where}.events"
        capacity = require(events, "capacity", int, ewhere)
        recorded = require(events, "recorded", int, ewhere)
        retained = require(events, "retained", int, ewhere)
        dropped = require(events, "dropped", int, ewhere)
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

# SimResult's 26 counters by mp5-results section. This is the validator's
# own list, kept apart from the C++ table on purpose: a counter the C++
# side drops from its table must fail here.
SIM_COUNTERS = {
    "packets": ("offered", "egressed", "dropped_phantom", "dropped_data",
                "dropped_starved", "dropped_fault", "ecn_marked"),
    "timing": ("first_arrival", "last_arrival", "last_egress", "cycles_run"),
    "mechanics": ("steers", "wasted_cycles", "blocked_cycles", "remap_moves",
                  "recirculations", "max_queue_depth"),
    "faults": ("pipeline_failures", "pipeline_recoveries",
               "fault_remapped_indices", "phantom_lost", "phantom_delayed",
               "stalled_cycles", "time_to_recover"),
    "correctness": ("c1_violating_packets", "reordered_flow_packets"),
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
    check_version(doc, "mp5-results", where)
    meta = require(doc, "meta", dict, where)
    for key, types in (("design", str), ("program", str), ("pipelines", int),
                       ("packets", int), ("seed", int), ("load", NUM)):
        require(meta, key, types, f"{where}.meta")
    # Keys added with the replicated variants (ISSUE 10); older documents
    # predate them.
    if "variant" in meta:
        variant = require(meta, "variant", str, f"{where}.meta")
        if variant not in FUZZ_VARIANTS:
            fail(f"{where}.meta: variant '{variant}' not in "
                 f"{sorted(FUZZ_VARIANTS)}")
        check_staleness(variant, require(meta, "staleness", int,
                                         f"{where}.meta"), f"{where}.meta")

    for section, keys in SIM_COUNTERS.items():
        body = require(doc, section, dict, where)
        for key in keys:
            require(body, key, int, f"{where}.{section}")
    packets = doc["packets"]
    accounted = sum(packets[k] for k in ("egressed", "dropped_data",
                                         "dropped_starved", "dropped_fault"))
    if accounted > packets["offered"]:
        fail(f"{where}.packets: conservation violated "
             f"({accounted} accounted > {packets['offered']} offered)")

    for key in ("input_rate", "normalized_throughput"):
        require(doc["timing"], key, NUM, f"{where}.timing")
    require(doc["faults"], "fault_drops", int, f"{where}.faults")
    for key in ("c1_fraction", "drop_fraction"):
        v = require(doc["correctness"], key, NUM, f"{where}.correctness")
        if not 0.0 <= v <= 1.0:
            fail(f"{where}.correctness: {key}={v} outside [0, 1]")

    telem = require(doc, "telemetry", (dict, type(None)), where)
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
    recorded = require(other, "events_recorded", int, f"{where}.otherData")
    dropped = require(other, "events_dropped", int, f"{where}.otherData")
    check_metric_map(require(other, "counters", dict, f"{where}.otherData"),
                     f"{where}.otherData.counters")

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
        require(ev, "name", str, ewhere)
        require(ev, "ph", str, ewhere)
        require(ev, "pid", int, ewhere)
        if ev["ph"] == "M":
            continue
        require(ev, "tid", int, ewhere)
        ts = require(ev, "ts", int, ewhere)
        if last_ts is not None and ts < last_ts:
            fail(f"{ewhere}: timestamps not monotonic ({ts} < {last_ts})")
        last_ts = ts


def validate_bench(doc, where):
    check_version(doc, "mp5-bench", where)
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
    check_version(doc, "mp5-fuzz-repro", where)
    expect = require(doc, "expect", str, where)
    if expect not in FUZZ_EXPECT:
        fail(f"{where}: expect '{expect}' not in {sorted(FUZZ_EXPECT)}")
    require(doc, "seed", int, where)
    require(doc, "inject_floor_mod_bug", bool, where)
    require(doc, "detail", str, where)
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


def validate_fabric_results(doc, where):
    check_version(doc, "mp5-fabric-results", where)
    config = require(doc, "config", dict, where)
    cwhere = f"{where}.config"
    leaves = require(config, "leaves", int, cwhere)
    spines = require(config, "spines", int, cwhere)
    for key in ("hosts_per_leaf", "pipelines", "remap_period", "util_window",
                "salt", "seed", "link_latency"):
        require(config, key, int, cwhere)
    require(config, "link_bytes_per_cycle", NUM, cwhere)
    lb = require(config, "lb", str, cwhere)
    if lb not in FABRIC_LB_MODES:
        fail(f"{cwhere}: lb '{lb}' not in {sorted(FABRIC_LB_MODES)}")
    require(config, "hash", str, cwhere)
    workload = require(config, "workload", dict, cwhere)
    wwhere = f"{cwhere}.workload"
    for key in ("flows", "max_flow_packets", "burst_size", "packet_bytes",
                "seed"):
        require(workload, key, int, wwhere)
    for key in ("flow_rate", "mean_lifetime", "zipf_exponent",
                "burst_spacing"):
        require(workload, key, NUM, wwhere)

    totals = require(doc, "totals", dict, where)
    twhere = f"{where}.totals"
    injected = require(totals, "injected", int, twhere)
    delivered = require(totals, "delivered", int, twhere)
    dropped = require(totals, "dropped", dict, twhere)
    for key in FABRIC_DROP_FATES + ("total",):
        require(dropped, key, int, f"{twhere}.dropped")
    if sum(dropped[k] for k in FABRIC_DROP_FATES) != dropped["total"]:
        fail(f"{twhere}.dropped: fates do not sum to total")
    in_flight = require(totals, "in_flight_end", int, twhere)
    conserved = require(totals, "conserved", bool, twhere)
    # The fabric's core invariant: every packet delivered, dropped with a
    # recorded fate, or in flight at truncation.
    balanced = injected == delivered + dropped["total"] + in_flight
    if balanced != conserved:
        fail(f"{twhere}: conserved flag disagrees with the ledger")
    if not balanced:
        fail(f"{twhere}: conservation violated ({injected} injected != "
             f"{delivered} delivered + {dropped['total']} dropped + "
             f"{in_flight} in flight)")
    require(totals, "truncated", bool, twhere)
    require(totals, "cycles_run", int, twhere)
    for key in ("throughput_pkts_per_cycle", "offered_pkts_per_cycle",
                "delivered_fraction"):
        require(totals, key, NUM, twhere)

    flows = require(doc, "flows", dict, where)
    fwhere = f"{where}.flows"
    for key in ("total", "started", "completed", "fully_delivered",
                "peak_concurrent", "reordered_packets"):
        require(flows, key, int, fwhere)
    if flows["fully_delivered"] > flows["completed"]:
        fail(f"{fwhere}: fully_delivered exceeds completed")
    if flows["completed"] > flows["started"]:
        fail(f"{fwhere}: completed exceeds started")
    fct = require(flows, "fct", dict, fwhere)
    require(fct, "count", int, f"{fwhere}.fct")
    for key in ("p50", "p90", "p99", "mean", "max"):
        require(fct, key, NUM, f"{fwhere}.fct")

    latency = require(doc, "latency", dict, where)
    for key in ("p50", "p90", "p99"):
        require(latency, key, NUM, f"{where}.latency")

    uplinks = require(doc, "uplinks", dict, where)
    for key in ("util_max", "util_mean", "util_skew"):
        require(uplinks, key, NUM, f"{where}.uplinks")

    links = require(doc, "links", list, where)
    if len(links) != 2 * leaves * spines:
        fail(f"{where}.links: {len(links)} links != 2*{leaves}*{spines}")
    for i, link in enumerate(links):
        lwhere = f"{where}.links[{i}]"
        require(link, "name", str, lwhere)
        for key in ("from", "to", "packets", "bytes"):
            require(link, key, int, lwhere)
        for key in ("uplink", "killed"):
            require(link, key, bool, lwhere)
        for key in ("weight", "busy_cycles", "peak_queue_cycles"):
            require(link, key, NUM, lwhere)
        util = require(link, "utilization", NUM, lwhere)
        if not 0.0 <= util <= 1.0:
            fail(f"{lwhere}: utilization {util} outside [0, 1]")

    switches = require(doc, "switches", list, where)
    if len(switches) != leaves + spines:
        fail(f"{where}.switches: {len(switches)} switches != "
             f"{leaves}+{spines}")
    for i, sw in enumerate(switches):
        swhere = f"{where}.switches[{i}]"
        require(sw, "name", str, swhere)
        require(sw, "killed", bool, swhere)
        require(sw, "killed_at", int, swhere)
        for keys in SIM_COUNTERS.values():
            for key in keys:
                require(sw, key, int, swhere)
        c1 = require(sw, "c1_fraction", NUM, swhere)
        if not 0.0 <= c1 <= 1.0:
            fail(f"{swhere}: c1_fraction {c1} outside [0, 1]")

    telem = require(doc, "telemetry", (dict, type(None)), where)
    if telem is not None:
        check_telemetry_section(telem, f"{where}.telemetry")
        for i, sw in enumerate(switches):
            for name, _, key in RESULT_TWINS:
                check_twin(telem["counters"],
                           f"fabric.{sw['name']}.{name}", sw[key],
                           f"{where}.telemetry (switches[{i}])")


def validate_native_results(doc, where):
    check_version(doc, "mp5-native-results", where)
    meta = require(doc, "meta", dict, where)
    mwhere = f"{where}.meta"
    require(meta, "program", str, mwhere)
    cores = require(meta, "cores", int, mwhere)
    if cores < 1:
        fail(f"{mwhere}: cores must be >= 1")
    for key in ("batch", "ring_capacity", "pool_packets",
                "rebalance_packets", "seed", "hardware_concurrency"):
        require(meta, key, int, mwhere)
    require(meta, "pinned", bool, mwhere)
    policy = require(meta, "policy", str, mwhere)
    if policy not in SHARDING_POLICIES:
        fail(f"{mwhere}: policy '{policy}' not in {sorted(SHARDING_POLICIES)}")

    throughput = require(doc, "throughput", dict, where)
    twhere = f"{where}.throughput"
    packets = require(throughput, "packets", int, twhere)
    require(throughput, "seconds", NUM, twhere)
    require(throughput, "pkts_per_sec", NUM, twhere)

    sharding = require(doc, "sharding", dict, where)
    swhere = f"{where}.sharding"
    require(sharding, "policy", str, swhere)
    for key in ("moves", "rebalances"):
        require(sharding, key, int, swhere)

    prof = require(doc, "profiler", dict, where)
    pwhere = f"{where}.profiler"
    workers = require(prof, "workers", list, pwhere)
    if len(workers) != cores:
        fail(f"{pwhere}.workers: {len(workers)} entries != {cores} cores")
    for i, w in enumerate(workers):
        wwhere = f"{pwhere}.workers[{i}]"
        for key in ("hops", "stages", "accesses", "forwards", "parks",
                    "idle_spins", "busy_ns", "idle_ns"):
            require(w, key, int, wwhere)
    disp = require(prof, "dispatcher", dict, pwhere)
    dwhere = f"{pwhere}.dispatcher"
    for key in ("admitted", "reaped", "idle_spins", "pool_full", "busy_ns",
                "idle_ns"):
        require(disp, key, int, dwhere)
    # A finished run has admitted and reaped every packet it reports.
    if not disp["admitted"] == disp["reaped"] == packets:
        fail(f"{dwhere}: admitted {disp['admitted']} / reaped "
             f"{disp['reaped']} != {packets} packets")
    registers = require(prof, "registers", list, pwhere)
    for i, reg in enumerate(registers):
        rwhere = f"{pwhere}.registers[{i}]"
        require(reg, "name", str, rwhere)
        for key in ("claimed", "performed", "remote", "parks",
                    "busiest_owner"):
            require(reg, key, int, rwhere)
        if reg["performed"] > reg["claimed"]:
            fail(f"{rwhere}: performed exceeds claimed")
        if reg["busiest_owner"] >= cores:
            fail(f"{rwhere}: busiest_owner {reg['busiest_owner']} out of "
                 f"range for {cores} cores")
        share = require(reg, "owner_share", NUM, rwhere)
        if not 0.0 <= share <= 1.0:
            fail(f"{rwhere}: owner_share {share} outside [0, 1]")
    serializing = require(prof, "serializing_register", (str, type(None)),
                          pwhere)
    if serializing is not None and registers:
        if serializing not in {r["name"] for r in registers}:
            fail(f"{pwhere}: serializing_register '{serializing}' names no "
                 f"profiled register")
    fraction = require(prof, "serial_fraction", NUM, pwhere)
    if not 0.0 <= fraction <= 1.0:
        fail(f"{pwhere}: serial_fraction {fraction} outside [0, 1]")
    # The serializing register's busiest owner cannot have executed more
    # accesses than packets exist.
    if packets > 0 and registers:
        busiest = max(r.get("busiest_owner_accesses", 0) for r in registers
                      if isinstance(r.get("busiest_owner_accesses", 0), int))
        if busiest > packets * max(1, len(registers)):
            fail(f"{pwhere}: busiest-owner accesses exceed total work")

    oracle = require(doc, "oracle", dict, where)
    owhere = f"{where}.oracle"
    checked = require(oracle, "checked", bool, owhere)
    equivalent = require(oracle, "equivalent", (bool, type(None)), owhere)
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
    """An mp5-checkpoint v1 file: one frame (mp5sim --checkpoint-out) or
    two back-to-back (mp5soak: simulator frame + verifier frame)."""
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
        schema = "mp5-chrome-trace"
        validate_chrome_trace(doc, path)
    else:
        schema = require(doc, "schema", str, path)
        if schema == "mp5-results":
            validate_results(doc, path)
        elif schema == "mp5-bench":
            validate_bench(doc, path)
        elif schema == "mp5-fuzz-repro":
            validate_repro(doc, path)
        elif schema == "mp5-fabric-results":
            validate_fabric_results(doc, path)
        elif schema == "mp5-native-results":
            validate_native_results(doc, path)
        else:
            fail(f"{path}: unknown schema '{schema}'")
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
