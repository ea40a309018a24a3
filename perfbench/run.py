#!/usr/bin/env python3
"""starricci benchmark: one command, three workloads, a traced run per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --check [--workload NAME|all]
    python3 perfbench/run.py --record

Each workload runs in fresh child processes (see child.py).  With
``--trace 0`` the end-to-end metrics are measured with no wrappers loaded;
with ``--trace 1`` an untraced and a traced round of the same operations
give the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--check`` runs every menu item once and
reports outputs whose digest differs from reference.json; ``--record``
rewrites reference.json and is meant to run only when the program's output
is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402  (metric table only; wrappers are installed in the child)
import workloads  # noqa: E402
from child import PROBE_REF_S  # noqa: E402

ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_RUNS = 5          # set-ups measured per run; setup_s is their median
TIME_BUDGET_S = 170.0   # the whole invocation ends within this

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)


class ChildError(RuntimeError):
    pass


def run_child(mode, workload, deadline, *extra):
    """Run one child to completion; return (its JSON result, spawn time)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(CHILD), mode, "--workload", workload, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child for {workload} timed out") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} child for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def at_reference_speed(latencies, probes):
    """Scale each latency to reference speed.

    The child times a fixed speed probe after every operation.  Other
    tenants share the cores, and the machine's speed drifts by tens of
    percent within seconds and between minutes.  A latency times
    PROBE_REF_S over the median of the five probes around it is the latency
    the operation would have had at the speed where the probe takes
    PROBE_REF_S.
    """
    scaled = []
    for i, lat in enumerate(latencies):
        near = probes[max(0, i - 2):i + 3]
        scaled.append(lat * PROBE_REF_S / statistics.median(near))
    return scaled


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics of one workload, tracing off."""
    setups = []
    for _ in range(SETUP_RUNS - 1):
        res, spawned = run_child("setup", workload, deadline)
        setups.append((res["ready"] - spawned) * PROBE_REF_S / res["probe_s"])
    res, spawned = run_child("timed", workload, deadline,
                             "--seed", str(seed), "--seconds", str(seconds))
    setups.append((res["ready"] - spawned) * PROBE_REF_S / res["probe_s"])
    if res["wrappers_loaded"]:
        raise ChildError("the untraced child loaded the layer wrappers")
    lat = at_reference_speed(res["latencies"], res["probes"])
    deciles = statistics.quantiles(lat, n=10)
    attempted, failed = len(lat), len(res["failures"])
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {"fail_ratio": failed / attempted,
             "operations": attempted,
             "above_p90": sum(1 for x in lat if x > deciles[8]),
             "window_s": round(res["window_s"], 3),
             "wall_ops_per_s": round(attempted / res["window_s"], 4),
             "wall_op_ms_p50": round(statistics.median(res["latencies"]) * 1e3, 4),
             "probe_ms_median": round(statistics.median(res["probes"]) * 1e3, 4)}
    return metrics, attempted, res["failures"], notes


def measure_traced(workload, seed, deadline):
    """Per-layer metrics: one untraced and one traced round of the same ops."""
    plain, _ = run_child("round", workload, deadline, "--seed", str(seed))
    traced, _ = run_child("round", workload, deadline, "--seed", str(seed), "--traced")
    if plain["wrappers_loaded"]:
        raise ChildError("the untraced child loaded the layer wrappers")
    layers = dict(traced["layers"])
    layers["setup.traced_ms"] = traced["setup_s"] * 1e3
    layers["trace.ops_ratio"] = (sum(at_reference_speed(plain["latencies"], plain["probes"]))
                                 / sum(at_reference_speed(traced["latencies"], traced["probes"])))
    failures = plain["failures"] + traced["failures"]
    if plain["digests"] != traced["digests"]:
        failures.append("traced and untraced outputs differ")
    units = {name: unit for name, unit, _better, _moves in layertrace.PER_LAYER}
    metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    return metrics, attempted, failures, {"trace_file": traced["trace_file"]}


def check(names, record):
    """Run every menu item once; compare with (or record) the reference."""
    deadline = time.monotonic() + 600.0
    reference = workloads.load_reference() if workloads.REFERENCE_PATH.exists() else {}
    bad = 0
    for w in names:
        res, _ = run_child("check", w, deadline)
        for error in res["failures"]:
            print(f"ERROR {w}: {error}")
        bad += len(res["failures"])
        if record:
            reference[w] = res["digests"]
        else:
            for op in workloads.menu(w):
                got = res["digests"].get(op.key)
                if got is not None and got != reference.get(w, {}).get(op.key):
                    print(f"MISMATCH {w}: {op.key}")
                    bad += 1
        print(f"{w}: {len(res['digests'])} menu items run")
    if bad:
        print(f"{bad} operations failed or differ from the reference")
        return 1
    if record:
        with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {workloads.REFERENCE_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="run every menu item once and report digest mismatches")
    p.add_argument("--record", action="store_true",
                   help="rewrite reference.json from the current program's output")
    args = p.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.check or args.record:
            return check(names, args.record)
        deadline = time.monotonic() + TIME_BUDGET_S * len(names)
        all_metrics, attempted, failures = {}, 0, []
        for w in names:
            if args.trace:
                metrics, n, fails, notes = measure_traced(w, args.seed, deadline)
            else:
                metrics, n, fails, notes = measure(w, args.seed, args.seconds, deadline)
            attempted += n
            failures += fails
            for name, m in metrics.items():
                print(f"{w:15s} {name:34s} {m['value']:>14.6g} {m['unit']}")
                all_metrics[name if len(names) == 1 else f"{w}.{name}"] = m
            for name, value in notes.items():
                print(f"{w:15s} {name:34s} {value!s:>14} ")
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
