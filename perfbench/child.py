"""One benchmark child process: a single-threaded, closed-loop client.

The child imports starricci from the checkout's ``src/``, sets up the
workload, and then issues operations one after another, each only after the
previous one has returned.  It prints one JSON object as the last line of
its standard output.  Modes:

* ``setup``  -- set up and report when the first operation could start;
* ``timed``  -- set up, then run whole rounds of the seeded sequence for at
  least ``--seconds`` and ``MIN_SAMPLES`` operations, timing every
  operation and the speed probe that follows it;
* ``round``  -- set up, then run one round (every menu item once, in seeded
  order) with a speed probe after every operation; with ``--traced`` the
  layer wrappers are installed first and the per-layer metrics are reported;
* ``check``  -- run every menu item once in menu order and report digests.

Only ``--traced`` imports ``layertrace``; the untraced modes never load the
wrappers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 110   # a p90 over this many samples leaves 10 above it
MAX_SECONDS = 150.0
PROBE_REF_S = 1e-3  # speed_probe() time that defines reference speed


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop (Fraction and dict work, like the
    program's exact core) takes right now, with the garbage collector off.

    The cores are shared with other tenants, so the machine's speed drifts
    by tens of percent within seconds; probing after every operation lets
    the parent scale each latency to reference speed (see run.py).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, i + 1)
            seen[(i, i % 7)] = acc
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import starricci
    import starricci.cli  # noqa: F401  (the CLI imports every layer)

    if not Path(starricci.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"starricci imported from {starricci.__file__}, not from {src}")


def run_ops(ops, tracer=None, probes=None):
    """Run ops in order; return (latencies in s, digests by key, errors).

    An error is an operation that raised or exited non-zero.  With a
    ``probes`` list, a speed probe runs after every operation."""
    latencies, digests, errors = [], {}, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            code, out, err = workloads.execute(op)
        except Exception as exc:  # an operation that raises counts as failed
            code, out, err = None, "", f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if probes is not None:
            probes.append(speed_probe())
        if code is None:
            errors.append(f"{op.key}: {err}")
            continue
        digests[op.key] = workloads.digest(code, out, err)
        if code != 0:
            errors.append(f"{op.key}: exit {code}: {err.strip()}")
    return latencies, digests, errors


def mismatches(digests, reference):
    return [f"{key}: output digest {d[:12]} differs from the reference"
            for key, d in digests.items() if d != reference.get(key)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "timed", "round", "check"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    import_program()
    # Recording a reference needs no existing one; in check mode the parent
    # compares.
    reference = {} if args.mode == "check" else workloads.load_reference()[args.workload]
    tracer = None
    if args.traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    t_setup = time.perf_counter()
    workloads.setup(args.workload)
    result = {"ready": time.monotonic(), "setup_s": time.perf_counter() - t_setup}
    result["probe_s"] = statistics.median(speed_probe() for _ in range(5))

    if args.mode == "timed":
        latencies, probes, failures = [], [], []
        start = time.perf_counter()
        for ops in workloads.rounds(args.workload, args.seed):
            lat, digests, errors = run_ops(ops, probes=probes)
            latencies += lat
            failures += errors + mismatches(digests, reference)
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_SECONDS or (
                    elapsed >= args.seconds and len(latencies) >= MIN_SAMPLES):
                break
        result.update(window_s=time.perf_counter() - start, latencies=latencies,
                      probes=probes, failures=failures)
    elif args.mode in ("round", "check"):
        ops = (workloads.menu(args.workload) if args.mode == "check"
               else next(workloads.rounds(args.workload, args.seed)))
        if tracer is not None:
            tracer.start_ops()
        start = time.perf_counter()
        probes = None if args.mode == "check" else []
        latencies, digests, errors = run_ops(ops, tracer, probes)
        window = time.perf_counter() - start
        failures = errors if args.mode == "check" else errors + mismatches(digests, reference)
        result.update(window_s=window, latencies=latencies, probes=probes,
                      failures=failures, digests=digests)
        if tracer is not None:
            tracer.remove()
            result["layers"] = tracer.metrics()
            workloads.OUT_DIR.mkdir(exist_ok=True)
            trace_path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["wrappers_loaded"] = "layertrace" in sys.modules
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
