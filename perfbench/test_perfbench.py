"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _deadline():
    return time.monotonic() + 300.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sequence_is_identical_for_a_seed(workload):
    def keys(seed):
        return [[op.key for op in ops] for ops in islice(workloads.rounds(workload, seed), 5)]

    first = keys(7)
    assert first == keys(7)
    assert first != keys(8)
    menu = sorted(op.key for op in workloads.menu(workload))
    assert len(set(menu)) == len(menu)
    for ops in first:   # every round is a permutation of the menu
        assert sorted(ops) == menu


def test_sweep_windows_lie_strictly_inside_the_domain():
    from starricci.catalog import builtin_catalog

    cat = builtin_catalog()
    ops = workloads.menu("sweep-numeric")
    assert sum("--catalog" in op.argv for op in ops) * 4 == len(ops)
    for op in ops:
        fam = cat.get(op.argv[1])
        r_min, r_max = float(op.argv[2]), float(op.argv[3])
        lo, hi = fam.sample_window()
        assert fam.domain[0] < lo < r_min < r_max < hi < fam.domain[1], op.key
        assert 600 <= int(op.argv[4]) <= 1000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_menu_item_exits_0_with_the_reference_output(workload):
    res, _ = run.run_child("check", workload, _deadline())
    assert res["failures"] == []
    assert res["digests"] == workloads.load_reference()[workload]
    assert not res["wrappers_loaded"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_rounds_give_the_same_outputs(workload):
    plain, _ = run.run_child("round", workload, _deadline(), "--seed", "3")
    traced, _ = run.run_child("round", workload, _deadline(), "--seed", "3", "--traced")
    assert not plain["wrappers_loaded"] and traced["wrappers_loaded"]
    assert plain["failures"] == traced["failures"] == []
    assert plain["digests"] == traced["digests"]
    assert len(plain["digests"]) == len(workloads.menu(workload))


def test_per_layer_counts_repeat_exactly():
    counts = []
    for seed in ("1", "2"):
        traced, _ = run.run_child("round", "prove-replay", _deadline(), "--seed", seed, "--traced")
        counts.append({name: traced["layers"][name] for name, unit, _b, _m in layertrace.PER_LAYER
                       if unit == "count" and name in traced["layers"]})
    assert counts[0] == counts[1]
    assert counts[0]["polynomial.mul_calls"] > 0


def test_wrappers_patch_every_lookup_site_and_are_removed():
    from starricci import catalog, cli, conditions, frames, proofs, rational
    from starricci.polynomial import Polynomial

    originals = (frames.ricci, cli.ricci, rational.poly_gcd, Polynomial.__mul__,
                 cli._CONDITION_BUILDERS[conditions.ConditionKind.PARALLEL],
                 catalog.parallel_equations, proofs.star_ricci_closed)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.ricci is frames.ricci is not originals[0]
        assert rational.poly_gcd is not originals[2]
        assert Polynomial.__mul__ is not originals[3]
        assert cli._CONDITION_BUILDERS[conditions.ConditionKind.PARALLEL] is conditions.parallel_equations
        assert catalog.parallel_equations is conditions.parallel_equations is not originals[5]
        assert proofs.star_ricci_closed is frames.star_ricci_closed is not originals[6]
        tracer.start_ops()
        tracer.op = 0
        report = conditions.parallel_equations(frames.build_hopf_context(),
                                               frames.star_ricci_closed(frames.build_hopf_context()))
    finally:
        tracer.remove()
    assert (frames.ricci, cli.ricci, rational.poly_gcd, Polynomial.__mul__,
            cli._CONDITION_BUILDERS[conditions.ConditionKind.PARALLEL],
            catalog.parallel_equations, proofs.star_ricci_closed) == originals
    m = tracer.metrics()
    assert m["conditions.entries"] == len(report)
    assert m["polynomial.mul_calls"] > 0 and m["polynomial.gcd_calls"] > 0
    assert m["frames.context_ms"] > 0


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    inner = tracer._timed("inner", lambda: time.sleep(0.02), record=True)

    def outer_fn():
        time.sleep(0.01)
        inner()

    outer = tracer._timed("outer", outer_fn, record=True)
    outer()
    total, self_time = tracer.total[(True, "outer")], tracer.self_time[(True, "outer")]
    assert math.isclose(self_time, total - tracer.total[(True, "inner")], rel_tol=1e-9)
    (i_id, i_parent, *_), (o_id, o_parent, *_) = tracer.spans
    assert i_parent == o_id and o_parent is None


def test_benchmark_json_lists_every_metric_and_workload():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layertrace.PER_LAYER]
    moved = {f"{w}:{m}" for w in workloads.WORKLOADS for m, _u in run.END_TO_END}
    for name, _unit, _better, moves in layertrace.PER_LAYER:
        assert set(moves) <= moved, name
