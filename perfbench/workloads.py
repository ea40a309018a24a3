"""Workload menus, the seeded operation sequence, and operation execution.

Every workload is a fixed, finite menu of operations.  A run draws its
operation sequence from the menu with the benchmark seed: each round is a
seeded permutation of the whole menu, so every round issues each menu item
exactly once and runs with different seeds differ only in order.  That keeps
the mix, and with it the throughput, the same for every seed, and gives
every menu item the same number of latency samples.

An operation is either a CLI invocation through ``starricci.cli.main(argv)``
with stdout and stderr captured, or a library call modelled on
``demos/02_moving_frames.py``.  Each operation yields an exit code and the
exact output text; ``digest`` reduces both to the SHA-256 stored in
``reference.json``.

This module imports no part of ``starricci`` at import time, so the parent
process can build menus without loading the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"
CATALOG_PLACEHOLDER = "@catalog"

CONDITIONS = ("parallel", "xi-parallel", "d-parallel", "semi-parallel",
              "pseudo-parallel", "einstein")
FAMILIES = ("cp2-a1", "cp2-b", "ch2-a0", "ch2-a1", "ch2-a1p", "ch2-b")

# Radius windows per family, written out so the inputs do not depend on the
# program under test.  Each lies strictly inside the family's sample_window()
# and so strictly inside its open domain (checked by the benchmark's tests).
SWEEP_WINDOWS = {
    "cp2-a1": (("0.05", "1.5"), ("0.2", "0.9"), ("0.7", "1.4")),
    "cp2-b": (("0.05", "0.75"), ("0.1", "0.45"), ("0.35", "0.7")),
    "ch2-a0": (("0.1", "4.9"), ("0.5", "2.5"), ("2", "4.5")),
    "ch2-a1": (("0.1", "4.9"), ("0.2", "1.5"), ("1", "4")),
    "ch2-a1p": (("0.1", "4.9"), ("0.2", "1.5"), ("1", "4")),
    "ch2-b": (("0.1", "4.9"), ("0.2", "1.5"), ("1", "4")),
}
SWEEP_SAMPLES = (600, 800, 1000)
PROVE_SAMPLES = (20, 50, 100)


@dataclass(frozen=True)
class Op:
    """One menu item: a CLI argv, or a library call ``lib`` on ``context``."""

    key: str
    argv: tuple = ()
    lib: str = ""
    context: str = ""


def _cli(*argv: str) -> Op:
    return Op(" ".join(argv), argv=tuple(argv))


def _lib(name: str, context: str) -> Op:
    return Op(f"lib {name} {context}", lib=name, context=context)


def _check_menu() -> list:
    ops = []
    for tensor in ("star-ricci", "ricci"):
        for cond in CONDITIONS:
            for context in ("nonhopf", "hopf"):
                for fmt in ("text", "json"):
                    ops.append(_cli("check", tensor, cond, context, "--format", fmt))
    for tensor, context, pseudo_l in (("star-ricci", "hopf", "alpha"),
                                      ("ricci", "hopf", "lambda*nu"),
                                      ("star-ricci", "nonhopf", "beta"),
                                      ("ricci", "nonhopf", "alpha + mu")):
        ops.append(_cli("check", tensor, "pseudo-parallel", context,
                        "--pseudo-l", pseudo_l))
    for tensor, cond, fmt in (("star-ricci", "parallel", "text"),
                              ("star-ricci", "d-parallel", "json"),
                              ("star-ricci", "semi-parallel", "text"),
                              ("ricci", "parallel", "json"),
                              ("ricci", "xi-parallel", "text")):
        ops.append(_cli("check", tensor, cond, "nonhopf", "delta=0", "mu=0",
                        "--format", fmt))
    for name in ("star-ricci-agreement", "codazzi"):
        for context in ("nonhopf", "hopf"):
            ops.append(_lib(name, context))
    return ops


def _sweep_menu() -> list:
    ops = []
    for fi, fam in enumerate(FAMILIES):
        for ci, cond in enumerate(CONDITIONS):
            r_min, r_max = SWEEP_WINDOWS[fam][(fi + 2 * ci) % 3]
            n = SWEEP_SAMPLES[(fi + ci) % 3]
            fmt = ("text", "json")[(fi + ci) % 2]
            argv = ["sweep", fam, r_min, r_max, str(n), cond, "--format", fmt]
            # A quarter of the menu (9 of 36) loads the catalog from a file.
            if (fi + 2 * ci) % 4 == 1:
                argv += ["--catalog", CATALOG_PLACEHOLDER]
            ops.append(_cli(*argv))
    return ops


def _prove_menu() -> list:
    ops = []
    for samples in PROVE_SAMPLES:
        for space in (None, "cp2", "ch2"):
            for fmt in ("text", "json"):
                argv = ["prove", "all", "--samples", str(samples), "--format", fmt]
                if space:
                    argv += ["--space", space]
                ops.append(_cli(*argv))
    return ops


MENUS = {
    "check-symbolic": _check_menu,
    "sweep-numeric": _sweep_menu,
    "prove-replay": _prove_menu,
}
WORKLOADS = tuple(MENUS)


def menu(workload: str) -> list:
    return MENUS[workload]()


def rounds(workload: str, seed: int):
    """Endless operation sequence as rounds: seeded permutations of the menu."""
    items = menu(workload)
    rng = random.Random(f"{workload}/{seed}")
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def digest(code: int, out: str, err: str) -> str:
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    h.update(out.encode("utf-8"))
    h.update(b"\0")
    h.update(err.encode("utf-8"))
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- running operations (needs starricci importable) --------------------------

def catalog_file() -> Path:
    return OUT_DIR / "families.cat"


def write_catalog_file() -> None:
    """Write the builtin catalog to the file the --catalog menu items load."""
    from starricci import catalog

    OUT_DIR.mkdir(exist_ok=True)
    catalog_file().write_text(catalog.format_catalog(catalog.builtin_catalog()),
                              encoding="utf-8")


def _lib_output(name: str, context: str) -> str:
    # Module attributes are looked up at call time so traced runs see the
    # wrapped functions.
    from starricci import frames

    build = frames.build_nonhopf_context if context == "nonhopf" else frames.build_hopf_context
    ctx = build()
    lines = []
    if name == "star-ricci-agreement":
        closed = frames.star_ricci_closed(ctx)
        lines.append(f"agree {frames.star_ricci_trace(ctx) == closed}")
        lines += [closed.entry(i, j).to_text() for i in range(3) for j in range(3)]
    else:
        for x in frames.FrameIndex:
            for y in frames.FrameIndex:
                if x.value < y.value:
                    res = frames.codazzi_residual(ctx, x, y)
                    lines.append(f"{x.direction},{y.direction}: "
                                 + ", ".join(c.to_text() for c in res))
    return "\n".join(lines) + "\n"


def execute(op: Op) -> tuple:
    """Run one operation; return (exit code, stdout text, stderr text)."""
    from starricci import cli

    if op.lib:
        return 0, _lib_output(op.lib, op.context), ""
    argv = [str(catalog_file()) if a == CATALOG_PLACEHOLDER else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


WARMUP = {
    "check-symbolic": ("check", "star-ricci", "parallel", "hopf"),
    "sweep-numeric": ("sweep", "cp2-a1", "0.2", "0.9", "2", "parallel"),
    "prove-replay": ("prove", "all", "--samples", "20"),
}


def setup(workload: str) -> None:
    """Everything a workload needs before its first timed operation.

    Builds the builtin catalog (parse plus oracle validation) and runs one
    fixed warm-up operation.  sweep-numeric also fills the cached condition
    report of every kind and writes the --catalog file.
    """
    from starricci import catalog

    catalog.builtin_catalog()
    if workload == "sweep-numeric":
        fam = catalog.builtin_catalog().get("cp2-a1")
        for kind in catalog.ConditionKind:
            catalog.evaluate_condition(fam, 0.5, kind)
        write_catalog_file()
    code, _out, err = execute(_cli(*WARMUP[workload]))
    if code != 0:
        raise RuntimeError(f"warm-up {' '.join(WARMUP[workload])} exited {code}: {err}")
