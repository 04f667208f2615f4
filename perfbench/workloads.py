"""Seeded inputs for the three workloads, written as model files.

Nothing here imports ``homricci``: models are built from their closed-form
summand data and written as JSON documents, so the program under test sees
only files and command lines.  Each request carries what the checks in
``checks.py`` need to judge its output without the library.

Targets are drawn so that the same seed always gives the same requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("solve-mixed", "solve-fail", "check-lattice")


@dataclass
class DenseModel:
    """A model as float arrays, for the independent Ricci evaluation."""

    dims: np.ndarray
    killing: np.ndarray
    tensor: np.ndarray  # full symmetric s x s x s bracket norms


@dataclass
class Request:
    """One CLI call plus what its output must satisfy.

    ``known`` is "exists" when a solution is known to exist (a passing chain
    condition or the exact two-summand threshold), "none" when it is known
    not to, and None otherwise.  ``condition`` is the chain-condition verdict
    the solve output must report, when the benchmark can derive it itself.
    """

    kind: str  # solve | iterate | check | subalgebras
    label: str
    argv: list
    dense: Optional[DenseModel] = None
    target: Optional[list] = None
    known: Optional[str] = None
    condition: Optional[bool] = None
    steps: int = 0
    exact_target: Optional[list] = None
    criterion: str = "theorem"
    expected: Optional[frozenset] = field(default=None, repr=False)


def _dense(doc: dict) -> DenseModel:
    """Dense tensor of a model document; Killing coefficients derived here
    from the compatibility law when the document gives Casimir values."""
    s = doc["s"]
    t = np.zeros((s, s, s))
    for i, j, k, v in doc["triples"]:
        value = float(Fraction(v)) if isinstance(v, str) else float(v)
        for a, b, c in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            t[a - 1, b - 1, c - 1] = value
    dims = np.array(doc["dims"], dtype=float)
    if "killing" in doc:
        killing = np.array([float(Fraction(str(b))) for b in doc["killing"]])
    else:
        casimir = np.array([float(z) for z in doc["casimir"]])
        killing = 2.0 * casimir + t.sum(axis=(1, 2)) / dims
    return DenseModel(dims, killing, t)


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _form(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# --- model documents ---------------------------------------------------------

# flag3(4,2,4) with Q = -B (so b_i = 1): [112] = 2/3, [123] = 1/2.  Its two
# simple chains give the closed-form conditions below.
FLAG3_DOC = {
    "name": "flag3:4,2,4",
    "s": 3,
    "dims": [4, 2, 4],
    "killing": [1, 1, 1],
    "triples": [[1, 1, 2, "2/3"], [1, 2, 3, "1/2"]],
    "pairwise_inequivalent": True,
}


def flag3_margins(z) -> tuple[float, float]:
    """(p, q): each chain ratio over its threshold; the condition passes
    exactly when both exceed 1."""
    z1, z2, z3 = z
    return (z2 / (z1 + z3)) * 12.0, (z3 / (2.0 * z1 + z2)) * (10.0 / 3.0)


def _flag3_target(p: float, q: float) -> list:
    # With z1 = 1: z2 = p (1 + z3) / 12 and z3 = 3q (2 + z2) / 10.
    z3 = (0.6 * q + 0.025 * p * q) / (1.0 - 0.025 * p * q)
    z2 = p * (1.0 + z3) / 12.0
    return [1.0, z2, z3]


def _two_summand(rng, line: bool) -> tuple[dict, float]:
    """A two-summand model whose first summand closes; returns the document
    and the exact threshold on T1/T2."""
    d1 = 1 if line else int(rng.integers(2, 4))
    d2 = int(rng.integers(2, 5))
    zeta1 = 0.0 if line else float(rng.uniform(0.05, 0.5))
    zeta2 = float(rng.uniform(0.05, 0.5))
    t122 = float(rng.uniform(0.2, 1.2))
    t111 = 0.0 if line or rng.random() < 0.5 else float(rng.uniform(0.05, 0.4))
    t222 = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.4))
    triples = [[1, 2, 2, t122]]
    if t111:
        triples.append([1, 1, 1, t111])
    if t222:
        triples.append([2, 2, 2, t222])
    doc = {
        "name": "twosum-line" if line else "twosum",
        "s": 2,
        "dims": [d1, d2],
        "casimir": [zeta1, zeta2],
        "triples": sorted(triples),
        "pairwise_inequivalent": True,
    }
    threshold = d2 * (4 * d1 * zeta1 + t111) / (d1 * (4 * d2 * zeta2 + t222 + 4 * t122))
    return doc, threshold


def _random_s6(rng) -> dict:
    s = 6
    triples = [
        [i, j, k, float(rng.uniform(0.1, 1.0))]
        for i, j, k in combinations_with_replacement(range(1, s + 1), 3)
        if rng.random() < 0.5
    ]
    return {
        "name": "random-s6",
        "s": s,
        "dims": [int(rng.integers(2, 5)) for _ in range(s)],
        "casimir": [float(rng.uniform(0.1, 0.6)) for _ in range(s)],
        "triples": triples,
        "pairwise_inequivalent": True,
    }


# --- full flags SU(n)/T ------------------------------------------------------


def _root_pairs(n: int) -> dict:
    return {p: idx for idx, p in enumerate(combinations(range(1, n + 1), 2), start=1)}


def full_flag_doc(n: int) -> dict:
    """SU(n)/T: one 2-dimensional summand per root pair, b_i = 1, and
    [ijk] = 1/n on every triangle {ab, bc, ac}; validation derives zeta = 1/n."""
    pairs = _root_pairs(n)
    triples = sorted(
        sorted((pairs[(a, b)], pairs[(b, c)], pairs[(a, c)])) + [f"1/{n}"]
        for a, b, c in combinations(range(1, n + 1), 3)
    )
    s = len(pairs)
    return {
        "name": f"SU({n})/T",
        "s": s,
        "dims": [2] * s,
        "killing": [1] * s,
        "triples": triples,
        "pairwise_inequivalent": True,
    }


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1:]


def _member(blocks, pairs: dict) -> tuple:
    return tuple(sorted(pairs[p] for block in blocks for p in combinations(sorted(block), 2)))


def partition_lattice(n: int) -> frozenset:
    """Lattice members of SU(n)/T: the root pairs joined by each set partition."""
    pairs = _root_pairs(n)
    return frozenset(_member(part, pairs) for part in _set_partitions(list(range(1, n + 1))))


def partition_chains(n: int) -> frozenset:
    """Simple chains of SU(n)/T as (outer, inner) member pairs: covering pairs
    of the partition lattice (merge two blocks) whose lower partition is not
    the discrete one."""
    pairs = _root_pairs(n)
    chains = set()
    for part in _set_partitions(list(range(1, n + 1))):
        inner = _member(part, pairs)
        if not inner:
            continue
        for a, b in combinations(range(len(part)), 2):
            merged = [blk for idx, blk in enumerate(part) if idx not in (a, b)]
            merged.append(part[a] + part[b])
            chains.add((_member(merged, pairs), inner))
    return frozenset(chains)


def _exact_target(rng, s: int) -> list:
    return [Fraction(int(rng.integers(4, 13)), int(rng.integers(4, 13))) for _ in range(s)]


# --- workloads ---------------------------------------------------------------

# Grid over the flag3 condition margins (p, q), both > 1: the cost of a
# solve grows as q approaches 1, so the grid spans near and far targets.
FLAG3_P = (1.2, 2.0, 4.0, 8.0)
FLAG3_Q = (1.1, 1.4, 2.0, 3.0)
TWO_SUMMAND_FACTORS = (0.5, 0.99, 1.01, 2.0)
FAILING_FLAG3 = ((1.0, 1.0, 0.1), (1.0, 5.0, 1.0))
FAMILY_SEED = 20171009


def _flag3_solve(path: str, z: list, label: str) -> Request:
    p, q = flag3_margins(z)
    passes = p > 1.0 and q > 1.0
    return Request(
        kind="solve",
        label=label,
        argv=["solve", path, "--T", _form(z)],
        dense=_dense(FLAG3_DOC),
        target=z,
        known="exists" if passes else None,
        condition=passes,
    )


def warmup_request(workload: str, workdir: Path) -> Request:
    """One cheap request through the workload's main code path."""
    if workload == "check-lattice":
        path = _write(workdir, "su5-warmup", full_flag_doc(5))
        T = [Fraction(1)] * 10
        return Request(
            kind="check",
            label="warmup",
            argv=["check", path, "--T", ",".join(str(v) for v in T)],
            exact_target=T,
            expected=partition_chains(5),
        )
    path = _write(workdir, "flag3-warmup", FLAG3_DOC)
    return _flag3_solve(path, [1.0, 1.0, 1.0], "warmup")


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's models into ``workdir`` and return its cycle of
    distinct requests."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    builder = {
        "solve-mixed": _solve_mixed,
        "solve-fail": _solve_fail,
        "check-lattice": _check_lattice,
    }[workload]
    return builder(rng, workdir)


def _solve_mixed(rng, workdir: Path) -> list:
    # The inputs are fixed and the run's seed only orders the cycle: the
    # cost of a solve is not smooth in its input (a 0.1% move of a target
    # can change it tenfold, when one start runs out its budget, and from
    # one random model to the next it ranges over 50x), so seeded inputs
    # would make the run-to-run spread a measure of that instead of the
    # code.  Model parameters come from a fixed family seed.
    family = np.random.default_rng(FAMILY_SEED)
    flag3_path = _write(workdir, "flag3", FLAG3_DOC)
    requests = [
        _flag3_solve(flag3_path, _flag3_target(p, q), f"flag3 p={p} q={q}")
        for p in FLAG3_P
        for q in FLAG3_Q
    ]
    for m in range(2):
        doc, threshold = _two_summand(family, line=False)
        path = _write(workdir, f"twosum{m}", doc)
        for factor in TWO_SUMMAND_FACTORS:
            z = [factor * threshold, 1.0]
            requests.append(
                Request(
                    kind="solve",
                    label=f"twosum{m} x{factor}",
                    argv=["solve", path, "--T", _form(z)],
                    dense=_dense(doc),
                    target=z,
                    known="exists" if factor > 1 else "none",
                    condition=factor > 1,
                )
            )
    for m in range(2):
        doc = _random_s6(family)
        path = _write(workdir, f"random{m}", doc)
        z = [float(v) for v in family.uniform(0.7, 1.4, 6)]
        # The chain condition is the library's own verdict here; when it
        # passes, a solution must exist (checked in checks.py).
        requests.append(
            Request(
                kind="solve",
                label=f"random{m} s=6",
                argv=["solve", path, "--T", _form(z)],
                dense=_dense(doc),
                target=z,
            )
        )
    for m in range(2):
        doc, _ = _two_summand(family, line=True)
        path = _write(workdir, f"line{m}", doc)
        steps = int(family.integers(5, 11))
        start = [1.0, float(family.uniform(0.5, 2.0))]
        requests.append(
            Request(
                kind="iterate",
                label=f"line{m} iterate {steps} steps",
                argv=["iterate", path, "--start", _form(start), "--steps", str(steps)],
                dense=_dense(doc),
                known="exists",
                steps=steps,
            )
        )
    return [requests[i] for i in rng.permutation(len(requests))]


def _solve_fail(rng, workdir: Path) -> list:
    # One seeded neighbour of each failing target: each request runs the full
    # budget, so a cycle of two already takes most of a short run.
    path = _write(workdir, "flag3", FLAG3_DOC)
    return [
        _flag3_solve(path, [v * rng.uniform(0.95, 1.05) for v in base], f"flag3 near {base}")
        for base in FAILING_FLAG3
    ]


def _check_lattice(rng, workdir: Path) -> list:
    cycle = []
    for n, criteria in ((5, ("theorem", "corollary")), (6, ("theorem", "corollary") * 2)):
        path = _write(workdir, f"su{n}", full_flag_doc(n))
        chains = partition_chains(n)
        for criterion in criteria:
            T = _exact_target(rng, n * (n - 1) // 2)
            argv = ["check", path, "--T", ",".join(str(v) for v in T)]
            if criterion == "corollary":
                argv.append("--corollary")
            cycle.append(
                Request(
                    kind="check",
                    label=f"check SU({n})/T {criterion}",
                    argv=argv,
                    exact_target=T,
                    criterion=criterion,
                    expected=chains,
                )
            )
    path = _write(workdir, "su7", full_flag_doc(7))
    lattice = partition_lattice(7)
    cycle.append(
        Request(
            kind="subalgebras",
            label="subalgebras SU(7)/T",
            argv=["subalgebras", path],
            expected=lattice,
        )
    )
    return [cycle[i] for i in rng.permutation(len(cycle))]
