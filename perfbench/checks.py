"""Output checks that do not use the library under test.

Each check takes a request and the CLI's captured stdout and returns
``(ok, decisive, reason)``.  ``decisive`` is None for requests that are not
solves or iterations.  A request fails when its output does not parse, a
``solved`` answer does not satisfy Ric g = c T under the dense-tensor
evaluation here, a status contradicts a known answer, or a reported chain
verdict disagrees with the one recomputed exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from workloads import DenseModel, Request

RESIDUAL_TOL = 1e-7
ITERATION_TOL = 1e-6


def dense_ricci(model: DenseModel, x) -> np.ndarray:
    """r_i = b_i/2 + x_i^2/(4 d_i) sum_jk [jki]/(x_j x_k)
    - 1/(2 d_i) sum_jk [ijk] x_k/x_j, summed over the full tensor."""
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    a = np.einsum("jki,j,k->i", model.tensor, inv, inv)
    b = np.einsum("ijk,j,k->i", model.tensor, inv, x)
    return model.killing / 2.0 + x * x * a / (4.0 * model.dims) - b / (2.0 * model.dims)


def _ricci_residual(model: DenseModel, x, z) -> tuple[float, float]:
    """Best-fit c and the componentwise residual max|r - c z| / max z."""
    r = dense_ricci(model, x)
    z = np.asarray(z, dtype=float)
    d = model.dims
    c = float(np.dot(d * r, z) / np.dot(d * z, z))
    return c, float(np.max(np.abs(r - c * z)) / np.max(z))


def check_solve(req: Request, out: str):
    payload = json.loads(out)
    status = payload["status"]
    decisive = status in ("solved", "diverged")
    if status == "solved":
        c, residual = _ricci_residual(req.dense, payload["x"], req.target)
        if not (c > 0 and residual <= RESIDUAL_TOL):
            return False, decisive, f"solved but residual {residual:.3e}, c {c:.3e}"
        if abs(payload["c"] - c) > RESIDUAL_TOL * max(1.0, abs(c)):
            return False, decisive, f"reported c {payload['c']} differs from {c}"
    condition = payload.get("condition")
    passed = None if condition is None else condition["passed"]
    if req.condition is not None and passed != req.condition:
        return False, decisive, f"chain condition {passed}, expected {req.condition}"
    known = req.known or ("exists" if passed else None)
    if known == "exists" and status == "diverged":
        return False, decisive, "diverged although a solution exists"
    if known == "none" and status == "solved":
        return False, decisive, "solved although no solution exists"
    return True, decisive, status


def check_iterate(req: Request, out: str):
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    steps = [line for line in lines if "step" in line]
    status = "completed"
    if lines and "step" not in lines[-1]:
        status = lines[-1]["status"]
    decisive = status == "completed"
    if decisive and len(steps) != req.steps:
        return False, decisive, f"completed with {len(steps)} of {req.steps} steps"
    # Consecutive steps satisfy Ric g_bar_{i+1} = g_i (Ricci is scale invariant).
    for prev, cur in zip(steps, steps[1:]):
        r = dense_ricci(req.dense, cur["g_bar"])
        g = np.asarray(prev["g"], dtype=float)
        residual = float(np.max(np.abs(r - g)) / np.max(np.abs(g)))
        if residual > ITERATION_TOL:
            return False, decisive, f"step {cur['step']} residual {residual:.3e}"
    return True, decisive, status


def check_conditions(req: Request, out: str):
    payload = json.loads(out)
    T = req.exact_target
    chains = set()
    for cond in payload["conditions"]:
        k, kp, l = cond["k"], cond["kprime"], cond["l"]
        if sorted(set(k) - set(kp)) != l:
            return False, None, f"chain {k}/{kp} reports l={l}"
        chains.add((tuple(k), tuple(kp)))
        eta = Fraction(cond["eta"])
        lam = min(T[i - 1] for i in kp)
        if req.criterion == "corollary":
            passed = lam / max(T[i - 1] for i in l) > eta * 2 * len(l)
        else:
            passed = lam / sum(2 * T[i - 1] for i in l) > eta
        if passed != cond["passed"]:
            return False, None, f"chain {k}/{kp}: reported {cond['passed']}, exact {passed}"
    if chains != req.expected:
        return False, None, f"{len(chains)} chains, expected {len(req.expected)}"
    overall = all(cond["passed"] for cond in payload["conditions"])
    if payload["passed"] != overall:
        return False, None, "overall verdict disagrees with its conditions"
    return True, None, "PASS" if overall else "FAIL"


def check_subalgebras(req: Request, out: str):
    payload = json.loads(out)
    members = frozenset(tuple(m) for m in payload["lattice"]["members"])
    if members != req.expected:
        return False, None, f"{len(members)} members, expected {len(req.expected)}"
    if payload["hypothesis"]["status"] != "satisfied":
        return False, None, f"hypothesis {payload['hypothesis']['status']}"
    return True, None, f"{len(members)} members"


CHECKS = {
    "solve": check_solve,
    "iterate": check_iterate,
    "check": check_conditions,
    "subalgebras": check_subalgebras,
}


def check(req: Request, out: str):
    """Judge one output; malformed output is a failure, not an exception."""
    try:
        return CHECKS[req.kind](req, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, None, f"unreadable output: {exc!r}"
