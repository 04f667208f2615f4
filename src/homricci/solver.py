"""Constrained maximization of scalar curvature and the certified solve.

The feasible set {x positive : sum d_i z_i / x_i = 1} is the image of the
open unit simplex under u_i = d_i z_i / x_i.  In u the gradient of S is
F = r / z, so Ric g = c T is the Lagrange system F(u) = c 1, sum u = 1 of
maximizing S on the simplex, and one ascent solves it.  Each step solves
the Newton system of that Lagrange system, with the Hessian dF/du built
from the kernel's analytic Ricci Jacobian, and takes the Newton step when
it ascends (F . du > 0), capped at 0.9 of the distance to the boundary.
Otherwise it steps along F centered at its u-average in softmax
coordinates (u = softmax(v)), an ascent direction that keeps escaping
coordinates moving at unit speed when no maximizer exists (some u_i then
collapses to 0, i.e. x_i grows without bound).  One backtracking line
search accepts an Armijo increase of S, or a Newton step that lowers the
residual without lowering S; trial points with non-finite curvature are
rejected and counted.

A start stops when its projected gradient vanishes, if its residual
certifies or some u_i is below the collapse threshold; when S gains
nothing over the stagnation window or no step is accepted; or after
max_iterations steps.  "solved" is certified componentwise on the returned
metric x = d z / u: c > 0 and the relative residual
max_i |r_i - c z_i| / (c max_i z_i) is at most tol; scaling T scales c
inversely and leaves the residual unchanged.  Collapse with no
certified start is reported as "diverged" -- evidence that the supremum
is not attained, never a proof of nonexistence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import curvature
from .chains import (
    ConditionReport,
    EtaUndefinedError,
    HypothesisViolatedError,
    check_theorem,
)
from .model import DiagonalForm, SpaceModel


class SolverError(ValueError):
    """Raised for malformed solve requests."""


# A start stops once its projected gradient is this small relative to the
# multiplier, S gains nothing over the stagnation window, or some u_i falls
# below the collapse threshold (see _run_start).
GRADIENT_TOL = 1e-10
STAGNATION_WINDOW = 100
COLLAPSE_THRESHOLD = 1e-12


@dataclass
class SolverOptions:
    residual_tol: float = 1e-8
    max_iterations: int = 10_000
    multistarts: int = 16
    seed: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one prescribed-curvature solve.

    ``residual`` is the relative residual max|r - c z| / (|c| max z) of the
    Ricci coefficients r of the returned metric (when diverged, of the
    best escaping start's last one) against the target z.  Status "solved"
    implies residual <= tolerance, c > 0 and the constraint holds;
    "diverged" reports which coordinates collapsed (the escaping subalgebra
    direction); "inconclusive" covers exhausted budgets and failed
    certification.
    """

    status: str
    x: Optional[DiagonalForm]
    c: Optional[float]
    residual: Optional[float]
    S_value: Optional[float]
    constraint_error: Optional[float]
    starts_used: int
    iterations: int
    collapsed: tuple[int, ...] = ()
    start_values: tuple[float, ...] = ()
    condition: Optional[ConditionReport] = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "x": None if self.x is None else [float(v) for v in self.x.values],
            "c": self.c,
            "residual": self.residual,
            "S": self.S_value,
            "constraint_error": self.constraint_error,
            "starts_used": self.starts_used,
            "iterations": self.iterations,
            "collapsed": list(self.collapsed),
            "start_S_values": [float(v) for v in self.start_values],
            "condition": None if self.condition is None else self.condition.to_dict(),
            "notes": list(self.notes),
        }


@dataclass
class _StartOutcome:
    S: float
    u: np.ndarray
    c: float
    residual: float
    status: str  # converged | stalled | collapsed | budget
    iterations: int
    certified: bool
    collapsed: tuple[int, ...]
    rejected: int  # trial points with non-finite curvature


class _Evaluator:
    """Preallocated kernel calls for one model/target pair (single-threaded)."""

    def __init__(self, model: SpaceModel, z: np.ndarray):
        full = tuple(range(1, model.s + 1))
        self.tab = curvature.tables_for(model, full)
        self.z = z
        self.dz = self.tab.d * z

    def value_and_ricci(
        self, u: np.ndarray, out_r: np.ndarray, out_jac: Optional[np.ndarray] = None
    ) -> float:
        return self.tab.value_and_ricci(self.dz / u, out_r, out_jac)

    def fit(self, r: np.ndarray) -> tuple[float, float]:
        """Least-squares c for r = c z, and the relative residual
        max|r - c z| / (|c| max z), the same for T and any multiple of T
        (over max z alone when c = 0, so that it stays finite)."""
        d, z = self.tab.d, self.z
        c = float(np.dot(d * r, z) / np.dot(d * z, z))
        return c, float(np.max(np.abs(r - c * z)) / ((abs(c) or 1.0) * np.max(z)))


def _softmax(v: np.ndarray) -> np.ndarray:
    w = np.exp(v - np.max(v))
    return w / np.sum(w)


def _run_start(ev: _Evaluator, v0: np.ndarray, opts: SolverOptions) -> _StartOutcome:
    n = len(v0)
    z = ev.z
    v = v0 - np.max(v0)
    u = _softmax(v)
    r, r_t = np.empty(n), np.empty(n)
    jac, jac_t = np.empty((n, n)), np.empty((n, n))
    # Newton system of F(u) = c 1, sum u = 1 in the unknowns (du, c)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, n] = -1.0
    kkt[n, :n] = 1.0
    S = ev.value_and_ricci(u, r, jac)
    c, res = ev.fit(r)
    alpha = 1.0
    history: deque = deque(maxlen=STAGNATION_WINDOW + 1)
    history.append(S)
    iterations = 0
    rejected = 0

    while True:
        interior = float(np.min(u)) >= COLLAPSE_THRESHOLD
        certified = res <= opts.residual_tol and c > 0
        F = r / z
        cbar = float(u @ F)
        p = F - cbar
        gv = u * p
        # F, c and S scale alike with the target, hence the relative test.
        # Uncertified in the interior, a vanishing gradient means escaping
        # coordinates that stopped registering: go on until they collapse.
        if float(np.max(np.abs(gv))) <= GRADIENT_TOL * abs(cbar) and (
            certified or not interior
        ):
            break
        if len(history) == history.maxlen and S - history[0] <= 1e-12 * (1.0 + abs(S)):
            break
        if iterations == opts.max_iterations:
            break
        # dF_i/du_m = -J[i, m] / z_i * x_m / u_m, with x = dz / u
        kkt[:n, :n] = jac * (-ev.dz / (u * u)) / z[:, None]
        try:
            du = np.linalg.solve(kkt, np.append(-F, 0.0))[:n]
            slope = float(F @ du)
        except np.linalg.LinAlgError:
            slope = 0.0
        newton = slope > 0
        if newton:
            shrink = du < 0
            t = min(1.0, 0.9 * float(np.min(u[shrink] / -du[shrink]))) if shrink.any() else 1.0
        else:
            slope, t = float(gv @ p), alpha
        accepted = False
        for _ in range(60):
            if newton:
                u_t = u + t * du
                u_t /= np.sum(u_t)
            else:
                v_t = v + t * p
                v_t -= np.max(v_t)
                u_t = _softmax(v_t)
            if np.all(u_t > 0):
                S_t = ev.value_and_ricci(u_t, r_t, jac_t)
                if not (np.isfinite(S_t) and np.all(np.isfinite(r_t))):
                    rejected += 1
                elif S_t >= S + 1e-4 * t * slope:
                    accepted = True
                elif newton and S_t >= S:
                    accepted = ev.fit(r_t)[1] < res
                if accepted:
                    break
            t *= 0.5
            # rounding in S hides any gain of a shorter step
            if t * slope <= 1e-15 * abs(S):
                break
        if not accepted:
            break
        if newton:
            v = np.log(u_t)
        else:
            v = v_t
            alpha = min(t * 2.0, 1e12)
        u, S = u_t, S_t
        r, r_t = r_t, r
        jac, jac_t = jac_t, jac
        c, res = ev.fit(r)
        iterations += 1
        history.append(S)

    if certified:
        status = "converged"
    elif iterations == opts.max_iterations:
        status = "budget"
    else:
        status = "collapsed" if not interior else "stalled"
    return _StartOutcome(
        S=S,
        u=u,
        c=c,
        residual=res,
        status=status,
        iterations=iterations,
        certified=certified,
        collapsed=tuple(int(i) + 1 for i in np.flatnonzero(u < COLLAPSE_THRESHOLD)),
        rejected=rejected,
    )


def _most_accurate(outcomes: list[_StartOutcome]) -> _StartOutcome:
    """Of the starts tied in S with the highest to rounding, the one with the
    smallest residual."""
    top = max(outcomes, key=lambda o: o.S)
    tied = [o for o in outcomes if top.S - o.S <= 1e-12 * (1.0 + abs(top.S))]
    # a non-finite top S ties with no start
    return min(tied, key=lambda o: o.residual, default=top)


def _as_target(model: SpaceModel, T: DiagonalForm) -> np.ndarray:
    if not isinstance(T, DiagonalForm):
        raise SolverError("target must be a DiagonalForm")
    if T.support != tuple(range(1, model.s + 1)):
        raise SolverError("target form must cover the full index set")
    return np.array([float(v) for v in T.values], dtype=np.float64)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def maximize_S_on_MT(
    model: SpaceModel, T: DiagonalForm, options: Optional[SolverOptions] = None
) -> SolveReport:
    """Multistart Newton ascent of S over the constraint set, certified.

    Starts are seeded deterministically; the first start is the constant
    multiple of the background form that sits on the constraint set.  Each
    runs the module's one ascent until it converges (projected gradient
    vanished, residual certified), collapses, stalls or spends its budget.
    A certified start makes "solved"; else a collapsed start makes
    "diverged"; else "inconclusive".  Of the starts that decide the status,
    the report returns the most accurate one tied in S with the highest.
    Overflow raises no warning: a note counts the rejected trial points with
    non-finite curvature.
    """
    opts = options or SolverOptions()
    z = _as_target(model, T)
    # Ric g = c T is the same problem for every multiple of T: the ascent
    # runs on z / 2**k with max z / 2**k in [1, 2), and x, c and S are
    # mapped back by 2**k, exactly, so that S, r and the Jacobian neither
    # overflow nor underflow at any scale of T.
    k = int(np.frexp(np.max(z))[1]) - 1
    ev = _Evaluator(model, np.ldexp(z, -k))
    base = np.log(ev.dz)
    if model.s == 1:
        # the constraint set is a point: the base start, and no steps
        outcomes = [_run_start(ev, base, replace(opts, max_iterations=0))]
    else:
        rng = np.random.default_rng(opts.seed)
        v0s = [base] + [
            base + rng.normal(0.0, 0.75, size=model.s) for _ in range(opts.multistarts - 1)
        ]
        outcomes = [_run_start(ev, v0, opts) for v0 in v0s]

    certified = [o for o in outcomes if o.certified]
    collapsed = [o for o in outcomes if o.status == "collapsed"]
    if certified:
        status, best = "solved", _most_accurate(certified)
        notes = ()
    elif collapsed:
        status, best = "diverged", _most_accurate(collapsed)
        notes = (
            "supremum appears unattained; coordinates "
            f"{best.collapsed} escaped (x there grows without bound)",
        )
    else:
        status, best = "inconclusive", _most_accurate(outcomes)
        notes = (
            "no start certified; best residual " + format(best.residual, ".3e")
            + ("" if best.c > 0 else f", c = {np.ldexp(best.c, -k):.3e} not positive"),
        )
    rejected = sum(o.rejected for o in outcomes)
    if rejected:
        notes += (f"{rejected} trial points with non-finite curvature rejected",)

    xb = ev.dz / best.u
    x = None if status == "diverged" else DiagonalForm.full(tuple(np.ldexp(xb, k).tolist()))
    return SolveReport(
        status=status,
        x=x,
        c=None if x is None else float(np.ldexp(best.c, -k)),
        residual=best.residual,
        S_value=float(np.ldexp(best.S, -k)),
        constraint_error=None if x is None else abs(float(np.sum(ev.dz / xb)) - 1.0),
        starts_used=len(outcomes),
        iterations=sum(o.iterations for o in outcomes),
        collapsed=best.collapsed if status == "diverged" else (),
        start_values=tuple(np.ldexp([o.S for o in outcomes], -k).tolist()),
        notes=notes,
    )


def solve_prescribed_ricci(
    model: SpaceModel,
    T: DiagonalForm,
    options: Optional[SolverOptions] = None,
) -> SolveReport:
    """Solve Ric g = c T for the given positive target form.

    Runs the chain conditions first (advisory: a failing or unknown check
    does not stop the solve), then maximizes S on the constraint set; a
    "solved" report is certified componentwise on exactly the metric it
    returns.
    """
    opts = options or SolverOptions()
    notes: list[str] = []
    condition = None
    try:
        condition = check_theorem(model, T)
        if not condition.passed:
            notes.append("chain condition failed; existence not guaranteed")
    except HypothesisViolatedError as exc:
        notes.append(f"hypothesis violated: {exc}")
    except EtaUndefinedError as exc:
        notes.append(f"eta undefined: {exc}")

    report = maximize_S_on_MT(model, T, opts)
    return replace(report, condition=condition, notes=tuple(notes) + report.notes)
