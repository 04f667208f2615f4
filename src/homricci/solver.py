"""Constrained maximization of scalar curvature and the certified solve.

The feasible set {x positive : sum d_i z_i / x_i = 1} is the image of the
open unit simplex under u_i = d_i z_i / x_i, so the constraint is eliminated
exactly; optimization runs in softmax coordinates v (u = softmax(v)), where
positivity is automatic.  The ascent direction used is the ratio vector
r_i / z_i centered at its u-average: its inner product with the true
v-gradient u_i (r_i/z_i - cbar) is a positive combination of squares, and it
keeps escaping coordinates moving at unit speed when a maximizer fails to
exist (some u_i then collapses to 0, i.e. x_i grows without bound).

A converged or stalled start is polished by a damped Newton iteration on the
critical-point system r(u) = c z, sum u = 1 (finite-difference Jacobian),
then certified componentwise on the returned metric x = d z / u: status
"solved" requires max_i |r_i - c z_i| <= tol * max_i z_i with c > 0.
Collapse of some u_i below threshold with stagnating curvature value is
reported as "diverged" -- evidence that the supremum is not attained, never
a proof of nonexistence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
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


@dataclass
class SolverOptions:
    residual_tol: float = 1e-8
    gradient_tol: float = 1e-10
    max_iterations: int = 10_000
    multistarts: int = 16
    seed: int = 0
    stagnation_window: int = 100
    collapse_threshold: float = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one prescribed-curvature solve.

    status "solved" implies residual <= tolerance, c > 0 and the constraint
    holds; "diverged" reports which coordinates collapsed (the escaping
    subalgebra direction); "inconclusive" covers exhausted budgets and
    failed certification.
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
    alternates: tuple[DiagonalForm, ...] = ()
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
            "alternates": [[float(v) for v in alt.values] for alt in self.alternates],
            "condition": None if self.condition is None else self.condition.to_dict(),
            "notes": list(self.notes),
        }


@dataclass
class _StartOutcome:
    S: float
    u: np.ndarray
    r: np.ndarray
    c: float
    residual: float
    status: str  # converged | stalled | collapsed | budget
    iterations: int
    certified: bool = False
    collapsed: tuple[int, ...] = field(default_factory=tuple)


class _Evaluator:
    """Preallocated kernel calls for one model/target pair (single-threaded)."""

    def __init__(self, model: SpaceModel, z: np.ndarray):
        full = tuple(range(1, model.s + 1))
        self.tab = curvature.tables_for(model, full)
        self.z = z
        self.dz = self.tab.d * z

    def value_and_ricci(self, u: np.ndarray, out_r: np.ndarray) -> float:
        return self.tab.value_and_ricci(self.dz / u, out_r)

    def fit_c(self, r: np.ndarray) -> float:
        d, z = self.tab.d, self.z
        return float(np.dot(d * r, z) / np.dot(d * z, z))

    def residual(self, r: np.ndarray, c: float) -> float:
        return float(np.max(np.abs(r - c * self.z)) / np.max(self.z))


def _softmax(v: np.ndarray) -> np.ndarray:
    w = np.exp(v - np.max(v))
    return w / np.sum(w)


#: residual level at which the gradient phase hands over to Newton polish
_POLISH_TRIGGER = 1e-6


def _run_start(ev: _Evaluator, v0: np.ndarray, opts: SolverOptions) -> _StartOutcome:
    n = len(v0)
    v = v0 - np.max(v0)
    u = _softmax(v)
    r = np.empty(n)
    r_trial = np.empty(n)
    S = ev.value_and_ricci(u, r)
    alpha = 1.0
    history: deque = deque(maxlen=opts.stagnation_window + 1)
    history.append(S)
    status = "budget"
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        interior = float(np.min(u)) >= opts.collapse_threshold
        ratio = r / ev.z
        cbar = float(u @ ratio)
        p = ratio - cbar
        gv = u * p
        gnorm = float(np.max(np.abs(gv)))
        if gnorm <= opts.gradient_tol:
            # A vanishing projected gradient at the boundary only means the
            # escaping coordinates stopped registering: that is collapse.
            status = "converged" if interior else "collapsed"
            break
        if interior and ev.residual(r, ev.fit_c(r)) <= _POLISH_TRIGGER:
            status = "converged"
            break
        if (
            len(history) == history.maxlen
            and S - history[0] <= 1e-12 * (1.0 + abs(S))
        ):
            status = "stalled" if interior else "collapsed"
            break
        slope = float(gv @ p)
        a = alpha
        accepted = False
        for _ in range(60):
            v_t = v + a * p
            v_t -= np.max(v_t)
            u_t = _softmax(v_t)
            if np.all(u_t > 0):
                S_t = ev.value_and_ricci(u_t, r_trial)
                if S_t >= S + 1e-4 * a * slope:
                    accepted = True
                    break
            a *= 0.5
        if not accepted:
            status = "stalled" if interior else "collapsed"
            break
        v, u, S = v_t, u_t, S_t
        r, r_trial = r_trial, r
        alpha = min(a * 2.0, 1e12)
        history.append(S)

    c = ev.fit_c(r)
    res = ev.residual(r, c)
    collapsed = tuple(
        int(i) + 1 for i in np.flatnonzero(u < opts.collapse_threshold)
    )
    return _StartOutcome(
        S=S,
        u=u,
        r=r.copy(),
        c=c,
        residual=res,
        status=status,
        iterations=iterations,
        collapsed=collapsed,
    )


def _polish(ev: _Evaluator, u0: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Damped Newton on r(u) - c z = 0, sum(u) = 1, with (u, c) unknowns."""
    n = len(u0)
    u = u0.copy()
    r = np.empty(n)
    ev.value_and_ricci(u, r)
    c = ev.fit_c(r)
    jac = np.empty((n + 1, n + 1))
    r_pert = np.empty(n)
    for _ in range(30):
        G = np.concatenate([r - c * ev.z, [np.sum(u) - 1.0]])
        gnorm = float(np.max(np.abs(G)))
        if gnorm <= 1e-14 * max(1.0, abs(c)):
            break
        for m in range(n):
            h = 1e-7 * max(u[m], 1e-9)
            u_p = u.copy()
            u_p[m] += h
            ev.value_and_ricci(u_p, r_pert)
            jac[:n, m] = (r_pert - r) / h
            jac[n, m] = 1.0
        jac[:n, n] = -ev.z
        jac[n, n] = 0.0
        try:
            delta = np.linalg.solve(jac, -G)
        except np.linalg.LinAlgError:
            break
        du, dc = delta[:n], float(delta[n])
        t = 1.0
        negative = du < 0
        if negative.any():
            t = min(1.0, float(0.9 * np.min(-u[negative] / du[negative])))
        improved = False
        for _ in range(12):
            u_t = u + t * du
            if np.all(u_t > 0):
                ev.value_and_ricci(u_t, r_pert)
                c_t = c + t * dc
                G_t = np.concatenate([r_pert - c_t * ev.z, [np.sum(u_t) - 1.0]])
                if float(np.max(np.abs(G_t))) < gnorm:
                    u, c = u_t, c_t
                    r[:] = r_pert
                    improved = True
                    break
            t *= 0.5
        if not improved:
            break
    total = np.sum(u)
    if total > 0:
        u = u / total
    return u


def _as_target(model: SpaceModel, T: DiagonalForm) -> np.ndarray:
    if not isinstance(T, DiagonalForm):
        raise SolverError("target must be a DiagonalForm")
    if T.support != tuple(range(1, model.s + 1)):
        raise SolverError("target form must cover the full index set")
    return np.array([float(v) for v in T.values], dtype=np.float64)


def maximize_S_on_MT(
    model: SpaceModel, T: DiagonalForm, options: Optional[SolverOptions] = None
) -> SolveReport:
    """Multistart ascent of S over the constraint set, with certification.

    Starts are seeded deterministically; the first start is the constant
    multiple of the background form that sits on the constraint set.  All
    starts run to completion and are merged by best certified value.
    """
    opts = options or SolverOptions()
    z = _as_target(model, T)
    ev = _Evaluator(model, z)
    s = model.s

    if s == 1:
        x1 = float(ev.dz[0])
        u = np.array([1.0])
        r = np.empty(1)
        S = ev.value_and_ricci(u, r)
        c = float(r[0] / z[0])
        status = "solved" if c > 0 else "inconclusive"
        return SolveReport(
            status=status,
            x=DiagonalForm.full((x1,)),
            c=c,
            residual=0.0,
            S_value=float(S),
            constraint_error=abs(model.dims[0] * z[0] / x1 - 1.0),
            starts_used=1,
            iterations=0,
            start_values=(float(S),),
            notes=() if c > 0 else ("single-summand space with non-positive curvature",),
        )

    rng = np.random.default_rng(opts.seed)
    base = np.log(ev.dz)
    v0s = [base.copy()]
    for _ in range(max(0, opts.multistarts - 1)):
        v0s.append(base + rng.normal(0.0, 0.75, size=s))

    outcomes: list[_StartOutcome] = []
    for v0 in v0s:
        out = _run_start(ev, v0, opts)
        if (
            out.status in ("converged", "stalled")
            and out.residual < 1e-3
            and float(np.min(out.u)) > 1e-10
        ):
            u = _polish(ev, out.u, opts)
            r = np.empty(s)
            S = ev.value_and_ricci(u, r)
            c = ev.fit_c(r)
            res = ev.residual(r, c)
            if res <= out.residual:
                out.u, out.r, out.S, out.c, out.residual = u, r, float(S), c, res
        out.certified = out.residual <= opts.residual_tol and out.c > 0
        outcomes.append(out)

    certified = [o for o in outcomes if o.certified]
    iterations = sum(o.iterations for o in outcomes)
    start_values = tuple(float(o.S) for o in outcomes)

    def build_x(u: np.ndarray) -> DiagonalForm:
        return DiagonalForm.full(tuple(float(v) for v in ev.dz / u))

    if certified:
        best = max(certified, key=lambda o: o.S)
        x = build_x(best.u)
        alternates = []
        xb = np.asarray(x.values, dtype=float)
        for o in certified:
            if o is best or best.S - o.S > 1e-9 * (1.0 + abs(best.S)):
                continue
            xo = ev.dz / o.u
            if float(np.max(np.abs(xo - xb)) / np.max(xb)) > 1e-6:
                cand = build_x(o.u)
                if all(
                    float(np.max(np.abs(np.asarray(a.values) - xo)) / np.max(xb)) > 1e-6
                    for a in alternates
                ):
                    alternates.append(cand)
        constraint = abs(float(np.sum(ev.dz / np.asarray(x.values, dtype=float))) - 1.0)
        return SolveReport(
            status="solved",
            x=x,
            c=best.c,
            residual=best.residual,
            S_value=best.S,
            constraint_error=constraint,
            starts_used=len(outcomes),
            iterations=iterations,
            start_values=start_values,
            alternates=tuple(alternates),
        )

    collapsed_runs = [o for o in outcomes if o.status == "collapsed"]
    if collapsed_runs:
        best = max(collapsed_runs, key=lambda o: o.S)
        return SolveReport(
            status="diverged",
            x=None,
            c=None,
            residual=best.residual,
            S_value=best.S,
            constraint_error=None,
            starts_used=len(outcomes),
            iterations=iterations,
            collapsed=best.collapsed,
            start_values=start_values,
            notes=(
                "supremum appears unattained; coordinates "
                f"{best.collapsed} escaped (x there grows without bound)",
            ),
        )

    best = max(outcomes, key=lambda o: o.S)
    return SolveReport(
        status="inconclusive",
        x=build_x(best.u),
        c=best.c,
        residual=best.residual,
        S_value=best.S,
        constraint_error=None,
        starts_used=len(outcomes),
        iterations=iterations,
        start_values=start_values,
        notes=("no start certified; best residual " + format(best.residual, ".3e"),),
    )


def solve_prescribed_ricci(
    model: SpaceModel,
    T: DiagonalForm,
    options: Optional[SolverOptions] = None,
    check_condition: bool = True,
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
    if check_condition:
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
