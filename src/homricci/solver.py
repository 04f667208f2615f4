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
residual without lowering S; a trial point with non-finite curvature, or
without a positive u_i, is rejected, counted and halved like any other.

The MULTISTARTS seeded starts run in lockstep: each start keeps its own
state as one row of arrays, and each round builds the new steps of the
starts that have just accepted one in one stacked linear solve, makes one
trial point per running start, evaluates them all in one batched kernel
call, and accepts or halves each.  Every operation acts on each row alone,
so a start's outcome is bit for bit the one it has run alone.

A start stops when its projected gradient vanishes, if its residual
certifies or some u_i is below the collapse threshold; when its line search
accepts no step; or after MAX_ITERATIONS steps.  "solved" is certified
componentwise on the returned metric x = d z / u: c > 0 and the relative
residual max_i |r_i - c z_i| / (c max_i z_i) is at most tol; scaling T
scales c inversely and leaves the residual unchanged.  Collapse with no
certified start is reported as "diverged" -- evidence that the supremum
is not attained, never a proof of nonexistence.
"""

from __future__ import annotations

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


# A solve runs MULTISTARTS starts of at most MAX_ITERATIONS steps each; a
# start stops once its projected gradient is this small relative to the
# multiplier, or some u_i falls below the collapse threshold (see
# _run_starts).
MULTISTARTS = 16
MAX_ITERATIONS = 10_000
GRADIENT_TOL = 1e-10
COLLAPSE_THRESHOLD = 1e-12


@dataclass
class SolverOptions:
    residual_tol: float = 1e-8
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
    certification, and a certified answer whose x or c is beyond the float
    range at the scale of T.  Any of x, c, S and the start values that is
    beyond the float range is None, so that ``to_dict`` is strict JSON.
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
    start_values: tuple[Optional[float], ...] = ()
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
            "start_S_values": list(self.start_values),
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
    rejected: int  # trial points with non-finite curvature or some u_i <= 0


class _Evaluator:
    """Kernel calls and the fit of r = c z for one model/target pair, on
    batches of points u (m, n) on the simplex."""

    def __init__(self, model: SpaceModel, z: np.ndarray):
        full = tuple(range(1, model.s + 1))
        self.tab = curvature.tables_for(model, full)
        self.z = z
        self.dz = self.tab.d * z
        self.dzz = float(np.dot(self.dz, z))
        self.zmax = float(np.max(z))

    def value_and_ricci(self, u: np.ndarray, out_r: np.ndarray, out_jac: np.ndarray) -> np.ndarray:
        """S at each row of u (m, n); fills out_r (m, n) and out_jac (m, n, n)."""
        return self.tab.value_and_ricci(self.dz / u, out_r, out_jac)

    def fit(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares c for r = c z, and the relative residual
        max|r - c z| / (|c| max z), the same for T and any multiple of T
        (over max z alone when c = 0, so that it stays finite); per row of
        r, along its last axis."""
        c = np.vecdot(self.tab.d * r, self.z) / self.dzz
        scale = np.where(c == 0, 1.0, np.abs(c)) * self.zmax
        return c, np.abs(r - c[..., None] * self.z).max(axis=-1) / scale


def _softmax(v: np.ndarray) -> np.ndarray:
    w = np.exp(v - v.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


class _Starts:
    """The running starts of one solve, one row each (see ``_run_starts``).

    ``step`` is the Newton step du where ``newton`` is set, else the
    centered softmax gradient p; ``t`` is the trial step length and
    ``tries`` the trials of the current line search.
    """

    __slots__ = (
        "index", "v", "u", "S", "r", "jac", "c", "res", "alpha",
        "iterations", "rejected", "step", "t", "slope", "newton", "tries",
    )

    def keep(self, rows: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[rows])


def _newton_solve(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The stacked solve; when a matrix is singular, the stack is solved one
    by one and each singular matrix's row is NaN."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(len(kkt)):
            try:
                out[i] = np.linalg.solve(kkt[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _outcome(st: _Starts, i: int, tol: float, budget: int) -> _StartOutcome:
    u = st.u[i]
    c, res, iterations = float(st.c[i]), float(st.res[i]), int(st.iterations[i])
    certified = res <= tol and c > 0
    if certified:
        status = "converged"
    elif iterations == budget:
        status = "budget"
    else:
        status = "stalled" if float(np.min(u)) >= COLLAPSE_THRESHOLD else "collapsed"
    return _StartOutcome(
        S=float(st.S[i]),
        u=u.copy(),
        c=c,
        residual=res,
        status=status,
        iterations=iterations,
        certified=certified,
        collapsed=tuple(int(j) + 1 for j in np.flatnonzero(u < COLLAPSE_THRESHOLD)),
        rejected=int(st.rejected[i]),
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _run_starts(ev: _Evaluator, V0: np.ndarray, tol: float, budget: int) -> list[_StartOutcome]:
    """Run the ascent from each row of V0 (softmax coordinates), all starts
    in lockstep, each for at most ``budget`` steps, certifying at residual
    ``tol``; the outcomes in the order of the rows.

    Every start follows its own ascent (see the module docstring), and its
    outcome is the one it has run alone.  Each round makes one stacked
    linear solve, for the Newton steps of the starts that have just accepted
    a step, and one kernel call, at the trial point of every running start
    (the first of a new step or a halved one of its line search).  A start
    leaves the batch when it stops.
    """
    m, n = V0.shape
    z, dz = ev.z, ev.dz
    st = _Starts()
    st.index = np.arange(m)
    st.v = V0 - V0.max(axis=1, keepdims=True)
    st.u = _softmax(st.v)
    st.r, st.jac = np.empty((m, n)), np.empty((m, n, n))
    st.S = ev.value_and_ricci(st.u, st.r, st.jac)
    st.c, st.res = ev.fit(st.r)
    st.alpha = np.ones(m)
    st.iterations = np.zeros(m, dtype=np.int64)
    st.rejected = np.zeros(m, dtype=np.int64)
    st.step, st.t, st.slope = np.empty((m, n)), np.empty(m), np.empty(m)
    st.newton = np.zeros(m, dtype=bool)
    st.tries = np.zeros(m, dtype=np.int64)
    outcomes: list = [None] * m
    fresh = np.ones(m, dtype=bool)

    def stop(rows: np.ndarray) -> None:
        if rows.any():
            for i in np.flatnonzero(rows):
                outcomes[st.index[i]] = _outcome(st, i, tol, budget)
            st.keep(~rows)

    while len(st.index):
        # A new step for every start that has just accepted one (or begun).
        if fresh.any():
            f = slice(None) if fresh.all() else np.flatnonzero(fresh)
            u = st.u[f]
            F = st.r[f] / z
            cbar = np.vecdot(u, F)
            p = F - cbar[:, None]
            gv = u * p
            # F, c and S scale alike with the target, hence the relative test.
            # Uncertified in the interior, a vanishing gradient means escaping
            # coordinates that stopped registering: go on until they collapse.
            certified = (st.res[f] <= tol) & (st.c[f] > 0)
            interior = u.min(axis=1) >= COLLAPSE_THRESHOLD
            done = (np.abs(gv).max(axis=1) <= GRADIENT_TOL * np.abs(cbar)) & (
                certified | ~interior
            )
            done |= st.iterations[f] == budget
            # Newton system of F(u) = c 1, sum u = 1 in the unknowns (du, c);
            # dF_i/du_m = -J[i, m] / z_i * x_m / u_m, with x = dz / u
            kkt = np.zeros((len(u), n + 1, n + 1))
            kkt[:, :n, n] = -1.0
            kkt[:, n, :n] = 1.0
            kkt[:, :n, :n] = st.jac[f] * (-dz / (u * u))[:, None, :] / z[:, None]
            rhs = np.zeros((len(u), n + 1, 1))
            rhs[:, :n, 0] = -F
            du = _newton_solve(kkt, rhs)[:, :n, 0]
            slope = np.vecdot(F, du)
            # a singular system (NaN du) takes the gradient step
            newton = slope > 0
            ratio = np.where(du < 0, u / -du, np.inf).min(axis=1)
            st.t[f] = np.where(newton, np.minimum(1.0, 0.9 * ratio), st.alpha[f])
            st.slope[f] = np.where(newton, slope, np.vecdot(gv, p))
            st.step[f] = np.where(newton[:, None], du, p)
            st.newton[f] = newton
            st.tries[f] = 0
            ended = np.zeros(len(st.index), dtype=bool)
            ended[f] = done
            stop(ended)

        if not len(st.index):
            break

        # One trial point per running start, all in one kernel call.
        u_t = st.u + st.t[:, None] * st.step
        u_t /= u_t.sum(axis=1, keepdims=True)
        v_t = st.v + st.t[:, None] * st.step
        v_t -= v_t.max(axis=1, keepdims=True)
        u_t = np.where(st.newton[:, None], u_t, _softmax(v_t))
        k = len(st.index)
        r_t, jac_t = np.empty((k, n)), np.empty((k, n, n))
        S_t = ev.value_and_ricci(u_t, r_t, jac_t)
        finite = np.isfinite(S_t) & np.isfinite(r_t).all(axis=1) & (u_t > 0).all(axis=1)
        st.rejected += ~finite
        c_t, res_t = ev.fit(r_t)
        # an Armijo increase of S, or a Newton step that lowers the residual
        # without lowering S
        fresh = finite & (
            (S_t >= st.S + 1e-4 * st.t * st.slope)
            | (st.newton & (S_t >= st.S) & (res_t < st.res))
        )
        row = fresh[:, None]
        st.v = np.where(row, np.where(st.newton[:, None], np.log(u_t), v_t), st.v)
        st.alpha = np.where(fresh & ~st.newton, np.minimum(st.t * 2.0, 1e12), st.alpha)
        st.u, st.r = np.where(row, u_t, st.u), np.where(row, r_t, st.r)
        st.jac = np.where(row[:, :, None], jac_t, st.jac)
        st.S = np.where(fresh, S_t, st.S)
        st.c = np.where(fresh, c_t, st.c)
        st.res = np.where(fresh, res_t, st.res)
        st.iterations += fresh
        st.t = np.where(fresh, st.t, 0.5 * st.t)
        st.tries += ~fresh
        # rounding in S hides any gain of a shorter step
        failed = ~fresh & ((st.t * st.slope <= 1e-15 * np.abs(st.S)) | (st.tries == 60))
        fresh = fresh[~failed]
        stop(failed)
    return outcomes


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
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    try:
        z = np.array([float(v) for v in T.values], dtype=np.float64)
    except OverflowError:  # an exact coefficient beyond the largest double
        z = None
    # a subnormal z_i has lost precision, and c, of order 1/z, overflows
    if z is None or not (np.all(np.isfinite(z)) and np.min(z) >= tiny):
        raise SolverError(f"target coefficients must be normal doubles, {tiny:.4g} to {huge:.4g}")
    return z


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
        V0, budget = base[None, :], 0
    else:
        rng = np.random.default_rng(opts.seed)
        V0 = np.vstack([base, base + rng.normal(0.0, 0.75, size=(MULTISTARTS - 1, model.s))])
        budget = MAX_ITERATIONS
    outcomes = _run_starts(ev, V0, opts.residual_tol, budget)

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
    x, c, S = np.ldexp(xb, k), float(np.ldexp(best.c, -k)), float(np.ldexp(best.S, -k))
    if status != "diverged" and not (np.all(np.isfinite(x)) and np.isfinite(c)):
        # certified at T / 2**k, but the answer at T has no double
        status = "inconclusive"
        notes += ("x or c is beyond the float range at this scale of T; rescale T",)
    returns_x = status != "diverged" and bool(np.all(np.isfinite(x)))
    return SolveReport(
        status=status,
        x=DiagonalForm.full(tuple(x.tolist())) if returns_x else None,
        c=c if status != "diverged" and np.isfinite(c) else None,
        residual=best.residual,
        S_value=S if np.isfinite(S) else None,
        constraint_error=abs(float(np.sum(ev.dz / xb)) - 1.0) if returns_x else None,
        starts_used=len(outcomes),
        iterations=sum(o.iterations for o in outcomes),
        collapsed=best.collapsed if status == "diverged" else (),
        start_values=tuple(
            v if np.isfinite(v) else None for v in np.ldexp([o.S for o in outcomes], -k).tolist()
        ),
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
