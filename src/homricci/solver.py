"""Constrained maximization of scalar curvature and the certified solve.

Three methods solve Ric g = c T, tried in turn, and each either decides
the status or passes the target on to the next (``maximize_S_on_MT``).  For
s <= 3 the exact root count decides all three statuses; it passes the
target on only where the s = 3 elimination is degenerate.
Levenberg-Marquardt decides "solved" where it certifies a start, and else
passes the target on.  The multistart ascent of S then decides between
"diverged" and "inconclusive"; it certifies nothing.

One, two and three summands are solved exactly, but where the s = 3
elimination is degenerate.  For s = 1 the constraint set
is the one point x = d z, the one root.  For s = 2 and s = 3,
Ric g = c T is solved exactly on the polynomial Ricci core
(``_elimination``), each r_i times x_2^2 ... x_s^2 as an integer
polynomial at x = (1, x_2, ..., x_s), with T as exact integers.

For s = 2, along x = (1, t), P(t) = M t^2 (z_2 r_1 - z_1 r_2) is a
polynomial of degree at most 4, and dS/dt has the sign of P.  Since d,
z > 0 and every [ijk] >= 0 its coefficients' signs, lowest degree first,
are (+, +, any, -, -), zeros allowed.  By Descartes' rule of signs P has
exactly one positive root, a simple one, when its nonzero coefficients
change sign, and none otherwise.  The root is isolated and kept when
c = r_1 / z_1 > 0 there, decided exactly: the at most one admissible root,
so unless P vanishes identically (below) the solution is unique up to
scale.  With no root the escaping coordinate is x_2 when P > 0 (S grows
as t grows without bound) and x_1 when P < 0.  When P vanishes
identically (both singletons close and T is parallel to r), every t
solves, and the solve returns t = 1, the base start.  A float T is read
at its exact value, so it is parallel to r only when that value is.

For s = 3, along x = (1, t, u), the positive roots t of the resultant
R(t) = Res_u(E_1, E_2) of E_1 = z_2 r_1 - z_1 r_2 and E_2 = z_3 r_1 -
z_1 r_3 (numerators) are isolated exactly, R made square-free only where
isolation cannot separate them, and u = -b(t) / a(t) is read off the
first subresultant (both from one subresultant chain).  One pass over the
roots decides each: a root is admissible when u > 0 and c > 0, both
decided exactly, and one whose isolating interval already shows u < 0 is
never read.  Where two solutions share a rational t_0 (a(t_0) = 0), u is
solved for at t_0 exactly.  Where E_1 and E_2 share a factor with points
at t, u > 0 (a curve of solutions), or a vanishes at an irrational
positive root, the float solve decides instead, with a note; so it does where
a float T has no admissible root but R is within the rounding of T of
vanishing identically, since a target that T rounds may have a curve of
solutions.

Either way an isolated root is refined to 55 bits by exact secant-Newton
steps, the first from a float estimate that exact signs confirm, ending on
the interval bisection would reach, and read as a float; for s = 3, u
once -b / a at the ends of t's interval rounds to doubles at most 1 ulp
apart.  The report returns the certified root with the highest S, and
lists every admissible root.  With no admissible root no solution exists,
so for s <= 3 "diverged" is a proof of nonexistence (of an exact solution
for T as given).

For s >= 4, and for s = 3 where the exact elimination above is degenerate,
Levenberg-Marquardt decides every "solved": a minimum-norm Newton solve of
Ric g = c T itself, F = r(x) - c z = 0 in the unknowns
w_j = log(x_j / x_1), j >= 2, and c, with the Jacobian columns
x_j dr/dx_j from the kernel's Ricci Jacobian and -z.  Each step solves
(A^T A + mu I) delta = -A^T F; mu starts at 1e-3 and is divided by 3 after
a step that lowers |F| and multiplied by 4 after one that does not, which
is rejected.  It needs no isolated maximizer of S: where the solutions
form a family, so that A is rank-deficient, the damped step tends to the
minimum-norm one and lands on a point of the family.  The MULTISTARTS
seeded starts run one at a time, in seed order, one point per kernel call.
A start stops after LM_START_CALLS kernel calls; once it stalls, where the
least |F|^2 of its last 12 kernel calls is not below half the least before
them; or when a step is not finite or moves a ratio x_j / x_1 e**40 away
from its start.  Once its float residual is at most tol with c > 0, and
|F| has stopped shrinking fast (the last trial was rejected, or the last
step shrank |F| less than fourfold) or the start stops at the cap or
stalls, its metric is certified.  The first start to certify ends the
solve "solved": a certified solution, first in seed order, and not
necessarily the maximizer of S.  With no start certified it passes the
target on.

For s >= 4 "solved" is a residual certificate, not a proof that a solution
exists, and it can hold at a metric escaping to infinity: with the exact
path set aside, Levenberg-Marquardt certifies SU(3)/T at T = (3, 3, 2),
where the exact root count proves that no solution exists, at
x = (4.33e8, 4.33e8, 4.0) with residual 8.4e-10.

The ascent of S, which the target reaches only where Levenberg-Marquardt
certifies no start, decides between "diverged" and "inconclusive"; it
certifies nothing.  The feasible set
{x positive : sum d_i z_i / x_i = 1} is the image of the open unit simplex
under u_i = d_i z_i / x_i.  In u the gradient of S is F = r / z, so
Ric g = c T is the Lagrange system F(u) = c 1, sum u = 1 of maximizing S
on the simplex.  Each step solves the Newton system of that Lagrange
system, with the Hessian dF/du built from the kernel's analytic Ricci
Jacobian, and takes the Newton step when it ascends (F . du > 0), capped
at 0.9 of the distance to the boundary.  Otherwise it steps along F
centered at its u-average in softmax coordinates (u = softmax(v)), an
ascent direction that keeps escaping coordinates moving at unit speed when
no maximizer exists (some u_i then collapses to 0, i.e. x_i grows without
bound).  One backtracking line search accepts an Armijo increase of S; a
trial point with non-finite curvature, or without a positive u_i, is
rejected, counted and halved like any other.

The MULTISTARTS seeded starts run in lockstep: each start keeps its own
state as one row of arrays, and each round builds the new steps of the
starts that have just accepted one in one stacked linear solve, evaluates
one trial point per running start in one batched kernel call, and accepts
or halves each.  Every operation acts on each row alone, so a start's
outcome is bit for bit the one it has run alone.

A start stops when its projected gradient vanishes with some u_i below the
collapse threshold; when its line search accepts no step, as it does at an
interior critical point of S; or after MAX_ITERATIONS steps ("budget").
One that stops before its budget has then "collapsed" where some u_i is
below the threshold, and its outcome names those i; else it has
"stalled".  A collapsed start makes the solve "diverged" -- evidence that
the supremum is not attained, never a proof of nonexistence -- and
otherwise it is "inconclusive".

Every "solved", at every s and whichever method found its metric, has one
certificate (``_elimination.certify``): on the returned float metric,
rescaled onto the constraint set, c > 0 and the relative residual
max_i |r_i - c z_i| / (c max_i z_i) is at most tol, decided in exact
arithmetic with no kernel call from r in integers by the curvature pass
over the model's triple rows (``curvature._evaluate``); c, the residual
and S are the correctly rounded floats of their exact values (at
T / 2**k, mapped back exactly unless the figure at T is subnormal).
Scaling T scales c inversely and leaves the residual unchanged.  A
certified metric whose x or c has no double at the scale of T makes the
solve "inconclusive" instead.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .chains import (
    ConditionReport,
    EtaUndefinedError,
    HypothesisViolatedError,
    check_theorem,
)
from .model import DiagonalForm, ModelError, SolverError, SpaceModel, _check_count
from .numbers import format_number, ldexp


# A solve runs MULTISTARTS starts of at most MAX_ITERATIONS steps each; a
# start stops once some u_i falls below the collapse threshold and its
# projected gradient is this small relative to the multiplier (see
# _run_starts).
MULTISTARTS = 16
MAX_ITERATIONS = 10_000
# Levenberg-Marquardt makes at most LM_START_CALLS kernel calls a start, and
# fewer where the start stalls (see _levenberg_marquardt).
LM_START_CALLS = 32
GRADIENT_TOL = 1e-10
COLLAPSE_THRESHOLD = 1e-12
# The normal doubles, the targets a solve takes.
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


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
    certification, a certified answer whose x or c is beyond the float
    range at the scale of T, and an exact root whose ratio x_j / x_1 is
    beyond the float range, at every scale of T.  Any figure that is not
    finite is None, as ``numbers.format_number`` spells it, so that
    ``to_json`` is strict JSON.

    In every "solved" report c, the residual and S are the correctly
    rounded floats of their exact values at the returned metric (see the
    module docstring).  For s >= 4 Levenberg-Marquardt decides every
    "solved", each start within LM_START_CALLS kernel calls (its note reads
    "minimum-norm Newton on Ric g = c T; N kernel calls"): ``starts_used``
    counts the starts it ran, in seed order, the certified one last;
    ``iterations`` counts their accepted steps; and ``start_values`` holds S
    at each start's last metric, on the constraint set.  The ascent decides
    only "diverged" and "inconclusive"; there they count and describe its
    MULTISTARTS starts and its iterations.

    For s <= 3 (see the module docstring) the starts are the admissible
    roots of the exact solve: ``starts_used`` counts them, ``start_values``
    holds the exact S at each, rounded, ``iterations`` is 0, and
    ``solutions`` holds the metric at each, in the order of x_2 / x_1 (it
    is None where the float solve decided).  "diverged" is then a proof
    that no solution exists, and its residual and S are None, since no
    point was evaluated; for s = 3 it names no escaping coordinates.
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
    solutions: Optional[tuple[tuple[Optional[float], ...], ...]] = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        """The report as one line of JSON, byte for byte what ``json.dumps``
        writes, with the chain report's own line in place at its key."""
        head = json.dumps({
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
        }, check_circular=False)
        tail = json.dumps({
            "solutions": None if self.solutions is None else [list(x) for x in self.solutions],
            "notes": list(self.notes),
        }, check_circular=False)
        condition = "null" if self.condition is None else self.condition.to_json()
        return f'{head[:-1]}, "condition": {condition}, {tail[1:]}'

    def to_dict(self) -> dict:
        return json.loads(self.to_json())


@dataclass
class _StartOutcome:
    """A start's or an exact root's outcome at the target z / 2**k (see
    ``maximize_S_on_MT``): its metric x = d z / u, S and c there."""

    S: float
    x: list[float]
    c: float
    residual: float
    iterations: int
    certified: bool
    collapsed: tuple[int, ...]  # the ascent's u_i below the threshold; none at its budget
    rejected: int  # trial points with non-finite curvature or some u_i <= 0
    beyond: tuple[int, ...] = ()  # an exact root's j whose x_j / x_1 has no double
    # an exact check's floor(log2 |c|), also where c has no double; else
    # read off c
    c_exponent: Optional[int] = None


class _Evaluator:
    """Kernel calls and the fit of r = c z for one model/target pair, on
    batches of points u (m, n) on the simplex."""

    def __init__(self, model: SpaceModel, z: Sequence[float]):
        self.arrays = model.kernel_arrays
        self.d = self.arrays[2]
        self.z = np.asarray(z, dtype=np.float64)
        self.dz = self.d * self.z
        self.dzz = float(np.dot(self.dz, self.z))
        self.zmax = float(max(z))

    def at(self, x: np.ndarray, out_r: np.ndarray, out_jac: np.ndarray) -> np.ndarray:
        """S at each row of x (m, n), the metrics; fills out_r (m, n) and
        out_jac (m, n, n); the kernel is read off ``_kernels`` at call time."""
        return _kernels.value_and_ricci(*self.arrays, x, out_r, out_jac)

    def fit(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares c for r = c z, and the relative residual
        max|r - c z| / (|c| max z), the same for T and any multiple of T
        (over max z alone when c = 0, so that it stays finite); per row of
        r, along its last axis."""
        c = np.vecdot(self.d * r, self.z) / self.dzz
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
        "index", "v", "u", "S", "r", "jac", "alpha",
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


def _outcome(st: _Starts, i: int, ev: _Evaluator) -> _StartOutcome:
    u = st.u[i]
    c, res = ev.fit(st.r[i])
    iterations = int(st.iterations[i])
    return _StartOutcome(
        S=float(st.S[i]),
        x=(ev.dz / u).tolist(),
        c=float(c),
        residual=float(res),
        iterations=iterations,
        certified=False,
        # a start that spent its budget has not collapsed
        collapsed=() if iterations == MAX_ITERATIONS else tuple(
            int(j) + 1 for j in np.flatnonzero(u < COLLAPSE_THRESHOLD)
        ),
        rejected=int(st.rejected[i]),
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _run_starts(ev: _Evaluator, V0: np.ndarray) -> list[_StartOutcome]:
    """Run the ascent from each row of V0 (softmax coordinates), all starts
    in lockstep, each for at most MAX_ITERATIONS steps; the outcomes in the
    order of the rows.

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
    st.S = ev.at(dz / st.u, st.r, st.jac)
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
                outcomes[st.index[i]] = _outcome(st, i, ev)
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
            # In the interior a vanishing gradient may mean escaping
            # coordinates that stopped registering: go on until they collapse
            # or the line search stalls.
            done = (np.abs(gv).max(axis=1) <= GRADIENT_TOL * np.abs(cbar)) & (
                u.min(axis=1) < COLLAPSE_THRESHOLD
            )
            done |= st.iterations[f] == MAX_ITERATIONS
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

        # One trial point per running start, all in one kernel call: u + t du,
        # renormalised, on a Newton row, softmax(v + t p) on a gradient one.
        newton, step = st.newton[:, None], st.t[:, None] * st.step
        u_t = st.u + step
        u_t /= u_t.sum(axis=1, keepdims=True)
        v_t = st.v + step
        v_t -= v_t.max(axis=1, keepdims=True)
        u_t = np.where(newton, u_t, _softmax(v_t))
        k = len(st.index)
        r_t, jac_t = np.empty((k, n)), np.empty((k, n, n))
        S_t = ev.at(dz / u_t, r_t, jac_t)
        finite = np.isfinite(S_t) & np.isfinite(r_t).all(axis=1) & (u_t > 0).all(axis=1)
        st.rejected += ~finite
        # an Armijo increase of S, and a strict one: at a critical point of S
        # no step is accepted, and the line search stalls
        fresh = finite & (S_t >= st.S + 1e-4 * st.t * st.slope) & (S_t > st.S)
        row = fresh[:, None]
        st.v = np.where(row, np.where(newton, np.log(u_t), v_t), st.v)
        st.alpha = np.where(fresh & ~st.newton, np.minimum(st.t * 2.0, 1e12), st.alpha)
        st.u, st.r = np.where(row, u_t, st.u), np.where(row, r_t, st.r)
        st.jac = np.where(row[:, :, None], jac_t, st.jac)
        st.S = np.where(fresh, S_t, st.S)
        st.iterations += fresh
        st.t = np.where(fresh, st.t, 0.5 * st.t)
        st.tries += ~fresh
        # rounding in S hides any gain of a shorter step
        failed = ~fresh & ((st.t * st.slope <= 1e-15 * np.abs(st.S)) | (st.tries == 60))
        fresh = fresh[~failed]
        stop(failed)
    return outcomes


def _seeded_starts(ev: _Evaluator, seed: int) -> np.ndarray:
    """The seeded starts in softmax coordinates, one per row: the base start,
    the constant multiple of the background form that sits on the
    constraint set, then MULTISTARTS - 1 random ones."""
    base = np.log(ev.dz)
    rng = np.random.default_rng(seed)
    return np.vstack([base, base + rng.normal(0.0, 0.75, size=(MULTISTARTS - 1, len(base)))])


def _on_constraint(dz: Sequence[float], point: Sequence[float]) -> list[float]:
    """The multiple of the metric ``point`` on the constraint set, as the
    ascent reads one: x = dz / u at u = dz / point, normalised (a quotient by
    0 is inf, as in numpy)."""
    u = [a / b if b else math.inf for a, b in zip(dz, point)]
    total = sum(u)
    u = [v / total for v in u]
    return [a / v if v else math.inf for a, v in zip(dz, u)]


def _certified(
    model: SpaceModel, T: DiagonalForm, dz: Sequence[float], point: Sequence[float], k: int,
    tol: float, iterations: int = 0, rejected: int = 0,
) -> _StartOutcome:
    """The outcome at the multiple of the float metric ``point`` on the
    constraint set, for the target z = T / 2**k with dz = d z: c, the
    residual, S and the certificate at residual ``tol`` in exact arithmetic
    (``_elimination.certify``); ``iterations`` and ``rejected`` count the
    steps and the rejected trial points that reached it."""
    # the exact algebra is imported on first use, so that a process that
    # certifies nothing never compiles it
    from . import _elimination

    # a ratio x_j / x_1 beyond the float range reads as 0 or inf, and then no
    # scale of T gives the point a float metric
    beyond = tuple(j for j, v in enumerate(point, start=1) if not 0 < v < math.inf)
    x = _on_constraint(dz, point)
    c, residual, S, certified, e = _elimination.certify(model, T, x, k, tol)
    return _StartOutcome(S, x, c, residual, iterations, certified, (), rejected, beyond, e)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _levenberg_marquardt(
    model: SpaceModel, T: DiagonalForm, ev: _Evaluator, V0: np.ndarray, k: int, tol: float
) -> Optional[tuple]:
    """Levenberg-Marquardt on r(x) - c z = 0 (see the module docstring) from
    each row of V0 in turn, at the target z = T / 2**k, each start for at
    most LM_START_CALLS kernel calls and until it stalls.  It decides
    "solved" at the first start whose metric certifies in exact arithmetic
    at residual ``tol``: the verdict holds the outcomes of the starts run,
    the certified one last, and a note that counts the kernel calls made.
    Where no start certifies it passes the target on: None."""
    z, dz = ev.z, ev.dz
    n = len(z)
    # the Jacobian of F = r - c z in (w_2, ..., w_n, c), w_j = log(x_j / x_1):
    # dF/dw_j = x_j dr/dx_j, and dF/dc = -z
    A = np.empty((n, n))
    A[:, -1] = -z
    diagonal = np.arange(n) * (n + 1)
    x = np.ones((1, n))  # the kernel's point, x_1 = 1
    r, jac = np.empty((1, n)), np.empty((1, n, n))
    r_t, jac_t = np.empty((1, n)), np.empty((1, n, n))
    outcomes: list[_StartOutcome] = []
    calls = 0
    for v in V0:
        u = _softmax(v)
        w0 = w = np.log(u[0] * dz[1:] / (u[1:] * dz[0]))
        x[0, 1:] = np.exp(w)
        S = ev.at(x, r, jac)[0]
        calls += 1
        c = float(ev.fit(r[0])[0])
        F = r[0] - c * z
        norm = float(F @ F)
        mu, steps, rejected = 1e-3, 0, 0
        # |F| has stopped shrinking fast: the last trial was rejected, or the
        # last step shrank it less than fourfold
        settled = norm == 0
        least = [norm]  # the least |F|^2 after each of the start's kernel calls
        while math.isfinite(norm):
            # the last 12 calls did not halve the least |F|^2 before them
            stalled = len(least) > 12 and not least[-1] < least[-13] / 2
            done = stalled or len(least) == LM_START_CALLS
            if settled or done:
                c_fit, res = ev.fit(r[0])
                if res <= tol and c_fit > 0:
                    outcome = _certified(model, T, dz, x[0].tolist(), k, tol, steps, rejected)
                    if outcome.certified:
                        outcomes.append(outcome)
                        note = f"minimum-norm Newton on Ric g = c T; {calls} kernel call"
                        return "solved", outcome, outcomes, (), (note + "s" * (calls != 1),)
            if done:
                break
            A[:, :-1] = jac[0, :, 1:] * x[0, 1:]
            H = A.T @ A
            H.flat[diagonal] += mu
            try:
                step = np.linalg.solve(H, A.T @ F)
            except np.linalg.LinAlgError:  # mu below the rounding of H
                step = np.full(n, np.nan)
            w_t, c_t = w - step[:-1], c - float(step[-1])
            # a start whose ratios x_j / x_1 move e**40 away escapes
            if not np.abs(w_t - w0).max() <= 40:
                break
            x_t = x.copy()
            x_t[0, 1:] = np.exp(w_t)
            S_t = ev.at(x_t, r_t, jac_t)[0]
            calls += 1
            F_t = r_t[0] - c_t * z
            norm_t = float(F_t @ F_t)
            finite = math.isfinite(S_t) and math.isfinite(norm_t)
            rejected += not finite
            if finite and norm_t < norm:
                settled = norm_t > norm / 16.0
                w, c, x, S, F, norm = w_t, c_t, x_t, S_t, F_t, norm_t
                r, r_t, jac, jac_t = r_t, r, jac_t, jac
                mu, steps = mu / 3.0, steps + 1
            else:
                mu, settled = mu * 4.0, True
            least.append(norm)
        # uncertified: the start's last metric, on the constraint set, where
        # S is the kernel's S over the scale
        scale = float(np.sum(dz / x[0]))
        c_fit, res = ev.fit(r[0])
        outcomes.append(_StartOutcome(
            float(S) / scale, (x[0] * scale).tolist(), float(c_fit), float(res), steps, False,
            (), rejected,
        ))
    return None


def _exact_roots(
    model: SpaceModel, T: DiagonalForm, dz: list[float], k: int, tol: float
) -> Optional[tuple]:
    """The s <= 3 solve (see the module docstring) at the target
    z = T / 2**k, with dz = d z, which decides every status: "solved" at an
    admissible root certified at residual ``tol`` in exact arithmetic,
    "diverged" (with, for s = 2, the coordinate that escapes) where there is
    none, and else "inconclusive", over an outcome for each admissible root.
    It passes the target on, None, only where the s = 3 elimination is
    degenerate."""
    from . import _elimination

    points, escaped = [(1.0,)], ()
    if model.s == 2:
        points, escaped = _elimination.two_summand_points(model, T)
    elif model.s == 3:
        points = _elimination.three_summand_points(model, T)
    if points is None:
        return None
    outcomes = [_certified(model, T, dz, point, k, tol) for point in points]
    certified = [o for o in outcomes if o.certified]
    if certified:
        return "solved", _most_accurate(certified), outcomes, (), ()
    if not outcomes:
        return "diverged", None, outcomes, escaped, (
            "no solution exists: the exact root count finds no root with x > 0 and c > 0"
            + (f"; coordinates {escaped} escape (x there grows without bound)" if escaped else ""),
        )
    best = _most_accurate(outcomes)
    if not best.beyond:
        return "inconclusive", best, outcomes, (), (_uncertified("no root", best, k),)
    ratios = " and ".join(f"x_{j} / x_1" for j in best.beyond)
    return "inconclusive", best, outcomes, (), (
        f"a root exists, but {ratios} there " + ("is" if len(best.beyond) == 1 else "are")
        + " beyond the float range; no scale of T brings it into range",
    )


def _ascent(ev: _Evaluator, V0: np.ndarray, k: int) -> tuple:
    """The multistart ascent from the rows of V0 (``_run_starts``), at the
    target z = T / 2**k, which tells "diverged", where some start collapsed,
    from "inconclusive"; it certifies nothing."""
    outcomes = _run_starts(ev, V0)
    collapsed = [o for o in outcomes if o.collapsed]
    if collapsed:
        best = _most_accurate(collapsed)
        return "diverged", best, outcomes, best.collapsed, (
            f"supremum appears unattained; coordinates {best.collapsed} escaped"
            " (x there grows without bound)",
        )
    best = _most_accurate(outcomes)
    return "inconclusive", best, outcomes, (), (_uncertified("no start", best, k),)


def _uncertified(subject: str, best: _StartOutcome, k: int) -> str:
    """The note on an "inconclusive" verdict at the target z = T / 2**k
    whose returned outcome ``best`` failed the certificate."""
    return (
        f"{subject} certified; best residual {best.residual:.3e}"
        + ("" if best.c > 0 else f", c = {ldexp(best.c, -k):.3e} not positive")
    )


def _rescalable(z: list[float], best: _StartOutcome) -> bool:
    """Whether some 2**j makes the target 2**j z, the metric 2**j x and the
    multiplier 2**-j c of an outcome at z normal doubles together."""
    e = [math.frexp(v)[1] - 1 for v in (*z, *best.x)]
    e_c = math.frexp(best.c)[1] - 1 if best.c_exponent is None else best.c_exponent
    return max(-1022 - min(e), e_c - 1023) <= min(1023 - max(e), e_c + 1022)


def _most_accurate(outcomes: list[_StartOutcome]) -> _StartOutcome:
    """Of the starts tied in S with the highest to rounding, the one with the
    smallest residual."""
    top = max(outcomes, key=lambda o: o.S)
    tied = [o for o in outcomes if top.S - o.S <= 1e-12 * (1.0 + abs(top.S))]
    # a non-finite top S ties with no start
    return min(tied, key=lambda o: o.residual, default=top)


def _as_target(model: SpaceModel, T: DiagonalForm) -> list[float]:
    if not isinstance(T, DiagonalForm):
        raise SolverError("target must be a DiagonalForm")
    _check_count(T, model.s, "target form", SolverError)
    try:
        z = [float(v) for v in T.values]
    except OverflowError:  # an exact coefficient beyond the largest double
        z = None
    # a subnormal z_i has lost precision, and c, of order 1/z, overflows
    if z is None or not all(_TINY <= v <= _HUGE for v in z):
        raise SolverError(
            f"target coefficients must be normal doubles, {_TINY:.4g} to {_HUGE:.4g}"
        )
    # far beyond this bound the smallest coefficient of z / 2**k (see
    # maximize_S_on_MT) underflows to 0.  Int true division raises beyond
    # the float range.
    _, ints = T.integers
    try:
        max(ints) / min(ints)
    except OverflowError:
        raise SolverError("target out of range: max z / min z is beyond the float range") from None
    return z


def maximize_S_on_MT(
    model: SpaceModel, T: DiagonalForm, options: Optional[SolverOptions] = None
) -> SolveReport:
    """Solve Ric g = c T on the constraint set: the exact roots for s <= 3,
    else Levenberg-Marquardt, else the multistart Newton ascent of S.

    Each method returns its verdict, (status, best, outcomes, escaped,
    notes), or None to pass the target on to the next (see the module
    docstring):

    - ``_exact_roots`` decides every status for s <= 3 over the admissible
      roots: a certified root makes "solved", no admissible root makes
      "diverged", a proof of nonexistence, and only uncertified ones
      "inconclusive".  It passes on only where the s = 3 elimination is
      degenerate.
    - ``_levenberg_marquardt`` runs the seeded starts in seed order; the
      first start it certifies in exact arithmetic makes "solved", with a
      note that counts its kernel calls.  Else it passes on.
    - ``_ascent`` runs each start until it collapses, stalls or spends its
      budget: a collapsed start makes "diverged", and else the solve is
      "inconclusive".

    Starts are seeded deterministically; the first start is the constant
    multiple of the background form that sits on the constraint set.  Of
    the starts or roots that decide the status, the report returns the
    most accurate one tied in S with the highest.  Overflow raises no
    warning: a note counts the rejected trial points with non-finite
    curvature.
    """
    if model.killing is None:
        raise SolverError("model must be validated (killing coefficients missing)")
    opts = options or SolverOptions()
    z = _as_target(model, T)
    # Ric g = c T is the same problem for every multiple of T: the solve
    # runs on z / 2**k with max z / 2**k in [1, 2), and x, c and S are
    # mapped back by 2**k, exactly, so that S, r and the Jacobian neither
    # overflow nor underflow at any scale of T.
    k = math.frexp(max(z))[1] - 1
    z = [math.ldexp(v, -k) for v in z]
    dz = [d * v for d, v in zip(model.dims, z)]
    tol = opts.residual_tol
    verdict = _exact_roots(model, T, dz, k, tol) if model.s <= 3 else None
    exact = verdict is not None
    if not exact:
        ev = _Evaluator(model, z)
        V0 = _seeded_starts(ev, opts.seed)
        verdict = _levenberg_marquardt(model, T, ev, V0, k, tol) or _ascent(ev, V0, k)
    status, best, outcomes, escaped, notes = verdict
    if model.s == 3 and not exact:
        notes = (
            "the exact elimination is degenerate here, or T is within rounding "
            "of a target where it is (a curve of solutions, or two at one root); the "
            + ("minimum-norm Newton" if status == "solved" else "multistart ascent") + " decided",
        ) + notes
    rejected = sum(o.rejected for o in outcomes)
    if rejected:
        noun = "trial point" if rejected == 1 else "trial points"
        notes += (f"{rejected} {noun} with non-finite curvature rejected",)

    x = c = S = None
    if best is not None:
        x, c, S = [ldexp(v, k) for v in best.x], ldexp(best.c, -k), ldexp(best.S, -k)
        if c == 0 and (best.c != 0 or best.c_exponent is not None):
            c = math.nan  # c is not 0 but rounds to it at T: it has no double
    if status != "diverged" and not (all(map(math.isfinite, x)) and math.isfinite(c)):
        # certified at T / 2**k, but the answer at T has no double
        status = "inconclusive"
        if not best.beyond:
            notes += (
                "x or c is beyond the float range at this scale of T; "
                + ("rescale T" if _rescalable(z, best) else
                   "no scale of T brings x and c into the float range together"),
            )
    returns_x = status != "diverged" and all(map(math.isfinite, x))
    return SolveReport(
        status=status,
        x=DiagonalForm.full(tuple(x)) if returns_x else None,
        c=c if status != "diverged" and math.isfinite(c) else None,
        residual=None if best is None else format_number(best.residual),
        S_value=format_number(S),
        # numpy's sum, whose order of additions differs from sum() for s >= 8
        constraint_error=abs(float(np.sum(np.divide(dz, best.x))) - 1.0) if returns_x else None,
        starts_used=len(outcomes),
        iterations=sum(o.iterations for o in outcomes),
        collapsed=escaped,
        start_values=tuple(format_number(ldexp(o.S, -k)) for o in outcomes),
        solutions=None if not exact else tuple(
            tuple(format_number(ldexp(v, k)) for v in o.x) for o in outcomes
        ),
        notes=notes,
    )


def solve_prescribed_ricci(
    model: SpaceModel,
    T: DiagonalForm,
    options: Optional[SolverOptions] = None,
) -> SolveReport:
    """Solve Ric g = c T for the given positive target form.

    Maximizes S on the constraint set and attaches the chain conditions
    (advisory: a failing or unknown check does not change the solve); a
    "solved" report is certified componentwise on exactly the metric it
    returns.
    """
    return _with_chain_check(model, T, maximize_S_on_MT(model, T, options))


def _with_chain_check(model: SpaceModel, T: DiagonalForm, report: SolveReport) -> SolveReport:
    """The solve ``report`` for T with the chain check of T attached: its
    condition, None where the check cannot be taken (as where the lattice
    is beyond its guard), and a note on a failing or unknown check before
    the report's own notes."""
    notes: list[str] = []
    condition = None
    try:
        condition = check_theorem(model, T)
        if not condition.passed:
            # for s <= 3 the solve decides existence exactly
            gloss = "" if model.s <= 3 else "; existence not guaranteed"
            notes.append("chain condition failed" + gloss)
    except HypothesisViolatedError as exc:
        notes.append(f"hypothesis violated: {exc}")
    except EtaUndefinedError as exc:
        notes.append(f"eta undefined: {exc}")
    except ModelError as exc:  # the lattice guard
        notes.append(f"chain condition not checked: {exc}")
    return replace(report, condition=condition, notes=tuple(notes) + report.notes)
