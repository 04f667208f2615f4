"""Scalar curvature, its modified companion, and Ricci coefficients.

All operations act on diagonal data: a metric restricted to the summands in
an index set J is just its positive coefficient vector there.  The two
functionals are

    S(x, J)    = 1/2 sum_{i in J} d_i b_i / x_i
                 - 1/4 sum_{i,j,k in J} [ijk] x_k / (x_i x_j),

    Shat(x, J) = S(x, J) - 1/2 sum_{i in J} (sum_{j,k outside J} [ijk]) / x_i,

and the Ricci coefficients relative to the background form are

    r_i = b_i/2 + x_i^2/(4 d_i) sum_{j,k} [jki]/(x_j x_k)
          - 1/(2 d_i) sum_{j,k} [ijk] x_k / x_j,

equivalently r_i = -(x_i^2/d_i) dS/dx_i, so the gradient of S comes for free.

Exact (Fraction) inputs are evaluated exactly; float inputs go through the
numpy kernel in ``_kernels``, as a batch of one point taken to the scale
[1, 2) and mapped back exactly, so that no scale of x a double holds
overflows.  Evaluation tables per (model, index set) are cached, since the
optimizer calls the kernel in a tight loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .model import DiagonalForm, SpaceModel
from .numbers import Scalar, to_float


class CurvatureError(ValueError):
    """Raised for evaluation requests outside an operation's domain."""


class _Tables:
    """Flat float64 arrays for one (model, index set) pair."""

    __slots__ = ("d", "b", "db", "ti", "tj", "tk", "tv")

    def __init__(self, model: SpaceModel, J: tuple[int, ...]):
        pos = {g: i for i, g in enumerate(J)}
        self.d = np.array([model.dims[g - 1] for g in J], dtype=np.float64)
        self.b = np.array([to_float(model.killing[g - 1]) for g in J], dtype=np.float64)
        self.db = self.d * self.b
        inside = set(J)
        rows = [
            (pos[a], pos[bb], pos[c], to_float(v))
            for a, bb, c, v in model.ordered_triples
            if a in inside and bb in inside and c in inside
        ]
        self.ti = np.array([r[0] for r in rows], dtype=np.int64)
        self.tj = np.array([r[1] for r in rows], dtype=np.int64)
        self.tk = np.array([r[2] for r in rows], dtype=np.int64)
        self.tv = np.array([r[3] for r in rows], dtype=np.float64)

    def value_and_ricci(
        self, x: np.ndarray, out_r: np.ndarray, out_jac: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """S on this index set at each row of the float coefficients x (m, n);
        fills out_r (m, n) with the Ricci coefficients and, if given, out_jac
        (m, n, n) with dr/dx (see ``_kernels`` for the formulas)."""
        return _kernels.value_and_ricci(
            self.db, self.b, self.d, self.ti, self.tj, self.tk, self.tv, x, out_r, out_jac
        )

    def at_any_scale(self, x: np.ndarray, out_r: np.ndarray) -> float:
        """S at the one point x (length n), out_r filled with its Ricci
        coefficients, at any scale of x that a double holds.

        The kernel runs at x / 2**k with max x / 2**k in [1, 2): r does not
        depend on the scale, and S(x) = 2**-k S(x / 2**k), exactly, so
        neither overflows nor underflows where the result fits.
        """
        k = int(np.frexp(np.max(x))[1]) - 1
        S = self.value_and_ricci(np.ldexp(x, -k)[None, :], out_r[None, :])
        return float(np.ldexp(S[0], -k))


def tables_for(model: SpaceModel, J: tuple[int, ...]) -> _Tables:
    if model.killing is None:
        raise CurvatureError("model must be validated (killing coefficients missing)")
    tab = model.kernel_tables.get(J)
    if tab is None:
        tab = model.kernel_tables[J] = _Tables(model, J)
    return tab


def _resolve_J(model: SpaceModel, x: DiagonalForm, J) -> tuple[int, ...]:
    if J is None:
        J = x.support
    J = tuple(sorted(set(int(i) for i in J)))
    if J and (J[0] < 1 or J[-1] > model.s):
        raise CurvatureError(f"indices {J} out of range for s={model.s}")
    return J


def _use_exact(model: SpaceModel, x: DiagonalForm) -> bool:
    return model.exact and x.exact


def scalar_S(model: SpaceModel, x: DiagonalForm, J: Optional[Sequence[int]] = None) -> Scalar:
    """Scalar curvature of the diagonal metric x restricted to J.

    J defaults to the form's support; an empty J gives 0.
    """
    J = _resolve_J(model, x, J)
    if not J:
        return Fraction(0) if _use_exact(model, x) else 0.0
    xr = x.restrict(J)
    if _use_exact(model, x):
        inside = set(J)
        lin = sum(model.dims[i - 1] * model.killing[i - 1] / xr[i] for i in J)
        # a Fraction start keeps an empty triple sum exact
        tri = sum(
            (
                v * xr[c] / (xr[a] * xr[b])
                for a, b, c, v in model.ordered_triples
                if a in inside and b in inside and c in inside
            ),
            Fraction(0),
        )
        return lin / 2 - tri / 4
    xs = np.array([float(xr[i]) for i in J], dtype=np.float64)
    return tables_for(model, J).at_any_scale(xs, np.empty(len(J)))


def hat_S(model: SpaceModel, x: DiagonalForm, J_k: Optional[Sequence[int]] = None) -> Scalar:
    """Modified scalar curvature on a subalgebra's index set.

    Penalizes S by the bracket mass flowing into the complement; coincides
    with scalar_S when J_k is the full index set.  J_k is expected to be a
    lattice member (not enforced here).
    """
    J_k = _resolve_J(model, x, J_k)
    if not J_k:
        raise CurvatureError("hat_S needs a non-empty index set")
    xr = x.restrict(J_k)
    inside = set(J_k)
    penalty = sum(
        (
            v / xr[a]
            for a, b, c, v in model.ordered_triples
            if a in inside and b not in inside and c not in inside
        ),
        Fraction(0),
    )
    return scalar_S(model, xr, J_k) - penalty / 2


def ricci(model: SpaceModel, x: DiagonalForm) -> tuple[Scalar, ...]:
    """Ricci coefficients of the full diagonal metric, relative to Q.

    Scale invariant: ricci(c*x) == ricci(x).  Coefficients may be negative,
    so the result is a plain tuple rather than a DiagonalForm.
    """
    full = tuple(range(1, model.s + 1))
    if x.support != full:
        raise CurvatureError("ricci needs a form on the full index set")
    if _use_exact(model, x):
        s = model.s
        acc_a = [Fraction(0)] * s
        acc_b = [Fraction(0)] * s
        for a, b, c, v in model.ordered_triples:
            acc_a[c - 1] += v / (x[a] * x[b])
            acc_b[a - 1] += v * x[c] / x[b]
        return tuple(
            model.killing[i - 1] / 2
            + x[i] ** 2 * acc_a[i - 1] / (4 * model.dims[i - 1])
            - acc_b[i - 1] / (2 * model.dims[i - 1])
            for i in full
        )
    xs = np.array([float(x[i]) for i in full], dtype=np.float64)
    out = np.empty(model.s, dtype=np.float64)
    tables_for(model, full).at_any_scale(xs, out)
    return tuple(float(v) for v in out)


def grad_S(model: SpaceModel, x: DiagonalForm) -> tuple[Scalar, ...]:
    """Analytic gradient of scalar_S on the full index set: dS/dx_i = -d_i r_i / x_i^2."""
    r = ricci(model, x)
    return tuple(
        -model.dims[i - 1] * r[i - 1] / (x[i] * x[i]) for i in range(1, model.s + 1)
    )
