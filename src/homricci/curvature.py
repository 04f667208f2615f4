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

Each operation reads one pass over the model's triple rows (``_evaluate``),
the kernel's formulas (see ``_kernels``) in plain Python: exact when the
model and x are exact, otherwise on floats at x / 2**k with max x / 2**k in
[1, 2), mapped back exactly, so that no scale of x a double holds overflows.
Float r is bit-identical to the kernel's at that point; float S and Shat are
summed by ``math.fsum``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .model import DiagonalForm, SpaceModel
from .numbers import Scalar, ldexp, ratio, to_float


class CurvatureError(ValueError):
    """Raised for evaluation requests outside an operation's domain."""


def _exponent(v) -> int:
    """floor(log2 v) of a positive float or Fraction, exactly."""
    n, d = v.as_integer_ratio()
    k = n.bit_length() - d.bit_length()
    return k - (n < d << k if k >= 0 else n << -k < d)


def _scaled(v, k: int) -> float:
    """The float nearest v / 2**k, infinite beyond the float range."""
    n, d = v.as_integer_ratio()
    return ratio(n << -k, d) if k < 0 else ratio(n, d << k)


def _resolve_J(model: SpaceModel, x: DiagonalForm, J) -> tuple[int, ...]:
    if J is None:
        J = x.support
    J = tuple(sorted(set(int(i) for i in J)))
    if J and (J[0] < 1 or J[-1] > model.s):
        raise CurvatureError(f"indices {J} out of range for s={model.s}")
    return J


def _evaluate(model: SpaceModel, x: DiagonalForm, J: tuple[int, ...]) -> tuple:
    """(S, Shat, r) on the non-empty index set J at x, over the rows of
    ``model.ordered_triples`` inside J (see the module docstring); each float
    r_i takes the kernel's operations in its order, on x / 2**k rounded once."""
    if model.killing is None:
        raise CurvatureError("model must be validated (killing coefficients missing)")
    values = x.restrict(J).values
    exact = model.exact and x.exact
    if exact:
        k, xs, num = 0, values, Fraction
    else:
        k = _exponent(max(values))
        xs = [_scaled(v, k) for v in values]
        if min(xs) < sys.float_info.min:
            raise CurvatureError(
                "form coefficients span beyond the float range: some x_i / max x "
                "is not a normal double"
            )
        num = to_float
    pos = {g: i for i, g in enumerate(J)}
    d = [model.dims[g - 1] for g in J]
    b = [num(model.killing[g - 1]) for g in J]
    inv = [1 / v for v in xs]
    acc_a, acc_b = [num(0)] * len(J), [num(0)] * len(J)
    terms = [di * bi * vi / 2 for di, bi, vi in zip(d, b, inv)]
    penalty = []
    for a, bb, c, v in model.ordered_triples:
        i, j, m = pos.get(a), pos.get(bb), pos.get(c)
        if i is None:
            continue
        v = num(v)
        if j is not None and m is not None:
            contrib = v * inv[i] * inv[j]
            acc_a[m] += contrib
            acc_b[i] += v * xs[m] * inv[j]
            terms.append(-(contrib * xs[m]) / 4)
        elif j is None and m is None:
            penalty.append(-(v * inv[i]) / 2)
    r = [
        bi / 2 + xi * xi * ai / (4 * di) - bbi / (2 * di)
        for bi, xi, ai, bbi, di in zip(b, xs, acc_a, acc_b, d)
    ]
    if exact:
        return sum(terms), sum(terms + penalty), r
    return ldexp(math.fsum(terms), -k), ldexp(math.fsum(terms + penalty), -k), r


def scalar_S(model: SpaceModel, x: DiagonalForm, J: Optional[Sequence[int]] = None) -> Scalar:
    """Scalar curvature of the diagonal metric x restricted to J.

    J defaults to the form's support; an empty J gives 0.
    """
    J = _resolve_J(model, x, J)
    if not J:
        return Fraction(0) if model.exact and x.exact else 0.0
    return _evaluate(model, x, J)[0]


def hat_S(model: SpaceModel, x: DiagonalForm, J_k: Optional[Sequence[int]] = None) -> Scalar:
    """Modified scalar curvature on a subalgebra's index set.

    Penalizes S by the bracket mass flowing into the complement; coincides
    with scalar_S when J_k is the full index set.  J_k is expected to be a
    lattice member (not enforced here).
    """
    J_k = _resolve_J(model, x, J_k)
    if not J_k:
        raise CurvatureError("hat_S needs a non-empty index set")
    return _evaluate(model, x, J_k)[1]


def ricci(model: SpaceModel, x: DiagonalForm) -> tuple[Scalar, ...]:
    """Ricci coefficients of the full diagonal metric, relative to Q.

    Scale invariant: ricci(c*x) == ricci(x).  Coefficients may be negative,
    so the result is a plain tuple rather than a DiagonalForm.
    """
    full = tuple(range(1, model.s + 1))
    if x.support != full:
        raise CurvatureError("ricci needs a form on the full index set")
    return tuple(_evaluate(model, x, full)[2])


def grad_S(model: SpaceModel, x: DiagonalForm) -> tuple[Scalar, ...]:
    """Analytic gradient of scalar_S on the full index set: dS/dx_i = -d_i r_i / x_i^2.

    On floats x_i^2 is squared exactly and rounded once, as m 2**e with m in
    [1, 2), so the quotient is that of -d_i r_i by the double nearest x_i^2
    at any scale; a value beyond the float range is infinite.
    """
    r = ricci(model, x)
    if model.exact and x.exact:
        return tuple(-d * ri / (v * v) for d, ri, v in zip(model.dims, r, x.values))
    out = []
    for d, ri, v in zip(model.dims, r, x.values):
        square = Fraction(v) ** 2
        e = _exponent(square)
        out.append(ldexp(-d * ri / _scaled(square, e), -e))
    return tuple(out)
