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
the kernel's formulas (see ``_kernels``) in integers: x, b and [ijk] are
read exactly as integers over common denominators (a float is a dyadic
rational), and each figure is one ratio of integers.  It is returned as a
``Fraction`` on an exact model at an exact x, and otherwise as the correctly
rounded float (``numbers.figure``), infinite beyond the float range: no
spread or scale of x loses digits to cancellation or overflows.  The numpy
kernel, the solver's, has no float twin here.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .model import DiagonalForm, SpaceModel
from .numbers import Scalar, common_denominator, figure


class CurvatureError(ValueError):
    """Raised for evaluation requests outside an operation's domain."""


def _resolve_J(model: SpaceModel, x: DiagonalForm, J) -> tuple[int, ...]:
    if J is None:
        J = x.support
    J = tuple(sorted(set(int(i) for i in J)))
    if J and (J[0] < 1 or J[-1] > model.s):
        raise CurvatureError(f"indices {J} out of range for s={model.s}")
    return J


def _evaluate(model: SpaceModel, x: DiagonalForm, J: tuple[int, ...]) -> tuple:
    """(S, Shat, r) on the non-empty index set J at x over the rows of
    ``model.ordered_triples`` inside J, each figure as (num, den), den > 0.

    With x = X / D, and b and [ijk] integers over one E, each sum is an
    integer over a power of P = prod X: 1 / X_i = Y_i / P with Y_i = P / X_i,
    so A_m P^2 E = sum [ijm] Y_i Y_j and B_i P E = sum [ijm] X_m Y_j.  r does
    not depend on the scale of x, and S at x is D times S at X."""
    if model.killing is None:
        raise CurvatureError("model must be validated (killing coefficients missing)")
    D, X = common_denominator(x.restrict(J).values)
    rows = model.ordered_triples
    E, ints = common_denominator([*(model.killing[g - 1] for g in J), *(row[3] for row in rows)])
    pos = {g: i for i, g in enumerate(J)}
    d, b = [model.dims[g - 1] for g in J], ints[: len(J)]
    P = math.prod(X)
    Y = [P // v for v in X]
    acc_a, acc_b, leak = [0] * len(J), [0] * len(J), [0] * len(J)
    for (a, bb, c, _), v in zip(rows, ints[len(J) :]):
        i, j, m = pos.get(a), pos.get(bb), pos.get(c)
        if i is None:
            continue
        if j is not None and m is not None:
            acc_a[m] += v * Y[i] * Y[j]
            acc_b[i] += v * X[m] * Y[j]
        elif j is None and m is None:
            leak[i] += v
    # S = 1/2 sum d b / x - 1/4 sum_m x_m A_m, Shat = S - 1/2 sum leak / x
    S = 2 * P * sum(map(math.prod, zip(d, b, Y))) - sum(map(math.prod, zip(X, acc_a)))
    S_hat = S - 2 * P * sum(map(math.prod, zip(leak, Y)))
    den = 4 * E * P * P
    r = [
        (2 * di * bi * P * P + xi * xi * ai - 2 * P * bbi, di * den)
        for di, bi, xi, ai, bbi in zip(d, b, X, acc_a, acc_b)
    ]
    return (D * S, den), (D * S_hat, den), r


def scalar_S(model: SpaceModel, x: DiagonalForm, J: Optional[Sequence[int]] = None) -> Scalar:
    """Scalar curvature of the diagonal metric x restricted to J.

    J defaults to the form's support; an empty J gives 0.
    """
    J = _resolve_J(model, x, J)
    return figure(*(_evaluate(model, x, J)[0] if J else (0, 1)), model.exact and x.exact)


def hat_S(model: SpaceModel, x: DiagonalForm, J_k: Optional[Sequence[int]] = None) -> Scalar:
    """Modified scalar curvature on a subalgebra's index set.

    Penalizes S by the bracket mass flowing into the complement; coincides
    with scalar_S when J_k is the full index set.  J_k is expected to be a
    lattice member (not enforced here).
    """
    J_k = _resolve_J(model, x, J_k)
    if not J_k:
        raise CurvatureError("hat_S needs a non-empty index set")
    return figure(*_evaluate(model, x, J_k)[1], model.exact and x.exact)


def _ricci_and_grad(model: SpaceModel, x: DiagonalForm) -> tuple[tuple, tuple]:
    """(ricci, grad_S) at x, from one pass."""
    full = tuple(range(1, model.s + 1))
    if x.support != full:
        raise CurvatureError("ricci needs a form on the full index set")
    r = _evaluate(model, x, full)[2]
    exact = model.exact and x.exact
    D, X = x.integers
    return tuple(figure(*ri, exact) for ri in r), tuple(
        figure(-d * num * D * D, den * v * v, exact)
        for d, (num, den), v in zip(model.dims, r, X)
    )


def ricci(model: SpaceModel, x: DiagonalForm) -> tuple[Scalar, ...]:
    """Ricci coefficients of the full diagonal metric, relative to Q.

    Scale invariant: ricci(c*x) == ricci(x).  Coefficients may be negative,
    so the result is a plain tuple rather than a DiagonalForm.
    """
    return _ricci_and_grad(model, x)[0]


def grad_S(model: SpaceModel, x: DiagonalForm) -> tuple[Scalar, ...]:
    """Analytic gradient of scalar_S on the full index set: dS/dx_i = -d_i r_i / x_i^2,
    taken exactly and rounded once."""
    return _ricci_and_grad(model, x)[1]
