"""Scalar curvature, its modified companion, and Ricci coefficients.

All operations act on diagonal data: a metric is its positive coefficient
vector, one coefficient per summand, and each operation takes the whole
metric.  S and Shat on an index set J read only the coefficients inside J;
J defaults to the full index set.  The two functionals are

    S(x, J)    = 1/2 sum_{i in J} d_i b_i / x_i
                 - 1/4 sum_{i,j,k in J} [ijk] x_k / (x_i x_j),

    Shat(x, J) = S(x, J) - 1/2 sum_{i in J} (sum_{j,k outside J} [ijk]) / x_i,

and the Ricci coefficients relative to the background form are

    r_i = b_i/2 + x_i^2/(4 d_i) sum_{j,k} [jki]/(x_j x_k)
          - 1/(2 d_i) sum_{j,k} [ijk] x_k / x_j,

equivalently r_i = -(x_i^2/d_i) dS/dx_i, so the gradient of S comes for free.

Each operation reads one pass over the rows of the model's integer form
(``_evaluate``, on ``SpaceModel.integer_form``), the kernel's formulas (see
``_kernels``) in integers: x is read exactly as integers over its common
denominator, b and [ijk] as the form's integers over the model's (a float
is a dyadic rational), and each figure is one ratio of integers.  It is
returned as a ``Fraction`` on an exact model at an exact x, and otherwise as
the correctly rounded float (``numbers.figure``), infinite beyond the float
range: no spread or scale of x loses digits to cancellation or overflows.
The numpy kernel, the solver's, has no float twin here.  The exact
certificate of a solve (``_elimination.certify``) reads the same pass.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .model import CurvatureError, DiagonalForm, SpaceModel, _check_count, _integral
from .numbers import Scalar, figure


def _resolve_J(model: SpaceModel, x: DiagonalForm, J) -> tuple[int, ...]:
    """J sorted, the full index set by default, once x has one coefficient
    per summand."""
    _check_count(x, model.s, "metric", CurvatureError)
    if J is None:
        return tuple(range(1, model.s + 1))
    J = tuple(sorted(set(_integral(i, "index", CurvatureError) for i in J)))
    if J and (J[0] < 1 or J[-1] > model.s):
        raise CurvatureError(f"indices {J} out of range for s={model.s}")
    return J


def _evaluate(model: SpaceModel, X: Sequence[int], J: tuple[int, ...]) -> tuple:
    """(S, S_hat, R, den) on the non-empty index set J at the metric X,
    positive integers on J, over the rows of the model's integer form
    inside J: S and Shat at X are S / den and S_hat / den, and d_i r_i =
    R_i / den, den > 0.  r does not depend on the scale of the metric, and
    S at X / D is D times S at X.

    With the masses d b and the rows [ijk] integers over one E, each sum is
    an integer over a power of P = prod X: 1 / X_i = Y_i / P with
    Y_i = P / X_i, so A_m P^2 E = sum [ijm] Y_i Y_j and
    B_i P E = sum [ijm] X_m Y_j."""
    if model.killing is None:
        raise CurvatureError("model must be validated (killing coefficients missing)")
    form = model.integer_form
    pos = [None] * (model.s + 1)
    for i, g in enumerate(J):
        pos[g] = i
    db = [form.killing_mass[g - 1] for g in J]
    P = math.prod(X)
    Y = [P // v for v in X]
    acc_a, acc_b, leak = [0] * len(J), [0] * len(J), [0] * len(J)
    for (a, b, c, _), v in zip(model.ordered_triples, form.triples):
        i = pos[a]
        if i is None:
            continue
        j, m = pos[b], pos[c]
        if j is not None and m is not None:
            acc_a[m] += v * Y[i] * Y[j]
            acc_b[i] += v * X[m] * Y[j]
        elif j is None and m is None:
            leak[i] += v
    # S = 1/2 sum d b / x - 1/4 sum_m x_m A_m, Shat = S - 1/2 sum leak / x
    S = 2 * P * sum(map(math.prod, zip(db, Y))) - sum(map(math.prod, zip(X, acc_a)))
    S_hat = S - 2 * P * sum(map(math.prod, zip(leak, Y)))
    R = [2 * k * P * P + x * x * a - 2 * P * b for k, x, a, b in zip(db, X, acc_a, acc_b)]
    return S, S_hat, R, 4 * form.scale * P * P


def scalar_S(model: SpaceModel, x: DiagonalForm, J: Optional[Sequence[int]] = None) -> Scalar:
    """Scalar curvature of the diagonal metric x restricted to J.

    x is the whole metric, and only its coefficients inside J are read; J
    defaults to the full index set, and an empty J gives 0.
    """
    J = _resolve_J(model, x, J)
    if not J:
        return figure(0, 1, model.exact and x.exact)
    D, X = x.integers
    S, _, _, den = _evaluate(model, [X[i - 1] for i in J], J)
    return figure(D * S, den, model.exact and x.exact)


def hat_S(model: SpaceModel, x: DiagonalForm, J_k: Optional[Sequence[int]] = None) -> Scalar:
    """Modified scalar curvature on a subalgebra's index set.

    Penalizes S by the bracket mass flowing into the complement; coincides
    with scalar_S when J_k is the full index set.  x is the whole metric,
    and only its coefficients inside J_k are read; J_k defaults to the full
    index set, and is expected to be a lattice member (not enforced here).
    """
    J_k = _resolve_J(model, x, J_k)
    if not J_k:
        raise CurvatureError("hat_S needs a non-empty index set")
    D, X = x.integers
    _, S_hat, _, den = _evaluate(model, [X[i - 1] for i in J_k], J_k)
    return figure(D * S_hat, den, model.exact and x.exact)


def _ricci_and_grad(model: SpaceModel, x: DiagonalForm) -> tuple[tuple, tuple]:
    """(ricci, grad_S) at x, from one pass."""
    full = _resolve_J(model, x, None)
    D, X = x.integers
    _, _, R, den = _evaluate(model, X, full)
    exact = model.exact and x.exact
    # r_i = R_i / (d_i den), and dS/dx_i = -d_i r_i / x_i^2
    return tuple(figure(v, d * den, exact) for d, v in zip(model.dims, R)), tuple(
        figure(-v * D * D, den * w * w, exact) for v, w in zip(R, X)
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
