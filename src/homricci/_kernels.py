"""The evaluation kernel: scalar curvature, Ricci coefficients and their
Jacobian in one call, for a batch of points.

The kernel works on flat arrays for one model on its full index set
(:func:`kernel_arrays`, kept as ``SpaceModel.kernel_arrays``):

* ``db``, ``b``, ``d``: per-summand d_i*b_i, b_i, d_i (float64, length n)
* ``ti``, ``tj``, ``tk``, ``tv``: one row per distinct ordering of each
  nonzero symmetric triple, as local 0-based positions plus the value
* ``x``: m points, one per row, of positive diagonal coefficients
  (float64, shape (m, n))

``value_and_ricci`` returns, as an (m,) array, S = (1/2) sum db/x
- (1/4) sum tv * x[tk]/(x[ti]x[tj]) at each point, fills ``out_r``
(m, n) with the Ricci coefficients relative to the background form,

    r_c = b_c/2 + x_c^2/(4 d_c) * A_c - B_c/(2 d_c),
    A_c = sum over rows with tk == c of tv/(x[ti] x[tj]),
    B_a = sum over rows with ti == a of tv * x[tk]/x[tj].

and fills ``out_jac`` (m, n, n) with J[c, m] = dr_c/dx_m at each point.
The rows hold every ordering of each triple, so swapping i and j in
A, and j and k in B, sums each derivative once per pair (ti, tk):

    J[c, m] = [c == m] x_c A_c/(2 d_c) - x_c^2/(2 d_c x_m) P[m, c] - Q[c, m]/(2 d_c),
    P[a, m] = sum over rows with (ti, tk) == (a, m) of tv/(x[ti] x[tj]),
    Q[a, m] = sum over rows with (ti, tk) == (a, m) of tv (1/x[tj] - x[tj]/x[tk]^2).

Each sum runs over one point's triple rows in the same order whatever the
batch, so every point's S, ``out_r`` and ``out_jac`` are bit-identical to a
batch of that point alone.

The solver is the only caller, its ascent on batches and its
Levenberg-Marquardt phase on one point a call: it looks the function up on
this module at call time and passes every argument positionally, so that a
wrapper installed here sees every call.  The kernel has no float twin:
``curvature`` evaluates the same formulas at one point in exact rationals
and rounds each figure once, and every exact certificate of a solve reads
that same pass in integers.
"""

from __future__ import annotations

import numpy as np

from .numbers import to_float


def kernel_arrays(model) -> tuple:
    """The kernel's arrays on the full index set of a validated model, in
    the order it takes them: db, b, d, ti, tj, tk, tv."""
    d = np.array(model.dims, dtype=np.float64)
    b = np.array([to_float(v) for v in model.killing], dtype=np.float64)
    rows = model.ordered_triples
    ti, tj, tk = (np.array([row[p] - 1 for row in rows], dtype=np.int64) for p in range(3))
    tv = np.array([to_float(row[3]) for row in rows], dtype=np.float64)
    return d * b, b, d, ti, tj, tk, tv


def value_and_ricci(db, b, d, ti, tj, tk, tv, x, out_r, out_jac) -> np.ndarray:
    m, n = x.shape
    inv = 1.0 / x
    # take() keeps the (m, rows) gathers C-ordered, so that each point's
    # sums below run over its own contiguous row, in the order of one point
    x_tj, x_tk = x.take(tj, axis=1), x.take(tk, axis=1)
    inv_ti, inv_tj, inv_tk = inv.take(ti, axis=1), inv.take(tj, axis=1), inv.take(tk, axis=1)
    contrib_a = tv * inv_ti * inv_tj
    # point-major bins: point p's bin c is p*n + c, its pair bin (a, c) is
    # p*n*n + a*n + c
    offset = n * np.arange(m)[:, None]
    acc_a = np.bincount(
        (tk + offset).ravel(), contrib_a.ravel(), minlength=m * n
    ).reshape(m, n)
    acc_b = np.bincount(
        (ti + offset).ravel(), (tv * x_tk * inv_tj).ravel(), minlength=m * n
    ).reshape(m, n)
    xx = x * x
    out_r[:] = 0.5 * b + xx * acc_a / (4.0 * d) - acc_b / (2.0 * d)
    pair = (ti * n + tk + n * offset).ravel()
    p = np.bincount(pair, contrib_a.ravel(), minlength=m * n * n).reshape(m, n, n)
    q = np.bincount(
        pair, (tv * (inv_tj - x_tj * inv_tk**2)).ravel(), minlength=m * n * n
    ).reshape(m, n, n)
    out_jac[:] = (
        p.transpose(0, 2, 1) * inv[:, None, :] * xx[:, :, None] + q
    ) / (-2.0 * d)[:, None]
    diag = np.arange(n)
    out_jac[:, diag, diag] += x * acc_a / (2.0 * d)
    tri = (contrib_a * x_tk).sum(axis=1)
    # vecdot sums each row as np.dot does a single vector
    return 0.5 * np.vecdot(db, inv) - 0.25 * tri
