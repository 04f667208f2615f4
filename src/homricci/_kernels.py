"""The evaluation kernel: scalar curvature, Ricci coefficients and their
Jacobian in one call.

The kernel works on flat arrays for one (model, index set) pair:

* ``db``, ``b``, ``d``: per-summand d_i*b_i, b_i, d_i (float64, length n)
* ``ti``, ``tj``, ``tk``, ``tv``: one row per distinct ordering of each
  nonzero symmetric triple, as local 0-based positions plus the value
* ``x``: positive diagonal coefficients (float64, length n)

``value_and_ricci`` returns  (1/2) sum db/x - (1/4) sum tv * x[tk]/(x[ti]x[tj])
and fills ``out_r`` with the Ricci coefficients relative to the background
form,

    r_c = b_c/2 + x_c^2/(4 d_c) * A_c - B_c/(2 d_c),
    A_c = sum over rows with tk == c of tv/(x[ti] x[tj]),
    B_a = sum over rows with ti == a of tv * x[tk]/x[tj].

Given ``out_jac`` (n x n), it also fills J[c, m] = dr_c/dx_m.  The rows
hold every ordering of each triple, so swapping i and j in A, and j and k
in B, sums each derivative once per pair (ti, tk):

    J[c, m] = [c == m] x_c A_c/(2 d_c) - x_c^2/(2 d_c x_m) P[m, c] - Q[c, m]/(2 d_c),
    P[a, m] = sum over rows with (ti, tk) == (a, m) of tv/(x[ti] x[tj]),
    Q[a, m] = sum over rows with (ti, tk) == (a, m) of tv (1/x[tj] - x[tj]/x[tk]^2).

``out_r`` is bit-identical with or without ``out_jac``.

Callers look the function up on this module at call time and pass every
argument positionally, so that a wrapper installed here sees every call.
"""

from __future__ import annotations

import numpy as np


def value_and_ricci(db, b, d, ti, tj, tk, tv, x, out_r, out_jac=None) -> float:
    n = len(x)
    inv = 1.0 / x
    contrib_a = tv * inv[ti] * inv[tj]
    acc_a = np.bincount(tk, contrib_a, minlength=n)
    acc_b = np.bincount(ti, tv * x[tk] * inv[tj], minlength=n)
    out_r[:] = 0.5 * b + (x * x) * acc_a / (4.0 * d) - acc_b / (2.0 * d)
    if out_jac is not None:
        pair = ti * n + tk
        p = np.bincount(pair, contrib_a, minlength=n * n).reshape(n, n)
        q = np.bincount(pair, tv * (inv[tj] - x[tj] * inv[tk] ** 2), minlength=n * n)
        out_jac[:] = (p.T * inv * (x * x)[:, None] + q.reshape(n, n)) / (-2.0 * d)[:, None]
        out_jac.flat[:: n + 1] += x * acc_a / (2.0 * d)
    tri = float(np.sum(contrib_a * x[tk]))
    return 0.5 * float(np.dot(db, inv)) - 0.25 * tri
