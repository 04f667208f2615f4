"""The evaluation kernel: scalar curvature and Ricci coefficients at once.

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

Callers look the function up on this module at call time and pass every
argument positionally, so that a wrapper installed here sees every call.
"""

from __future__ import annotations

import numpy as np


def value_and_ricci(db, b, d, ti, tj, tk, tv, x, out_r) -> float:
    n = len(x)
    inv = 1.0 / x
    contrib_a = tv * inv[ti] * inv[tj]
    acc_a = np.bincount(tk, contrib_a, minlength=n)
    acc_b = np.bincount(ti, tv * x[tk] * inv[tj], minlength=n)
    out_r[:] = 0.5 * b + (x * x) * acc_a / (4.0 * d) - acc_b / (2.0 * d)
    tri = float(np.sum(contrib_a * x[tk]))
    return 0.5 * float(np.dot(db, inv)) - 0.25 * tri
