"""The exact algebra of the two- and three-summand solves.

The polynomial Ricci core: at x = (1, x_2, ..., x_s), M r_i x_2^2 ... x_s^2
is a polynomial with integer coefficients for every i, with one positive
integer M for all i, read off the model's integer form
(``SpaceModel.integer_form``) by the kernel's formula (see ``_kernels``).
Only these two solves read it.  A target T becomes the coprime
integers of a positive multiple of it, exactly (a float is a dyadic
rational).  Ric g = c T is then E_1 = z_2 r_1 - z_1 r_2 = 0 and, for s = 3,
E_2 = z_3 r_1 - z_1 r_3 = 0, polynomial equations in (t, u) = (x_2, x_3)
with c = r_1 / z_1.

For s = 2, ``two_summand_points`` reads the one positive root of E_1 (see
``solver``).  For s = 3, ``three_summand_points`` eliminates u: every
common root has t a root of the resultant R(t) = Res_u(E_1, E_2), and there
u = -b(t) / a(t), read off the first subresultant a u + b (or off an E_i of
degree 1 in u); one subresultant chain gives both.  One pass over the
positive roots of R decides each exactly: u < 0 where a and b keep one sign
across the isolating interval, unread; else the root is read, u = 0 where
b = 0, and c's sign comes from the core's values there (``c_sign``).  A
root is admissible when u > 0 and c > 0.  Where a vanishes at a rational
positive root t_0, E_1(t_0, u) and E_2(t_0, u) are solved in u exactly.  A
common factor of E_1 and E_2 whose coefficients share one sign has no point
with t, u > 0 and is divided out.  Where a vanishes at an irrational
positive root, or another common factor leaves a curve of solutions, the
caller falls back to the float solve; so does a float target with no admissible
root whose R is within its rounding of vanishing identically.  With u
missing from an E_i, and of degree >= 2 in the other, t is eliminated
instead.  Both solves refine an isolated root to _ROOT_BITS bits, as
bisection would, and read it as a float by correctly rounded int division;
u = -b / a is read once it is as accurate as t.  ``certify`` then takes
the Ricci coefficients in integers at the float metric the solver makes of
each root, by the curvature pass over the triple rows
(``curvature._evaluate``), and decides the root there exactly; at any s, it
does the same for a metric that the solver's Levenberg-Marquardt phase
finds, with no core built.
"""

from __future__ import annotations

import math
from typing import Optional

from . import _polynomials as poly
from . import curvature
from .model import DiagonalForm, SpaceModel
from .numbers import common_denominator, exponent, ratio

# An isolated root is refined to this relative width before it is read as
# a float; isolation of the resultant stops at this depth, where it may have
# a multiple root, and runs again on its square-free part.
_ROOT_BITS = 55
_ISOLATION_DEPTH = 64


def ricci_core(model: SpaceModel) -> tuple[int, list[dict]]:
    """The polynomial Ricci core (see the module docstring): M, and per
    index i a dict from the exponents of (x_2, ..., x_s) to the integer
    coefficients of M r_i x_2^2 ... x_s^2.  Over the integer form's E and
    L = lcm(d), 4 E L r_i = (L / d_i) (2 d_i b_i E + x_i^2 A_i - 2 B_i), A
    and B as in ``_kernels`` on the rows [abc] E, so M = 4 E L."""
    s, form = model.s, model.integer_form
    f = form.cofactors
    core = [{} for _ in range(s)]
    for row, k, fi in zip(core, form.killing_mass, f):
        row[(2,) * (s - 1)] = 2 * k * fi
    # the row [abc] adds its term of A_c to r_c and its term of B_a to r_a:
    # x_c^2 / (x_a x_b) and x_c / x_b times x_2^2 ... x_s^2, whose exponents
    # e[2:] are read at x_1 = 1
    for (a, b, c, _), v in zip(model.ordered_triples, form.triples):
        e = [2] * (s + 1)
        e[c] += 2
        e[a] -= 1
        e[b] -= 1
        row, key = core[c - 1], tuple(e[2:])
        row[key] = row.get(key, 0) + v * f[c - 1]
        e = [2] * (s + 1)
        e[c] += 1
        e[b] -= 1
        row, key = core[a - 1], tuple(e[2:])
        row[key] = row.get(key, 0) - 2 * v * f[a - 1]
    return 4 * form.scale * form.dims_lcm, [{e: v for e, v in row.items() if v} for row in core]


def integer_target(T: DiagonalForm) -> list[int]:
    """The target as coprime integers, a positive multiple of T (a float is
    an exact dyadic rational)."""
    _, ints = T.integers
    g = math.gcd(*ints)
    return [v // g for v in ints]


def certify(model: SpaceModel, T: DiagonalForm, x: list, k: int, tol: float) -> tuple:
    """(c, residual, S, certified, c_exponent) at the metric x for the
    target z = T / 2**k, from its Ricci coefficients r in integers by the
    curvature pass (``curvature._evaluate``): the least-squares c of
    r = c z, the relative residual max|r - c z| / (|c| max z) (over max z
    alone when c = 0) and S, each the correctly rounded float of its exact
    value, and certified when c > 0 and the residual is at most tol,
    decided exactly; c_exponent is floor(log2 |c|), exactly, also where c
    is beyond the float range (None when c = 0).  Every figure is nan, and
    uncertified, where some x_i is 0 or not finite."""
    if not all(0 < v < math.inf for v in x):
        return math.nan, math.nan, math.nan, False, None
    # x is X / D in integers: d_i r_i = R_i / q at any scale, and S at x
    # is D S / q
    D, X = common_denominator(x)
    S, _, R, q = curvature._evaluate(model, X, tuple(range(1, model.s + 1)))
    # over L = lcm(d), r = H / Q with H_i = R_i L / d_i; T = Z / scale: the
    # least-squares c at T is N scale / (Q W), and the residual
    # max|H W - N Z| / (|N| max Z)
    form = model.integer_form
    H = [f * v for f, v in zip(form.cofactors, R)]
    Q = form.dims_lcm * q
    scale, Z = T.integers
    d = model.dims
    N = sum(di * h * zi for di, h, zi in zip(d, H, Z))
    W = sum(di * zi * zi for di, zi in zip(d, Z))
    zmax = max(Z)

    def at_z(num: int, den: int) -> tuple[int, int]:  # a figure at T, times 2**k
        return (num << k, den) if k >= 0 else (num, den << -k)

    if N:
        residual = max(abs(h * W - N * zi) for h, zi in zip(H, Z)), abs(N) * zmax
    else:
        residual = at_z(max(map(abs, H)) * scale, Q * zmax)
    c = at_z(N * scale, Q * W)
    # residual <= tol as p / t, exactly; an infinite tol admits every
    # residual, and a nan one none
    p, t = tol.as_integer_ratio() if math.isfinite(tol) else (1 if tol > 0 else -1, 0)
    return (
        ratio(*c),
        ratio(*residual),
        ratio(D * S, q),
        N > 0 and residual[0] * t <= p * residual[1],
        exponent(abs(c[0]), c[1]) if N else None,
    )


def by_power(e: dict, swap: bool) -> list:
    """The polynomial e in (t, u), as {(i, j): coefficient of t^i u^j}, over
    its monomial factor and the gcd of its coefficients: a list by powers of
    u of polynomials in t, or with t and u swapped."""
    terms = {((j, i) if swap else (i, j)): v for (i, j), v in e.items()}
    low = min(i for i, _ in terms), min(j for _, j in terms)
    g = math.gcd(*terms.values())
    width = max(i for i, _ in terms) - low[0] + 1
    out = [[0] * width for _ in range(max(j for _, j in terms) - low[1] + 1)]
    for (i, j), v in terms.items():
        out[j - low[1]][i - low[0]] = v // g
    return [poly.trim(row) for row in out]


def equations(model: SpaceModel, T: DiagonalForm) -> tuple[list[dict], list[int]]:
    """The s = 3 system [E_1, E_2], each polynomial in (t, u) as
    {(i, j): coefficient of t^i u^j}, and the target's integers."""
    _, core = model.ricci_core
    z = integer_target(T)
    E = []
    for zi, terms in ((z[1], core[1]), (z[2], core[2])):
        keys = core[0].keys() | terms.keys()
        diff = {e: zi * core[0].get(e, 0) - z[0] * terms.get(e, 0) for e in keys}
        E.append({e: v for e, v in diff.items() if v})
    return E, z


def read_root(p: list, root: tuple, reverse: bool) -> tuple[float, tuple]:
    """The root of p isolated by ``root`` (see ``poly.positive_roots``),
    refined to a relative width of 2**-_ROOT_BITS: (the root, or its
    reciprocal when ``reverse``, as a float read at ``poly.point`` of the
    refined root; the refined root)."""
    root = poly.refine(p, root, _ROOT_BITS)
    num, depth = poly.point(root)
    return (ratio(1 << depth, num) if reverse else ratio(num, 1 << depth)), root


def _sign(p: list, f: list, root: tuple) -> int:
    """The sign of f at the root of p isolated by the refined ``root``, 0
    where f vanishes."""
    return poly.sign_near(p, f, root, poly.value_at(f, *poly.point(root)))


def two_summand_points(model: SpaceModel, T: DiagonalForm) -> tuple[list[tuple], tuple[int, ...]]:
    """The metric (1, t) at the at most one admissible root of the s = 2
    equation P(t) = M t^2 (z_2 r_1 - z_1 r_2) = 0, and the coordinate that
    escapes when P has no positive root (see ``solver``)."""
    d1, d2 = model.dims
    z1, z2 = integer_target(T)
    # M t^2 r_1 and M t^2 r_2 at x = (1, t)
    r1, r2 = ([terms.get((e,), 0) for e in range(5)] for terms in model.ricci_core[1])
    P = poly.trim([z2 * a - z1 * b for a, b in zip(r1, r2)])
    # at a root r = c z, so t^2 (d_1 z_1 r_1 + d_2 z_2 r_2) has the sign of c
    C = poly.trim([d1 * z1 * a + d2 * z2 * b for a, b in zip(r1, r2)])
    # where P = 0 every t solves: the base start t = 1
    if not P:
        return ([(1.0, 1.0)] if poly.sign_at(C, 1, 0) > 0 else []), ()
    # P's signs are (+, +, any, -, -), zeros allowed: by Descartes' rule of
    # signs one change of sign is one positive root, a simple one, and none
    # is none
    ends = [v for v in P if v]
    if not ends[0] > 0 > ends[-1]:
        return [], (2,) if ends[0] > 0 else (1,)
    P = poly.primitive(P[P.index(ends[0]):])  # a root at 0 is not positive
    ((reverse, root),) = poly.positive_roots(P)
    if reverse:
        P, C = P[::-1], C[::-1]
    t, root = read_root(P, root, reverse)
    return ([(1.0, t)] if _sign(P, C, root) > 0 else []), ()  # not where c = 0


def three_summand_points(model: SpaceModel, T: DiagonalForm) -> Optional[list[tuple]]:
    """The metrics (1, t, u) at the admissible roots of the s = 3 system, as
    floats in the order of t; None when the elimination is degenerate, or
    finds no admissible root for a float T within rounding of a target
    where it is."""
    E, z = equations(model, T)
    _, core = model.ricci_core
    # A float T stands for every target within its rounding.  Moving T by a
    # relative 2**-47 (a few dozen units in the last place) moves each
    # coefficient of E_i by at most 2**-47 of its magnitude z_(i+1) |r_1| +
    # z_1 |r_(i+1)|: the norm of E_i, the sum of the absolute values of its
    # coefficients, by at most 2**-47 |E_i|, and that of R, a determinant of
    # m + n <= 8 rows, by at most 2**-44 |E_1|**n |E_2|**m.  An E_i or R no
    # larger is within rounding of vanishing identically, where a nearby
    # target has a curve of solutions: finding no root then proves nothing.
    magnitude = []
    if not T.exact:
        size = [sum(abs(v) for v in terms.values()) for terms in core]
        magnitude = [z[i] * size[0] + z[0] * size[i] for i in (1, 2)]
    fragile = any(sum(map(abs, e.values())) << 47 <= bound for e, bound in zip(E, magnitude))
    if any(len(e) == 1 for e in E):
        return None if fragile else []  # a monomial has no positive root
    if not all(E):
        return None  # an E_i = 0: the other leaves a curve of solutions, or more
    # eliminate u, or t when u is missing from one E_i and of degree >= 2 in
    # the other; the root variable is then u
    for swap in (False, True):
        f, g = by_power(E[0], swap), by_power(E[1], swap)
        m, n = len(f) - 1, len(g) - 1
        if min(m, n) >= 1 or sorted((m, n)) == [0, 1]:
            break
    else:
        return None
    R, S1 = poly.subresultants(f, g)
    if magnitude and not fragile:
        # f and g are E_1 and E_2 over the gcd of their coefficients
        scaled, bound = sum(map(abs, R)) << 44, 1
        for e, mag, power in zip(E, magnitude, (n, m)):
            scaled *= math.gcd(*e.values()) ** power
            bound *= mag**power
        fragile = scaled <= bound
    if not R:
        # a common factor: a curve of solutions, unless, as when its
        # coefficients share one sign, no point of it has t, u > 0
        content = []
        for c in S1:
            content = poly.gcd_poly(c, content) if c else content
        D = [poly.exact_div(c, content) if c else [] for c in S1]
        scale = math.gcd(*(v for c in D for v in c))
        D = [[v // scale for v in c] for c in D]
        if len({v > 0 for c in D for v in c if v}) > 1:
            return None
        f, g = poly.exact_div_u(f, D), poly.exact_div_u(g, D)
        if min(len(f), len(g)) < 2 and sorted((len(f), len(g))) != [1, 2]:
            return None
        R, S1 = poly.subresultants(f, g)
    points = _admissible_points(f, g, R, S1, core, swap)
    return None if fragile and points == [] else points


def _admissible_points(
    f: list, g: list, R: list, S1: list, core: list[dict], swap: bool
) -> Optional[list[tuple]]:
    """``three_summand_points`` from the resultant R != 0 and the first
    subresultant S1 of the stripped system f, g on."""
    m, n = len(f) - 1, len(g) - 1
    R = poly.primitive(R[next(i for i, c in enumerate(R) if c):])
    roots = poly.positive_roots(R, _ISOLATION_DEPTH)
    if roots is None:  # R has a multiple root, or two very close ones
        R = poly.squarefree(R)
        roots = poly.positive_roots(R)
    # the common root's other coordinate is -b / a at a root of R
    b, a = (f if m == 1 else g)[:2] if 1 in (m, n) else (S1 + [[], []])[:2]
    # sign c = sign r_i at the root, for the i of lowest degree k in the
    # eliminated variable, is sign a^k C with C = sum_j h_j (-b)^j a^(k-j)
    row = min((r for r in core if r), key=lambda r: len({x[1 - swap] for x in r}))
    h = by_power(row, swap)
    width, hw = max(len(a), len(b)), max(map(len, h))
    a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
    H = [hj + [0] * (hw - len(hj)) for hj in h]
    found = []
    for reverse, root in roots:
        # a root v > 1 as 1/v, a root of the reversed polynomials in (0, 1)
        P, A, B, *Hs = (p[::-1] if reverse else p for p in (R, a, b, *H))
        # u = -b / a < 0 where a and b have one sign at both ends of the
        # interval and no root inside (an odd count would change the sign)
        k, c, left = root
        ends = left and {poly.sign_at(F, x, k) for F in (A, B) for x in (c, c + 1)}
        if ends in ({1}, {-1}) and not any(poly.root_bound(F, k, c) for F in (A, B)):
            continue
        v, root = read_root(P, root, reverse)
        num, depth = poly.point(root)
        va, vb = poly.value_at(A, num, depth), poly.value_at(B, num, depth)
        sign_a = poly.sign_near(P, A, root, va)
        if not sign_a:
            # two common roots share this t: solved for apart where t is rational
            t0 = poly.rational_root(P, root)
            points = None if t0 is None else _points_at(t0[::-1] if reverse else t0, f, g, h, swap)
            if points is None:
                return None  # a = 0 at an irrational root, or a curve: no point to read
            found += points
        elif sign_a * poly.sign_near(P, B, root, vb) < 0:  # u > 0
            if c_sign(P, Hs, A, B, root, va, vb) * sign_a ** (len(h) - 1) > 0:
                w = _read_ratio(P, B, A, root, ratio(-vb, va))
                found.append((1.0, w, v) if swap else (1.0, v, w))
    return sorted(found)


def c_sign(P: list, H: list, A: list, B: list, root: tuple, va: int, vb: int) -> int:
    """The sign of C = sum_j h_j (-b)^j a^(k-j) at the root of P isolated by
    the refined ``root``, for A, B, H the padded a, b, h_j (reversed with P)
    and va, vb the values of A, B there: the sign of C's value, unless the
    bound deg C N(C) on |C'|, with N the sum of absolute values and
    N(C) <= sum_j N(h_j) N(b)^j N(a)^(k-j), is too loose; then C decides."""
    k, num, depth = len(H) - 1, *poly.point(root)
    degree = len(H[0]) - 1 + k * (len(A) - 1)
    slope = degree * sum(sum(map(abs, h)) for h in H) * max(sum(map(abs, A)), sum(map(abs, B)))**k
    value = sum(poly.value_at(h, num, depth) * (-vb) ** j * va ** (k - j) for j, h in enumerate(H))
    if not root[2] or abs(value) > slope << ((root[0] + 1) * max(degree - 1, 0)):
        return (value > 0) - (value < 0)
    C = []
    for j, h in enumerate(H):
        for factor in [[-x for x in B]] * j + [A] * (k - j):
            h = poly.mul(h, factor)
        C = poly.sub(C, [-x for x in h])
    return _sign(P, C, root)


def _read_ratio(P: list, B: list, A: list, root: tuple, w: float) -> float:
    """-B / A at the root of P isolated by the refined ``root``: w, its value
    at ``poly.point`` of the root, once -B / A at the two ends of the
    interval round to doubles at most 1 ulp apart, refining until they do."""
    while root[2]:
        k, c, _ = root
        a0, a1 = poly.value_at(A, c, k), poly.value_at(A, c + 1, k)
        if a0 and a1:
            w0 = ratio(-poly.value_at(B, c, k), a0)
            w1 = ratio(-poly.value_at(B, c + 1, k), a1)
            if w1 in (w0, math.nextafter(w0, w1)):
                break
        root = poly.refine(P, root, 2 * c.bit_length())
        w = ratio(-poly.value_at(B, *poly.point(root)), poly.value_at(A, *poly.point(root)))
    return w


def _points_at(t0: tuple[int, int], f: list, g: list, h: list, swap: bool) -> Optional[list[tuple]]:
    """The admissible points at the rational root t0 = num / den of the
    resultant: the positive common roots w of f(t0, w) and g(t0, w), with
    c > 0 there, decided exactly; None when every w solves."""
    num, den = t0
    F, G, H = (
        poly.trim([poly.homogeneous_value(c, num, den, max(map(len, e)) - 1) for c in e])
        for e in (f, g, h)
    )
    if not F and not G:
        return None
    W = poly.gcd_poly(F, G) if F else poly.primitive(G)
    W = W[next(i for i, c in enumerate(W) if c):]  # w = 0 is not admissible
    if len(W) == 1:
        return []
    W = poly.squarefree(W)
    v = ratio(num, den)
    found = []
    for reverse, root in poly.positive_roots(W):
        P, Hs = (W[::-1], H[::-1]) if reverse else (W, H)
        w, root = read_root(P, root, reverse)
        if _sign(P, Hs, root) > 0:
            found.append((1.0, w, v) if swap else (1.0, v, w))
    return found
