"""Univariate polynomials over the integers, for the exact solves.

A polynomial is a list of Python ints, lowest degree first, with no
trailing zeros; [] is the zero polynomial.  A polynomial in two variables
is a list, by powers of one, of polynomials in the other.

The resultant and first subresultant of two such polynomials come from one
subresultant chain (Collins, J. ACM 14, 1967), in which every division is
exact.  Positive roots are isolated by Descartes' rule of signs with
bisection (Collins and Akritas, SYMSAC 1976) on dyadic intervals
(c / 2**k, (c + 1) / 2**k) of (0, 1), written (k, c), each carrying
2**(k n) p((x + c) / 2**k), whose halves are 2**n of it at x / 2 and
(x + 1) / 2 (Rouillier and Zimmermann, J. Comput. Appl. Math. 162, 2004);
a root at a dyadic point is found exactly, and a multiple root nowhere else.
An isolated root is refined by exact Newton steps that each verify their own
interval (Abbott, quadratic interval refinement, 2006), the first from a
float Newton estimate where exact signs confirm it.  No result rounds: a
float only proposes a point.
"""

from __future__ import annotations

import math
from math import gcd
from typing import Optional

# A prime for the modular coprimality test of ``gcd_poly``.
_PRIME = 2**61 - 1
# ``refine``'s float first step: at most this many Newton steps, a grid this
# many bits deep, and the secant steps' gain after it.
_SEED_STEPS, _SEED_BITS, _SEEDED_GAIN = 10, 44, 16


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return out


def sub(p: list, q: list) -> list:
    out = p + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] -= b
    return trim(out)


def exact_div(p: list, q: list) -> list:
    """p / q, when q divides p in Z[t]."""
    p, n, lead = p[:], len(q) - 1, q[-1]
    out = [0] * (len(p) - n)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = p[i + n] // lead
        if c:
            for j, b in enumerate(q, i):
                p[j] -= c * b
    return out


def primitive(p: list) -> list:
    """p over the gcd of its coefficients, with a positive leading one."""
    g = gcd(*p) if p else 0
    if p and p[-1] < 0:
        g = -g
    return [c // g for c in p] if g else p


def prem(p: list, q: list) -> list:
    """The pseudo-remainder lead(q)**e p mod q, e >= 0, of degree below q's."""
    n, lead = len(q) - 1, q[-1]
    while len(p) > n:
        c, shift = p[-1], len(p) - 1 - n
        p = [lead * v for v in p]
        for j, b in enumerate(q, shift):
            p[j] -= c * b
        p = trim(p)
    return p


def _rem_mod(a: list, b: list) -> list:
    """a mod b, both over the integers mod the prime, b != 0."""
    n, inv, a = len(b) - 1, pow(b[-1], -1, _PRIME), a[:]
    low = b[:-1]
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] * inv % _PRIME
        if c:
            for j, v in enumerate(low, i - n):
                a[j] -= c * v
    return trim([v % _PRIME for v in a[:n]])


def gcd_poly(p: list, q: list) -> list:
    """The primitive gcd in Z[t] of p != 0 and q (p itself when q = 0); [1]
    at once where their images mod a prime are coprime."""
    a, b = trim([c % _PRIME for c in p]), [c % _PRIME for c in q]
    if len(a) == len(p):  # unless the prime divides p's leading coefficient
        b = _rem_mod(b, a)
        while b:
            a, b = b, _rem_mod(a, b)
        if len(a) == 1:
            return [1]
    p, q = primitive(p), primitive(q)
    while q:
        p, q = q, primitive(prem(p, q))
    return p


def squarefree(p: list) -> list:
    """The primitive product of the distinct irreducible factors of p."""
    return primitive(exact_div(p, gcd_poly(p, [i * c for i, c in enumerate(p)][1:])))


def _prem_u(A: list, B: list) -> list:
    """lead(B)**(deg A - deg B + 1) A mod B, for A and B in u with
    coefficients in Z[t], deg A >= deg B."""
    n, lead = len(B) - 1, B[-1]
    A = A[:]
    for i in range(len(A) - len(B), -1, -1):
        c = A[n + i]
        A = [mul(lead, v) for v in A[: n + i]]
        if c:
            for j, v in enumerate(B[:-1], i):
                A[j] = sub(A[j], mul(c, v))
    while A and not A[-1]:
        A.pop()
    return A


def subresultants(f: list, g: list) -> tuple[list, list]:
    """The subresultants S_0 and S_1 of f and g, polynomials in u with
    coefficients in Z[t] of degrees m and n, m + n >= 1, each up to sign:
    the resultant in Z[t], and S_1 in u (exact only when min(m, n) >= 2),
    which at a root of the resultant vanishes at the common root u unless
    its u coefficient does.  When f and g have a common factor of positive
    degree in u, ([], G) instead, where G has the primitive part in u of
    their gcd.

    One subresultant chain: each pseudo-remainder B of A, over the
    chain's divisor, is similar to S_(deg A - 1), and S_(deg B) is
    lead(B)**d B / h**d with d = deg A - 1 - deg B, where h is the leading
    coefficient of S_(deg A) up to sign (the subresultant theorem, which
    also covers the defective steps, d > 0)."""
    if len(f) < len(g):
        f, g = g, f
    A, B, lead, h, S1 = f, g, [1], [1], []
    while True:
        m, n = len(A) - 1, len(B) - 1
        if n <= 1 < m or n == 0:
            d = m - 1 - n
            S = B
            if d > 0:
                num, den = _product([B[-1]] * d), _product([h] * d)
                S = [exact_div(mul(v, num), den) for v in B]
            if n == 1:
                S1 = S
            else:
                return S[0], (B if m == 2 else S1)
        delta = m - n
        r = _prem_u(A, B)
        if not r:
            return [], B
        divisor = mul(lead, _product([h] * delta))
        A, B, lead = B, [exact_div(v, divisor) if v else [] for v in r], B[-1]
        if delta:
            h = exact_div(_product([lead] * delta), _product([h] * (delta - 1)))


def exact_div_u(F: list, D: list) -> list:
    """F / D, for F and D in u with coefficients in Z[t], when D divides F."""
    F, n = F[:], len(D) - 1
    Q = [[]] * (len(F) - n)
    for i in range(len(Q) - 1, -1, -1):
        c = Q[i] = exact_div(F[i + n], D[-1]) if F[i + n] else []
        for j, d in enumerate(D, i):
            F[j] = sub(F[j], mul(c, d))
    return Q


def _product(ps: list) -> list:
    out = [1]
    for p in ps:
        out = mul(out, p)
    return out


def _variations(p: list) -> int:
    signs = [c > 0 for c in p if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _taylor_shift(p: list, c: int) -> list:
    """p(x + c)."""
    a, n = p[:], len(p) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def root_bound(p: list, k: int, c: int) -> int:
    """Descartes' bound on the number of roots of p in (k, c), counted with
    multiplicity: the sign variations of (1 + y)**n p((c + 1/(1 + y)) / 2**k)
    in y > 0, an exact count when it is 0 or 1."""
    n = len(p) - 1
    scaled = [v << (k * (n - i)) for i, v in enumerate(p)]
    if c:
        scaled = _taylor_shift(scaled, c)
    return _variations(_taylor_shift(scaled[::-1], 1))


def value_at(p: list, num: int, k: int) -> int:
    """2**(k n) p(num / 2**k), for p of length n + 1."""
    n, acc = len(p) - 1, 0
    for i in range(n, -1, -1):
        acc = acc * num + (p[i] << (k * (n - i)))
    return acc


def homogeneous_value(p: list, num: int, den: int, n: int) -> int:
    """den**n p(num / den), for p of degree at most n."""
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return acc * den ** (n + 1 - len(p))


def sign_at(p: list, num: int, k: int) -> int:
    """The sign of p at num / 2**k."""
    v = value_at(p, num, k)
    return (v > 0) - (v < 0)


def isolate(p: list, cap: float = math.inf) -> Optional[list[tuple[int, int, int]]]:
    """The roots of p in (0, 1), each as (k, c, left): the root c / 2**k
    when ``left`` is 0, else the one root in (k, c), a simple one, where p
    has the sign ``left`` just right of c / 2**k.  Bisection ends for a
    square-free p; else None when it reaches depth ``cap``."""
    out, stack, n = [], [(0, 0, p)], len(p) - 1
    while stack:
        k, c, q = stack.pop()
        if k >= cap:
            return None
        d = _taylor_shift(q[::-1], 1)  # the interval taken to y > 0
        count = _variations(d)
        if count == 1:
            out.append((k, c, 1 if trim(d)[-1] > 0 else -1))
        elif count > 1:
            half = [v << (n - i) for i, v in enumerate(q)]
            right = _taylor_shift(half, 1)
            if right[0] == 0:
                out.append((k + 1, 2 * c + 1, 0))
            stack += [(k + 1, 2 * c, half), (k + 1, 2 * c + 1, right)]
    return out


def positive_roots(p: list, cap: float = math.inf) -> Optional[list[tuple[bool, tuple]]]:
    """The positive roots of p, with p(0) != 0, each as (reverse, root): a
    root in (0, 1) or at 1 as ``isolate`` gives it, or, when ``reverse``, a
    root v > 1 as the root 1/v of the reversed p; a constant p has none.
    None when ``isolate`` stops at ``cap``."""
    if len(p) < 2:
        return []
    low, high = isolate(p, cap), isolate(p[::-1], cap)
    if low is None or high is None:
        return None
    one = [(0, 1, 0)] if sign_at(p, 1, 0) == 0 else []
    return [(False, root) for root in low + one] + [(True, root) for root in high]


def point(root: tuple[int, int, int]) -> tuple[int, int]:
    """(num, k) of the dyadic point num / 2**k that ``root`` reads: the root
    itself, or the midpoint of its interval."""
    k, c, left = root
    return (2 * c + 1, k + 1) if left else (c, k)


def refine(p: list, root: tuple[int, int, int], bits: int) -> tuple[int, int, int]:
    """The root of p isolated by ``root``, a simple one, as bisection
    finds it at the first depth where c >= 2**bits: the interval there, or
    the root itself when it is a dyadic point of no greater depth.

    The first step is a float estimate (``_seeded``) where it brackets the
    root, and else a secant step of gain max(2, k // 2) from the interval
    at depth k.  Each further step from an interval at depth k puts the
    zero of the secant through its ends on the grid of depth k + gain, and
    keeps the one interval of that grid next to it that the sign there and
    at one neighbour show to hold the root; the gain then doubles.  A step
    that fails bisects once and halves the gain.  Any interval at depth K
    lies in one of every lower depth, so the last is cut back to the first
    depth with c >= 2**bits."""
    k, c, left = root
    if not left or c >> bits:
        return root
    k0, n = k, len(p) - 1
    seeded = _seeded(p, root, bits)
    if seeded is None:
        # the secant's error is about quadratic in the interval's width
        # 2**-k, so its first step from depth k may gain about k bits; half
        # that leaves room for a steep p
        gain, ends = max(2, k // 2), (value_at(p, c, k), value_at(p, c + 1, k))
    else:
        gain, (k, c, left), ends = _SEEDED_GAIN, *seeded
    while left and c >> bits == 0:
        step = min(gain, bits + 1 - c.bit_length())
        lo, hi = c << step, (c + 1) << step
        # the values at the ends, on the grid of depth k + step
        f0, f1 = ends[0] << (step * n), ends[1] << (step * n)
        if step > 1 and f0 != f1:
            X = min(max(lo + _round_div(f0 << step, f0 - f1), lo + 1), hi - 1)
            bracket = _bracket(p, k + step, X, left, lo, hi, (f0, f1))
            if bracket is not None:
                (k, c, left), ends = bracket
                gain *= 2
                continue
        if left:  # bisect
            vm = value_at(p, 2 * c + 1, k + 1)
            mid = (vm > 0) - (vm < 0)
            f0, f1 = ends[0] << n, ends[1] << n
            k, c, left = (k + 1, 2 * c + 1, 0) if not mid else (k + 1, 2 * c + (mid == left), left)
            ends = (vm, f1) if mid == left else (f0, vm)
            gain = max(1, gain // 2) if step > 1 else 2 * gain
    if not left:
        while not c & 1:
            k, c = k - 1, c >> 1
    depth = max(k0, k - c.bit_length() + bits + 1)
    if not left and k <= depth:
        return k, c, 0
    return depth, c >> (k - depth), left or root[2]


def _bracket(p, depth, X, left, lo, hi, ends=None):
    """The interval of the grid of depth ``depth`` next to X, lo < X < hi,
    that the sign of p at X and at one neighbour show to hold the root of
    p in (lo, hi) on that grid, where p has the sign ``left`` just right of
    lo: ((depth, c, left), the values at its ends), or ((depth, c, 0), None)
    when the root is the point c; None when the two signs agree.  ``ends``
    are the values at lo and hi, when known."""
    vx = value_at(p, X, depth)
    sx = (vx > 0) - (vx < 0)
    # the root lies on the side of X where p has the sign -sx
    Y = X + 1 if sx == left else X - 1
    if Y == lo or Y == hi:  # p may vanish there, at another root
        sy = left if Y == lo else -left
        vy = value_at(p, Y, depth) if ends is None else ends[Y == hi]
    else:
        vy = value_at(p, Y, depth)
        sy = (vy > 0) - (vy < 0)
    if not sx or not sy:
        return (depth, Y if sx else X, 0), None
    if sx == sy:
        return None
    return (depth, min(X, Y), left), ((vx, vy) if X < Y else (vy, vx))


def _seeded(p, root, bits):
    """A first step for ``refine``: a few float Newton steps from the middle
    of the interval, put on the grid about _SEED_BITS bits deep at the
    estimate (no deeper than bits + 1 bits), and kept as ``_bracket`` keeps
    a secant step; None where that grid is not at least two levels below
    the interval, p's coefficients or values overflow a float, the estimate
    is not finite or outside the interval, or the signs do not bracket the
    root (Abbott's quadratic interval refinement, seeded)."""
    k, c, left = root
    if min(_SEED_BITS, bits + 1) - c.bit_length() < 2:
        return None  # the interval is as narrow as the grid, or nearly
    x = math.ldexp(2 * c + 1, -k - 1)
    try:
        coefficients = [float(v) for v in reversed(p)]
        for _ in range(_SEED_STEPS):
            f = df = 0.0
            for a in coefficients:
                df = df * x + f
                f = f * x + a
            dx = f / df
            x -= dx
            if abs(dx) <= abs(x) * 2.0**-_SEED_BITS:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    lo, hi = math.ldexp(c, -k), math.ldexp(c + 1, -k)
    if not lo < x < hi:  # also where x is not finite
        return None
    depth = min(_SEED_BITS, bits + 1) - math.frexp(x)[1]
    step = depth - k
    if step < 2:
        return None
    lo, hi = c << step, (c + 1) << step
    X = min(max(round(math.ldexp(x, depth)), lo + 1), hi - 1)
    return _bracket(p, depth, X, left, lo, hi)


def _round_div(a: int, b: int) -> int:
    """a / b rounded to an integer, b != 0."""
    return (2 * a + b) // (2 * b) if b > 0 else (-2 * a - b) // (-2 * b)


def sign_near(p: list, f: list, root: tuple[int, int, int], v: int) -> int:
    """The sign of f at the root of p isolated by ``root``, 0 where f
    vanishes, given v = value_at(f, *point(root)): the sign of v once |v|
    exceeds what f can change across the interval, refining the interval
    until it does.  The interval lies in (0, 1], where sum i |f_i| bounds
    |f'|."""
    slope, n = sum(i * abs(x) for i, x in enumerate(f)), max(len(f) - 2, 0)
    k, c, left = root
    if left and abs(v) <= slope << ((k + 1) * n):
        common = gcd_poly(p, trim(f))
        # the interval holds no root of p but this one
        if len(common) > 1 and root_bound(common, k, c):
            return 0
        while root[2] and abs(v) <= slope << ((root[0] + 1) * n):
            root = refine(p, root, 2 * root[0] + 2)
            v = value_at(f, *point(root))
    return (v > 0) - (v < 0)


def rational_root(p: list, root: tuple[int, int, int]) -> Optional[tuple[int, int]]:
    """The root of the square-free p isolated by ``root`` as (num, den) when
    it is rational, else None.  A rational root's denominator divides
    lead = |p[-1]|, so the root is N / lead for the one integer N that an
    interval narrower than 1 / (2 lead) can hold."""
    lead = abs(p[-1])
    k, c, left = refine(p, root, lead.bit_length() + 1)
    if not left:
        return c, 1 << k
    N = (c * lead >> k) + 1
    if N << k < (c + 1) * lead and homogeneous_value(p, N, lead, len(p) - 1) == 0:
        return N, lead
    return None
