"""Univariate polynomials over the integers, for the exact solves.

A polynomial is a list of Python ints, lowest degree first, with no
trailing zeros; [] is the zero polynomial.  A polynomial in two variables
is a list, by powers of one, of polynomials in the other.

Determinants over Z[t] are fraction-free (Bareiss): every division is
exact.  Positive roots are isolated by Descartes' rule of signs with
bisection (Collins and Akritas, SYMSAC 1976) on dyadic intervals
(c / 2**k, (c + 1) / 2**k) of (0, 1), written (k, c); a root at a dyadic
point is found exactly.  Nothing here rounds.
"""

from __future__ import annotations

from math import gcd

# A prime for the modular coprimality test in ``gcd_poly``.
_PRIME = 2**61 - 1


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


def _coprime_mod_prime(p: list, q: list) -> bool:
    """True when p and q have no common factor of positive degree, as their
    images mod a prime show; False when the images cannot tell."""
    a, b = trim([c % _PRIME for c in p]), trim([c % _PRIME for c in q])
    if len(a) != len(p):  # the prime divides p's leading coefficient
        return False
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % _PRIME, len(a) - len(b)
            for j, v in enumerate(b, shift):
                a[j] = (a[j] - c * v) % _PRIME
            a = trim(a)
        a, b = b, a
    return len(a) == 1


def gcd_poly(p: list, q: list) -> list:
    """The primitive gcd in Z[t] of p != 0 and q (p itself when q = 0)."""
    if _coprime_mod_prime(p, q):
        return [1]
    p, q = primitive(p), primitive(q)
    while q:
        p, q = q, primitive(prem(p, q))
    return p


def bareiss(rows: list) -> list:
    """The fraction-free elimination of ``rows`` (entries in Z[t]) on their
    first len(rows) - 1 columns: entry j of the result is the minor of all
    rows on those columns and column j (a single entry, the determinant,
    when the rows are square)."""
    M = [row[:] for row in rows]
    n, sign, prev = len(M), 1, [1]
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:  # a zero column: every such minor vanishes
                return [[] for _ in M[-1][n - 1:]]
            M[k], M[swap], sign = M[swap], M[k], -sign
        pivot, top = M[k][k], M[k]
        for row in M[k + 1:]:
            lead = row[k]
            for j in range(k + 1, len(row)):
                v = mul(pivot, row[j])
                if lead and top[j]:
                    v = sub(v, mul(lead, top[j]))
                row[j] = exact_div(v, prev) if v else []
        prev = pivot
    return [e if sign > 0 else [-c for c in e] for e in M[-1][n - 1:]]


def subresultant(f: list, g: list, j: int) -> list:
    """The j-th subresultant of f and g, polynomials of degrees m and n in
    their outer variable u with coefficients in Z[t], as its coefficients
    in Z[t] from the highest power of u: for j = 0 the resultant alone
    (m + n >= 1), for j = 1 < min(m, n) the pair (a, b) of a u + b, which
    at a root of the resultant vanishes at the common root u unless a
    does."""
    m, n = len(f) - 1, len(g) - 1
    width = m + n - j
    rows = []
    for p, deg, count in ((f, m, n - j), (g, n, m - j)):
        for r in range(count):
            row = [[] for _ in range(width)]
            for e, c in enumerate(p):
                row[r + deg - e] = c
            rows.append(row)
    return bareiss(rows)


def derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


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
    """Descartes' bound on the number of roots of p in (k, c): the sign
    variations of (1 + y)**n p((c + 1/(1 + y)) / 2**k) in y > 0, an exact
    count when it is 0 or 1."""
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


def sign_at(p: list, num: int, k: int) -> int:
    """The sign of p at num / 2**k."""
    v = value_at(p, num, k)
    return (v > 0) - (v < 0)


def isolate(p: list) -> list[tuple[int, int, int]]:
    """The roots of the square-free p in (0, 1), each as (k, c, left): the
    root c / 2**k when ``left`` is 0, else the one root in (k, c), where p
    has the sign ``left`` just right of c / 2**k."""
    out, stack = [], [(0, 0)]
    while stack:
        k, c = stack.pop()
        count = root_bound(p, k, c)
        if count == 1:
            # an end of the interval may be another (simple) root of p
            out.append((k, c, sign_at(p, c, k) or sign_at(derivative(p), c, k)))
        elif count > 1:
            if sign_at(p, 2 * c + 1, k + 1) == 0:
                out.append((k + 1, 2 * c + 1, 0))
            stack += [(k + 1, 2 * c), (k + 1, 2 * c + 1)]
    return out


def positive_roots(p: list) -> list[tuple[bool, tuple]]:
    """The positive roots of p, with p(0) != 0, each as (reverse, root): a
    root in (0, 1) or at 1 as ``isolate`` gives it, or, when ``reverse``, a
    root v > 1 as the root 1/v of the reversed p.  p is square-free, or has
    one positive root, a simple one; a constant p has none."""
    roots = [(False, root) for root in isolate(p)]
    if sign_at(p, 1, 0) == 0:
        roots.append((False, (0, 1, 0)))
    return roots + [(True, root) for root in isolate(p[::-1])]


def bisect(p: list, root: tuple[int, int, int]) -> tuple[int, int, int]:
    """The half of the interval of ``root`` (see ``isolate``) that holds the
    root of the square-free p; the root itself, when it is the midpoint."""
    k, c, left = root
    if not left:
        return root
    mid = sign_at(p, 2 * c + 1, k + 1)
    if mid == 0:
        return k + 1, 2 * c + 1, 0
    return k + 1, 2 * c + (mid == left), left


def sign_at_root(p: list, f: list, root: tuple[int, int, int]) -> tuple[int, tuple]:
    """(the sign of f at the root of the square-free p isolated by ``root``,
    where f does not vanish; the root's refined interval), bisecting until f
    has no root in the interval."""
    # a bound costs a Taylor shift and a bisection a Horner evaluation:
    # twice as many bisections between bounds each time
    steps = 1
    while root[2] and root_bound(f, root[0], root[1]):
        for _ in range(steps):
            root = bisect(p, root)
        steps *= 2
    k, c, left = root
    return sign_at(f, 2 * c + 1, k + 1) if left else sign_at(f, c, k), root
