"""Shared generators and independent oracles for the test suite.

Random models are Casimir-consistent by construction (Killing coefficients
are derived from the Casimir eigenvalues), have every eigenvalue positive
(so the structural hypothesis holds outright) unless zero-Casimir lines are
asked for, and carry one or two deliberately protected index sets so the
subalgebra lattice is nontrivial.

The oracles here never share code with the library paths they check: the
Ricci and scalar-curvature oracles sum over the dense s^3 tensor, the closure and
requirement-2 oracles test subsets against that same dense tensor, the
chain oracle redoes betweenness with set algebra, and the eta oracle sums the defining form over
the ordered triples rather than the library's scaled rows of value masks.  The
ordered triples are checked against the sorted set of each triple's
permutations, where the library writes them from its equality pattern.  The
subresultant oracle takes Sylvester determinants by fraction-free (Bareiss)
elimination, where the library runs a subresultant chain, and the root
oracle bisects one bit at a time, where the library takes Newton steps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np

from homricci import ChainError, DiagonalForm, SpaceModel, build_model, check_theorem, ricci, two_summand
from homricci._polynomials import exact_div, mul, sign_at, sub

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(code: str, *argv, cwd=None):
    """The JSON document that ``code``, run with ``argv`` in a new Python
    process that imports homricci from this checkout, prints on stdout."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(done.stdout)


def _count_inside(subset, triple) -> int:
    return sum(1 for t in triple if t in subset)


def random_space_model(rng, s=None, exact=False, ensure_proper_subalgebra=True, zero_lines=0):
    """A validated random model with positive Casimir eigenvalues, except on
    ``zero_lines`` summands: lines whose Casimir eigenvalue is 0."""
    if s is None:
        s = int(rng.integers(2, 6))
    dims = [int(rng.integers(1, 6)) for _ in range(s)]
    lines = set()
    if zero_lines:
        lines = {int(i) for i in rng.choice(s, size=zero_lines, replace=False)}
        for i in lines:
            dims[i] = 1
    others = [i for i in range(s) if i not in lines]
    while sum(dims) < 3:
        dims[others[int(rng.integers(0, len(others)))]] += 1

    protected = []
    if ensure_proper_subalgebra and s >= 2:
        size = int(rng.integers(1, s))
        inner = set(int(i) + 1 for i in rng.choice(s, size=size, replace=False))
        protected.append(inner)
        if len(inner) >= 2 and rng.random() < 0.5:
            sub_size = int(rng.integers(1, len(inner)))
            sub = set(
                int(i)
                for i in rng.choice(sorted(inner), size=sub_size, replace=False)
            )
            protected.append(sub)

    triples = {}
    for i, j, k in combinations_with_repetition(s):
        # a 1-dimensional summand brackets trivially with itself
        if len({i, j, k}) < 3:
            repeated = i if (i == j or i == k) else j
            if dims[repeated - 1] == 1:
                continue
        if rng.random() < 0.45:
            continue
        if any(_count_inside(P, (i, j, k)) == 2 for P in protected):
            continue
        if exact:
            value = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        else:
            value = float(rng.uniform(0.05, 1.2))
        triples[(i, j, k)] = value

    if exact:
        casimir = [Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 25))) for _ in range(s)]
    else:
        casimir = [float(rng.uniform(0.05, 0.8)) for _ in range(s)]
    for i in lines:
        casimir[i] = Fraction(0) if exact else 0.0

    return build_model(
        name=f"random-s{s}",
        dims=dims,
        casimir=casimir,
        triples=triples,
        pairwise_inequivalent=True,
    )


def draw_corpus(seed, low, high, z_low, z_high, keep_passing, size):
    """(model, T) draws in the order ROADMAP.md records its corpora: s in
    [low, high), an exact model, z uniform in [z_low, z_high); a draw whose
    check raises is skipped, and one is kept when its check passes (or
    fails)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < size:
        s = int(rng.integers(low, high))
        model = random_space_model(rng, s, exact=True)
        T = DiagonalForm.full(tuple(float(v) for v in rng.uniform(z_low, z_high, s)))
        try:
            passed = check_theorem(model, T).passed
        except ChainError:
            continue
        if passed == keep_passing:
            out.append((model, T))
    return out


def draw_known_solutions(seed, size):
    """(model, T) draws of the known-solution corpus as ROADMAP.md records
    it: s in [4, 7), an exact model, a metric x of quarters from 1/4 to 5,
    and T = Ric x in exact arithmetic, so that x solves Ric g = c T with
    c = 1; a draw with some coefficient of T not positive is skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < size:
        s = int(rng.integers(4, 7))
        model = random_space_model(rng, s, exact=True)
        x = DiagonalForm.full(tuple(Fraction(int(k), 4) for k in rng.integers(1, 21, s)))
        T = ricci(model, x)
        if all(v > 0 for v in T):
            out.append((model, DiagonalForm.full(tuple(T))))
    return out


def sweep_cases(count=150):
    """The s = 3 sweep as ROADMAP.md records it: random exact models with
    float targets."""
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(count):
        model = random_space_model(rng, 3, exact=True)
        cases.append((model, DiagonalForm.full(tuple(float(v) for v in rng.uniform(0.05, 5, 3)))))
    return cases


def draw_near_curve(seed, size):
    """(model, T) draws of the near-curve corpus as ROADMAP.md records it: a
    float s = 3 model, a float metric x uniform in [0.2, 5) and T = Ric x as
    floats, so that T is within rounding of a target that x solves; a draw
    with some coefficient of T not positive is skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < size:
        model = random_space_model(rng, 3, exact=False)
        x = DiagonalForm.full(tuple(float(v) for v in rng.uniform(0.2, 5, 3)))
        T = tuple(float(v) for v in ricci(model, x))
        if all(v > 0 for v in T):
            out.append((model, DiagonalForm.full(T)))
    return out


def combinations_with_repetition(s):
    for i in range(1, s + 1):
        for j in range(i, s + 1):
            for k in range(j, s + 1):
                yield i, j, k


def sparse_model(rng, s):
    """Few nonzero triples, so the lattice has tens to hundreds of members;
    every dimension is at least 2, so triples (i,i,k) and (i,i,i) occur."""
    dims = [int(rng.integers(2, 4)) for _ in range(s)]
    # chance of a nonzero triple by its number of distinct indices
    chance = {1: 0.3, 2: 1.0 / s**2, 3: 6.0 / s**2}
    triples = {
        t: Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        for t in combinations_with_repetition(s)
        if rng.random() < chance[len(set(t))]
    }
    casimir = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(s)]
    return build_model(f"sparse-s{s}", dims, casimir=casimir, triples=triples)


def random_positive_form(rng, s, exact=False, low=0.3, high=3.0):
    if exact:
        values = [Fraction(int(rng.integers(1, 16)), int(rng.integers(1, 8))) for _ in range(s)]
    else:
        values = [float(rng.uniform(low, high)) for _ in range(s)]
    return DiagonalForm.full(values)


def random_two_summand_case(rng, pass_side: bool):
    """A conditional two-summand model plus a target on the requested side.

    The target ratio sits at least 10% away from the exact threshold, so the
    verdict is decisive.
    """
    d1 = int(rng.integers(1, 4))
    d2 = int(rng.integers(1, 5))
    if d1 + d2 < 3:
        d2 += 2
    zeta1 = float(rng.uniform(0.05, 0.5))
    zeta2 = float(rng.uniform(0.05, 0.5))
    t122 = float(rng.uniform(0.2, 1.2))
    t111 = float(rng.uniform(0.05, 0.4)) if (d1 > 1 and rng.random() < 0.5) else 0.0
    t222 = float(rng.uniform(0.05, 0.4)) if (d2 > 1 and rng.random() < 0.5) else 0.0
    model = two_summand(d1, d2, zeta1, zeta2, t122, t111, t222)
    eta_val = (4 * d1 * zeta1 + t111) / (d1 * (4 * d2 * zeta2 + t222 + 4 * t122))
    threshold = d2 * eta_val
    factor = float(rng.uniform(1.1, 3.0)) if pass_side else float(rng.uniform(0.3, 0.9))
    T = DiagonalForm.full((threshold * factor, 1.0))
    return model, T, threshold


# --- independent oracles -----------------------------------------------------


def oracle_ordered_triples(model: SpaceModel) -> tuple:
    """Each nonzero canonical triple expanded to the sorted set of its
    permutations."""
    return tuple(
        (*perm, v)
        for i, j, k, v in model.triples
        if v != 0
        for perm in sorted(set(permutations((i, j, k))))
    )


def dense_tensor(model: SpaceModel, exact: bool = False) -> np.ndarray:
    """The full s^3 symmetric tensor of bracket norms, as floats, or as
    Fractions in an object array when ``exact``."""
    s = model.s
    num = Fraction if exact else float
    out = np.zeros((s, s, s), dtype=object if exact else float)
    for i, j, k, v in model.triples:
        for a, b, c in set(permutations((i, j, k))):
            out[a - 1, b - 1, c - 1] = num(v)
    return out


def oracle_ricci(model: SpaceModel, x: DiagonalForm, exact: bool = False) -> np.ndarray:
    """r_i = b_i/2 + x_i^2/(4 d_i) sum_jk [jki]/(x_j x_k)
    - 1/(2 d_i) sum_jk [ijk] x_k/x_j, summed over the dense tensor; in
    Fractions when ``exact``, every float read at its exact value."""
    num = Fraction if exact else float
    t = dense_tensor(model, exact)
    x = np.array([num(v) for v in x.values], dtype=t.dtype)
    d = np.array(model.dims, dtype=t.dtype)
    b = np.array([num(v) for v in model.killing], dtype=t.dtype)
    inv = 1 / x
    inner = np.einsum("jki,j,k->i", t, inv, inv)
    outer = np.einsum("ijk,j,k->i", t, inv, x)
    return b / 2 + x * x * inner / (4 * d) - outer / (2 * d)


def oracle_figures(model: SpaceModel, x: DiagonalForm, T: DiagonalForm) -> tuple:
    """(c, residual, S) at the metric x for the target T, exactly, from
    ``oracle_ricci`` in Fractions: the least-squares c of r = c T, the
    relative residual max|r - c T| / (c max T) and S = sum d_i r_i / x_i."""
    r = oracle_ricci(model, x, exact=True)
    x = [Fraction(v) for v in x.values]
    z = [Fraction(v) for v in T.values]
    d = model.dims
    c = sum(di * ri * zi for di, ri, zi in zip(d, r, z)) / sum(di * zi * zi for di, zi in zip(d, z))
    residual = max(abs(ri - c * zi) for ri, zi in zip(r, z)) / (abs(c) * max(z))
    return c, residual, sum(di * ri / xi for di, ri, xi in zip(d, r, x))


def oracle_scalar_S(model: SpaceModel, x: DiagonalForm, J=None) -> float:
    """Naive dense summation over every ordered index triple of J, read on
    the whole metric x (J defaults to the full index set)."""
    J = tuple(J) if J is not None else range(1, model.s + 1)
    t = dense_tensor(model)
    lin = sum(
        model.dims[i - 1] * float(model.killing[i - 1]) / float(x[i]) for i in J
    )
    tri = 0.0
    for i, j, k in product(J, repeat=3):
        tri += t[i - 1, j - 1, k - 1] * float(x[k]) / (float(x[i]) * float(x[j]))
    return 0.5 * lin - 0.25 * tri


def oracle_hat_S(model: SpaceModel, x: DiagonalForm, J_k) -> float:
    """oracle_scalar_S on J_k less the bracket mass into the complement,
    read on the whole metric x."""
    J_k = tuple(J_k)
    comp = [i for i in range(1, model.s + 1) if i not in set(J_k)]
    t = dense_tensor(model)
    pen = 0.0
    for i in J_k:
        for j, k in product(comp, repeat=2):
            pen += t[i - 1, j - 1, k - 1] / float(x[i])
    return oracle_scalar_S(model, x, J_k) - 0.5 * pen


def def_form_eta(model: SpaceModel, chain):
    """Defining form of eta, from Killing traces and bracket masses of the
    chain's blocks summed straight over the ordered triples."""
    full = range(1, model.s + 1)
    n, l = chain.J_kprime, chain.J_l
    j = [i for i in full if i not in chain.J_k]
    jp = [i for i in full if i not in n]

    def mass(A, B, C):
        return sum(v for a, b, c, v in model.ordered_triples if a in A and b in B and c in C)

    def trace(J):
        return -sum(model.dims[i - 1] * model.killing[i - 1] for i in J)

    omega = min(model.dims[i - 1] for i in n)
    num = 2 * trace(n) + 2 * mass(n, jp, jp) + mass(n, n, n)
    den = omega * (2 * trace(l) + mass(l, l, l) + 2 * mass(l, j, j))
    return num / den


def fd_grad_S(model: SpaceModel, x: DiagonalForm, step=1e-5):
    """Central finite differences of scalar_S (library path under test is
    the analytic gradient; the S evaluations here go through the oracle-free
    public function, which the dense oracle validates separately)."""
    from homricci import scalar_S

    values = [float(v) for v in x.values]
    grad = []
    for idx in range(len(values)):
        up = values.copy()
        dn = values.copy()
        h = step * max(1.0, abs(values[idx]))
        up[idx] += h
        dn[idx] -= h
        sp = scalar_S(model, DiagonalForm.full(up))
        sm = scalar_S(model, DiagonalForm.full(dn))
        grad.append((sp - sm) / (2 * h))
    return grad


def oracle_lattice(model: SpaceModel):
    """Closure check straight off the dense tensor, one subset at a time."""
    s = model.s
    t = dense_tensor(model)
    members = []
    for size in range(s + 1):
        for combo in combinations(range(1, s + 1), size):
            inside = set(combo)
            closed = True
            for j, k in product(combo, repeat=2):
                for i in range(1, s + 1):
                    if i not in inside and t[i - 1, j - 1, k - 1] != 0.0:
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                members.append(tuple(sorted(combo)))
    return sorted(members, key=lambda J: (len(J), J))


def oracle_requirement2(model: SpaceModel):
    """Requirement-2 violations straight off the dense tensor: every proper
    nontrivial closed set J (from :func:`oracle_lattice`) times every line j
    outside J with zero Casimir eigenvalue and [j b c] = 0 for every b in J
    and every c."""
    t = dense_tensor(model)
    full = tuple(range(1, model.s + 1))
    return [
        (J, j)
        for J in oracle_lattice(model)
        if J and J != full
        for j in full
        if j not in J
        and model.dims[j - 1] == 1
        and model.casimir[j - 1] == 0
        and not any(t[j - 1, b - 1].any() for b in J)
    ]


def oracle_simple_chains(members):
    """Betweenness filtering with raw set algebra."""
    sets = [frozenset(J) for J in members]
    chains = []
    for K in sets:
        if not K:
            continue
        for Kp in sets:
            if not Kp or not Kp < K:
                continue
            if any(Kp < M < K for M in sets):
                continue
            chains.append((tuple(sorted(K)), tuple(sorted(Kp))))
    return sorted(chains, key=lambda ck: (len(ck[0]), ck[0], len(ck[1]), ck[1]))


def oracle_full_flag(n: int):
    """Lattice members and simple chains of SU(n)/T from set partitions.

    The summands of SU(n)/T are the root pairs a < b, numbered in
    lexicographic order.  A closed index set is the set of pairs joined by
    a set partition of {1..n}; covering pairs merge two blocks, and a
    simple chain is a covering pair whose lower partition is not the
    discrete one.  The partitions are listed as restricted growth strings.
    Returns the members and the (J_k, J_k') pairs, each in (size, lex)
    order.
    """
    number = {p: i for i, p in enumerate(combinations(range(1, n + 1), 2), start=1)}

    def growth_strings(length):
        strings = [[0]]
        for _ in range(length - 1):
            strings = [w + [b] for w in strings for b in range(max(w) + 2)]
        return strings

    def member(labels):
        return tuple(
            sorted(number[(a, b)] for a, b in number if labels[a - 1] == labels[b - 1])
        )

    members, chains = set(), set()
    for labels in growth_strings(n):
        inner = member(labels)
        members.add(inner)
        blocks = max(labels) + 1
        for x, y in combinations(range(blocks), 2):
            outer = member([x if c == y else c for c in labels])
            if inner:
                chains.add((outer, inner))

    def order(J):
        return (len(J), J)

    return (
        sorted(members, key=order),
        sorted(chains, key=lambda ck: (*order(ck[0]), *order(ck[1]))),
    )


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
    their outer variable u with coefficients in Z[t], from its Sylvester
    matrix, as its coefficients in Z[t] from the highest power of u: for
    j = 0 the resultant alone (m + n >= 1), for j = 1 < min(m, n) the pair
    (a, b) of a u + b."""
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


def bisect(p: list, root: tuple) -> tuple:
    """The half of the interval of ``root`` (see
    ``homricci._polynomials.isolate``) that holds the root of the
    square-free p; the root itself, when it is the midpoint."""
    k, c, left = root
    if not left:
        return root
    mid = sign_at(p, 2 * c + 1, k + 1)
    if mid == 0:
        return k + 1, 2 * c + 1, 0
    return k + 1, 2 * c + (mid == left), left


def bisected_root(p: list, root: tuple, bits: int) -> tuple:
    """The root of the square-free p isolated by ``root`` (see
    ``homricci._polynomials.isolate``), bisected one bit at a time until
    c >= 2**bits or the root is hit exactly."""
    while root[2] and root[1] >> bits == 0:
        root = bisect(p, root)
    return root


def has_root_in(p: list, lo: Fraction, hi: Fraction) -> bool:
    """Whether the polynomial p != 0 (lowest degree first) has a root in
    [lo, hi], lo < hi, by Sturm's theorem in exact fractions."""
    seq = [[Fraction(c) for c in p]]
    while seq[0] and seq[0][-1] == 0:
        seq[0].pop()
    seq.append([i * c for i, c in enumerate(seq[0])][1:])
    while seq[-1]:
        r = seq[-2][:]
        while len(r) >= len(seq[-1]):
            q, shift = r[-1] / seq[-1][-1], len(r) - len(seq[-1])
            for i, v in enumerate(seq[-1]):
                r[i + shift] -= q * v
            while r and r[-1] == 0:
                r.pop()
        seq.append([-v for v in r])
    seq.pop()

    def signs(x):
        values = [sum(c * x**i for i, c in enumerate(q)) for q in seq]
        return [v > 0 for v in values if v], values[0]

    (low, at_lo), (high, at_hi) = signs(lo), signs(hi)
    changes = [sum(a != b for a, b in zip(v, v[1:])) for v in (low, high)]
    return at_lo == 0 or at_hi == 0 or changes[0] != changes[1]
