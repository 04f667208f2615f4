"""Built-in model generators.

Three families are constructible from closed-form data: the three-summand
flag spaces (structure constants determined by the dimensions alone, with the
background form normalized against the Killing form so every b_i = 1), the
full flag manifolds SU(n)/T, and two-summand spaces where the first summand
spans the subalgebra side.  All generate exact-rational models, and raise
:class:`ModelError` with validation's errors on parameters that give none.
Parameters are checked, not converted: a dimension or rank of 4.7 or True
is rejected, never truncated.

Known spaces with the unconditional-existence structure (a single abelian
line as the only proper subalgebra) are listed by name only; their summand
data is not embedded and must be supplied by the user.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .model import ModelError, SpaceModel, _integral, build_model
from .numbers import NumberFormatError, parse_number


#: Spaces known to satisfy the unconditional-existence structure; summand
#: constants are not embedded here and must be supplied by the user.
PLACEHOLDER_SPACES = (
    "SO(2k)/SU(k), k >= 3",
    "SU(k+l)/(SU(k) x SU(l)), k, l >= 2",
    "Sp(k)/SU(k), k >= 3",
    "E7/E6",
)


def flag3(d1: int, d2: int, d3: int) -> SpaceModel:
    """Three-summand flag space from its summand dimensions.

    With the background form set to minus the Killing form, b_i = 1 and the
    only nonzero bracket norms are

        [112] = (d1 d2 + 2 d1 d3 - d2 d3) / (d1 + 4 d2 + 9 d3),
        [123] = (d1 + d2) d3 / (d1 + 4 d2 + 9 d3).

    The Casimir eigenvalues follow from the compatibility law.
    """
    d1, d2, d3 = (_integral(d, "flag3 dimension") for d in (d1, d2, d3))
    if min(d1, d2, d3) < 1:
        raise ModelError("dimensions must be positive")
    denom = d1 + 4 * d2 + 9 * d3
    t112 = Fraction(d1 * d2 + 2 * d1 * d3 - d2 * d3, denom)
    if t112 < 0:
        raise ModelError(
            f"dims ({d1},{d2},{d3}) give a negative bracket norm [112]={t112}; "
            "invalid parameter combination"
        )
    t123 = Fraction((d1 + d2) * d3, denom)
    triples = {}
    if t112 != 0:
        triples[(1, 1, 2)] = t112
    if t123 != 0:
        triples[(1, 2, 3)] = t123
    return build_model(
        name=f"flag3:{d1},{d2},{d3}",
        dims=(d1, d2, d3),
        killing=(1, 1, 1),
        triples=triples,
        pairwise_inequivalent=True,
    )


def full_flag(n: int) -> SpaceModel:
    """Full flag manifold SU(n)/T from its rank, n >= 3.

    One 2-dimensional summand m_ab per root pair a < b, numbered in
    lexicographic order of the pairs.  With the background form set to minus
    the Killing form, b_i = 1 and the only nonzero bracket norms are
    [ijk] = 1/n on every triangle {ab, bc, ac}; validation derives
    zeta_i = 1/n.  The lattice members are the set partitions of {1..n}, so
    there are Bell(n) of them.
    """
    n = _integral(n, "SU(n)/T's n")
    if n < 3:
        raise ModelError(f"SU(n)/T needs n >= 3, got n={n}")
    pairs = {p: i for i, p in enumerate(combinations(range(1, n + 1), 2), start=1)}
    triples = {
        tuple(sorted((pairs[(a, b)], pairs[(b, c)], pairs[(a, c)]))): Fraction(1, n)
        for a, b, c in combinations(range(1, n + 1), 3)
    }
    return build_model(
        name=f"SU({n})/T",
        dims=(2,) * len(pairs),
        killing=(1,) * len(pairs),
        triples=triples,
        pairwise_inequivalent=True,
    )


def two_summand(
    d1: int,
    d2: int,
    zeta1,
    zeta2,
    t122,
    t111=0,
    t222=0,
    name: str | None = None,
) -> SpaceModel:
    """Two-summand space with the first summand spanning the subalgebra side.

    [112] = 0 is enforced (side 1 closes under the bracket) and [122] must be
    positive (side 2 does not); a summand with zero Casimir eigenvalue must
    be a line, on which [iii] vanishes.  Killing coefficients are derived
    from the compatibility law, and validation checks the rest: positive
    dimensions and non-negative values.  A value that does not parse as a
    number raises :class:`ModelError` ("bad number in zeta1: ...").
    """
    def number(key, value):
        try:
            return parse_number(value)
        except NumberFormatError as exc:
            raise ModelError(f"bad number in {key}: {exc}") from exc

    zeta1, zeta2 = number("zeta1", zeta1), number("zeta2", zeta2)
    t111, t122, t222 = number("t111", t111), number("t122", t122), number("t222", t222)
    if t122 <= 0:
        raise ModelError("[122] must be positive (side 2 must not close)")
    for d, z, label in ((d1, zeta1, 1), (d2, zeta2, 2)):
        if z == 0 and d != 1:
            raise ModelError(
                f"summand {label} has zero casimir eigenvalue but dimension {d}; "
                "a trivially-acted summand is a line"
            )
    if d1 == 1 and t111 != 0:
        raise ModelError("[111] must vanish on a 1-dimensional summand")
    if d2 == 1 and t222 != 0:
        raise ModelError("[222] must vanish on a 1-dimensional summand")
    triples = {(1, 2, 2): t122}
    if t111 != 0:
        triples[(1, 1, 1)] = t111
    if t222 != 0:
        triples[(2, 2, 2)] = t222
    return build_model(
        name=name or f"twosum:{d1},{d2}",
        dims=(d1, d2),
        casimir=(zeta1, zeta2),
        triples=triples,
        pairwise_inequivalent=True,
    )


def abelian_line_two_summand(d2: int, zeta2, t122, t222=0) -> SpaceModel:
    """Two-summand space whose subalgebra side is a single abelian line.

    This is the structure under which every positive target form is solvable
    and the Ricci iteration runs unconditionally.
    """
    return two_summand(
        1, d2, 0, zeta2, t122, t111=0, t222=t222, name=f"twosum-line:{d2}"
    )


#: Each catalog kind, in the order the command line lists them: its usage
#: line, the parameter counts it takes, how many of them (leading) are
#: integers, and the builder they are passed to.
KINDS = {
    "flag3": ("flag3 d1 d2 d3", (3,), 3, flag3),
    "fullflag": ("fullflag n", (1,), 1, full_flag),
    "twosum": ("twosum d1 d2 zeta1 zeta2 t122 [t111] [t222]", (5, 6, 7), 2, two_summand),
    "g2u2": ("g2u2", (0,), 0, lambda: flag3(4, 2, 4)),
}


def entry(kind: str, *params) -> SpaceModel:
    """Build the model of a catalog kind (see :data:`KINDS`); ``params`` may
    be numbers or their text."""
    if kind not in KINDS:
        raise ModelError(f"unknown catalog kind {kind!r}")
    usage, counts, ints, build = KINDS[kind]
    if len(params) not in counts:
        raise ModelError(f"usage: {usage}")
    try:  # a parameter given as text is read here, a number by its builder
        leading = [int(p) if isinstance(p, str) else p for p in params[:ints]]
    except ValueError as exc:
        raise ModelError(f"usage: {usage} ({exc})") from exc
    return build(*leading, *params[ints:])
