"""Combinatorial description of a compact homogeneous space.

A space enters the library as pure numbers: the count ``s`` of irreducible
isotropy summands, their dimensions ``d_i``, the Casimir eigenvalues
``zeta_i``, the Killing coefficients ``b_i``, and the fully symmetric
non-negative bracket norms ``[ijk]``.  These are tied together by one
compatibility law per index,

    d_i b_i = 2 d_i zeta_i + sum_{j,k} [ijk],

which validation enforces exactly for rational data and to a tolerance for
float data; when only one of zeta/b is supplied the other is derived from it.

:func:`validate` checks every rule a model obeys, and reports every broken
one: positive integer dims of total at least 3, arrays of length s,
integer triple indices in canonical order with no duplicate, finite
non-negative values, and the compatibility law.  :func:`parse_model`
checks only a document's shape (its keys, types and numbers), and is the
one reader of outside values: :func:`build_model` reads its arguments as a
document through it, and it and :func:`load_model` raise the report's
errors.

Every exact consumer reads a model's numbers as integers over one common
denominator (:class:`IntegerForm`): validation's residuals and derived
values, the chain tables (``SpaceModel.scaled``), the curvature pass and the
polynomial Ricci core.  Exact data builds it once at load, and the completed
model shares it; float data builds it on first read.

Index sets J whose summand span closes under the Lie bracket form the
subalgebra lattice.  Closure is visible directly in the data: J is closed
exactly when every nonzero triple [ijk] has either at most one or all three
of its indices inside J.  So the closed sets form a closure system, and the
closure of any set follows from one rule: when a nonzero triple has two of
its slots inside J (counted with multiplicity), the index in its third slot
joins J.  The lattice is listed upward from the empty set through its
covering relation: the upper covers of a member J are the inclusion-minimal
sets among the closures of J + {k}, k outside J.

Those closures come in classes.  Call two outside indices x and y joined
when [x b y] != 0 for some b in J: the rule fired by x and b puts y in
cl(J + x), and by the symmetry of the bracket the rule fired by y and b puts
x in cl(J + y).  So every index of a class X (a connected component of
"joined") generates the same closure cl(J | X).  And J | X is closed unless
a rule with both slots in X leads outside J | X (the leak test): a rule
with one slot in J and one in X leads into X, and J is closed.  A J | X
that is already a member is closed, and a cover, with no test; only a new
J | X runs the test, and only a leaking class is grown further.  So where
nothing leaks, as on the full flags, the test runs once per member, not
once per covering pair.  The walk raises :class:`ModelError` once it holds
more than MAX_MEMBERS members; it sets no bound on s.

The walk reads the bracket from one integer per index b, its join row:
row a of it (bits a*s to a*s + s - 1) is the mask of every c with
[a b c] != 0.  The OR A_J of the join rows over a member J holds in its
row x every index joined to x over J, so a class is found with one shift
and mask per index.  The OR A_X over a class holds in its row x every c
that a rule with slots x and b in X reaches, so the leak test ORs the rows
x of A_X over x in X, and a cover J | X takes A_J | A_X as its own.

The walk records each cover in the class loop, as its class is found: it
keeps, per member mask, the masks of the members it covers, and builds no
list of all covering pairs.  The lattice's two views of what it keeps,
each member's dimension and the positions of its lower covers, are built
on first read: ``subalgebras`` reads only the first, the chain enumeration
only the second.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

from .numbers import (
    NumberFormatError,
    Scalar,
    all_exact,
    common_denominator,
    format_number,
    normalize,
    parse_number,
)

MAX_MEMBERS = 25_000  # admits SU(9)/T, with Bell(9) = 21,147 members

CASIMIR_TOL = 1e-9


class ModelError(ValueError):
    """Raised for structurally broken or inconsistent space data."""


# The errors of the curvature, solver and iteration modules live here, so
# that the CLI catches them without importing those modules (and numpy);
# each module imports its own from here.


class CurvatureError(ValueError):
    """Raised for evaluation requests outside an operation's domain."""


class SolverError(ValueError):
    """Raised for malformed solve requests."""


class IterationError(ValueError):
    """Raised for malformed iteration requests."""


class IntegerForm(NamedTuple):
    """A model's numbers over one common denominator E: each entry is its
    value times E, an integer, on a float model too.  Where the model lacks
    the Casimir or the Killing values, their masses follow from the
    compatibility law d_i b_i = 2 d_i zeta_i + R_i.
    """

    scale: int  # E
    triples: tuple  # [abc] E per row (a, b, c) of SpaceModel.ordered_triples
    row_sums: tuple  # R_i E, R_i = sum_{j,k} [ijk]
    casimir_mass: tuple  # d_i zeta_i E
    killing_mass: tuple  # d_i b_i E
    dims_lcm: int  # L = lcm(d_1, ..., d_s)
    cofactors: tuple  # L / d_i


@dataclass(frozen=True)
class SpaceModel:
    """A homogeneous space reduced to summand-level numbers.

    ``triples`` stores canonical index triples i <= j <= k (1-based), one
    row each; :attr:`ordered_triples` expands each to its distinct
    orderings.  A raw model may break any rule, which :func:`validate`
    reports, and ``casimir``/``killing`` may be None on it; validation
    completes whichever is missing.  Data derived from the numbers alone, the
    kernel's arrays included, is built once per model, on first read.
    """

    name: str
    dims: tuple[int, ...]
    casimir: Optional[tuple[Scalar, ...]]
    killing: Optional[tuple[Scalar, ...]]
    triples: tuple[tuple[int, int, int, Scalar], ...]
    pairwise_inequivalent: bool = True

    @property
    def s(self) -> int:
        return len(self.dims)

    @cached_property
    def dimension(self) -> int:
        return sum(self.dims)

    @cached_property
    def exact(self) -> bool:
        arrays = [v for _, _, _, v in self.triples]
        if self.casimir is not None:
            arrays.extend(self.casimir)
        if self.killing is not None:
            arrays.extend(self.killing)
        return all_exact(arrays)

    @cached_property
    def ordered_triples(self) -> tuple[tuple[int, int, int, Scalar], ...]:
        """Each nonzero canonical triple expanded to its distinct orderings."""
        out = []
        for i, j, k, v in self.triples:  # i <= j <= k: the orderings in sorted order
            if v == 0:
                continue
            if i == k:
                out.append((i, i, i, v))
            elif i == j:
                out += (i, i, k, v), (i, k, i, v), (k, i, i, v)
            elif j == k:
                out += (i, j, j, v), (j, i, j, v), (j, j, i, v)
            else:
                out += (i, j, k, v), (i, k, j, v), (j, i, k, v)
                out += (j, k, i, v), (k, i, j, v), (k, j, i, v)
        return tuple(out)

    @cached_property
    def join_rows(self) -> tuple[int, ...]:
        """Per index b (0-based), one integer whose s-bit row a (bits a*s to
        a*s + s - 1) is the mask of every c with [a b c] != 0: a closed set
        that holds a and b holds each such c."""
        s, rows = self.s, [0] * self.s
        for a, b, c, _ in self.ordered_triples:
            rows[b - 1] |= 1 << (a - 1) * s + c - 1
        return tuple(rows)

    @property
    def lattice(self) -> SubalgebraLattice:
        """The subalgebra lattice (:func:`enumerate_subalgebras`), walked once
        per model: it depends on the bracket data alone.  A walk beyond the
        member guard is not repeated: every read raises its error."""
        lattice = self._walk
        if isinstance(lattice, ModelError):
            raise lattice.with_traceback(None)
        return lattice

    @cached_property
    def _walk(self):
        try:
            return enumerate_subalgebras(self)
        except ModelError as exc:
            return exc

    @cached_property
    def chains(self) -> Sequence:
        """The simple chains (``chains.enumerate_simple_chains``), enumerated
        once per model; where the hypothesis is violated, every read raises."""
        from . import chains

        return chains.enumerate_simple_chains(self)

    @cached_property
    def integer_form(self) -> IntegerForm:
        """The model's numbers as integers over one common denominator
        (:func:`integer_form`), built once per model."""
        return integer_form(self)

    @cached_property
    def ricci_core(self) -> tuple[int, list[dict]]:
        """The polynomial Ricci core and its factor M
        (``_elimination.ricci_core``), built once per model; not to be
        modified."""
        from . import _elimination  # on first use: only s <= 3 solves need it

        return _elimination.ricci_core(self)

    @cached_property
    def kernel_arrays(self) -> tuple:
        """The kernel's arrays on the full index set (``_kernels.kernel_arrays``),
        built once per model; not to be modified."""
        from . import _kernels

        return _kernels.kernel_arrays(self)

    @cached_property
    def scaled(self) -> tuple:
        """The chain tables in the units of the integer form: per index a,
        (v, mask of every b with M[a][b] = v) for each distinct nonzero v,
        where M[a][b] = sum_c [abc] and bit ``b - 1`` of a mask stands for
        summand b; needs a validated model."""
        if self.casimir is None or self.killing is None:
            raise ModelError("scaled data needs a validated model")
        form = self.integer_form
        sums = [{} for _ in range(self.s)]
        for (a, b, _, _), v in zip(self.ordered_triples, form.triples):
            row = sums[a - 1]
            row[b] = row.get(b, 0) + v
        rows = []
        for row in sums:
            masks = {}  # M[a][b] -> the mask of every b with that value
            for b, v in row.items():
                if v:
                    masks[v] = masks.get(v, 0) | 1 << (b - 1)
            rows.append(tuple(masks.items()))
        return tuple(rows)


def integer_form(model: SpaceModel) -> IntegerForm:
    """The integer form of a model that has at least one of its Casimir and
    Killing values (see :class:`IntegerForm`)."""
    dims, s, rows = model.dims, model.s, model.triples
    casimir, killing = model.casimir, model.killing
    n = len(rows)
    # each canonical row is read once, and its integer repeated below over
    # its orderings: 1, 3 or 6 as its indices take 1, 2 or 3 values
    scale, ints = common_denominator(
        [*(row[3] for row in rows), *(casimir or ()), *(killing or ())]
    )
    if casimir is None:  # d zeta = (d b - R) / 2: integers over 2E
        scale, ints = 2 * scale, [2 * v for v in ints]
    triples = [
        v for (i, j, k, _), v in zip(rows, ints) if v for _ in range((0, 1, 3, 6)[len({i, j, k})])
    ]
    sums = [0] * s
    for row, v in zip(model.ordered_triples, triples):
        sums[row[0] - 1] += v
    masses = [d * v for d, v in zip(dims * 2, ints[n:])]  # the given arrays in turn
    if casimir is None:
        killing = masses
        casimir = [(k - r) // 2 for k, r in zip(killing, sums)]
    else:
        casimir, killing = masses[:s], masses[s:]
        if not killing:
            killing = [2 * c + r for c, r in zip(casimir, sums)]
    lcm = math.lcm(*dims)
    return IntegerForm(
        scale, tuple(triples), tuple(sums), tuple(casimir), tuple(killing), lcm,
        tuple(lcm // d for d in dims),
    )


@dataclass(frozen=True)
class DiagonalForm:
    """Positive diagonal coefficients of an invariant bilinear form, one per
    isotropy summand: ``form[i]`` is the coefficient on summand i, 1-based.

    A form carries no summand count of its own; each reader compares
    ``len(values)`` with its model's ``s``.
    """

    values: tuple[Scalar, ...]

    def __post_init__(self):
        values = tuple(normalize(v) for v in self.values)
        if not values:
            raise ModelError("empty diagonal form")
        if not all(map(_finite, values)):
            raise ModelError(f"diagonal coefficients must be finite: {values}")
        if any(v <= 0 for v in values):
            raise ModelError(f"diagonal coefficients must be positive: {values}")
        object.__setattr__(self, "values", values)

    @classmethod
    def full(cls, values: Sequence) -> "DiagonalForm":
        return cls(tuple(values))

    def __getitem__(self, index: int) -> Scalar:
        i = _integral(index)  # a bool or a float stays as it is, and is refused
        if type(i) is not int or not 0 < i <= len(self.values):
            raise ModelError(f"index {index!r} outside the form's summands 1..{len(self.values)}")
        return self.values[i - 1]

    @cached_property
    def exact(self) -> bool:
        return all_exact(self.values)

    @cached_property
    def integers(self) -> tuple[int, tuple[int, ...]]:
        """(scale, ints): the values as integers over their least common
        denominator, exactly (a float is a dyadic rational)."""
        return common_denominator(self.values)

    def scale(self, factor) -> "DiagonalForm":
        factor = normalize(factor)
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        return DiagonalForm(tuple(v * factor for v in self.values))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]
    derived: Optional[str]
    residuals: Optional[tuple[Scalar, ...]]
    model: Optional[SpaceModel]

    def to_dict(self) -> dict:
        out = {
            "ok": self.ok,
            "errors": list(self.errors),
            "derived": self.derived,
        }
        if self.residuals is not None:
            out["casimir_residuals"] = [format_number(r) for r in self.residuals]
        return out


@dataclass(frozen=True)
class SubalgebraLattice:
    """All index sets closed under the bracket, ordered by (size, lex).

    Always contains the empty set (the isotropy algebra itself) and the full
    index set.  ``masks`` holds each member as a bitmask, bit ``i - 1`` for
    summand ``i``.  ``lowers`` is the walk's record, not to be modified: per
    member mask, the masks of the members it covers (no member strictly
    between).  It follows from the members, so ``==`` and ``hash`` leave it
    out.  Two views are built on first read: ``member_dims``, sum_{i in J}
    d_i per member, and ``lower_covers``, per member the sorted indices into
    ``members`` of its lower covers.
    """

    s: int
    members: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    summand_dims: tuple[int, ...]
    lowers: dict = field(compare=False, repr=False)

    @cached_property
    def member_dims(self) -> tuple[int, ...]:
        dims = (0, *self.summand_dims)
        return tuple(sum(map(dims.__getitem__, J)) for J in self.members)

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        index = {m: pos for pos, m in enumerate(self.masks)}
        return tuple(tuple(sorted(map(index.__getitem__, self.lowers[m]))) for m in self.masks)

    @property
    def full(self) -> tuple[int, ...]:
        return tuple(range(1, self.s + 1))

    def proper_nontrivial(self) -> tuple[tuple[int, ...], ...]:
        full = self.full
        return tuple(J for J in self.members if J and J != full)

    def to_dict(self) -> dict:
        return {
            "members": [list(J) for J in self.members],
            "dims": list(self.member_dims),
        }


@dataclass(frozen=True)
class HypothesisVerdict:
    """Outcome of the structural requirements on every proper subalgebra.

    ``requirement1`` (inequivalence across each subalgebra split) is decided
    by the model's pairwise-inequivalence flag: satisfied when the flag is
    set, otherwise unknown.  ``requirement2`` (no 1-dimensional summand
    commuting with a whole subalgebra) is fully checked from the data.
    """

    status: str
    requirement1: str
    requirement2: str
    violations: tuple[tuple[tuple[int, ...], int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "requirement1": self.requirement1,
            "requirement2": self.requirement2,
            "violations": [[list(J), j] for J, j in self.violations],
        }


def _finite(value: Scalar) -> bool:
    # a Fraction is always finite, and may be beyond the float range
    return not isinstance(value, float) or math.isfinite(value)


def _is_int(value) -> bool:
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def _negative(value, exact: bool) -> bool:
    # an exact value (an int or a Fraction) has its numerator's sign: no
    # Fraction comparison
    return (value.numerator if exact else value) < 0


def _integral(value, what: Optional[str] = None, error=ModelError):
    """The integer rule: ``value`` as an ``int`` when it has an integer
    type, numpy's included, other than bool.  Any other value, such as 2.5
    or True, is returned as it is, or, where ``what`` names it, raises
    ``error``."""
    # a plain int is tested first: the check against the ABC is slower
    if type(value) is int or isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if what is None:
        return value
    raise error(f"{what} must be an integer, got {value!r}")


def _check_count(form: DiagonalForm, s: int, what: str, error) -> None:
    """The count rule: ``form`` has one coefficient per summand of a model
    with ``s`` summands, or ``error`` names both counts."""
    n = len(form.values)
    if n != s:
        raise error(
            f"{what} has {n} coefficient{'s' * (n != 1)}; the model has {s} summand{'s' * (s != 1)}"
        )


def _structural_errors(model: SpaceModel) -> list[str]:
    s = model.s
    if s < 1:
        return ["need at least one summand"]
    errors, exact = [], model.exact
    if not all(_is_int(d) and d >= 1 for d in model.dims):
        errors.append(f"dims must be positive integers: {model.dims}")
    elif sum(model.dims) < 3:
        errors.append(f"total dimension {sum(model.dims)} is below 3")
    for name, arr, noun in (
        ("casimir", model.casimir, "eigenvalue"),
        ("killing", model.killing, "coefficient"),
    ):
        if arr is None:
            continue
        if len(arr) != s:
            errors.append(f"{name} has length {len(arr)}, expected {s}")
        if not exact and not all(map(_finite, arr)):  # a Fraction is finite
            errors.append(f"{name} values must be finite: {arr}")
        elif any(_negative(v, exact) for v in arr):
            errors.append(f"negative {name} {noun} in {arr}")
    if model.casimir is None and model.killing is None:
        errors.append("at least one of casimir/killing must be given")
    seen = set()
    for i, j, k, v in model.triples:
        if not all(map(_is_int, (i, j, k))):
            errors.append(f"triple indices must be integers: {(i, j, k)}")
        elif not 1 <= i <= j <= k <= s:
            errors.append(f"triple ({i},{j},{k}) is not canonical for s={s}")
        elif (i, j, k) in seen:
            errors.append(f"duplicate triple ({i},{j},{k})")
        else:
            seen.add((i, j, k))
        if not exact and not _finite(v):
            errors.append(f"bracket norm [{i}{j}{k}] = {v} is not finite")
        elif _negative(v, exact):
            errors.append(f"negative bracket norm [{i}{j}{k}] = {v}")
    return errors


def _from_masses(dims, masses, scale: int) -> tuple:
    """The exact values v_i of the masses d_i v_i over the scale."""
    return tuple(Fraction(m, d * scale) for d, m in zip(dims, masses))


def validate(model: SpaceModel, tol: float = CASIMIR_TOL) -> ValidationReport:
    """Check every rule of the model and complete whichever of zeta/b is
    missing.

    Each broken structural rule is reported; the compatibility law is
    checked on data that obeys them all.  Exact data is held to exact
    identities, read off its integer form; float data to ``tol``, in
    floats.  When both zeta and b are supplied and disagree, validation
    fails rather than preferring one.
    """
    errors = _structural_errors(model)
    if errors:
        return ValidationReport(False, tuple(errors), None, None, None)

    dims, casimir, killing = model.dims, model.casimir, model.killing
    derived = "casimir" if casimir is None else "killing" if killing is None else None
    residuals = None
    if model.exact:  # read off the masses d_i v_i E of the integer form
        form = model.integer_form
        if derived == "casimir":
            casimir = _from_masses(dims, form.casimir_mass, form.scale)
        elif derived:
            killing = _from_masses(dims, form.killing_mass, form.scale)
        else:
            residuals = tuple(
                Fraction(b - 2 * z - r, form.scale)
                for b, z, r in zip(form.killing_mass, form.casimir_mass, form.row_sums)
            )
    else:
        row = [0.0] * model.s
        for a, _, _, v in model.ordered_triples:
            row[a - 1] += v
        if derived == "casimir":
            casimir = tuple((d * b - r) / (2 * d) for d, b, r in zip(dims, killing, row))
        elif derived:
            killing = tuple(2 * z + r / d for d, z, r in zip(dims, casimir, row))
        else:
            residuals = tuple(
                d * b - 2 * d * z - r for d, b, z, r in zip(dims, killing, casimir, row)
            )
    if derived == "casimir":
        for idx, z in enumerate(casimir, start=1):
            if _negative(z, model.exact):
                errors.append(f"derived casimir eigenvalue at i={idx} is negative: {z}")
    if derived and not model.exact:  # float data can derive values beyond the float range
        values = casimir if derived == "casimir" else killing
        if not all(map(_finite, values)):
            errors.append(f"derived {derived} values are beyond the float range: {values}")
    for idx, res in enumerate(residuals or (), start=1):
        # a float residual that overflowed is NaN or infinite: it fails
        if (res != 0) if model.exact else not abs(res) <= tol:
            errors.append(f"casimir identity fails at i={idx}: residual {res}")

    if errors:
        return ValidationReport(False, tuple(errors), derived, residuals, None)

    completed = SpaceModel(
        name=model.name,
        dims=model.dims,
        casimir=tuple(casimir),
        killing=tuple(killing),
        triples=model.triples,
        pairwise_inequivalent=model.pairwise_inequivalent,
    )
    # completion leaves the triples as they were, and derives each value in
    # the arithmetic of the given ones: the tables read above carry over,
    # and on exact data so does the integer form, whose derived masses are
    # the completed values' (float data derives in floats)
    shared = ("exact", "ordered_triples", "integer_form")
    for key in shared if model.exact else shared[:-1]:
        completed.__dict__[key] = model.__dict__[key]
    return ValidationReport(True, (), derived, residuals, completed)


def _validated(raw: SpaceModel, tol: float = CASIMIR_TOL) -> SpaceModel:
    """The completed model of :func:`validate`, or :class:`ModelError` with
    every error it reports."""
    report = validate(raw, tol)
    if not report.ok:
        raise ModelError("; ".join(report.errors))
    return report.model


def build_model(
    name: str,
    dims: Sequence[int],
    casimir: Optional[Sequence] = None,
    killing: Optional[Sequence] = None,
    triples: Optional[dict | Sequence] = None,
    pairwise_inequivalent: bool = True,
) -> SpaceModel:
    """Construct and validate a model, raising :class:`ModelError` on failure.

    The arguments are read as a model file's fields are, by
    :func:`parse_model`: numbers may be ints, floats, Fractions or
    ``"p/q"`` strings, and dims and triple indices must be integral, of any
    integer type, and are never truncated.  ``triples`` may be a mapping
    {(i,j,k): value} or a sequence of ``(i, j, k, value)`` rows; indices
    must already be canonical.
    """
    if isinstance(triples, dict):
        triples = [[*key, v] for key, v in triples.items()]
    doc = {"name": name, "dims": list(dims), "pairwise_inequivalent": pairwise_inequivalent,
           "triples": [list(row) for row in triples or ()]}
    doc["s"] = len(doc["dims"])
    for key, values in (("casimir", casimir), ("killing", killing)):
        if values is not None:
            doc[key] = list(values)
    return _validated(parse_model(doc))


def _grow(rows, J: int, X: int, reach: int) -> int:
    """cl(J | X) for a class X of the closed member ``J`` whose rules
    ``reach`` outside J | X: every rule with both slots in J | X has already
    fired, so only the rules of the indices added from here on can add
    more.  Row x of the OR of the join ``rows`` over the growing set holds
    every index that a rule of x fires; an index added later fires its
    rules with x in its own turn, by the symmetry of the bracket.
    """
    s = len(rows)
    C = J | X
    pending = reach & ~C
    C |= pending
    A = _joins(rows, C)
    while pending:
        bit = pending & -pending
        pending ^= bit
        new = A >> (bit.bit_length() - 1) * s & ~C & (1 << s) - 1
        A |= _joins(rows, new)
        pending |= new
        C |= new
    return C


def _leak_test(rows, X: int) -> tuple[int, int]:
    """(A_X, reach) for a class X: A_X is the OR of the join ``rows`` over
    X, and reach, the OR of row x of A_X over x in X, is the mask of every
    index that a rule with both slots in X fires.  J | X is closed exactly
    when reach lies inside it.  One pass over X: row y of the OR over the
    indices up to y holds the rules of y with each of them, and those of a
    later index with y are read in that index's turn, by the symmetry of
    the bracket."""
    s = len(rows)
    A_X = reach = 0
    while X:
        bit = X & -X
        X ^= bit
        i = bit.bit_length() - 1
        A_X |= rows[i]
        reach |= A_X >> i * s
    return A_X, reach & (1 << s) - 1


def _joins(rows, mask: int) -> int:
    """The OR of the join rows of the indices of ``mask``."""
    A = 0
    for i in unpack(mask):
        A |= rows[i - 1]
    return A


def unpack(mask: int) -> tuple[int, ...]:
    """The 1-based indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length())
    return tuple(out)


def enumerate_subalgebras(model: SpaceModel) -> SubalgebraLattice:
    """All bracket-closed index sets and their covering pairs.

    Walks the lattice upward from the empty set.  The upper covers of a
    member J are the inclusion-minimal sets among the closures cl(J + {k}),
    k outside J; such a closure C is minimal exactly when every k in C - J
    generates it.  Every nonempty member covers some member, so the walk
    reaches all of them.  It raises :class:`ModelError` once it holds more
    than MAX_MEMBERS members.

    The closures of J are found per class X of outside indices, by one
    search each on the join rows (see the module docstring).  A J | X that
    is already a member is a cover.  A new J | X runs the leak test
    (``_leak_test``): when nothing leaks, J | X is the closure and a
    cover.  Otherwise the closure is grown (``_grow``), and it is a cover
    when the classes that generate it fill C - J.  On the full flags
    SU(n)/T no class leaks: a class of a partition's member is the set of
    pairs between two of its blocks, and J | X merges the two.

    Each cover is recorded as it is found.  The walk builds the members in
    (size, lex) order, their masks and, per member mask, the masks of its
    lower covers; the lattice builds ``member_dims`` and ``lower_covers``
    from these on first read.
    """
    s, rows = model.s, model.join_rows
    everything = (1 << s) - 1
    A_of = {0: 0}  # A_J per member found and not yet searched
    lowers: dict[int, list[int]] = {0: []}  # per member, the members it covers
    todo = [0]
    while todo:
        J = todo.pop()
        A = A_of.pop(J)
        leaking = []
        outside = everything & ~J
        while outside:
            X = pending = outside & -outside
            outside ^= X
            while pending:
                bit = pending & -pending
                pending ^= bit
                new = A >> (bit.bit_length() - 1) * s & outside
                if new:
                    outside ^= new
                    X |= new
                    pending |= new
            C = J | X
            below = lowers.get(C)
            if below is not None:  # a member is closed, so X leaks nothing
                below.append(J)
                continue
            A_X, reach = _leak_test(rows, X)
            if reach & ~C:
                leaking.append((X, reach))
                continue
            lowers[C] = [J]
            A_of[C] = A | A_X
            todo.append(C)
        if leaking:
            generators: dict[int, int] = {}
            for X, reach in leaking:
                C = _grow(rows, J, X, reach)
                generators[C] = generators.get(C, 0) | X
            for C, gens in generators.items():
                if gens == C & ~J:
                    if C not in lowers:
                        lowers[C] = []
                        A_of[C] = _joins(rows, C)
                        todo.append(C)
                    lowers[C].append(J)
        if len(lowers) > MAX_MEMBERS:
            raise ModelError(f"the subalgebra lattice has more than {MAX_MEMBERS} members")

    found = dict(zip(map(unpack, lowers), lowers))
    sets = sorted(found)
    sets.sort(key=len)  # stable: (size, lex)
    masks = tuple(map(found.__getitem__, sets))
    return SubalgebraLattice(s, tuple(sets), masks, model.dims, lowers)


def check_hypothesis(model: SpaceModel) -> HypothesisVerdict:
    """Verify the per-subalgebra requirements at the data level.

    For every proper nontrivial member J and every outside index j with
    d_j = 1, the summand must interact with the subalgebra: zeta_j > 0 (it
    sees the isotropy algebra) or some [j,k,*] with k in J is nonzero.  So
    only the lines with zeta_j = 0 are looked at, each through the mask of j
    and its bracket partners k, row j of the OR of all join rows: J
    violates the requirement at j when it holds none of them.
    """
    if model.casimir is None:
        raise ModelError("hypothesis check needs a validated model (casimir missing)")
    s = model.s
    everything = (1 << s) - 1
    joined = _joins(model.join_rows, everything)
    lines = [
        (j, 1 << (j - 1) | joined >> (j - 1) * s & everything)
        for j in range(1, s + 1)
        if model.dims[j - 1] == 1 and model.casimir[j - 1] == 0
    ]
    violations = []
    if lines:
        lattice = model.lattice
        for J, inside in zip(lattice.members, lattice.masks):
            if 0 < inside < everything:  # a proper nontrivial member
                violations.extend((J, j) for j, touched in lines if not inside & touched)
    requirement2 = "violated" if violations else "satisfied"
    requirement1 = "satisfied" if model.pairwise_inequivalent else "unknown"
    if violations:
        status = "violated"
    elif requirement1 == "satisfied":
        status = "satisfied"
    else:
        status = "unknown"
    return HypothesisVerdict(
        status=status,
        requirement1=requirement1,
        requirement2=requirement2,
        violations=tuple(violations),
    )


def classify_cor_all(model: SpaceModel) -> bool:
    """True when every positive form admits a solution unconditionally.

    Requires exactly one summand with zero Casimir eigenvalue (necessarily a
    line), all others positive, and that line's index set being the single
    proper subalgebra.
    """
    if model.casimir is None:
        raise ModelError("classification needs a validated model (casimir missing)")
    zeros = [i for i, z in enumerate(model.casimir, start=1) if z == 0]
    if len(zeros) != 1:
        return False
    i = zeros[0]
    if model.dims[i - 1] != 1:
        return False
    return model.lattice.proper_nontrivial() == ((i,),)


# --- JSON model files -------------------------------------------------------

_MODEL_KEYS = {
    "name",
    "s",
    "dims",
    "casimir",
    "killing",
    "triples",
    "pairwise_inequivalent",
}


def parse_model(source, rational: bool = False) -> SpaceModel:
    """Parse a model document (JSON text or an already-decoded dict).

    Only the document's shape is checked here: a JSON object with the known
    fields and the required ones, a string ``name``, a boolean
    ``pairwise_inequivalent``, an integer ``s`` equal to the length of
    ``dims``, arrays for ``dims``, ``casimir``, ``killing`` and ``triples``,
    four entries per triple, and numbers that parse.  ``s``, dims and triple
    indices of an integer type, numpy's included, are read as ``int``; any
    other value is left as it is.  Every structural rule of the model is
    checked by :func:`validate`, which reports each one broken.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source, parse_float=Fraction if rational else None)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown fields: {sorted(unknown)}")
    for key in ("name", "s", "dims", "pairwise_inequivalent"):
        if key not in doc:
            raise ModelError(f"missing field: {key}")
    if not isinstance(doc["name"], str):
        raise ModelError("name must be a string")
    if not isinstance(doc["pairwise_inequivalent"], bool):
        raise ModelError("pairwise_inequivalent must be a boolean")
    for key in ("dims", "casimir", "killing", "triples"):
        if key in doc and not isinstance(doc[key], list):
            raise ModelError(f"{key} must be an array")
    s, dims = _integral(doc["s"]), doc["dims"]
    if not _is_int(s):
        raise ModelError(f"s must be an integer, got {s!r}")
    if s != len(dims):
        raise ModelError(f"s={s} does not match len(dims)={len(dims)}")

    def parse_array(key):
        if key not in doc:
            return None
        try:
            return tuple(parse_number(v, rational=rational) for v in doc[key])
        except NumberFormatError as exc:
            raise ModelError(f"bad number in {key}: {exc}") from exc

    casimir, killing = parse_array("casimir"), parse_array("killing")
    rows = []
    for entry in doc.get("triples", []):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ModelError(f"triple entries must be [i, j, k, value]: {entry!r}")
        i, j, k, v = entry
        try:
            rows.append((*map(_integral, (i, j, k)), parse_number(v, rational=rational)))
        except NumberFormatError as exc:
            raise ModelError(f"bad triple value for ({i},{j},{k}): {exc}") from exc
    # in index order; an index that is no integer, an error validation
    # reports, sorts as 0 (after _integral, every integer index is an int)
    rows.sort(key=lambda row: [t if type(t) is int else 0 for t in row[:3]])

    return SpaceModel(
        name=doc["name"],
        dims=tuple(map(_integral, dims)),
        casimir=casimir,
        killing=killing,
        triples=tuple(rows),
        pairwise_inequivalent=doc["pairwise_inequivalent"],
    )


def serialize_model(model: SpaceModel) -> str:
    """Canonical JSON form; parse -> serialize round-trips byte-identically."""
    doc = {"name": model.name, "s": model.s, "dims": list(model.dims)}
    if model.casimir is not None:
        doc["casimir"] = [format_number(v) for v in model.casimir]
    if model.killing is not None:
        doc["killing"] = [format_number(v) for v in model.killing]
    doc["triples"] = [[i, j, k, format_number(v)] for i, j, k, v in model.triples]
    doc["pairwise_inequivalent"] = model.pairwise_inequivalent
    return json.dumps(doc, indent=2) + "\n"


def _read_model(path, rational: bool = False) -> SpaceModel:
    """Read and parse a model file, unvalidated; raises :class:`ModelError`,
    also on a file that is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file is not UTF-8 text: {exc}") from exc
    return parse_model(text, rational=rational)


def load_model(path, rational: bool = False, tol: float = CASIMIR_TOL) -> SpaceModel:
    """Read, parse and validate a model file; raises :class:`ModelError`."""
    return _validated(_read_model(path, rational), tol)
