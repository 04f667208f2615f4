"""Combinatorial description of a compact homogeneous space.

A space enters the library as pure numbers: the count ``s`` of irreducible
isotropy summands, their dimensions ``d_i``, the Casimir eigenvalues
``zeta_i``, the Killing coefficients ``b_i``, and the fully symmetric
non-negative bracket norms ``[ijk]``.  These are tied together by one
compatibility law per index,

    d_i b_i = 2 d_i zeta_i + sum_{j,k} [ijk],

which validation enforces exactly for rational data and to a tolerance for
float data; when only one of zeta/b is supplied the other is derived from it.

Index sets J whose summand span closes under the Lie bracket form the
subalgebra lattice.  Closure is visible directly in the data: J is closed
exactly when every nonzero triple [ijk] has either at most one or all three
of its indices inside J.  So the closed sets form a closure system, and the
closure of any set follows from one rule: when a nonzero triple has two of
its slots inside J (counted with multiplicity), the index in its third slot
joins J.  The lattice is listed upward from the empty set through its
covering relation: the upper covers of a member J are the inclusion-minimal
sets among the closures of J + {k}, k outside J.  That costs at most s
closures per member, instead of a scan of all 2^s subsets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterable, NamedTuple, Optional, Sequence

from .numbers import (
    NumberFormatError,
    Scalar,
    all_exact,
    format_number,
    normalize,
    parse_number,
)

MAX_SUMMANDS = 24

CASIMIR_TOL = 1e-9


class ModelError(ValueError):
    """Raised for structurally broken or inconsistent space data."""


class ScaledData(NamedTuple):
    """A validated model's numbers over one common denominator.

    For an exact model every entry is the true value times one integer, the
    same for all; a float model keeps its floats.  Bit ``i - 1`` of a mask
    stands for summand ``i``.
    """

    casimir_mass: tuple  # d_i zeta_i per index
    rows: tuple  # per index a: (bit of b, bit of c, [abc]) per nonzero ordered triple


@dataclass(frozen=True)
class SpaceModel:
    """A homogeneous space reduced to summand-level numbers.

    ``triples`` stores only canonical index triples i <= j <= k (1-based);
    :attr:`ordered_triples` expands each to its distinct orderings.
    ``casimir``/``killing`` may be None on a raw model; :func:`validate`
    completes whichever is missing.
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
        for i, j, k, v in self.triples:
            if v == 0:
                continue
            for perm in sorted(set(permutations((i, j, k)))):
                out.append((*perm, v))
        return tuple(out)

    @cached_property
    def closure_rules(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per index a (0-based), pairs (bit of b, mask of every c with
        [abc] != 0): a closed set that holds a and b holds each such c."""
        rules = [{} for _ in range(self.s)]
        for a, b, c, _ in self.ordered_triples:
            rules[a - 1][b - 1] = rules[a - 1].get(b - 1, 0) | 1 << (c - 1)
        return tuple(
            tuple((1 << b, implied) for b, implied in sorted(r.items())) for r in rules
        )

    @cached_property
    def lattice(self) -> SubalgebraLattice:
        """The subalgebra lattice (:func:`enumerate_subalgebras`), walked once
        per model: it depends on the bracket data alone."""
        return enumerate_subalgebras(self)

    @cached_property
    def scaled(self) -> ScaledData:
        """The model's numbers as integers over a common denominator; needs
        a validated model."""
        if self.casimir is None or self.killing is None:
            raise ModelError("scaled data needs a validated model")
        if self.exact:
            scale = math.lcm(
                *(v.denominator for *_, v in self.ordered_triples),
                *(v.denominator for v in self.casimir),
            )

            def fix(v):
                return v.numerator * (scale // v.denominator)

        else:
            def fix(v):
                return v

        rows = [[] for _ in range(self.s)]
        for a, b, c, v in self.ordered_triples:
            rows[a - 1].append((1 << (b - 1), 1 << (c - 1), fix(v)))
        return ScaledData(
            casimir_mass=tuple(d * fix(v) for d, v in zip(self.dims, self.casimir)),
            rows=tuple(tuple(r) for r in rows),
        )

    @cached_property
    def row_sums(self) -> tuple[Scalar, ...]:
        """Per-index totals sum_{j,k} [ijk] of the full symmetric tensor."""
        zero = Fraction(0) if self.exact else 0.0
        sums = [zero] * self.s
        for a, _, _, v in self.ordered_triples:
            sums[a - 1] = sums[a - 1] + v
        return tuple(sums)


@dataclass(frozen=True)
class DiagonalForm:
    """Positive diagonal coefficients of an invariant bilinear form.

    ``support`` lists the 1-based summand indices the form covers (the whole
    space by default); coefficients outside the support do not exist.
    """

    values: tuple[Scalar, ...]
    support: tuple[int, ...]

    def __post_init__(self):
        values = tuple(normalize(v) for v in self.values)
        support = tuple(int(i) for i in self.support)
        if len(values) != len(support):
            raise ModelError("form values and support differ in length")
        if not support:
            raise ModelError("empty diagonal form")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ModelError(f"support must be strictly increasing: {support}")
        if support[0] < 1:
            raise ModelError(f"support indices are 1-based: {support}")
        if any(v <= 0 for v in values):
            raise ModelError(f"diagonal coefficients must be positive: {values}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", support)

    @classmethod
    def full(cls, values: Sequence) -> "DiagonalForm":
        return cls(tuple(values), tuple(range(1, len(values) + 1)))

    @cached_property
    def _by_index(self) -> dict[int, Scalar]:
        return dict(zip(self.support, self.values))

    def __getitem__(self, index: int) -> Scalar:
        try:
            return self._by_index[index]
        except KeyError:
            raise ModelError(f"index {index} outside form support {self.support}")

    @cached_property
    def exact(self) -> bool:
        return all_exact(self.values)

    def restrict(self, indices: Iterable[int]) -> "DiagonalForm":
        J = tuple(sorted(set(int(i) for i in indices)))
        missing = [i for i in J if i not in self._by_index]
        if missing:
            raise ModelError(f"indices {missing} outside form support {self.support}")
        return DiagonalForm(tuple(self._by_index[i] for i in J), J)

    def scale(self, factor) -> "DiagonalForm":
        factor = normalize(factor)
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        return DiagonalForm(tuple(v * factor for v in self.values), self.support)

    def to_float(self) -> "DiagonalForm":
        return DiagonalForm(tuple(float(v) for v in self.values), self.support)


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
    index set.  ``member_dims`` holds sum_{i in J} d_i per member.
    ``covers`` holds every covering pair (no member strictly between) as
    ``(upper, lower)`` indices into ``members``, sorted, so its order follows
    the members' order.
    """

    s: int
    members: tuple[tuple[int, ...], ...]
    member_dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    def __contains__(self, indices) -> bool:
        return tuple(sorted(indices)) in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

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


def _structural_errors(model: SpaceModel) -> list[str]:
    errors = []
    if model.s < 1:
        errors.append("need at least one summand")
        return errors
    if any((not isinstance(d, int)) or d < 1 for d in model.dims):
        errors.append(f"dims must be positive integers: {model.dims}")
    if sum(model.dims) < 3:
        errors.append(f"total dimension {sum(model.dims)} is below 3")
    for arr, label in ((model.casimir, "casimir"), (model.killing, "killing")):
        if arr is not None and len(arr) != model.s:
            errors.append(f"{label} has length {len(arr)}, expected {model.s}")
        if arr is not None and not all(map(_finite, arr)):
            errors.append(f"{label} values must be finite: {arr}")
    if model.casimir is None and model.killing is None:
        errors.append("at least one of casimir/killing must be given")
    seen = set()
    for i, j, k, v in model.triples:
        if not (1 <= i <= j <= k <= model.s):
            errors.append(f"triple ({i},{j},{k}) is not canonical for s={model.s}")
        if (i, j, k) in seen:
            errors.append(f"duplicate triple ({i},{j},{k})")
        seen.add((i, j, k))
        if not _finite(v):
            errors.append(f"bracket norm [{i}{j}{k}] = {v} is not finite")
        elif v < 0:
            errors.append(f"negative bracket norm [{i}{j}{k}] = {v}")
    return errors


def validate(model: SpaceModel, tol: float = CASIMIR_TOL) -> ValidationReport:
    """Check every invariant and complete whichever of zeta/b is missing.

    Rational data is held to exact identities; float data to ``tol``.  When
    both zeta and b are supplied and disagree, validation fails rather than
    preferring one.
    """
    errors = _structural_errors(model)
    if errors:
        return ValidationReport(False, tuple(errors), None, None, None)

    casimir, killing = model.casimir, model.killing
    derived = None
    residuals = None
    row = model.row_sums

    if casimir is not None and any(z < 0 for z in casimir):
        errors.append(f"negative casimir eigenvalue in {casimir}")
    if killing is not None and any(b < 0 for b in killing):
        errors.append(f"negative killing coefficient in {killing}")

    if not errors:
        if casimir is None:
            derived = "casimir"
            casimir = tuple(
                (d * b - r) / (2 * d) for d, b, r in zip(model.dims, killing, row)
            )
            for idx, z in enumerate(casimir, start=1):
                if z < 0:
                    errors.append(f"derived casimir eigenvalue at i={idx} is negative: {z}")
        elif killing is None:
            derived = "killing"
            killing = tuple(
                2 * z + r / d for d, z, r in zip(model.dims, casimir, row)
            )
        else:
            residuals = tuple(
                d * b - 2 * d * z - r
                for d, b, z, r in zip(model.dims, killing, casimir, row)
            )
            exact = all_exact(residuals)
            for idx, res in enumerate(residuals, start=1):
                bad = (res != 0) if exact else (abs(res) > tol)
                if bad:
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
    return ValidationReport(True, (), derived, residuals, completed)


def build_model(
    name: str,
    dims: Sequence[int],
    casimir: Optional[Sequence] = None,
    killing: Optional[Sequence] = None,
    triples: Optional[dict | Sequence] = None,
    pairwise_inequivalent: bool = True,
    tol: float = CASIMIR_TOL,
) -> SpaceModel:
    """Construct and validate a model, raising :class:`ModelError` on failure.

    ``triples`` may be a mapping {(i,j,k): value} or a sequence of
    ``(i, j, k, value)`` rows; indices must already be canonical.
    """
    if triples is None:
        rows = []
    elif isinstance(triples, dict):
        rows = [(i, j, k, v) for (i, j, k), v in triples.items()]
    else:
        rows = [tuple(row) for row in triples]
    try:
        norm_rows = tuple(
            sorted((int(i), int(j), int(k), normalize(v)) for i, j, k, v in rows)
        )
        raw = SpaceModel(
            name=str(name),
            dims=tuple(int(d) for d in dims),
            casimir=None if casimir is None else tuple(normalize(v) for v in casimir),
            killing=None if killing is None else tuple(normalize(v) for v in killing),
            triples=norm_rows,
            pairwise_inequivalent=bool(pairwise_inequivalent),
        )
    except NumberFormatError as exc:
        raise ModelError(str(exc)) from exc
    report = validate(raw, tol=tol)
    if not report.ok:
        raise ModelError("; ".join(report.errors))
    return report.model


def _closure(rules, closed: int, added: int, known: dict) -> int:
    """Smallest closed superset of ``closed | added`` (bitmasks), for a
    closed ``closed``: only the rules of newly added indices can fire.

    ``known`` maps bits k0 to known closures cl(closed + k0).  Once the
    growing set takes in such a k0 whose closure holds ``added``, that
    closure is the answer: it is closed and holds ``closed | added``, and
    the growing set, which holds ``closed + k0``, lies inside the answer.
    """
    J = closed | added
    pending = added & ~closed
    known_bits = sum(known)
    while pending:
        bit = pending & -pending
        pending ^= bit
        for partner, implied in rules[bit.bit_length() - 1]:
            if J & partner:
                new = implied & ~J
                if new:
                    pending |= new
                    J |= new
                    hit = new & known_bits
                    while hit:
                        k0 = hit & -hit
                        hit ^= k0
                        C0 = known[k0]
                        if not added & ~C0:
                            return C0
    return J


def enumerate_subalgebras(model: SpaceModel) -> SubalgebraLattice:
    """All bracket-closed index sets and their covering pairs.

    Walks the lattice upward from the empty set.  The upper covers of a
    member J are the inclusion-minimal sets among the closures cl(J + {k}),
    k outside J; such a closure C is minimal exactly when every k in C - J
    generates it.  Every nonempty member covers some member, so the walk
    reaches all of them.  It costs at most s closures per member, each
    firing only the rules of the indices it adds (``closure_rules``).

    The closures of one member J are found in order of k, and each one is
    grown with the earlier ones at hand: as soon as cl(J + {k}) takes in an
    index k0 whose closure cl(J + {k0}) holds k, the two closures are equal
    (each one holds the other's generator), and the growth stops with that
    closure.  This is exact, and it saves most of the work on a cover C
    with many generators, such as the merge of two blocks A and B of SU(n)/T
    with its |A| |B| generators: every index of C - J generates C, so only
    the first is grown in full, and each later one stops at the first
    earlier generator it takes in.
    """
    s = model.s
    if s > MAX_SUMMANDS:
        raise ModelError(f"s={s} exceeds the enumeration cap {MAX_SUMMANDS}")
    rules = model.closure_rules
    everything = (1 << s) - 1
    upper: dict[int, list[int]] = {}
    todo = [0]
    while todo:
        J = todo.pop()
        if J in upper:
            continue
        generators: dict[int, int] = {}
        known: dict[int, int] = {}
        outside = everything & ~J
        while outside:
            bit = outside & -outside
            outside ^= bit
            C = _closure(rules, J, bit, known)
            known[bit] = C
            generators[C] = generators.get(C, 0) | bit
        covers = [C for C, gens in generators.items() if gens == C & ~J]
        upper[J] = covers
        todo.extend(C for C in covers if C not in upper)

    def unpack(mask: int) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(s) if (mask >> i) & 1)

    order = sorted(((unpack(m), m) for m in upper), key=lambda p: (len(p[0]), p[0]))
    index = {m: pos for pos, (_, m) in enumerate(order)}
    sets = tuple(J for J, _ in order)
    return SubalgebraLattice(
        s=s,
        members=sets,
        member_dims=tuple(sum(model.dims[i - 1] for i in J) for J in sets),
        covers=tuple(
            sorted((index[C], index[J]) for J, ups in upper.items() for C in ups)
        ),
    )


def check_hypothesis(model: SpaceModel) -> HypothesisVerdict:
    """Verify the per-subalgebra requirements at the data level.

    For every proper nontrivial member J and every outside index j with
    d_j = 1, the summand must interact with the subalgebra: zeta_j > 0 (it
    sees the isotropy algebra) or some [j,k,*] with k in J is nonzero.  So
    only the lines with zeta_j = 0 are looked at, each through the mask of j
    and its bracket partners k (from ``closure_rules``): J violates the
    requirement at j when it holds none of them.
    """
    if model.casimir is None:
        raise ModelError("hypothesis check needs a validated model (casimir missing)")
    lines = [
        (j, 1 << (j - 1) | sum(partner for partner, _ in model.closure_rules[j - 1]))
        for j in range(1, model.s + 1)
        if model.dims[j - 1] == 1 and model.casimir[j - 1] == 0
    ]
    violations = []
    if lines:
        for J in model.lattice.proper_nontrivial():
            inside = sum(1 << (i - 1) for i in J)
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

    Unknown fields and duplicate or non-canonical triples are rejected here;
    semantic invariants are the job of :func:`validate`.
    """
    if isinstance(source, (str, bytes)):
        try:
            if rational:
                doc = json.loads(source, parse_float=Fraction)
            else:
                doc = json.loads(source)
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
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ModelError("dims must be an array of integers")
    if doc["s"] != len(dims):
        raise ModelError(f"s={doc['s']} does not match len(dims)={len(dims)}")

    def parse_array(key):
        if key not in doc:
            return None
        arr = doc[key]
        if not isinstance(arr, list) or len(arr) != len(dims):
            raise ModelError(f"{key} must be an array of length {len(dims)}")
        try:
            return tuple(parse_number(v, rational=rational) for v in arr)
        except NumberFormatError as exc:
            raise ModelError(f"bad number in {key}: {exc}") from exc

    casimir = parse_array("casimir")
    killing = parse_array("killing")
    rows = []
    seen = set()
    for entry in doc.get("triples", []):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ModelError(f"triple entries must be [i, j, k, value]: {entry!r}")
        i, j, k, v = entry
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in (i, j, k)):
            raise ModelError(f"triple indices must be integers: {entry!r}")
        if not (1 <= i <= j <= k <= len(dims)):
            raise ModelError(f"triple ({i},{j},{k}) is not canonical (need 1 <= i <= j <= k <= s)")
        if (i, j, k) in seen:
            raise ModelError(f"duplicate triple ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            rows.append((i, j, k, parse_number(v, rational=rational)))
        except NumberFormatError as exc:
            raise ModelError(f"bad triple value for ({i},{j},{k}): {exc}") from exc

    return SpaceModel(
        name=doc["name"],
        dims=tuple(dims),
        casimir=casimir,
        killing=killing,
        triples=tuple(sorted(rows)),
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


def load_model(path, rational: bool = False, tol: float = CASIMIR_TOL) -> SpaceModel:
    """Read, parse and validate a model file; raises :class:`ModelError`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_model(fh.read(), rational=rational)
    report = validate(raw, tol=tol)
    if not report.ok:
        raise ModelError("; ".join(report.errors))
    return report.model
