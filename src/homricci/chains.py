"""Simple chains and the solvability conditions they impose on a target form.

A simple chain is a nested pair of subalgebra index sets (J_k, J_k') with
J_k' proper, non-empty and maximal inside J_k (no lattice member strictly
between).  Each chain carries an obstruction number eta(k, k'), evaluated in
the Casimir form eta = N / (omega * D).  With the mass of an index set

    P(J) = 4 sum_{j in J} d_j zeta_j + <J J J>,   <A B C> = sum_{a in A, b in B, c in C} [abc],

and J_l = J_k - J_k', it reads

    N = P(J_k'),
    D = P(J_k) - P(J_k') + <J_l J_k' J_l>,

where omega = min_{j in J_k'} d_j.  Expanding <J_k J_k J_k> over
J_k = J_k' + J_l gives the rise

    P(J_k) - P(J_k') = 4 sum_{j in J_l} d_j zeta_j + <J_l J_l J_l>
                       + 3 <J_l J_l J_k'> + 3 <J_k' J_k' J_l>,

and the last term is zero because J_k' is closed (a nonzero [abc] with
a, b in J_k' has c in J_k').  With M[a][b] = sum_c [abc] and M[X][Y] its
sum over a in X, b in Y, the cross term is

    <J_l J_k' J_l> = M[J_l][J_k']:

for a in J_l and b in J_k', a nonzero [abc] has c in J_k, as J_k is
closed, and c outside J_k', as J_k' is closed (with b and c inside, a
would be).  And M[J_l][J_l] = <J_l J_l J_l> + <J_l J_l J_k'>, as J_k is
closed, so the rise is 4 sum_{j in J_l} d_j zeta_j + M[J_l][J_l] + 2
<J_l J_k' J_l>.  Both numbers depend on J_l alone: the cross term's
nonzero terms [abc] are those with a, c in J_l and b outside J_l,
whichever chain it belongs to.  So one pass over the rows M[a], a in J_l,
gives both, once per distinct J_l, and a member's mass is a lower cover's
mass plus the rise, the same from each (the empty set's mass is 0): no
mass is summed from scratch, and D is the rise plus the cross term.  The
scaled rows hold M[a][b] as integers over one denominator on every model
(a float is a dyadic rational), so every sum is exact and the denominator
cancels in eta.  Each row groups its entries by value, as the mask of every
b with that value, so the pass adds v times the number of those b in J_l,
and in J_k', once per distinct value.  The defining form, from Killing
traces and bracket masses of the four derived blocks, equals the Casimir
form wherever the Casimir identity holds, which ``validate`` enforces (to
a tolerance on float data, whose given zeta the Casimir form reads); the
tests check the two forms against each other.

A positive form T solves the prescribed-curvature problem whenever, for every
chain, min_{i in J_k'} z_i / sum_{i in J_l} d_i z_i exceeds eta.  For two
summands the corresponding threshold is exact: above it solutions exist,
below it they do not.

The chains are kept as columns over the lattice members
(:class:`SimpleChains`): per chain the indices of J_k and J_k' among the
members, the mask of J_l and eta, as (p, q) in lowest terms; per member
omega.  The :class:`SimpleChain` items, with their etas, are built only
when read.  Every T is read as integers over its common
denominator, exactly, so each chain's lambda_min and trace are integers,
and the margin lambda_min / trace - eta * w is an integer numerator over
an integer denominator whose sign is the verdict, whatever the arithmetic
of the model or of T: a float model or target gets the verdict of its
exact value.  The model's arithmetic decides only how the
figures are spelled: as ``Fraction``s on an exact model, and as their
correctly rounded floats on a float one (infinite beyond the float range).

A :class:`ConditionReport` keeps these figures in columns beside the
chains', one entry per chain: lambda_min (taken once per J_k') and trace
(once per J_l) over T's denominator, the margin's numerator and
denominator, the factor w of the threshold eta * w, and the verdict.  Its
``conditions`` are plain :class:`ChainCondition` records, one a chain,
built from the columns on first read, with each figure spelled as the
model's arithmetic says, and each figure over T's denominator and each
threshold built once.  ``to_json`` writes the report's JSON line in one
pass over the columns, each member's and each J_l's index list, each
figure over T's denominator and each (eta, threshold) text once per
report.  Each figure is written by ``numbers.json_figure``, null beyond the
float range, so the line's bytes are those ``json.dumps`` writes of the
same values as ``numbers.format_number`` spells them, with keys and
separators as the encoder's defaults place them.  ``to_dict`` reads that
line back, so the keys are in one place.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple, Optional

from .model import DiagonalForm, SpaceModel, _check_count, check_hypothesis, unpack
from .numbers import Scalar, figure, format_number, json_figure, to_float


class ChainError(ValueError):
    """Raised for chain computations outside their domain."""


class HypothesisViolatedError(ChainError):
    """The model fails the structural requirements; conditions are meaningless."""


class EtaUndefinedError(ChainError):
    """A chain denominator vanished (requirement 2 fails for the model)."""


class SimpleChain(NamedTuple):
    """A maximal nested pair of lattice members with its obstruction number."""

    J_k: tuple[int, ...]
    J_kprime: tuple[int, ...]
    J_l: tuple[int, ...]
    omega: int
    eta: Scalar

    def to_dict(self) -> dict:
        return {
            "k": list(self.J_k),
            "kprime": list(self.J_kprime),
            "l": list(self.J_l),
            "omega": self.omega,
            "eta": format_number(self.eta),
        }


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class SimpleChains(Sequence):
    """The simple chains of one model as columns (see the module docstring):
    ``members`` and ``omegas`` per member, ``uppers``, ``lowers``,
    ``middles`` and ``etas`` per chain, and ``middle_sets``, the index tuple
    of each J_l mask.  As a sequence it equals the tuple of its
    :class:`SimpleChain` items, which are built on first read."""

    def __init__(self, exact, members, omegas, middle_sets, uppers, lowers, middles, etas):
        self.exact, self.members, self.omegas = exact, members, omegas
        self.middle_sets = middle_sets
        self.uppers, self.lowers, self.middles, self.etas = uppers, lowers, middles, etas

    @cached_property
    def _items(self) -> tuple[SimpleChain, ...]:
        members, exact = self.members.__getitem__, self.exact
        # chains share few etas: each is built once
        etas = map(_Memo(lambda pq: figure(*pq, exact)).__getitem__, self.etas)
        return tuple(map(
            SimpleChain, map(members, self.uppers), map(members, self.lowers),
            map(self.middle_sets.__getitem__, self.middles),
            map(self.omegas.__getitem__, self.lowers), etas,
        ))

    def __len__(self) -> int:
        return len(self.uppers)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        if isinstance(other, SimpleChains):
            other = other._items
        return self._items == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._items)


def enumerate_simple_chains(model: SpaceModel) -> SimpleChains:
    """All simple chains of the model's lattice, in deterministic order.

    The chains are the lattice's covering pairs whose lower member is
    nonempty, ordered by (size, lex) of the upper and then the lower member.
    Each eta is in the Casimir form: the rise and the cross term are summed
    once per middle block, and each member's mass is a lower cover's plus
    the rise (see the module docstring).  Everything runs in the model's
    scaled units, so every model adds integers and the common denominator
    cancels in one gcd.  Raises
    :class:`HypothesisViolatedError` when the structural requirements
    demonstrably fail (the conditions would be meaningless).
    """
    verdict = check_hypothesis(model)
    if verdict.status == "violated":
        raise HypothesisViolatedError(
            f"hypothesis requirement 2 is violated at {verdict.violations}"
        )
    lattice = model.lattice
    members, masks = lattice.members, lattice.masks
    rows, casimir = model.scaled, model.integer_form.casimir_mass
    dims = (0, *model.dims)
    omegas = tuple(min(map(dims.__getitem__, J), default=0) for J in members)
    sets = _Memo(unpack)  # J_l by mask: many chains share one
    steps = {}  # (rise, cross) by the mask of J_l (see the module docstring)
    masses = [0] * len(members)
    uppers, lowers, middles, etas = [], [], [], []
    for upper, below in enumerate(lattice.lower_covers):
        outer = masks[upper]
        for lower in below:
            inner = masks[lower]
            between = outer & ~inner
            step = steps.get(between)
            if step is None:
                # one pass over the rows of J_l: M[l][l], and the cross
                # term, whose terms have b in J_k' (any chain's)
                middle = sets[between]
                within = cross = 0
                for a in middle:
                    for v, mask in rows[a - 1]:
                        within += v * (mask & between).bit_count()
                        cross += v * (mask & inner).bit_count()
                rise = 4 * sum(casimir[a - 1] for a in middle) + within + 2 * cross
                step = steps[between] = rise, cross
            rise, cross = step
            P_kprime = masses[lower]
            masses[upper] = P_kprime + rise  # the same from every lower cover
            if not inner:
                continue
            den = omegas[lower] * (rise + cross)
            if den == 0:
                raise EtaUndefinedError(
                    f"chain ({members[upper]}, {members[lower]}) has zero denominator; the model "
                    "violates requirement 2 (a summand block commutes with the inner subalgebra)"
                )
            g = math.gcd(P_kprime, den)
            etas.append((P_kprime // g, den // g))
            uppers.append(upper)
            lowers.append(lower)
            middles.append(between)
    return SimpleChains(model.exact, members, omegas, sets, uppers, lowers, middles, etas)


class ChainCondition(NamedTuple):
    """One chain's inequality: lambda_min / trace > threshold = eta * w,
    with its margin lambda_min / trace - threshold and the verdict.

    For the theorem w = 1.  For the eigenvalue variant ``trace`` holds the
    largest eigenvalue over the middle block and w = dim(l).  Each figure is
    spelled as ``numbers.figure`` spells it on the model's arithmetic.
    """

    chain: SimpleChain
    lambda_min: Scalar
    trace: Scalar
    threshold: Scalar
    margin: Scalar
    passed: bool


class ConditionReport:
    """Chain-by-chain verdicts plus the overall outcome.

    A failing report never claims nonexistence: for three or more summands
    the conditions are sufficient only, so the existence field is left
    "inconclusive" on failure.

    The figures are kept in columns, one entry per chain (see the module
    docstring): ``conditions`` is built from them on first read, and
    ``failing`` is the first failing one of its conditions.
    """

    def __init__(self, criterion, chains, scale, columns, requirement1_unknown):
        self.criterion = criterion
        self.requirement1_unknown = requirement1_unknown
        # the SimpleChains, T's denominator, and lambda_min and trace over
        # it, the margin over its denominator, w and the verdict
        self._chains, self._scale, self._columns = chains, scale, columns
        oks = columns[-1]
        self._first = None if all(oks) else oks.index(False)
        self.passed = self._first is None

    @cached_property
    def conditions(self) -> tuple[ChainCondition, ...]:
        chains, scale, exact = self._chains, self._scale, self._chains.exact
        lams, bounds, margins, dens, weights, oks = self._columns
        # the figures over T's denominator and the thresholds repeat across
        # chains: each is built once
        figures = _Memo(lambda v: figure(v, scale, exact)).__getitem__

        def threshold(key):  # eta * w, eta = p / q
            (p, q), w = key
            return figure(p * w, q, exact)

        thresholds = map(_Memo(threshold).__getitem__, zip(chains.etas, weights))
        margins = (figure(margin, den, exact) for margin, den in zip(margins, dens))
        return tuple(map(
            ChainCondition, chains, map(figures, lams), map(figures, bounds), thresholds,
            margins, oks,
        ))

    @property
    def failing(self) -> Optional[ChainCondition]:
        return None if self._first is None else self.conditions[self._first]

    @property
    def existence(self) -> str:
        return "solvable" if self.passed else "inconclusive"

    def to_json(self) -> str:
        """The report as one line of JSON, the first failing condition named
        by its index: byte for byte what ``json.dumps`` writes of
        ``to_dict()``, written in one pass over the columns."""
        chains, scale, exact = self._chains, self._scale, self._chains.exact
        members, omegas, sets = chains.members, chains.omegas, chains.middle_sets
        # k, k' and l, the figures over T's denominator, and eta with its
        # threshold repeat across chains: each is written once
        member_lists = _Memo(lambda i: str(list(members[i])))  # reads the same in JSON
        middle_lists = _Memo(lambda mask: str(list(sets[mask])))
        figures = _Memo(lambda v: json_figure(v, scale))

        def eta_texts(key):  # eta = p / q and its threshold eta * w
            (p, q), w = key
            return json_figure(p, q, exact), json_figure(p * w, q, exact)

        texts = _Memo(eta_texts)
        rows = []
        for upper, lower, middle, eta, lam, bound, margin, den, weight, ok in zip(
            chains.uppers, chains.lowers, chains.middles, chains.etas, *self._columns
        ):
            eta_text, threshold = texts[eta, weight]
            rows.append(
                f'{{"k": {member_lists[upper]}, "kprime": {member_lists[lower]}, '
                f'"l": {middle_lists[middle]}, "omega": {omegas[lower]}, '
                f'"eta": {eta_text}, "lambda_min": {figures[lam]}, '
                f'"trace": {figures[bound]}, "threshold": {threshold}, '
                f'"margin": {json_figure(margin, den)}, "passed": {"true" if ok else "false"}}}'
            )
        failing = "null" if self._first is None else self._first
        return (
            f'{{"criterion": "{self.criterion}", "passed": {"true" if self.passed else "false"}, '
            f'"existence": "{self.existence}", "caveat_requirement1": '
            f'{"true" if self.requirement1_unknown else "false"}, '
            f'"conditions": [{", ".join(rows)}], "failing": {failing}}}'
        )

    def to_dict(self) -> dict:
        return json.loads(self.to_json())


def _check(model: SpaceModel, T: DiagonalForm, criterion: str) -> ConditionReport:
    """One condition per simple chain, for criterion "theorem" or "corollary"."""
    _check_count(T, model.s, "target form", ChainError)
    # T is read as integers over one common denominator, as the model's
    # integer form reads the model, so lam and bound are integer work, and
    # so is the margin (lam q - p w bound) / (bound q), eta = p / q.
    # The 1-based tables let each figure be one map over a chain's indices.
    scale, ints = T.integers
    z = (0, *ints)
    dims = (0, *model.dims)
    dz = tuple(d * v for d, v in zip(dims, z))
    chains = model.chains
    members, sets = chains.members, chains.middle_sets
    # J_k' and J_l repeat across chains: each figure is taken once per
    # member index or middle mask
    lam_of = _Memo(lambda lower: min(map(z.__getitem__, members[lower])))
    lams = list(map(lam_of.__getitem__, chains.lowers))
    if criterion == "corollary":
        bound_of = _Memo(lambda mask: max(map(z.__getitem__, sets[mask])))
        weight_of = _Memo(lambda mask: sum(map(dims.__getitem__, sets[mask])))
        weights = list(map(weight_of.__getitem__, chains.middles))
    else:
        bound_of = _Memo(lambda mask: sum(map(dz.__getitem__, sets[mask])))
        weights = [1] * len(chains)
    bounds = list(map(bound_of.__getitem__, chains.middles))
    margins, dens = [], []
    for (p, q), lam, bound, w in zip(chains.etas, lams, bounds, weights):
        margins.append(lam * q - p * w * bound)
        dens.append(bound * q)
    oks = [margin > 0 for margin in margins]
    return ConditionReport(
        criterion, chains, scale, (lams, bounds, margins, dens, weights, oks),
        requirement1_unknown=not model.pairwise_inequivalent,
    )


def check_theorem(model: SpaceModel, T: DiagonalForm) -> ConditionReport:
    """Evaluate min z over the inner block / d-weighted trace over the middle
    block > eta for every simple chain.  No chains means an unconditional pass.
    """
    return _check(model, T, "theorem")


def check_corollary_lambda(model: SpaceModel, T: DiagonalForm) -> ConditionReport:
    """Eigenvalue-ratio variant: min z over the inner block / max z over the
    middle block > eta * dim(l) per chain.  Stronger than the trace form.
    """
    return _check(model, T, "corollary")


class TwoSummandReport(NamedTuple):
    """Exact existence verdict for two-summand spaces.

    ``ratio > threshold`` (with threshold = d_complement * eta) is both
    sufficient and necessary.  ``trivial`` marks the degenerate lattices
    (both or neither single-index set closed) where the threshold does not
    apply: with no proper subalgebra existence is unconditional, and when
    both sides close every metric has the same Ricci coefficients so
    existence reduces to T being parallel to them, which the exact s = 2
    solve (``_elimination.two_summand_points``) decides on T's exact value.
    """

    eta: Optional[Scalar]
    threshold: Optional[Scalar]
    passed: bool
    trivial: bool
    subalgebra: Optional[int]
    ratio: Optional[Scalar]

    def to_dict(self) -> dict:
        return {
            "eta": format_number(self.eta),
            "threshold": format_number(self.threshold),
            "passed": self.passed,
            "trivial": self.trivial,
            "subalgebra": self.subalgebra,
            "ratio": format_number(None if self.ratio is None else to_float(self.ratio)),
        }


def two_summand_condition(model: SpaceModel, T: DiagonalForm) -> TwoSummandReport:
    """Decide solvability for s = 2 via the exact ratio threshold."""
    if model.s != 2:
        raise ChainError(f"two-summand condition needs s=2, got s={model.s}")
    _check_count(T, model.s, "target form", ChainError)
    closed = [J[0] for J in model.lattice.proper_nontrivial() if len(J) == 1]
    if len(closed) != 1:
        # Degenerate lattice; see the class docstring.
        if not closed:
            return TwoSummandReport(None, None, True, True, None, None)
        from ._elimination import two_summand_points  # on first use, as in solver

        parallel = bool(two_summand_points(model, T)[0])
        return TwoSummandReport(None, None, parallel, True, None, None)
    # the one chain ({1, 2}, {a}), whose eigenvalue-variant margin is
    # z_a / z_o - d_o eta: the threshold's verdict
    report = check_corollary_lambda(model, T)
    (cond,) = report.conditions
    (lam,), (bound,) = report._columns[:2]  # over T's denominator
    return TwoSummandReport(
        eta=cond.chain.eta,
        threshold=cond.threshold,
        passed=cond.passed,
        trivial=False,
        subalgebra=cond.chain.J_kprime[0],
        ratio=figure(lam, bound, model.exact),
    )
