"""Simple chains and the solvability conditions they impose on a target form.

A simple chain is a nested pair of subalgebra index sets (J_k, J_k') with
J_k' proper, non-empty and maximal inside J_k (no lattice member strictly
between).  Each chain carries an obstruction number eta(k, k'), evaluated in
the Casimir form eta = N / (omega * D).  With the mass of an index set

    P(J) = 4 sum_{j in J} d_j zeta_j + <J J J>,   <A B C> = sum_{a in A, b in B, c in C} [abc],

and J_l = J_k - J_k', it reads

    N = P(J_k'),
    D = P(J_k) - P(J_k') + <J_l J_k' J_l>,

where omega = min_{j in J_k'} d_j.  D is the sum over j in J_l of
4 d_j zeta_j + <j J_l J_l> + 4 <j J_k' J_l>: expanding <J_k J_k J_k> over
J_k = J_k' + J_l gives P(J_k) - P(J_k') = 4 sum_{j in J_l} d_j zeta_j
+ <J_l J_l J_l> + 3 <J_l J_k' J_l> + 3 <J_k' J_k' J_l>, and the last term
is zero because J_k' is closed (a nonzero [abc] with a, b in J_k' has c in
J_k').  So P is computed once per lattice member and a chain sums only its
cross term.  The defining form, from Killing traces and bracket masses of
the four derived blocks, equals the Casimir form wherever the Casimir
identity holds, which ``validate`` enforces; the tests check the two forms
against each other.

A positive form T solves the prescribed-curvature problem whenever, for every
chain, min_{i in J_k'} z_i / sum_{i in J_l} d_i z_i exceeds eta.  For two
summands the corresponding threshold is exact: above it solutions exist,
below it they do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .curvature import ricci as _ricci
from .model import DiagonalForm, SpaceModel, check_hypothesis
from .numbers import Scalar, format_number, is_exact

FLOAT_MARGIN_EPS = 1e-12


class ChainError(ValueError):
    """Raised for chain computations outside their domain."""


class HypothesisViolatedError(ChainError):
    """The model fails the structural requirements; conditions are meaningless."""


class EtaUndefinedError(ChainError):
    """A chain denominator vanished (requirement 2 fails for the model)."""


@dataclass(frozen=True)
class SimpleChain:
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


def _mask(J) -> int:
    return sum(1 << (i - 1) for i in J)


def _block_sum(rows, A, B: int, C: int):
    """Bracket mass <A B C> = sum_{a in A, b in B, c in C} [abc], with A an
    index tuple and B, C bitmasks, in the units of ``SpaceModel.scaled``."""
    return sum(v for a in A for b, c, v in rows[a - 1] if b & B and c & C)


def _mass(model: SpaceModel, J: tuple[int, ...]):
    """P(J) = 4 sum_{i in J} d_i zeta_i + <J J J>, in the units of
    ``SpaceModel.scaled``."""
    inside = _mask(J)
    casimir = model.scaled.casimir_mass
    return 4 * sum(casimir[i - 1] for i in J) + _block_sum(model.scaled.rows, J, inside, inside)


def _chain(
    model: SpaceModel, J_k: tuple[int, ...], J_kprime: tuple[int, ...], P_k, P_kprime
) -> SimpleChain:
    """The chain (J_k, J_kprime) with eta in the Casimir form, from the masses
    ``P_k`` = P(J_k) and ``P_kprime`` = P(J_kprime) (see :func:`_mass`).

    Only the cross term <J_l J_k' J_l> is summed here.  Everything runs in
    the model's scaled units, so an exact model adds integers and the common
    denominator cancels in one Fraction.
    """
    inner = _mask(J_kprime)
    l = tuple(i for i in J_k if not (inner >> (i - 1)) & 1)
    omega = min(model.dims[i - 1] for i in J_kprime)
    den = omega * (P_k - P_kprime + _block_sum(model.scaled.rows, l, inner, _mask(l)))
    if den == 0:
        raise EtaUndefinedError(
            f"chain ({J_k}, {J_kprime}) has zero denominator; the model violates "
            "requirement 2 (a summand block commutes with the inner subalgebra)"
        )
    eta = Fraction(P_kprime, den) if model.exact else P_kprime / den
    return SimpleChain(J_k=J_k, J_kprime=J_kprime, J_l=l, omega=omega, eta=eta)


def enumerate_simple_chains(model: SpaceModel) -> tuple[SimpleChain, ...]:
    """All simple chains of the model's lattice, in deterministic order.

    The chains are the lattice's covering pairs whose lower member is
    nonempty, ordered by (size, lex) of the upper and then the lower member.
    Raises :class:`HypothesisViolatedError` when the structural requirements
    demonstrably fail (the conditions would be meaningless).
    """
    verdict = check_hypothesis(model)
    if verdict.status == "violated":
        raise HypothesisViolatedError(
            f"hypothesis requirement 2 is violated at {verdict.violations}"
        )
    members = model.lattice.members
    masses = [_mass(model, J) for J in members]
    return tuple(
        _chain(model, members[upper], members[lower], masses[upper], masses[lower])
        for upper, lower in model.lattice.covers
        if members[lower]
    )


@dataclass(frozen=True)
class ChainCondition:
    """One chain's inequality: lambda_min / trace > threshold.

    For the eigenvalue variant ``trace`` holds the largest eigenvalue over
    the middle block and ``threshold`` is eta * dim(l).
    """

    chain: SimpleChain
    lambda_min: Scalar
    trace: Scalar
    threshold: Scalar
    margin: Scalar
    passed: bool

    def to_dict(self) -> dict:
        out = self.chain.to_dict()
        out.update(
            {
                "lambda_min": float(self.lambda_min),
                "trace": float(self.trace),
                "threshold": format_number(self.threshold),
                "margin": float(self.margin),
                "passed": self.passed,
            }
        )
        return out


@dataclass(frozen=True)
class ConditionReport:
    """Chain-by-chain verdicts plus the overall outcome.

    A failing report never claims nonexistence: for three or more summands
    the conditions are sufficient only, so the existence field is left
    "inconclusive" on failure.
    """

    criterion: str
    passed: bool
    conditions: tuple[ChainCondition, ...]
    failing: Optional[ChainCondition]
    requirement1_unknown: bool

    @property
    def existence(self) -> str:
        return "solvable" if self.passed else "inconclusive"

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "passed": self.passed,
            "existence": self.existence,
            "caveat_requirement1": self.requirement1_unknown,
            "conditions": [c.to_dict() for c in self.conditions],
            # each condition is serialized once: the first failing one by index
            "failing": None if self.failing is None else self.conditions.index(self.failing),
        }


def _in_float_range(value: Scalar) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an exact value beyond the largest double
        return False


def _strictly_positive(margin: Scalar) -> bool:
    if is_exact(margin):
        return margin > 0
    return margin > FLOAT_MARGIN_EPS


def _check(model: SpaceModel, T: DiagonalForm, criterion: str) -> ConditionReport:
    """One condition per simple chain, for criterion "theorem" or "corollary"."""
    if T.support != tuple(range(1, model.s + 1)):
        raise ChainError("target form must cover the full index set")
    # Each chain's lambda_min and trace are at most the d-weighted trace of
    # T, and lambda_min / trace at most max z / min z: when these two are
    # doubles, so is every figure of the report.
    trace = sum(d * z for d, z in zip(model.dims, T.values))
    if not (_in_float_range(trace) and _in_float_range(max(T.values) / min(T.values))):
        raise ChainError(
            "target out of range: its d-weighted trace or max z / min z is beyond "
            "the float range; rescale T (the conditions do not depend on its scale)"
        )
    # An exact T is read as integers over one common denominator, as
    # SpaceModel.scaled reads the model, so min, trace and max are integer
    # work and an exact margin is one Fraction; a float T keeps its floats.
    if T.exact:
        scale = math.lcm(*(v.denominator for v in T.values))
        z = [v.numerator * (scale // v.denominator) for v in T.values]
    else:
        scale, z = None, T.values
    dims = model.dims
    conditions = []
    failing = None
    for chain in enumerate_simple_chains(model):
        lam = min(z[i - 1] for i in chain.J_kprime)
        if criterion == "theorem":
            bound = sum(dims[i - 1] * z[i - 1] for i in chain.J_l)
            threshold = chain.eta
        else:
            bound = max(z[i - 1] for i in chain.J_l)
            threshold = chain.eta * sum(dims[i - 1] for i in chain.J_l)
        if scale is not None and is_exact(threshold):
            q = threshold.denominator
            margin = Fraction(lam * q - threshold.numerator * bound, bound * q)
        else:
            margin = lam / bound - threshold
        if scale is not None:
            lam, bound = Fraction(lam, scale), Fraction(bound, scale)
        ok = _strictly_positive(margin)
        cond = ChainCondition(chain, lam, bound, threshold, margin, ok)
        conditions.append(cond)
        if not ok and failing is None:
            failing = cond
    return ConditionReport(
        criterion=criterion,
        passed=failing is None,
        conditions=tuple(conditions),
        failing=failing,
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
    existence reduces to T being parallel to them.
    """

    eta: Optional[Scalar]
    threshold: Optional[Scalar]
    passed: bool
    trivial: bool
    subalgebra: Optional[int]
    ratio: Optional[Scalar]

    def to_dict(self) -> dict:
        return {
            "eta": None if self.eta is None else format_number(self.eta),
            "threshold": None if self.threshold is None else format_number(self.threshold),
            "passed": self.passed,
            "trivial": self.trivial,
            "subalgebra": self.subalgebra,
            "ratio": None if self.ratio is None else float(self.ratio),
        }


def two_summand_condition(model: SpaceModel, T: DiagonalForm) -> TwoSummandReport:
    """Decide solvability for s = 2 via the exact ratio threshold."""
    if model.s != 2:
        raise ChainError(f"two-summand condition needs s=2, got s={model.s}")
    if T.support != (1, 2):
        raise ChainError("target form must cover both summands")
    closed = [J[0] for J in model.lattice.proper_nontrivial() if len(J) == 1]
    if len(closed) != 1:
        # Degenerate lattice; see the class docstring.
        if not closed:
            return TwoSummandReport(None, None, True, True, None, None)
        x = DiagonalForm.full((1, 1)) if model.exact else DiagonalForm.full((1.0, 1.0))
        r = _ricci(model, x)
        ratios = [r[i] / T[i + 1] for i in range(2)]
        if is_exact(ratios[0]) and is_exact(ratios[1]):
            parallel = ratios[0] == ratios[1] and ratios[0] > 0
        else:
            a, b = float(ratios[0]), float(ratios[1])
            parallel = a > 0 and abs(a - b) <= 1e-9 * max(1.0, abs(a))
        return TwoSummandReport(None, None, parallel, True, None, None)
    a = closed[0]
    o = 3 - a
    value = _chain(model, (1, 2), (a,), _mass(model, (1, 2)), _mass(model, (a,))).eta
    threshold = model.dims[o - 1] * value
    ratio = T[a] / T[o]
    return TwoSummandReport(
        eta=value,
        threshold=threshold,
        passed=_strictly_positive(ratio - threshold),
        trivial=False,
        subalgebra=a,
        ratio=ratio,
    )
