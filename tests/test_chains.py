"""Simple chains, eta formulas, and the solvability conditions."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from homricci import (
    ChainError,
    DiagonalForm,
    EtaUndefinedError,
    HypothesisViolatedError,
    abelian_line_two_summand,
    build_model,
    check_corollary_lambda,
    check_theorem,
    enumerate_simple_chains,
    enumerate_subalgebras,
    flag3,
    full_flag,
    two_summand,
    two_summand_condition,
)
from homricci import chains as chains_mod
from homricci.numbers import figure, format_number
from helpers import (
    def_form_eta,
    oracle_full_flag,
    oracle_simple_chains,
    random_positive_form,
    random_space_model,
    sparse_model,
)

G2 = flag3(4, 2, 4)


def test_flag_chains_and_eta_golden():
    chains = enumerate_simple_chains(G2)
    assert [(ch.J_k, ch.J_kprime) for ch in chains] == [
        ((1, 2, 3), (2,)),
        ((1, 2, 3), (3,)),
    ]
    assert chains[0].eta == Fraction(1, 48)
    assert chains[1].eta == Fraction(3, 20)
    assert chains[0].omega == 2 and chains[1].omega == 4


def test_eta_parts_golden_flag3_and_full_flag():
    got = [(ch.J_kprime, ch.eta) for ch in enumerate_simple_chains(flag3(1, 2, 3))]
    assert got == [((2,), Fraction(13, 72)), ((3,), Fraction(2, 7))]
    F = Fraction
    by_shape = Counter(
        (len(ch.J_k), len(ch.J_kprime), ch.eta) for ch in enumerate_simple_chains(full_flag(5))
    )
    assert by_shape == {
        (2, 1, F(1, 2)): 30,
        (3, 1, F(1, 6)): 30,
        (4, 2, F(1, 3)): 30,
        (4, 3, F(15, 8)): 10,
        (6, 2, F(1, 8)): 15,
        (6, 3, F(5, 16)): 20,
        (10, 4, F(19, 120)): 10,
        (10, 6, F(9, 20)): 5,
    }


def test_full_flag_simple_chain_counts():
    for n, count in ((5, 150), (6, 841), (7, 4781)):
        m = full_flag(n)
        chains = enumerate_simple_chains(m)
        assert len(chains) == count
        pairs = [(ch.J_k, ch.J_kprime) for ch in chains]
        assert pairs == oracle_full_flag(n)[1]
        if n == 5:
            assert pairs == oracle_simple_chains(m.lattice.members)


def test_hypothesis_checked_once_per_condition_check(monkeypatch):
    calls = []
    original = chains_mod.check_hypothesis

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chains_mod, "check_hypothesis", counted)
    for check in (check_theorem, check_corollary_lambda):
        calls.clear()
        check(flag3(4, 2, 4), DiagonalForm.full((1, 1, 1)))
        assert len(calls) == 1
    # the chains are enumerated once per model (SpaceModel.chains)
    model = flag3(4, 2, 4)
    calls.clear()
    for check in (check_theorem, check_corollary_lambda, check_theorem):
        check(model, DiagonalForm.full((1, 1, 1)))
    assert len(calls) == 1
    calls.clear()
    enumerate_simple_chains(G2)
    assert len(calls) == 1


def test_no_chains_when_isotropy_algebra_maximal():
    m = build_model(
        "maximal", dims=(2, 2), casimir=(Fraction(1, 4), Fraction(1, 4)),
        triples={(1, 1, 2): Fraction(1, 3), (1, 2, 2): Fraction(1, 3)},
    )
    assert enumerate_subalgebras(m).proper_nontrivial() == ()
    assert enumerate_simple_chains(m) == ()


def test_betweenness_excludes_skipping_chains():
    # lattice is exactly {}, {1}, {1,2}, full
    m = build_model(
        "tower",
        dims=(1, 2, 3),
        casimir=(Fraction(1, 6), Fraction(1, 5), Fraction(1, 4)),
        triples={
            (1, 3, 3): Fraction(1, 3),
            (2, 3, 3): Fraction(1, 4),
            (1, 2, 2): Fraction(1, 5),
        },
    )
    lat = enumerate_subalgebras(m)
    assert lat.members == ((), (1,), (1, 2), (1, 2, 3))
    pairs = [(ch.J_k, ch.J_kprime) for ch in enumerate_simple_chains(m)]
    assert ((1, 2), (1,)) in pairs
    assert ((1, 2, 3), (1, 2)) in pairs
    assert ((1, 2, 3), (1,)) not in pairs


def test_chain_enumeration_matches_set_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = random_space_model(rng)
        got = [(ch.J_k, ch.J_kprime) for ch in enumerate_simple_chains(m)]
        assert got == oracle_simple_chains(m.lattice.members)


def test_eta_forms_agree_on_random_exact_models():
    rng = np.random.default_rng(22)
    for _ in range(30):
        m = random_space_model(rng, exact=True)
        for ch in enumerate_simple_chains(m):
            assert ch.eta >= 0
            assert ch.eta == def_form_eta(m, ch)


def test_eta_matches_the_defining_form_on_random_float_models():
    rng = np.random.default_rng(23)
    count = 0
    for _ in range(30):
        m = random_space_model(rng)
        exact = exact_data(m)
        for ch in enumerate_simple_chains(m):
            assert ch.eta == pytest.approx(def_form_eta(m, ch), rel=1e-12, abs=0)
            # the correctly rounded eta of the model's exact data
            assert ch.eta == float(def_form_eta(exact, ch))
            count += 1
    assert count > 30


def test_eta_matches_the_defining_form_where_pairs_have_several_brackets():
    # s = 6 to 10: many pairs (a, b) have [abc] != 0 for several c, which
    # the scaled rows sum into one M[a][b]
    rng = np.random.default_rng(24)
    count = shared = 0
    for k in range(24):
        exact = k % 2 == 0
        m = random_space_model(rng, s=6 + k % 5, exact=exact)
        pairs = Counter((a, b) for a, b, _, _ in m.ordered_triples)
        shared += sum(1 for n in pairs.values() if n > 1)
        want = Fraction if exact else float
        for ch in enumerate_simple_chains(m):
            assert ch.eta == want(def_form_eta(exact_data(m), ch))
            count += 1
    assert count > 30 and shared > 100


def test_masses_from_covers_and_etas_match_oracles_on_sparse_models():
    # sparse lattices: classes that leak, and members with several lower
    # covers, each of which gives the member's mass from its own
    rng = np.random.default_rng(32)
    count = several = 0
    for s in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        exact = sparse_model(rng, s)
        floats = build_model(
            exact.name, exact.dims, casimir=[float(v) for v in exact.casimir],
            triples={(i, j, k): float(v) for i, j, k, v in exact.triples},
        )
        for m in (exact, floats):
            data = exact_data(m)
            chains = enumerate_simple_chains(m)
            # each eta's numerator is the mass of J_k', which the walk takes
            # from one lower cover's mass: the defining form, which sums
            # every mass from scratch, checks them
            several += sum(len(below) > 1 for below in m.lattice.lower_covers)
            want = Fraction if m.exact else float
            for ch in chains:
                assert ch.eta == want(def_form_eta(data, ch))
                count += 1
    assert count > 100 and several > 20


def test_eta_is_the_casimir_form_within_validation_tolerance():
    # the Casimir identity is off by 9e-10 at index 1, inside the default
    # 1e-9, which moves the defining form of eta but not the Casimir form
    m = build_model(
        "twosum-off", dims=(2, 3), casimir=(0.25, 0.3),
        killing=(0.9 + 4.5e-10, 3.4 / 3), triples={(1, 2, 2): 0.8},
    )
    (chain,) = enumerate_simple_chains(m)
    assert chain.eta == pytest.approx(2.0 / (2 * (3.6 + 3.2)), rel=1e-14, abs=0)
    assert def_form_eta(m, chain) != pytest.approx(chain.eta, rel=1e-10, abs=0)


def test_eta_zero_iff_abelian_line():
    m = abelian_line_two_summand(4, Fraction(1, 3), Fraction(1, 2))
    chains = enumerate_simple_chains(m)
    assert len(chains) == 1
    assert chains[0].J_kprime == (1,)
    assert chains[0].eta == 0
    # all casimir eigenvalues positive: every eta strictly positive
    rng = np.random.default_rng(23)
    for _ in range(20):
        model = random_space_model(rng, exact=True)
        for ch in enumerate_simple_chains(model):
            assert ch.eta > 0


def test_two_summand_eta_closed_form():
    d1, d2 = 2, 3
    zeta1, zeta2 = Fraction(1, 4), Fraction(3, 10)
    t111, t222, t122 = Fraction(1, 6), Fraction(1, 7), Fraction(4, 5)
    m = two_summand(d1, d2, zeta1, zeta2, t122, t111, t222)
    chains = enumerate_simple_chains(m)
    assert len(chains) == 1
    expected = (4 * d1 * zeta1 + t111) / (d1 * (4 * d2 * zeta2 + t222 + 4 * t122))
    assert chains[0].eta == expected


def test_eta_denominator_zero_raises():
    # an inner block whose complement inside k carries no casimir and no
    # bracket mass; built with a 2-dimensional zero-casimir summand so the
    # data-level hypothesis check cannot see it
    m = build_model(
        "bad",
        dims=(1, 2, 2),
        casimir=(Fraction(1, 4), 0, Fraction(1, 3)),
        triples={(1, 3, 3): Fraction(1, 2), (2, 3, 3): Fraction(1, 5)},
    )
    with pytest.raises(EtaUndefinedError):
        enumerate_simple_chains(m)


def test_theorem_check_flag_golden():
    rep = check_theorem(G2, DiagonalForm.full((1, 1, 1)))
    assert rep.passed
    margins = [c.margin for c in rep.conditions]
    assert margins == [Fraction(1, 8) - Fraction(1, 48), Fraction(1, 6) - Fraction(3, 20)]
    rep2 = check_theorem(G2, DiagonalForm.full((1.0, 1.0, 0.1)))
    assert not rep2.passed
    assert rep2.failing.chain.J_kprime == (3,)
    assert rep2.existence == "inconclusive"


def test_theorem_reduces_to_flag3_inequalities():
    """The theorem in PAPER.md on flag3(4,2,4), whose chains have eta 1/48
    and 3/20, reads z2/(z1+z3) > 1/12 and z3/(2 z1 + z2) > 3/10."""
    rng = np.random.default_rng(24)
    for _ in range(50):
        z = [Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10))) for _ in range(3)]
        T = DiagonalForm.full(z)
        rep = check_theorem(G2, T)
        manual = (
            z[1] / (z[0] + z[2]) > Fraction(1, 12)
            and z[2] / (2 * z[0] + z[1]) > Fraction(3, 10)
        )
        assert rep.passed == manual


def test_corollary_check_flag_golden():
    rep = check_corollary_lambda(G2, DiagonalForm.full((1, 1, 1)))
    assert rep.passed
    thresholds = [c.threshold for c in rep.conditions]
    assert thresholds == [Fraction(8, 48), Fraction(18, 20)]


def exact_data(model):
    """The model with its data read at their exact values (a float is a
    dyadic rational), and its Killing coefficients derived from them."""
    if model.exact:
        return model
    return build_model(
        model.name, dims=model.dims, casimir=[Fraction(v) for v in model.casimir],
        triples={(i, j, k): Fraction(v) for i, j, k, v in model.triples},
        pairwise_inequivalent=model.pairwise_inequivalent,
    )


def _generic_figures(model, T, chain, criterion):
    """eta, lambda_min, trace, threshold and margin of one chain, exactly:
    at the exact values of T and of the data of ``model`` (an exact model,
    see ``exact_data``), with eta in the defining form."""
    z = dict(enumerate(map(Fraction, T.values), 1))
    eta = def_form_eta(model, chain)
    lam = min(z[i] for i in chain.J_kprime)
    if criterion == "theorem":
        bound = sum(model.dims[i - 1] * z[i] for i in chain.J_l)
        threshold = eta
    else:
        bound = max(z[i] for i in chain.J_l)
        threshold = eta * sum(model.dims[i - 1] for i in chain.J_l)
    return eta, lam, bound, threshold, lam / bound - threshold


# no chains: the isotropy algebra is maximal
MAXIMAL = build_model(
    "maximal", dims=(2, 2), casimir=(Fraction(1, 4), Fraction(1, 4)),
    triples={(1, 1, 2): Fraction(1, 3), (1, 2, 2): Fraction(1, 3)},
)
# g2u2 without the inequivalence flag
UNFLAGGED = build_model(
    "unflagged",
    dims=(4, 2, 4),
    killing=(1, 1, 1),
    triples={(1, 1, 2): Fraction(2, 3), (1, 2, 3): Fraction(1, 2)},
    pairwise_inequivalent=False,
)


@pytest.mark.parametrize("exact_model", [True, False])
@pytest.mark.parametrize("exact_T", [True, False])
def test_condition_figures_match_generic_arithmetic(exact_model, exact_T):
    """Every model and every T, float or exact, is checked on its exact
    value: the verdict is the sign of the exact margin, and the figures are
    the exact ones on an exact model and their correctly rounded floats on
    a float one.  The report's JSON line is what json.dumps writes of the
    same report built here from those figures."""
    rng = np.random.default_rng([27, exact_model, exact_T])
    models = [random_space_model(rng, exact=exact_model) for _ in range(12)]
    count = 0
    for m in [*models, MAXIMAL, UNFLAGGED]:
        T = random_positive_form(rng, m.s, exact=exact_T)
        exact = exact_data(m)
        spell = Fraction if m.exact else float
        for check, criterion in ((check_theorem, "theorem"), (check_corollary_lambda, "corollary")):
            report = check(m, T)
            rows = []
            for cond in report.conditions:
                got = (cond.chain.eta, cond.lambda_min, cond.trace, cond.threshold, cond.margin)
                want = _generic_figures(exact, T, cond.chain, criterion)
                eta, lam, bound, threshold, margin = map(spell, want)
                assert got == (eta, lam, bound, threshold, margin)
                assert all(type(v) is spell for v in got)
                passed = want[4] > 0
                assert cond.passed is passed
                # each float bit for bit the float of the exact figure
                rows.append({
                    **cond.chain.to_dict(),
                    "eta": format_number(eta),
                    "lambda_min": float(lam),
                    "trace": float(bound),
                    "threshold": format_number(threshold),
                    "margin": float(margin),
                    "passed": passed,
                })
                count += 1
            failing = next((pos for pos, row in enumerate(rows) if not row["passed"]), None)
            assert report.passed is (failing is None)
            assert report.failing is (None if failing is None else report.conditions[failing])
            doc = {
                "criterion": criterion,
                "passed": failing is None,
                "existence": "solvable" if failing is None else "inconclusive",
                "caveat_requirement1": not m.pairwise_inequivalent,
                "conditions": rows,
                "failing": failing,
            }
            assert report.to_json() == json.dumps(doc)
            assert report.to_dict() == doc
    assert count > 50


def test_report_line_spells_non_finite_floats_as_the_encoder():
    """A float model's eta, and so its threshold and margin, can leave the
    float range: the line writes them null, as json.dumps writes their
    format_number, and is strict JSON.  Every figure is the correctly
    rounded float of the exact one, and an eta of 0 is 0.0: with p >= 0
    and q > 0 no eta is NaN or -0.0."""
    big = 10**400
    etas = [(big, 1), (big, big - 1), (0, 1)]
    # three chains ({1, 2}, {1}) over the members {}, {1} and {1, 2}
    chains = chains_mod.SimpleChains(
        False, ((), (1,), (1, 2)), (0, 1, 1), {0b10: (2,)}, [2] * 3, [1] * 3, [0b10] * 3,
        etas,
    )
    # lambda_min 1/4 and trace 2/4, eta p / q and w = 3, as _check takes them
    margins = [1 * q - p * 3 * 2 for p, q in etas]
    dens = [2 * q for _, q in etas]
    oks = [margin > 0 for margin in margins]
    columns = ([1] * 3, [2] * 3, margins, dens, [3] * 3, oks)
    report = chains_mod.ConditionReport("corollary", chains, 4, columns, False)
    figures = [
        (math.inf, math.inf, -math.inf),
        (1.0, 3.0, float(Fraction(1, 2) - Fraction(3 * big, big - 1))),
        (0.0, 0.0, 0.5),
    ]
    rows = [
        {**chain.to_dict(), "eta": eta, "lambda_min": 0.25, "trace": 0.5,
         "threshold": threshold, "margin": margin, "passed": ok}
        for chain, (eta, threshold, margin), ok in zip(
            chains, [map(format_number, f) for f in figures], oks
        )
    ]
    want = {"criterion": "corollary", "passed": False, "existence": "inconclusive",
            "caveat_requirement1": False, "conditions": rows, "failing": 0}
    assert report.to_json() == json.dumps(want)
    assert [c.chain.eta for c in report.conditions] == [math.inf, 1.0, 0.0]
    assert [(c.threshold, c.margin) for c in report.conditions] == [f[1:] for f in figures]
    line = report.to_json()
    assert line.count("null") == 3 and "Infinity" not in line and "NaN" not in line


def exact_of(T):
    """T with each value replaced by its exact value."""
    return DiagonalForm.full(tuple(Fraction(v) for v in T.values))


# flag3(4,2,4) as a float model
G2_FLOAT = build_model(
    "g2u2-float", dims=(4, 2, 4), killing=(1.0, 1.0, 1.0),
    triples={(1, 1, 2): 2 / 3, (1, 2, 3): 0.5},
)


def test_float_target_checked_on_its_exact_value():
    """On an exact model a float T gets the verdict and the figures of its
    exact value.  On g2u2 with z_2 one ulp above 1/6 the first chain passes
    by an exact margin of 2.3e-18; a float model too decides by the sign of
    its exact margin, however small."""
    T = DiagonalForm.full((1.0, math.nextafter(1 / 6, 1), 1.0))
    for check in (check_theorem, check_corollary_lambda):
        got, want = check(G2, T), check(G2, exact_of(T))
        assert got.passed and want.passed
        assert got.to_dict() == want.to_dict()
        for a, b in zip(got.conditions, want.conditions):
            figures = (a.lambda_min, a.trace, a.threshold, a.margin)
            assert figures == (b.lambda_min, b.trace, b.threshold, b.margin)
            assert all(isinstance(v, Fraction) for v in figures)
    assert check_theorem(G2, T).conditions[0].margin == Fraction(1, 432345564227567616)
    # G2_FLOAT's first eta lies 8.7e-18 above 1/48, and the first chain's
    # ratio 1 / (4 + 4 z_3) crosses it between these two adjacent doubles
    below, above = 10.999999999999995, 10.999999999999996
    for z3, passed in ((below, True), (above, False)):
        T = DiagonalForm.full((1.0, 1.0, z3))
        cond = check_theorem(G2_FLOAT, T).conditions[0]
        margin = _generic_figures(exact_data(G2_FLOAT), T, cond.chain, "theorem")[4]
        assert 0 < abs(margin) < 1e-12 and (margin > 0) is passed
        assert cond.passed is passed and cond.margin == float(margin)


def test_two_summand_verdict_at_the_threshold():
    """twosum 2 3 1/4 3/10 4/5 has the threshold 15/34: a float ratio one
    ulp either side of it gets the verdict of its exact value, as does the
    double nearest the threshold, with the figures of that value."""
    m = two_summand(2, 3, Fraction(1, 4), Fraction(3, 10), Fraction(4, 5))
    edge = float(Fraction(15, 34))
    for ratio in (math.nextafter(edge, 0), edge, math.nextafter(edge, 1)):
        T = DiagonalForm.full((ratio, 1.0))
        rep = two_summand_condition(m, T)
        assert rep == two_summand_condition(m, exact_of(T))
        assert rep.passed == (Fraction(ratio) > Fraction(15, 34))
        assert (rep.eta, rep.threshold, rep.ratio) == (Fraction(5, 34), Fraction(15, 34), Fraction(ratio))
    assert two_summand_condition(m, DiagonalForm.full((math.nextafter(edge, 1), 1.0))).passed
    # the verdict is the eigenvalue variant's on the chain ({1, 2}, {1})
    for ratio in (0.25, Fraction(4, 9), 3.0):
        T = DiagonalForm.full((ratio, 1))
        (cond,) = check_corollary_lambda(m, T).conditions
        assert two_summand_condition(m, T).passed == cond.passed == (ratio > Fraction(15, 34))


def test_exact_check_builds_fractions_only_when_read(monkeypatch):
    """On SU(6)/T with an exact T, a check builds no Fraction until its
    conditions are read; then one a margin, and one a distinct eta,
    threshold and figure over T's denominator."""
    T = random_positive_form(np.random.default_rng(29), 15, exact=True)
    built = []

    def counted(*args):
        built.append(args)
        return figure(*args)

    # on an exact model each figure is one Fraction
    monkeypatch.setattr(chains_mod, "figure", counted)
    for check, criterion in ((check_theorem, "theorem"), (check_corollary_lambda, "corollary")):
        built.clear()
        model = full_flag(6)  # whose chains' etas are built with the conditions
        report = check(model, T)
        assert not built
        assert len(report.conditions) == 841
        lams, bounds, _, _, weights, _ = report._columns
        distinct = (
            len(set(model.chains.etas)) + len(set(zip(model.chains.etas, weights)))
            + len({*lams, *bounds})
        )
        assert len(built) == 841 + distinct
        for cond in report.conditions:
            _, lam, bound, _, margin = _generic_figures(model, T, cond.chain, criterion)
            got = (cond.lambda_min, cond.trace, cond.margin)
            assert got == (lam, bound, margin)
            assert all(type(v) is Fraction for v in got)


def _counted(built, name, make):
    """``make``, counting each call in ``built[name]``."""
    def counted(*args):
        built[name] += 1
        return make(*args)
    return counted


def test_check_json_builds_no_chain_and_no_fraction(monkeypatch):
    """On SU(6)/T a check and its JSON line read only the columns, under
    either criterion: no SimpleChain and no Fraction is built until the
    conditions are read."""
    model = full_flag(6)
    T = random_positive_form(np.random.default_rng(30), model.s, exact=True)
    built = Counter()
    monkeypatch.setattr(chains_mod, "SimpleChain", _counted(built, "chain", chains_mod.SimpleChain))
    monkeypatch.setattr(chains_mod, "figure", _counted(built, "fraction", figure))
    for check in (check_theorem, check_corollary_lambda):
        assert len(json.loads(check(model, T).to_json())["conditions"]) == 841
    assert not built
    report = check_theorem(model, T)
    assert len(report.conditions) == 841
    # a Fraction a margin, and one a distinct eta, threshold (w = 1: one a
    # distinct eta) and figure over T's denominator
    lams, bounds = report._columns[:2]
    distinct = 2 * len(set(model.chains.etas)) + len({*lams, *bounds})
    assert built["chain"] == 841 and built["fraction"] == 841 + distinct


def test_chain_sequence_is_lazy_and_equals_its_tuple(monkeypatch):
    """A model's chains are one object, whose length needs no item; its
    items are built once, on first read, and it equals their tuple."""
    model = full_flag(5)
    built = Counter()
    monkeypatch.setattr(chains_mod, "SimpleChain", _counted(built, "chain", chains_mod.SimpleChain))
    chains = model.chains
    assert chains is model.chains
    assert len(chains) == 150 and chains and not built
    items = tuple(chains)
    assert chains == items and items == chains and chains != items[1:]
    assert (chains[0], chains[-1], chains[:2]) == (items[0], items[-1], items[:2])
    assert list(chains) == list(items) and items[3] in chains
    assert built["chain"] == 150
    assert enumerate_simple_chains(model) == chains


def test_corollary_implies_theorem():
    rng = np.random.default_rng(25)
    tried = 0
    while tried < 30:
        m = random_space_model(rng)
        if not enumerate_simple_chains(m):
            continue
        T = random_positive_form(rng, m.s)
        if check_corollary_lambda(m, T).passed:
            assert check_theorem(m, T).passed
        tried += 1


def test_margin_signs_invariant_under_scaling():
    rng = np.random.default_rng(26)
    for _ in range(20):
        m = random_space_model(rng, exact=True)
        if not enumerate_simple_chains(m):
            continue
        T = random_positive_form(rng, m.s, exact=True)
        lam = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 7)))
        a = check_theorem(m, T)
        b = check_theorem(m, T.scale(lam))
        assert [c.margin for c in a.conditions] == [c.margin for c in b.conditions]
        assert a.passed == b.passed


def test_empty_chain_list_passes_unconditionally():
    rep = check_theorem(MAXIMAL, DiagonalForm.full((5, 1)))
    assert rep.passed and rep.conditions == ()


def test_check_raises_on_violated_hypothesis():
    m = build_model(
        "isolated",
        dims=(1, 2, 2),
        casimir=(0, Fraction(3, 10), Fraction(2, 5)),
        triples={(1, 3, 3): Fraction(1, 2)},
    )
    with pytest.raises(HypothesisViolatedError):
        check_theorem(m, DiagonalForm.full((1, 1, 1)))
    with pytest.raises(HypothesisViolatedError):
        enumerate_simple_chains(m)


def test_check_carries_caveat_when_flag_unset():
    rep = check_theorem(UNFLAGGED, DiagonalForm.full((1, 1, 1)))
    assert rep.requirement1_unknown
    assert rep.passed


def test_two_summand_condition_threshold():
    m = two_summand(2, 3, Fraction(1, 4), Fraction(3, 10), Fraction(4, 5))
    rep = two_summand_condition(m, DiagonalForm.full((1, 1)))
    expected_eta = (4 * 2 * Fraction(1, 4)) / (
        2 * (4 * 3 * Fraction(3, 10) + 4 * Fraction(4, 5))
    )
    assert rep.eta == expected_eta
    assert rep.threshold == 3 * expected_eta
    assert rep.subalgebra == 1
    assert rep.passed == (Fraction(1) > rep.threshold)
    high = two_summand_condition(m, DiagonalForm.full((10, 1)))
    low = two_summand_condition(m, DiagonalForm.full((Fraction(1, 10), 1)))
    assert high.passed and not low.passed


def test_two_summand_condition_degenerate_cases():
    # neither side closed: unconditional existence
    m = build_model(
        "open", dims=(2, 2), casimir=(Fraction(1, 4), Fraction(1, 4)),
        triples={(1, 1, 2): Fraction(1, 3), (1, 2, 2): Fraction(1, 3)},
    )
    rep = two_summand_condition(m, DiagonalForm.full((1, 1)))
    assert rep.trivial and rep.passed
    # both sides closed: every metric has the same Ricci coefficients
    frozen = build_model(
        "frozen", dims=(2, 2), casimir=(Fraction(1, 2), Fraction(1, 3)),
    )
    r = [Fraction(1, 2), Fraction(1, 3)]  # b_i/2 with b = 2*zeta here
    aligned = two_summand_condition(frozen, DiagonalForm.full((r[0], r[1])))
    assert aligned.trivial and aligned.passed
    skew = two_summand_condition(frozen, DiagonalForm.full((1, 5)))
    assert skew.trivial and not skew.passed
    # every T and every model is compared at its exact value: (0.15, 0.1)
    # is not exactly parallel to r, on either model, and (3/20, 1/10) is
    # parallel to the exact model's r but not to the float model's, whose
    # r_2 is the double nearest 1/3; that double itself is parallel
    T = DiagonalForm.full((0.15, 0.1))
    exact_T = DiagonalForm.full((Fraction(3, 20), Fraction(1, 10)))
    frozen_float = build_model("frozen", dims=(2, 2), casimir=(0.5, 1 / 3))
    assert not two_summand_condition(frozen, T).passed
    assert not two_summand_condition(frozen_float, T).passed
    assert two_summand_condition(frozen, exact_T).passed
    assert not two_summand_condition(frozen_float, exact_T).passed
    assert two_summand_condition(frozen_float, DiagonalForm.full((0.5, 1 / 3))).passed
    assert not two_summand_condition(frozen_float, DiagonalForm.full((1.0, 5.0))).passed


def test_two_summand_zero_threshold_always_passes():
    m = abelian_line_two_summand(4, Fraction(1, 3), Fraction(1, 2))
    rep = two_summand_condition(m, DiagonalForm.full((Fraction(1, 100), 1)))
    assert rep.eta == 0 and rep.threshold == 0
    assert rep.passed and not rep.trivial


def test_two_summand_requires_two_summands():
    with pytest.raises(ChainError):
        two_summand_condition(G2, DiagonalForm.full((1, 1, 1)))


def test_condition_repr_names_each_figure():
    """A condition is a record of its chain, figures and verdict, printed
    with each figure as the model's arithmetic spells it."""
    exact = check_theorem(G2, DiagonalForm.full((1, 1, Fraction(1, 10))))
    assert repr(exact.conditions) == (
        "(ChainCondition(chain=SimpleChain(J_k=(1, 2, 3), J_kprime=(2,), J_l=(1, 3), omega=2, "
        "eta=Fraction(1, 48)), lambda_min=Fraction(1, 1), trace=Fraction(22, 5), "
        "threshold=Fraction(1, 48), margin=Fraction(109, 528), passed=True), "
        "ChainCondition(chain=SimpleChain(J_k=(1, 2, 3), J_kprime=(3,), J_l=(1, 2), omega=4, "
        "eta=Fraction(3, 20)), lambda_min=Fraction(1, 10), trace=Fraction(6, 1), "
        "threshold=Fraction(3, 20), margin=Fraction(-2, 15), passed=False))"
    )
    floats = build_model(
        "g2u2-float", (4, 2, 4), killing=(1.0, 1.0, 1.0), triples={(1, 1, 2): 2 / 3, (1, 2, 3): 0.5}
    )
    assert repr(check_corollary_lambda(floats, DiagonalForm.full((1, 1, 0.1))).failing) == (
        "ChainCondition(chain=SimpleChain(J_k=(1, 2, 3), J_kprime=(3,), J_l=(1, 2), omega=4, "
        "eta=0.15), lambda_min=0.1, trace=1.0, threshold=0.8999999999999999, "
        "margin=-0.7999999999999999, passed=False)"
    )
