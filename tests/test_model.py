"""Model validation, lattice enumeration, hypothesis and classification."""

import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from homricci import (
    DiagonalForm,
    ModelError,
    SpaceModel,
    build_model,
    check_hypothesis,
    classify_cor_all,
    enumerate_subalgebras,
    flag3,
    full_flag,
    parse_model,
    ricci_iterate,
    serialize_model,
    validate,
)
from homricci import catalog, cli
from homricci import model as model_mod
from helpers import (
    combinations_with_repetition,
    oracle_full_flag,
    oracle_lattice,
    oracle_requirement2,
    oracle_simple_chains,
    random_space_model,
)


def test_single_summand_derives_casimir():
    m = build_model("point", dims=(3,), killing=(1,))
    assert m.casimir == (Fraction(1, 2),)


def test_flag_model_derived_casimir_golden():
    m = flag3(4, 2, 4)
    assert m.row_sums == (Fraction(7, 3), Fraction(5, 3), Fraction(1))
    assert m.casimir == (Fraction(5, 24), Fraction(1, 12), Fraction(3, 8))


def test_conflicting_killing_rejected():
    m = flag3(4, 2, 4)
    raw = SpaceModel(
        name="bad",
        dims=m.dims,
        casimir=m.casimir,
        killing=(Fraction(1), Fraction(1), Fraction(2)),
        triples=m.triples,
    )
    report = validate(raw)
    assert not report.ok
    assert any("i=3" in err for err in report.errors)


def test_float_casimir_tolerance():
    m = flag3(4, 2, 4)
    killing = [float(b) for b in m.killing]
    casimir = [float(z) for z in m.casimir]
    triples = [(i, j, k, float(v)) for i, j, k, v in m.triples]
    ok = validate(
        SpaceModel("f", m.dims, tuple(casimir), tuple(killing), tuple(triples))
    )
    assert ok.ok
    killing[2] += 1e-6
    bad = validate(
        SpaceModel("f", m.dims, tuple(casimir), tuple(killing), tuple(triples))
    )
    assert not bad.ok


def test_structural_rejections():
    with pytest.raises(ModelError):
        build_model("neg", dims=(2, 2), casimir=(1, 1), triples={(1, 2, 2): -1})
    with pytest.raises(ModelError):
        build_model("small", dims=(2,), killing=(1,))
    with pytest.raises(ModelError):
        build_model("none", dims=(3,))
    with pytest.raises(ModelError):
        build_model("derived-neg", dims=(2, 2), killing=(1, 0), triples={(1, 2, 2): 5})
    for kwargs in (
        {"casimir": (float("nan"), 0.3)},
        {"killing": (float("inf"), 1.0)},
        {"casimir": (0.1, 0.3), "triples": {(1, 2, 2): float("nan")}},
    ):
        with pytest.raises(ModelError, match="finite"):
            build_model("non-finite", dims=(2, 3), **kwargs)


def test_parse_rejects_bad_documents():
    good = serialize_model(flag3(4, 2, 4))
    parse_model(good)
    with pytest.raises(ModelError):
        parse_model(good.replace('"name"', '"nom"'))
    with pytest.raises(ModelError):
        parse_model('{"name": "x", "s": 1, "dims": [3], "killing": [1], '
                     '"triples": [], "pairwise_inequivalent": true, "extra": 1}')
    with pytest.raises(ModelError):
        parse_model('{"name": "x", "s": 2, "dims": [2, 2], "killing": [1, 1], '
                     '"triples": [[2, 1, 1, 0.5]], "pairwise_inequivalent": true}')
    with pytest.raises(ModelError):
        parse_model('{"name": "x", "s": 2, "dims": [2, 2], "killing": [1, 1], '
                     '"triples": [[1, 1, 2, 0.5], [1, 1, 2, 0.5]], '
                     '"pairwise_inequivalent": true}')
    with pytest.raises(ModelError):
        parse_model("not json {")


def test_serialize_round_trip_is_byte_identical():
    m = flag3(4, 2, 4)
    text = serialize_model(m)
    again = serialize_model(validate(parse_model(text)).model)
    assert text == again


def test_rational_flag_promotes_float_literals():
    doc = ('{"name": "x", "s": 1, "dims": [3], "casimir": [0.5], '
           '"triples": [], "pairwise_inequivalent": true}')
    m = parse_model(doc, rational=True)
    assert m.casimir == (Fraction(1, 2),)
    assert m.exact
    assert not parse_model(doc).exact


def test_lattice_flag_golden():
    lat = enumerate_subalgebras(flag3(4, 2, 4))
    assert lat.members == ((), (2,), (3,), (1, 2, 3))
    assert lat.member_dims == (0, 2, 4, 10)


def test_lattice_all_triples_zero_gives_power_set():
    m = build_model("free", dims=(1, 2, 2), casimir=(Fraction(1, 4),) * 3)
    lat = enumerate_subalgebras(m)
    assert len(lat.members) == 8


def test_lattice_two_summand_sides():
    # side 2 closed, side 1 open: only the (1,1,2) mass is present
    m = build_model(
        "half", dims=(2, 2), casimir=(Fraction(1, 5), Fraction(1, 5)),
        triples={(1, 1, 2): Fraction(1, 2)},
    )
    lat = enumerate_subalgebras(m)
    assert (2,) in lat
    assert (1,) not in lat


def test_lattice_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = random_space_model(rng)
        lat = enumerate_subalgebras(m)
        assert list(lat.members) == oracle_lattice(m)


def test_lattice_closure_restatement():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_space_model(rng)
        lat = enumerate_subalgebras(m)
        for J in lat.members:
            inside = set(J)
            for i, j, k, v in m.ordered_triples:
                if j in inside and k in inside and i not in inside:
                    assert v == 0


def test_lattice_monotone_under_zeroing():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_space_model(rng)
        nonzero = [row for row in m.triples if row[3] != 0]
        if not nonzero:
            continue
        drop = nonzero[int(rng.integers(0, len(nonzero)))][:3]
        before = set(enumerate_subalgebras(m).members)
        reduced = build_model(
            m.name,
            m.dims,
            casimir=m.casimir,
            triples={(i, j, k): v for i, j, k, v in m.triples if (i, j, k) != drop},
        )
        after = set(enumerate_subalgebras(reduced).members)
        assert before <= after


def _sparse_model(rng, s):
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


def test_lattice_and_covers_match_oracles_up_to_s14():
    rng = np.random.default_rng(31)
    shapes = set()
    for s in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        for m in (_sparse_model(rng, s), _sparse_model(rng, s), random_space_model(rng, s=s)):
            shapes.update(len({i, j, k}) for i, j, k, _ in m.triples)
            lat = enumerate_subalgebras(m)
            assert list(lat.members) == oracle_lattice(m)
            pairs = [(lat.members[u], lat.members[l]) for u, l in lat.covers]
            assert [p for p in pairs if p[1]] == oracle_simple_chains(lat.members)
            nonempty = [frozenset(J) for J in lat.members if J]
            atoms = [J for J in nonempty if not any(M < J for M in nonempty)]
            assert sorted(K for K, Kp in pairs if not Kp) == sorted(
                tuple(sorted(J)) for J in atoms
            )
    assert shapes == {1, 2, 3}  # (i,i,i), (i,i,k) and (i,j,k) triples all occurred


def test_full_flag_members_are_bell_numbers():
    for n, bell in zip(range(3, 8), (5, 15, 52, 203, 877)):
        m = full_flag(n)
        assert m.casimir == (Fraction(1, n),) * (n * (n - 1) // 2)
        members = enumerate_subalgebras(m).members
        assert len(members) == bell
        assert list(members) == oracle_full_flag(n)[0]


def test_star_import_exports_every_name():
    namespace = {}
    exec("from homricci import *", namespace)
    import homricci

    assert all(name in namespace for name in homricci.__all__)


def test_lattice_summand_cap():
    m = build_model("big", dims=(1,) * 25, casimir=(Fraction(1, 4),) * 25)
    with pytest.raises(ModelError):
        enumerate_subalgebras(m)


def test_hypothesis_flag_satisfied():
    verdict = check_hypothesis(flag3(4, 2, 4))
    assert verdict.status == "satisfied"
    assert verdict.requirement1 == "satisfied"
    assert verdict.requirement2 == "satisfied"


def test_hypothesis_violation_detected():
    # summand 1 is an untouched line (zero casimir, no links into {2})
    m = build_model(
        "isolated",
        dims=(1, 2, 2),
        casimir=(0, Fraction(3, 10), Fraction(2, 5)),
        triples={(1, 3, 3): Fraction(1, 2)},
    )
    verdict = check_hypothesis(m)
    assert verdict.status == "violated"
    assert ((2,), 1) in verdict.violations


def test_requirement2_matches_dense_oracle_on_models_with_lines():
    rng = np.random.default_rng(2)
    violated = 0
    for _ in range(60):
        s = int(rng.integers(3, 8))
        m = random_space_model(rng, s=s, exact=True, zero_lines=int(rng.integers(1, 3)))
        verdict = check_hypothesis(m)
        expected = oracle_requirement2(m)
        assert list(verdict.violations) == expected
        assert verdict.requirement2 == ("violated" if expected else "satisfied")
        violated += bool(expected)
    # both outcomes occur among the draws
    assert 10 <= violated <= 50


def test_lattice_walked_once_per_model(tmp_path, capsys, monkeypatch):
    walks = []
    original = model_mod.enumerate_subalgebras

    def counted(model):
        walks.append(model.name)
        return original(model)

    # wrapped in every homricci module that holds it, as the benchmark's tracer does
    for name, module in list(sys.modules.items()):
        if name == "homricci" or name.startswith("homricci."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    params = ("2", "3", "1/4", "3/10", "4/5")
    path = tmp_path / "twosum.json"
    path.write_text(serialize_model(catalog.entry("twosum", *params)))
    assert cli.main(["check", str(path), "--T", "1,1"]) == 0
    assert len(walks) == 1
    walks.clear()
    m = catalog.entry("twosum", *params)
    trace = ricci_iterate(m, DiagonalForm.full((1, 1)), steps=4)
    assert len(trace.steps) == 4
    assert len(walks) == 1


def test_hypothesis_unknown_without_flag():
    m = build_model(
        "unflagged",
        dims=(4, 2, 4),
        killing=(1, 1, 1),
        triples={(1, 1, 2): Fraction(2, 3), (1, 2, 3): Fraction(1, 2)},
        pairwise_inequivalent=False,
    )
    verdict = check_hypothesis(m)
    assert verdict.requirement1 == "unknown"
    assert verdict.status == "unknown"


def test_classify_unconditional_structure():
    m = build_model(
        "line-plus",
        dims=(1, 4, 4),
        casimir=(0, Fraction(3, 10), Fraction(2, 5)),
        triples={
            (2, 2, 3): Fraction(1, 3),
            (2, 3, 3): Fraction(1, 4),
            (1, 2, 3): Fraction(1, 5),
        },
    )
    lat = enumerate_subalgebras(m)
    assert lat.proper_nontrivial() == ((1,),)
    assert classify_cor_all(m)


def test_classify_rejects_flag_and_positive_casimir():
    assert not classify_cor_all(flag3(4, 2, 4))
    rng = np.random.default_rng(3)
    m = random_space_model(rng)  # all casimir eigenvalues positive
    assert not classify_cor_all(m)


def test_classify_rejects_zero_casimir_on_fat_summand():
    m = build_model(
        "fat-line", dims=(2, 4), casimir=(0, Fraction(1, 3)),
        triples={(1, 2, 2): Fraction(1, 2)},
    )
    assert not classify_cor_all(m)


def test_derived_killing_satisfies_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = random_space_model(rng)  # float mode, killing derived
        report = validate(m)
        assert report.ok
        assert all(abs(res) <= 1e-12 for res in report.residuals)


def test_diagonal_form_contract():
    f = DiagonalForm.full((1, 2, 3))
    assert f.support == (1, 2, 3)
    assert f[2] == 2
    g = f.restrict((1, 3))
    assert g.support == (1, 3) and g[3] == 3
    with pytest.raises(ModelError):
        f.restrict((4,))
    with pytest.raises(ModelError):
        DiagonalForm.full((1, 0))
    with pytest.raises(ModelError):
        DiagonalForm((1, 2), (2, 1))
    assert f.scale(2).values == (Fraction(2), Fraction(4), Fraction(6))
    with pytest.raises(ModelError):
        f[4]
