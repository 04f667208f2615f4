"""Model validation, lattice enumeration, hypothesis and classification."""

import json
import math
import re
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from homricci import (
    CurvatureError,
    DiagonalForm,
    HypothesisViolatedError,
    ModelError,
    SpaceModel,
    build_model,
    check_hypothesis,
    check_theorem,
    classify_cor_all,
    enumerate_subalgebras,
    flag3,
    full_flag,
    parse_model,
    ricci_iterate,
    scalar_S,
    serialize_model,
    solve_prescribed_ricci,
    two_summand,
    validate,
)
from homricci import catalog, cli
from homricci import model as model_mod
from homricci.numbers import NumberFormatError, parse_number
from helpers import (
    combinations_with_repetition,
    fresh_python,
    oracle_full_flag,
    oracle_lattice,
    oracle_ordered_triples,
    oracle_requirement2,
    oracle_simple_chains,
    random_space_model,
    sparse_model,
)


def test_single_summand_derives_casimir():
    m = build_model("point", dims=(3,), killing=(1,))
    assert m.casimir == (Fraction(1, 2),)


def test_flag_model_derived_casimir_golden():
    m = flag3(4, 2, 4)
    form = m.integer_form
    R = tuple(Fraction(r, form.scale) for r in form.row_sums)
    assert R == (Fraction(7, 3), Fraction(5, 3), Fraction(1))
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


def test_float_data_beyond_the_float_range_rejected():
    # each given value is a double, but b_1 = 2 zeta_1 + r_1 / d_1 is not
    report = validate(SpaceModel("f", (2, 3), (1e308, 0.3), None, ((1, 2, 2, 0.8),)))
    assert report.errors == ("derived killing values are beyond the float range: "
                             "(inf, 1.1333333333333333)",)
    # d_1 b_1 and 2 d_1 zeta_1 overflow: the residual is NaN, and the
    # identity, off by 1e307 here, is not taken as holding
    killing = (1.7e308, 1.1333333333333333)
    report = validate(SpaceModel("f", (2, 3), (0.8e308, 0.3), killing, ((1, 2, 2, 0.8),)))
    assert report.errors == ("casimir identity fails at i=1: residual nan",)


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


def test_build_model_and_catalog_never_truncate():
    # dims and triple indices are read as a model file's are: a float or a
    # bool is reported by validation, never truncated to an integer
    for kwargs, error in (
        ({"dims": (2.5, 3)}, "dims must be positive integers: (2.5, 3)"),
        ({"dims": (True, 2)}, "dims must be positive integers: (True, 2)"),
        ({"dims": (2, 3), "triples": [(1.9, 2, 2, 1)]},
         "triple indices must be integers: (1.9, 2, 2)"),
        ({"dims": (2, 3), "triples": {(1, True, 2): 1}},
         "triple indices must be integers: (1, True, 2)"),
    ):
        with pytest.raises(ModelError, match=re.escape(error)):
            build_model("x", casimir=(1, 1), **kwargs)
    for build, error in (
        (lambda: flag3(4.7, 2, 4), "flag3 dimension must be an integer, got 4.7"),
        (lambda: flag3(True, 2, 4), "flag3 dimension must be an integer, got True"),
        (lambda: full_flag(4.9), "SU(n)/T's n must be an integer, got 4.9"),
        (lambda: two_summand(2.5, 3, "1/4", "3/10", "4/5"),
         "dims must be positive integers: (2.5, 3)"),
        (lambda: catalog.entry("flag3", 4.7, 2, 4), "got 4.7"),
    ):
        with pytest.raises(ModelError, match=re.escape(error)):
            build()
    # its numbers are read as a file's: "p/q" strings are exact
    assert build_model("x", dims=(2, 3), casimir=("1/4", "3/10"),
                       triples={(1, 2, 2): "4/5"}) == two_summand(2, 3, "1/4", "3/10", "4/5", name="x")


def test_two_summand_reports_a_bad_number_as_a_model_error():
    # each of the five values is read as a file's number is: one that does
    # not parse is a ModelError naming it, from the library and the catalog
    good = ("1/4", "3/10", "4/5", "0", "0")
    keys = ("zeta1", "zeta2", "t122", "t111", "t222")
    for i, key in enumerate(keys):
        for bad, error in (
            ("x", "cannot parse number 'x'"), ("1/0", "cannot parse number '1/0'"),
            (True, "boolean is not a scalar: True"), (None, "unsupported scalar type: None"),
        ):
            values = good[:i] + (bad,) + good[i + 1:]
            with pytest.raises(ModelError, match=re.escape(f"bad number in {key}: {error}")):
                two_summand(2, 3, *values)
        with pytest.raises(ModelError, match=f"bad number in {key}: cannot parse number 'x'"):
            catalog.entry("twosum", "2", "3", *(good[:i] + ("x",) + good[i + 1:]))


def test_numpy_integers_build_the_same_model():
    # an integral value of any integer type is read exactly as an int
    built = build_model("x", dims=np.array([2, 3]), casimir=(Fraction(1, 4), Fraction(3, 10)),
                        triples={(np.int64(1), np.int32(2), np.uint8(2)): Fraction(4, 5)})
    plain = build_model("x", dims=(2, 3), casimir=(Fraction(1, 4), Fraction(3, 10)),
                        triples={(1, 2, 2): Fraction(4, 5)})
    assert built == plain and serialize_model(built) == serialize_model(plain)
    assert all(type(v) is int for v in (*built.dims, *built.triples[0][:3]))
    for numpy_built, plain in (
        (flag3(np.int64(4), np.int16(2), 4), flag3(4, 2, 4)),
        (full_flag(np.int64(4)), full_flag(4)),
        (two_summand(np.int64(2), np.int64(3), "1/4", "3/10", "4/5"),
         two_summand(2, 3, "1/4", "3/10", "4/5")),
    ):
        assert serialize_model(numpy_built) == serialize_model(plain)
        assert all(type(d) is int for d in numpy_built.dims)


def test_parse_rejects_bad_documents():
    good = serialize_model(flag3(4, 2, 4))
    parse_model(good)
    with pytest.raises(ModelError):
        parse_model(good.replace('"name"', '"nom"'))
    with pytest.raises(ModelError):
        parse_model('{"name": "x", "s": 1, "dims": [3], "killing": [1], '
                     '"triples": [], "pairwise_inequivalent": true, "extra": 1}')
    with pytest.raises(ModelError):
        parse_model("not json {")
    for source, error in (
        ("[1, 2]", "model document must be a JSON object"),
        (good.replace('"flag3:4,2,4"', "7"), "name must be a string"),
        (good.replace('"pairwise_inequivalent": true', '"pairwise_inequivalent": 1'),
         "pairwise_inequivalent must be a boolean"),
    ):
        with pytest.raises(ModelError, match=error):
            parse_model(source)
    # the parser checks the document's shape, and validation every
    # structural rule
    head = '{"name": "x", "dims": [2, 2], "pairwise_inequivalent": true, '
    for shape, error in (
        ('"s": true, "killing": [1, 1]', "s must be an integer, got True"),
        ('"s": 2.0, "killing": [1, 1]', "s must be an integer, got 2.0"),
        ('"s": 3, "killing": [1, 1]', "s=3 does not match"),
        ('"s": 2, "killing": 1', "killing must be an array"),
        ('"s": 2, "killing": [1, 1], "triples": {}', "triples must be an array"),
        ('"s": 2, "killing": [1, 1], "triples": [[1, 2, 2]]', "triple entries must be"),
        ('"s": 2, "killing": [1, "x"]', "bad number in killing"),
    ):
        with pytest.raises(ModelError, match=error):
            parse_model(head + shape + "}")
    for rule, errors in (
        ('"triples": [[2, 1, 1, 0.5]]', ["triple (2,1,1) is not canonical for s=2"]),
        ('"triples": [[1, 1, 2, 0.5], [1, 1, 2, 0.5]]', ["duplicate triple (1,1,2)"]),
        ('"triples": [[1, true, 2, 0.5], [1.0, 2, 2, 0.5]]',
         ["triple indices must be integers: (1.0, 2, 2)",
          "triple indices must be integers: (1, True, 2)"]),
        ('"killing": [1]', ["killing has length 1, expected 2"]),
        ('"dims": [2, true]', ["dims must be positive integers: (2, True)"]),
        ('"dims": [2, 0.5]', ["dims must be positive integers: (2, 0.5)"]),
        ('"casimir": [0.25, -1.0], "killing": [1.0, -2.0]',
         ["negative casimir eigenvalue in (0.25, -1.0)",
          "negative killing coefficient in (1.0, -2.0)"]),
        ('"s": 0, "dims": [], "killing": []', ["need at least one summand"]),
    ):
        doc = {"killing": [1, 1], **json.loads(head + '"s": 2, ' + rule + "}")}
        report = validate(parse_model(doc))
        assert (report.ok, list(report.errors)) == (False, errors)


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
    assert enumerate_subalgebras(m).members == ((), (2,), (1, 2))


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


def test_ordered_triples_match_sorted_permutations():
    # raw models whose triples have every equality pattern and zero values,
    # exact and float
    rng = np.random.default_rng(29)
    patterns, zeros = set(), 0
    for _ in range(200):
        s = int(rng.integers(1, 7))
        triples = []
        for i, j, k in combinations_with_repetition(s):
            if rng.random() < 0.4:
                continue
            value = (0, 0.0, Fraction(int(rng.integers(1, 9)), 7), float(rng.uniform(0.1, 2)))
            triples.append((i, j, k, value[int(rng.integers(0, 4))]))
            patterns.add(len({i, j, k}))
            zeros += triples[-1][3] == 0
        m = SpaceModel("raw", (2,) * s, None, (1,) * s, tuple(triples))
        assert m.ordered_triples == oracle_ordered_triples(m)
    assert patterns == {1, 2, 3} and zeros > 0


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


def counted_growth(monkeypatch):
    """The list of classes X the walk grows (``_grow``), those whose rules
    lead outside J | X."""
    calls = []
    original = model_mod._grow

    def counted(rows, J, X, reach):
        calls.append(X)
        return original(rows, J, X, reach)

    monkeypatch.setattr(model_mod, "_grow", counted)
    return calls


def counted_leak_tests(monkeypatch):
    """The list of classes X whose leak test the walk runs
    (``_leak_test``), those whose J | X is not yet a member."""
    calls = []
    original = model_mod._leak_test

    def counted(rows, X):
        calls.append(X)
        return original(rows, X)

    monkeypatch.setattr(model_mod, "_leak_test", counted)
    return calls


def covering_pairs(lattice):
    """Every covering pair (upper, lower) of the lattice's member indices,
    in the members' order."""
    return [(upper, lower) for upper, below in enumerate(lattice.lower_covers) for lower in below]


def test_lattice_and_covers_match_oracles_up_to_s14(monkeypatch):
    # the corpus enters every branch of the walk: classes whose J | X is
    # already a member, classes whose J | X is new and closed, and classes
    # whose closure is grown
    grown = counted_growth(monkeypatch)
    tested = counted_leak_tests(monkeypatch)
    covers = 0
    rng = np.random.default_rng(31)
    shapes = set()
    for s in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        for m in (sparse_model(rng, s), sparse_model(rng, s), random_space_model(rng, s=s)):
            shapes.update(len({i, j, k}) for i, j, k, _ in m.triples)
            lat = enumerate_subalgebras(m)
            assert list(lat.members) == oracle_lattice(m)
            pairs = [(lat.members[u], lat.members[l]) for u, l in covering_pairs(lat)]
            assert [p for p in pairs if p[1]] == oracle_simple_chains(lat.members)
            nonempty = [frozenset(J) for J in lat.members if J]
            atoms = [J for J in nonempty if not any(M < J for M in nonempty)]
            assert sorted(K for K, Kp in pairs if not Kp) == sorted(
                tuple(sorted(J)) for J in atoms
            )
            covers += len(pairs)
    assert shapes == {1, 2, 3}  # (i,i,i), (i,i,k) and (i,j,k) triples all occurred
    assert grown
    # one test per class would be at least one per covering pair
    assert len(grown) < len(tested) < covers


def test_leak_test_runs_once_per_new_member(monkeypatch):
    # no class of SU(n)/T leaks, so each member but the empty set is found
    # once as a new J | X, and every other covering pair is a class whose
    # J | X is already a member: no test
    tested = counted_leak_tests(monkeypatch)
    for n, bell, covers in ((3, 5, 6), (4, 15, 31), (5, 52, 160), (6, 203, 856), (7, 877, 4802)):
        tested.clear()
        lattice = enumerate_subalgebras(full_flag(n))
        assert len(covering_pairs(lattice)) == covers
        assert len(tested) == len(lattice.members) - 1 == bell - 1


def kept_lattices(monkeypatch):
    """The list of lattices the walk returns (``enumerate_subalgebras``)."""
    lattices = []
    original = model_mod.enumerate_subalgebras

    def kept(model):
        lattices.append(original(model))
        return lattices[-1]

    monkeypatch.setattr(model_mod, "enumerate_subalgebras", kept)
    return lattices


def oracle_views(model, members):
    """(member dims, lower covers) of a lattice's members, from raw set
    algebra: each cover is a simple chain (oracle_simple_chains) or an atom
    over the empty set."""
    position = {J: pos for pos, J in enumerate(members)}
    nonempty = [frozenset(J) for J in members if J]
    covers = [[] for _ in members]
    for J in nonempty:
        if not any(M < J for M in nonempty):
            covers[position[tuple(sorted(J))]].append(0)
    for K, Kp in oracle_simple_chains(members):
        covers[position[K]].append(position[Kp])
    dims = tuple(sum(model.dims[i - 1] for i in J) for J in members)
    return dims, tuple(tuple(sorted(below)) for below in covers)


def test_lattice_views_match_oracles_whichever_is_read_first():
    rng = np.random.default_rng(31)
    models = [full_flag(n) for n in range(3, 8)]
    for s in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        models += [sparse_model(rng, s), sparse_model(rng, s), random_space_model(rng, s=s)]
    for m in models:
        dims, covers = oracle_views(m, enumerate_subalgebras(m).members)
        first, second = enumerate_subalgebras(m), enumerate_subalgebras(m)
        assert not {"member_dims", "lower_covers"} & set(vars(first))
        assert (first.member_dims, first.lower_covers) == (dims, covers)
        assert (second.lower_covers, second.member_dims) == (covers, dims)
        # the views are built from the walk's data, which == and hash leave out
        assert first == second and hash(first) == hash(second)


def test_subalgebras_command_builds_no_covers(monkeypatch, tmp_path, capsys):
    lattices = kept_lattices(monkeypatch)
    path = tmp_path / "su7.json"
    path.write_text(serialize_model(full_flag(7)))
    assert cli.main(["subalgebras", str(path), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["lattice"]["members"]) == 877
    (lattice,) = lattices
    # the walk keeps each member's lower covers as masks, and the command
    # builds no list of the pairs and no index view of them
    assert not hasattr(lattice, "covers")
    assert "lower_covers" not in vars(lattice)
    assert len(covering_pairs(lattice)) == 4802


def test_check_command_builds_no_member_dims(monkeypatch, tmp_path, capsys):
    lattices = kept_lattices(monkeypatch)
    path = tmp_path / "su6.json"
    path.write_text(serialize_model(full_flag(6)))
    T = ",".join(["1"] * 15)
    assert cli.main(["check", str(path), "--T", T, "--json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["conditions"]) == 841
    (lattice,) = lattices
    assert "lower_covers" in vars(lattice)
    assert "member_dims" not in vars(lattice)


def test_full_flag_classes_never_grow(monkeypatch):
    # on SU(n)/T each class of a partition's member is the set of pairs
    # between two blocks, and J | X, the merge of the two, is closed
    grown = counted_growth(monkeypatch)
    for n, bell, chains in ((3, 5, 3), (4, 15, 25), (5, 52, 150), (6, 203, 841)):
        m = full_flag(n)
        assert len(enumerate_subalgebras(m).members) == bell
        assert len(m.chains) == chains
    assert grown == []


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


def test_public_surface_reads_the_float_side_on_first_read():
    import homricci
    from homricci import curvature, iteration, solver

    # the star import is test_star_import_exports_every_name's
    for name in homricci.__all__:
        assert getattr(homricci, name) is not None, name
    assert set(homricci.__all__) <= set(dir(homricci))
    for error, module in [("CurvatureError", curvature), ("SolverError", solver),
                          ("IterationError", iteration)]:
        assert getattr(homricci, error) is getattr(module, error)
        assert getattr(homricci, error) is getattr(model_mod, error)
    assert homricci.kernel_backend == "numpy"
    with pytest.raises(AttributeError, match="^module 'homricci' has no attribute 'no_such_name'$"):
        homricci.no_such_name
    # a tracer wraps functions of all four modules once it has read
    # kernel_backend: that read alone must load them, and leaves dir as it was
    fresh, same_dir, loaded = fresh_python(
        "import json, sys, homricci\n"
        "names = dir(homricci)\n"
        "fresh = not {'numpy', 'homricci.solver'} & set(sys.modules)\n"
        "homricci.kernel_backend\n"
        "print(json.dumps([fresh, names == dir(homricci), sorted(sys.modules)]))"
    )
    assert fresh and same_dir
    assert {"homricci.solver", "homricci.iteration", "homricci.curvature",
            "homricci._kernels"} <= set(loaded)


def test_lattice_member_guard():
    # no brackets: every subset is closed, 2^25 members
    m = build_model("big", dims=(1,) * 25, casimir=(Fraction(1, 4),) * 25)
    with pytest.raises(ModelError, match="more than 25000 members"):
        enumerate_subalgebras(m)


def test_lattice_guard_failure_is_kept(monkeypatch):
    # SU(10)/T has Bell(10) = 115,975 members: the walk stops at the guard,
    # and no later read of the model's lattice walks again
    walks = []
    original = model_mod.enumerate_subalgebras

    def counted(model):
        walks.append(model.name)
        return original(model)

    monkeypatch.setattr(model_mod, "enumerate_subalgebras", counted)
    m = full_flag(10)
    for _ in range(2):
        with pytest.raises(ModelError, match="more than 25000 members"):
            m.lattice
    with pytest.raises(ModelError, match="more than 25000 members"):
        check_theorem(m, DiagonalForm.full((1,) * 45))
    assert len(walks) == 1


def test_full_flag_su8_lattice():
    lattice = enumerate_subalgebras(full_flag(8))
    assert (len(lattice.members), len(covering_pairs(lattice))) == (4140, 28337)
    assert list(lattice.members) == oracle_full_flag(8)[0]


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
    # a solved iteration step takes no chain check, so nothing walks
    assert walks == []
    for T in ((1, 1), (2, 1), (1, 3)):
        solve_prescribed_ricci(m, DiagonalForm.full(T))
    assert len(walks) == 1


def test_chains_and_core_built_once_per_model(monkeypatch):
    from homricci import _elimination
    from homricci import chains as chains_mod

    calls = {"chains": 0, "core": 0}
    originals = {"chains": chains_mod.enumerate_simple_chains, "core": _elimination.ricci_core}

    def counted(key):
        def wrapper(model):
            calls[key] += 1
            return originals[key](model)

        return wrapper

    monkeypatch.setattr(chains_mod, "enumerate_simple_chains", counted("chains"))
    monkeypatch.setattr(_elimination, "ricci_core", counted("core"))
    # a two-summand model whose first summand is a line: each of the ten
    # steps solves on the core, and none of them, all solved, takes the
    # chain check; solves that do take it enumerate the chains once
    line = catalog.entry("twosum", "1", "3", "0", "3/10", "4/5")
    trace = ricci_iterate(line, DiagonalForm.full((1.0, 1.3)), steps=10)
    assert (trace.status, len(trace.steps)) == ("completed", 10)
    assert calls == {"chains": 0, "core": 1}
    for T in ((1.0, 1.3), (2.0, 1.0)):
        solve_prescribed_ricci(line, DiagonalForm.full(T))
    assert calls == {"chains": 1, "core": 1}
    # a load expands the triples once: the completed model keeps the raw
    # model's tables
    raw = parse_model(serialize_model(line))
    completed = validate(raw).model
    assert completed.ordered_triples is raw.ordered_triples
    assert completed.integer_form is raw.integer_form
    # a model that violates the hypothesis raises on every read
    violated = build_model(
        "isolated", dims=(1, 2, 2), casimir=(0, Fraction(3, 10), Fraction(2, 5)),
        triples={(1, 3, 3): Fraction(1, 2)},
    )
    for _ in range(2):
        with pytest.raises(HypothesisViolatedError):
            violated.chains
    assert calls["chains"] == 3
    # an s >= 4 solve builds no core: Levenberg-Marquardt's metric is
    # certified on the curvature pass over the triple rows (its chain check
    # enumerates the chains once)
    su4 = full_flag(4)
    rep = solve_prescribed_ricci(su4, DiagonalForm.full((1.0,) * 5 + (1.01,)))
    assert rep.status == "solved" and rep.notes[-1].startswith("minimum-norm Newton")
    assert calls == {"chains": 4, "core": 1}


def test_integer_form_built_once_per_load(monkeypatch):
    exact_text = serialize_model(full_flag(4))
    float_text = serialize_model(random_space_model(np.random.default_rng(5), s=6))
    calls = []
    original = model_mod.integer_form
    monkeypatch.setattr(model_mod, "integer_form", lambda m: calls.append(m) or original(m))
    target = DiagonalForm.full((1.0,) * 5 + (1.01,))
    # exact data builds it at load, where validation reads its row sums,
    # and the completed model, the chain tables and the certificate share it
    raw = parse_model(exact_text)
    completed = validate(raw).model
    assert len(calls) == 1 and completed.integer_form is raw.integer_form
    # the chain tables are read off the shared form: no second build
    assert len(completed.scaled) == completed.s and len(calls) == 1
    check_theorem(completed, target)
    assert solve_prescribed_ricci(completed, target).status == "solved"
    assert len(calls) == 1
    # float data derives in floats, so it builds its own on first read, once
    raw = parse_model(float_text)
    completed = validate(raw).model
    assert len(calls) == 1
    solve_prescribed_ricci(completed, DiagonalForm.full((1.0,) * 6))
    check_theorem(completed, DiagonalForm.full((1.0,) * 6))
    assert calls[1:] == [completed]


def test_integer_form_matches_the_model():
    # every entry is its value times E, and a missing array's masses follow
    # from the compatibility law d b = 2 d zeta + R, whichever the data gives
    rng = np.random.default_rng(17)
    for n in range(40):
        model = random_space_model(rng, s=1 + n % 6, exact=n % 2 == 0)
        for given in ("casimir", "killing", "both"):
            raw = SpaceModel(
                model.name, model.dims,
                None if given == "killing" else model.casimir,
                None if given == "casimir" else model.killing,
                model.triples,
            )
            form = raw.integer_form
            E = Fraction(form.scale)
            rows = raw.ordered_triples
            assert form.triples == tuple(Fraction(v) * E for *_, v in rows)
            R = [sum(Fraction(v) * E for a, *_, v in rows if a == i) for i in range(1, model.s + 1)]
            assert list(form.row_sums) == R
            casimir = [d * Fraction(z) * E for d, z in zip(model.dims, model.casimir)]
            killing = [d * Fraction(b) * E for d, b in zip(model.dims, model.killing)]
            if given == "casimir":
                killing = [2 * c + r for c, r in zip(casimir, R)]
            elif given == "killing":
                casimir = [(k - r) / 2 for k, r in zip(killing, R)]
            assert (list(form.casimir_mass), list(form.killing_mass)) == (casimir, killing)
            L = math.lcm(*model.dims)
            assert (form.dims_lcm, form.cofactors) == (L, tuple(L // d for d in model.dims))


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
    assert f == DiagonalForm((1, 2, 3)) and [field.name for field in fields(f)] == ["values"]
    assert (f[1], f[2], f[3]) == (1, 2, 3)
    with pytest.raises(ModelError):
        DiagonalForm.full((1, 0))
    assert f.scale(2).values == (Fraction(2), Fraction(4), Fraction(6))
    for index in (0, 4, -1):
        error = f"index {index} outside the form's summands 1..3"
        with pytest.raises(ModelError, match=re.escape(error)):
            f[index]
    with pytest.raises(ModelError, match="empty diagonal form"):
        DiagonalForm(())
    for factor in (0, -2, Fraction(-1, 3)):
        with pytest.raises(ModelError, match="scale factor must be positive"):
            f.scale(factor)


def test_forms_and_index_sets_reject_non_integral_indices():
    # an index of an integer type is read as an int; a float or a bool is
    # rejected, never truncated
    x = DiagonalForm.full((1, 2, 3))
    for index in (True, 1.0, 2.7):
        with pytest.raises(ModelError, match=re.escape(f"index {index!r} outside the form's")):
            x[index]
    assert x[np.int64(3)] == 3
    m = flag3(4, 2, 4)
    for J in ((1.5, 2), (True, 2)):
        with pytest.raises(CurvatureError, match="index must be an integer"):
            scalar_S(m, x, J)
    assert scalar_S(m, x, (np.int64(1), 2)) == scalar_S(m, x, (1, 2))


def test_diagonal_form_rejects_non_finite_coefficients():
    # inf, -inf and nan are no coefficients, and a scale that overflows
    # makes none; an exact coefficient beyond the float range is one
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ModelError, match="finite"):
            DiagonalForm.full((bad, 1.0, 1.0))
        with pytest.raises(ModelError, match="finite"):
            DiagonalForm((1.0, bad))
    with pytest.raises(ModelError, match="finite"):
        DiagonalForm.full((1e300, 1.0)).scale(1e10)
    assert DiagonalForm.full((Fraction(10) ** 400, 1)).exact


def test_catalog_rejects_each_invalid_parameter():
    for build, args, error in (
        (catalog.flag3, (0, 1, 1), "dimensions must be positive"),
        (catalog.flag3, (1, 5, 5), "dims (1,5,5) give a negative bracket norm [112]=-5/33"),
        (catalog.two_summand, (2, 3, 1, 1, 0), "[122] must be positive"),
        (catalog.two_summand, (2, 3, 0, 1, 1), "summand 1 has zero casimir eigenvalue but dimension 2"),
        (catalog.two_summand, (2, 3, 1, 0, 1), "summand 2 has zero casimir eigenvalue but dimension 3"),
        (catalog.two_summand, (1, 3, 0, 1, 1, 1), "[111] must vanish on a 1-dimensional summand"),
        (catalog.two_summand, (3, 1, 1, 0, 1, 0, 1), "[222] must vanish on a 1-dimensional summand"),
        (catalog.entry, ("nope",), "unknown catalog kind 'nope'"),
    ):
        with pytest.raises(ModelError, match=re.escape(error)):
            build(*args)


def test_rational_reading_of_a_float_is_its_shortest_decimal():
    assert parse_number(0.1, rational=True) == Fraction(1, 10)
    assert parse_number(0.1) == 0.1 and type(parse_number(0.1)) is float
    with pytest.raises(NumberFormatError, match="not a finite number"):
        parse_number(math.inf, rational=True)
