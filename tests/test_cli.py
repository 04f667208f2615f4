"""Command-line interface: outputs, schemas, exit codes."""

import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from homricci import (
    ChainError,
    CurvatureError,
    DiagonalForm,
    IterationError,
    SolverError,
    build_model,
    check_corollary_lambda,
    check_theorem,
    cli,
    curvature,
    flag3,
    grad_S,
    hat_S,
    iteration,
    maximize_S_on_MT,
    ricci,
    ricci_iterate,
    scalar_S,
    serialize_model,
    solve_prescribed_ricci,
    solver,
    two_summand,
    two_summand_condition,
)
from homricci import model as model_mod
from helpers import fresh_python, random_space_model


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict(line):
    """json.loads that refuses NaN and the infinities."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(line, parse_constant=refuse)


@pytest.fixture()
def g2_path(tmp_path, capsys):
    path = tmp_path / "g2u2.json"
    code = cli.main(["catalog", "g2u2"])
    out = capsys.readouterr().out
    assert code == 0
    path.write_text(out)
    return path


def test_catalog_flag3_alias_and_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "flag3", "4", "2", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 2, 4]
    assert doc["casimir"] == ["5/24", "1/12", "3/8"]
    assert [t[:3] for t in doc["triples"]] == [[1, 1, 2], [1, 2, 3]]
    path = tmp_path / "m.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "validate", str(path))
    assert code2 == 0
    # canonical files survive a parse/serialize round trip byte-for-byte
    code3, out3, _ = run(capsys, "catalog", "g2u2")
    assert out == out3


def test_validate_reports_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "s": 1, "dims": [2], "killing": [1], '
                    '"triples": [], "pairwise_inequivalent": true}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "below 3" in out


def test_validate_reports_every_structural_error(tmp_path, capsys):
    # a duplicate triple, a triple out of canonical order and a short
    # killing array: one report lists them all, on stdout
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "s": 2, "dims": [2, 3], "killing": [1], '
                    '"triples": [[1, 2, 2, 0.5], [1, 2, 2, 0.5], [2, 1, 1, 0.5]], '
                    '"pairwise_inequivalent": true}')
    errors = [
        "killing has length 1, expected 2",
        "duplicate triple (1,2,2)",
        "triple (2,1,1) is not canonical for s=2",
    ]
    code, out, err = run(capsys, "validate", str(path), "--json")
    assert (code, err) == (2, "")
    assert strict(out) == {"ok": False, "errors": errors, "derived": None}
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (2, "")
    assert out.splitlines() == ["invalid model:", *(f"  - {e}" for e in errors)]
    # every other command takes them as one input error
    for argv in (("subalgebras",), ("check", "--T", "1,1"), ("solve", "--T", "1,1", "--json")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: " + "; ".join(errors) + "\n"


def test_validate_reports_reader_errors(tmp_path, capsys):
    # an error the reader finds before validation runs is one report too
    head = '{"name": "x", "dims": [3], "triples": [], "pairwise_inequivalent": true, '
    for body, error in (
        (head + '"s": 1, "killing": [1], "foo": 0}', "unknown fields: ['foo']"),
        ('{"name": "x", "dims": [3], "killing": [1], "pairwise_inequivalent": true}',
         "missing field: s"),
        (head + '"s": true, "killing": [1]}', "s must be an integer, got True"),
        (head + '"s": 1, "killing": ["1/x"]}', "bad number in killing: cannot parse number '1/x'"),
        ("{oops", "malformed JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
        (b"\xff{}", "model file is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                    "in position 0: invalid start byte"),
    ):
        path = tmp_path / "reader.json"
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        code, out, err = run(capsys, "validate", str(path), "--json")
        assert (code, err, out.count("\n")) == (2, "", 1), error
        assert strict(out) == {"ok": False, "errors": [error], "derived": None}
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (2, "")
        assert out.splitlines() == ["invalid model:", f"  - {error}"]


def test_validate_reports_a_path_it_cannot_read(tmp_path, capsys):
    # a missing path or a directory: validate writes its one report, and
    # every other command its one error line
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(OSError) as raised:
            open(path, encoding="utf-8").read()
        error = str(raised.value)
        code, out, err = run(capsys, "validate", str(path), "--json")
        assert (code, err, out.count("\n")) == (2, "", 1), path
        assert strict(out) == {"ok": False, "errors": [error], "derived": None}
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (2, f"invalid model:\n  - {error}\n", "")
        code, out, err = run(capsys, "check", str(path), "--T", "1,1", "--json")
        assert (code, out, err) == (2, "", f"error: {error}\n")


def test_non_utf8_model_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff" + serialize_model(build_model("x", dims=(2, 3), casimir=(1, 1))).encode())
    error = ("model file is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, f"invalid model:\n  - {error}\n", "")
    for argv in (
        ("subalgebras",), ("chains",), ("eta", "--json"), ("check", "--T", "1,1"),
        ("ricci", "--x", "1,1"), ("solve", "--T", "1,1"),
        ("iterate", "--start", "1,1", "--steps", "2"),
    ):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"error: {error}\n"), argv


def test_empty_coefficient_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "twosum.json"
    path.write_text(serialize_model(two_summand(2, 3, "1/4", "3/10", "4/5")))
    for option, command in (("--T", "check"), ("--T", "solve"), ("--x", "ricci"),
                            ("--start", "iterate")):
        for text in ("1,,1", "1,1,", ",1", ""):
            steps = ("--steps", "1") if command == "iterate" else ()
            code, out, err = run(capsys, command, str(path), option, text, *steps)
            assert (code, out, err) == (2, "", "error: cannot parse number ''\n"), (command, text)


@pytest.mark.parametrize(
    "data",
    [
        '"casimir": [NaN, 0.3], "triples": [[1, 2, 2, 0.7]]',
        '"killing": [Infinity, 1.0], "triples": [[1, 2, 2, 0.7]]',
        '"casimir": [0.1, 0.3], "triples": [[1, 2, 2, -Infinity]]',
    ],
)
def test_non_finite_model_data_is_input_error(tmp_path, capsys, data):
    path = tmp_path / "nan.json"
    path.write_text('{"name": "x", "s": 2, "dims": [2, 3], ' + data
                    + ', "pairwise_inequivalent": true}')
    for argv in (
        ("validate", str(path)),
        ("validate", str(path), "--rational"),
        ("check", str(path), "--T", "1,1"),
        ("solve", str(path), "--T", "1,1", "--json"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "finite" in out + err and "Traceback" not in err


def test_unknown_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "s": 1, "dims": [3], "killing": [1], '
                    '"triples": [], "pairwise_inequivalent": true, "foo": 0}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "unknown fields" in err or "unknown fields" in _


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "subalgebras", str(path))
    assert code == 2
    assert "error:" in err


def test_unknown_flag_exits_two(g2_path, capsys):
    model = str(g2_path)
    for argv, last in (
        (["eta", model, "--frobnicate"], "homricci: error: unrecognized arguments: --frobnicate"),
        ([], "homricci: error: the following arguments are required: command"),
        # the choices are listed as the Python version spells them
        (["sol", model], r"homricci: error: argument command: invalid choice: 'sol' \(.*\)"),
        (["solve", model], "homricci solve: error: the following arguments are required: --T"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert re.fullmatch(last, capsys.readouterr().err.splitlines()[-1]), argv


def test_subalgebras_output(g2_path, capsys):
    code, out, _ = run(capsys, "subalgebras", str(g2_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["members"] == [[], [2], [3], [1, 2, 3]]
    assert doc["hypothesis"]["status"] == "satisfied"


def test_eta_json_schema(g2_path, capsys):
    code, out, _ = run(capsys, "eta", str(g2_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chains"] == [
        {"k": [1, 2, 3], "kprime": [2], "eta": "1/48"},
        {"k": [1, 2, 3], "kprime": [3], "eta": "3/20"},
    ]


def test_chains_text_output(g2_path, capsys):
    code, out, _ = run(capsys, "chains", str(g2_path))
    assert code == 0
    assert "eta=1/48" in out and "eta=3/20" in out


def test_check_pass_and_fail_exit_codes(g2_path, capsys):
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,0.1")
    assert code == 1 and "FAIL" in out
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,1", "--corollary", "--json")
    assert code == 0
    assert json.loads(out)["criterion"] == "corollary"
    assert json.loads(out)["failing"] is None


def test_check_json_names_the_failing_condition_by_index(g2_path, capsys):
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,0.1", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["failing"] == 1
    assert [c["passed"] for c in doc["conditions"]] == [True, False]
    assert doc["conditions"][1]["kprime"] == [3]


def test_check_text_golden(g2_path, capsys):
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,1")
    assert code == 0
    assert out.splitlines() == [
        "flag3:4,2,4: theorem check PASS",
        "  k'=[2]: 1/8 vs threshold 1/48 margin +0.104167 ok",
        "  k'=[3]: 1/6 vs threshold 3/20 margin +0.0166667 ok",
    ]
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,0.1")
    assert code == 1
    assert out.splitlines() == [
        "flag3:4,2,4: theorem check FAIL",
        "  k'=[2]: 1/4.4 vs threshold 1/48 margin +0.206439 ok",
        "  k'=[3]: 0.1/6 vs threshold 3/20 margin -0.133333 FAIL",
        "  verdict: inconclusive (the condition is sufficient, not necessary)",
    ]


# The --json lines of `check`, captured before the report was written
# straight from its columns: g2u2 failing, under both criteria, the same
# check on g2u2 as a float model, and a two-summand check, whose verdict
# follows the report's keys.  The float model's figures are the correctly
# rounded floats of the exact figures of its data (see
# tests/test_chains.py::test_condition_figures_match_generic_arithmetic).
CHECK_JSON_GOLDEN = {
    ("g2u2", "1,1,0.1"): (
        '{"criterion": "theorem", "passed": false, "existence": "inconclusive", '
        '"caveat_requirement1": false, "conditions": ['
        '{"k": [1, 2, 3], "kprime": [2], "l": [1, 3], "omega": 2, "eta": "1/48", '
        '"lambda_min": 1.0, "trace": 4.4, "threshold": "1/48", '
        '"margin": 0.20643939393939395, "passed": true}, '
        '{"k": [1, 2, 3], "kprime": [3], "l": [1, 2], "omega": 4, "eta": "3/20", '
        '"lambda_min": 0.1, "trace": 6.0, "threshold": "3/20", '
        '"margin": -0.13333333333333333, "passed": false}], "failing": 1}'
    ),
    ("g2u2", "1,1,0.1", "--corollary"): (
        '{"criterion": "corollary", "passed": false, "existence": "inconclusive", '
        '"caveat_requirement1": false, "conditions": ['
        '{"k": [1, 2, 3], "kprime": [2], "l": [1, 3], "omega": 2, "eta": "1/48", '
        '"lambda_min": 1.0, "trace": 1.0, "threshold": "1/6", '
        '"margin": 0.8333333333333334, "passed": true}, '
        '{"k": [1, 2, 3], "kprime": [3], "l": [1, 2], "omega": 4, "eta": "3/20", '
        '"lambda_min": 0.1, "trace": 1.0, "threshold": "9/10", '
        '"margin": -0.8, "passed": false}], "failing": 1}'
    ),
    ("g2u2-float", "1,1,0.1"): (
        '{"criterion": "theorem", "passed": false, "existence": "inconclusive", '
        '"caveat_requirement1": false, "conditions": ['
        '{"k": [1, 2, 3], "kprime": [2], "l": [1, 3], "omega": 2, '
        '"eta": 0.020833333333333343, "lambda_min": 1.0, "trace": 4.4, '
        '"threshold": 0.020833333333333343, "margin": 0.20643939393939392, "passed": true}, '
        '{"k": [1, 2, 3], "kprime": [3], "l": [1, 2], "omega": 4, "eta": 0.15, '
        '"lambda_min": 0.1, "trace": 6.0, "threshold": 0.15, '
        '"margin": -0.13333333333333333, "passed": false}], "failing": 1}'
    ),
    ("twosum", "4/9,1"): (
        '{"criterion": "theorem", "passed": true, "existence": "solvable", '
        '"caveat_requirement1": false, "conditions": ['
        '{"k": [1, 2], "kprime": [1], "l": [2], "omega": 2, "eta": "5/34", '
        '"lambda_min": 0.4444444444444444, "trace": 3.0, "threshold": "5/34", '
        '"margin": 0.0010893246187363835, "passed": true}], "failing": null, '
        '"two_summand": {"eta": "5/34", "threshold": "15/34", "passed": true, '
        '"trivial": false, "subalgebra": 1, "ratio": 0.4444444444444444}}'
    ),
}


# g2u2 as a float model
G2U2_FLOAT = {"name": "g2u2-float", "s": 3, "dims": [4, 2, 4], "killing": [1.0, 1.0, 1.0],
              "triples": [[1, 1, 2, 2 / 3], [1, 2, 3, 0.5]], "pairwise_inequivalent": True}


def test_check_json_golden_lines(g2_path, tmp_path, capsys):
    # g2_path is tmp_path / "g2u2.json"; the other two models go beside it
    (tmp_path / "g2u2-float.json").write_text(json.dumps(G2U2_FLOAT))
    assert cli.main(["catalog", "twosum", "2", "3", "1/4", "3/10", "4/5"]) == 0
    (tmp_path / "twosum.json").write_text(capsys.readouterr().out)
    for (name, T, *flags), want in CHECK_JSON_GOLDEN.items():
        path = str(tmp_path / f"{name}.json")
        code, out, _ = run(capsys, "check", path, "--T", T, *flags, "--json")
        assert code == (0 if name == "twosum" else 1)
        assert out == want + "\n"
        assert json.dumps(json.loads(out)) == want


def test_subalgebras_text_line_count(tmp_path, capsys):
    path = tmp_path / "su5.json"
    assert cli.main(["catalog", "fullflag", "5"]) == 0
    path.write_text(capsys.readouterr().out)
    code, out, _ = run(capsys, "subalgebras", str(path))
    assert code == 0
    lines = out.splitlines()
    # a header, one line per member (Bell(5) = 52) and the hypothesis verdict
    assert len(lines) == 54
    assert lines[0] == "SU(5)/T: 52 bracket-closed index sets"
    assert lines[1] == "  {}  dim=0" and lines[-2] == "  {1,2,3,4,5,6,7,8,9,10}  dim=20"
    assert lines[-1] == "hypothesis: satisfied"


def test_parser_built_once_without_leaking_flags(g2_path, capsys):
    cli._parser.cache_clear()
    try:
        code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,1", "--corollary", "--json")
        assert code == 0 and json.loads(out)["criterion"] == "corollary"
        code, out, _ = run(capsys, "check", str(g2_path), "--T", "1,1,1")
        assert code == 0 and out.startswith("flag3:4,2,4: theorem check PASS\n")
        code, out, _ = run(capsys, "eta", str(g2_path))
        assert code == 0 and out.startswith("eta(k=[1, 2, 3], k'=[2]) = 1/48\n")
        info = cli._parser.cache_info()
    finally:
        cli._parser.cache_clear()
    assert (info.misses, info.hits) == (1, 2)


def test_check_rational_margins(g2_path, capsys):
    code, out, _ = run(capsys, "check", str(g2_path), "--T", "1/2,1/2,1/2", "--json", "--rational")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["conditions"][0]["eta"] == "1/48"


def test_ricci_command(g2_path, capsys, monkeypatch):
    # ricci and grad_S come from one exact pass
    calls = []
    original = curvature._evaluate
    monkeypatch.setattr(curvature, "_evaluate", lambda *a: calls.append(a) or original(*a))
    code, out, _ = run(capsys, "ricci", str(g2_path), "--x", "1,1,1", "--json", "--rational")
    assert code == 0 and len(calls) == 1
    doc = json.loads(out)
    assert doc["ricci"] == ["17/48", "7/24", "7/16"]


def test_ricci_at_the_float_limits(tmp_path, capsys):
    # the exact --x on a float model: each figure is the correctly rounded
    # float of its exact value, null beyond the float range, at any spread
    # or scale of x, with no numeric warning anywhere
    path = tmp_path / "g2u2-float.json"
    path.write_text(json.dumps(G2U2_FLOAT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, grad in (
            ("1,2,3", [-0.8333333333333334, -0.20833333333333331, -0.2777777777777778]),
            ("0.1,0.2,0.3", [-83.33333333333334, -20.833333333333332, -27.77777777777778]),
            ("1e-170,2e-170,3e-170", [None, None, None]),
            ("1e300,1e300,1e300", [-0.0, -0.0, -0.0]),
            ("1e400,1,1", [-0.25, None, None]),
            ("1,1,1e-310", [-1.6666666666666667, -0.8333333333333334, None]),
        ):
            for json_flag in ((), ("--json",)):
                code, out, err = run(capsys, "ricci", str(path), "--x", x, *json_flag)
                assert (code, err) == (0, ""), x
            doc = strict(out)
            assert doc["grad_S"] == grad
            if x == "1e400,1,1":
                assert doc["ricci"] == [None, None, None]
            elif x == "1,1,1e-310":
                assert doc["ricci"] == [0.4166666666666667, 0.4166666666666667, 0.375]
            elif x != "1e300,1e300,1e300":
                assert doc["ricci"] == [0.20833333333333334, 0.41666666666666663, 0.625]


def test_solve_command(g2_path, capsys):
    code, out, _ = run(capsys, "solve", str(g2_path), "--T", "1,1,1", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "solved"
    assert doc["c"] > 0
    assert doc["residual"] < 1e-8


def test_solve_json_line_is_the_encoders(g2_path, tmp_path, capsys, monkeypatch):
    """The solve line takes the chain report's own line at its key: it is
    byte for byte json.dumps of the report's dict, with and without one."""
    reports = []

    def solve(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    original = solver.solve_prescribed_ricci
    monkeypatch.setattr(solver, "solve_prescribed_ricci", solve)
    assert cli.main(["catalog", "twosum", "2", "3", "1/4", "3/10", "4/5"]) == 0
    (tmp_path / "twosum.json").write_text(capsys.readouterr().out)
    rng = np.random.default_rng(41)
    (tmp_path / "random.json").write_text(serialize_model(random_space_model(rng, s=6)))
    T6 = ",".join(repr(float(v)) for v in rng.uniform(0.7, 1.4, 6))
    # requirement 2 fails here, so the report has no condition
    (tmp_path / "isolated.json").write_text(serialize_model(build_model(
        "isolated", dims=(1, 2, 2), casimir=(0, Fraction(3, 10), Fraction(2, 5)),
        triples={(1, 3, 3): Fraction(1, 2)},
    )))
    cases = [("g2u2", "1,1,1"), ("g2u2", "1,1,0.1"), ("twosum", "4/9,1"), ("twosum", "1/4,1"),
             ("random", T6), ("isolated", "1,1,1")]
    for name, T in cases:
        _, out, _ = run(capsys, "solve", str(tmp_path / f"{name}.json"), "--T", T, "--json")
        assert out == json.dumps(reports[-1].to_dict()) + "\n"
        assert (reports[-1].condition is None) == (name == "isolated")
    assert len(reports) == len(cases)


# Runs one command in a fresh process, with its stdout captured, and prints
# its exit code and which of the float side's modules it left loaded.
_LOADED_AFTER = """
import contextlib, io, json, sys
from homricci import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
float_side = ("numpy", "homricci.solver", "homricci.iteration", "homricci._kernels")
print(json.dumps([code, [name for name in float_side if name in sys.modules]]))
"""


def test_only_solving_commands_load_numpy(tmp_path, capsys):
    """The exact commands load neither numpy nor the solver; solve loads
    both, and iterate the iteration too.  Each runs in its own process,
    since this one holds numpy."""
    models = {
        "g2u2": ("catalog", "g2u2"),
        "twosum": ("catalog", "twosum", "2", "3", "1/4", "3/10", "4/5"),
    }
    for name, argv in models.items():
        assert cli.main(list(argv)) == 0
        (tmp_path / f"{name}.json").write_text(capsys.readouterr().out)
    # both single-index sets closed: the check runs the exact elimination
    (tmp_path / "frozen.json").write_text(serialize_model(build_model(
        "frozen", dims=(2, 2), casimir=(Fraction(1, 2), Fraction(1, 3)),
    )))

    exact = [
        ("validate", "g2u2.json"),
        ("subalgebras", "g2u2.json"),
        ("chains", "g2u2.json"),
        ("eta", "g2u2.json"),
        ("check", "g2u2.json", "--T", "1,1,1"),
        ("check", "g2u2.json", "--T", "1,1,1", "--corollary"),
        ("check", "twosum.json", "--T", "4/9,1"),
        ("check", "twosum.json", "--T", "1/4,1", "--corollary"),
        ("check", "frozen.json", "--T", "1,5"),
        ("ricci", "g2u2.json", "--x", "1,1,1"),
        ("catalog", "g2u2"),
    ]
    for argv in exact:
        code, modules = fresh_python(_LOADED_AFTER, *argv, cwd=tmp_path)
        assert code in (0, 1) and modules == [], argv
    code, modules = fresh_python(_LOADED_AFTER, "solve", "g2u2.json", "--T", "1,1,1", cwd=tmp_path)
    assert code == 0
    assert modules == ["numpy", "homricci.solver", "homricci._kernels"]
    code, modules = fresh_python(
        _LOADED_AFTER, "iterate", "g2u2.json", "--start", "1,1,1", "--steps", "1", cwd=tmp_path
    )
    assert code == 0
    assert modules == ["numpy", "homricci.solver", "homricci.iteration", "homricci._kernels"]


def test_solve_failure_exit_code(tmp_path, capsys):
    code, out, _ = run(
        capsys, "catalog", "twosum", "2", "3", "1/4", "3/10", "4/5"
    )
    assert code == 0
    path = tmp_path / "ts.json"
    path.write_text(out)
    code, out, _ = run(capsys, "solve", str(path), "--T", "0.05,1", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "diverged"


def test_targets_beyond_the_float_range(g2_path, capsys):
    # the d-weighted trace of T is 3e308: the check's verdicts are exact and
    # its trace is null (inf in text); the solve certifies at T / 2**k, but
    # its metric has no double at T
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "check", str(g2_path), "--T", "3e307,3e307,3e307", *json_flag)
        assert (code, err) == (0, "")
    doc = strict(out)
    assert out == json.dumps(doc) + "\n"
    assert [c["trace"] for c in doc["conditions"]] == [None, None]
    code, out, err = run(capsys, "check", str(g2_path), "--T", "1e-300,1,1e300")
    assert (code, err) == (1, "") and "  k'=[2]: 1/4e+300 vs threshold 1/48" in out
    code, out, err = run(capsys, "solve", str(g2_path), "--T", "3e307,3e307,3e307", "--json")
    assert (code, err) == (1, "")
    doc = strict(out)
    assert doc["status"] == "inconclusive" and doc["notes"][-1].endswith("; rescale T")
    # z_1 / z_2 = 1e600: the two-summand ratio is null
    assert cli.main(["catalog", "twosum", "2", "3", "1/4", "3/10", "4/5"]) == 0
    path = g2_path.parent / "twosum.json"
    path.write_text(capsys.readouterr().out)
    code, out, err = run(capsys, "check", str(path), "--T", "1e300,1e-300", "--json")
    assert (code, err) == (0, "")
    assert strict(out)["two_summand"]["ratio"] is None
    # a subnormal coefficient passes the check but not the solver
    code, out, err = run(capsys, "solve", str(g2_path), "--T", "1e-310,1e-310,1e-310", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: target coefficients must be normal doubles")
    # a coefficient beyond the largest double: the same one-line error from
    # solve and from iterate, whose start is its first solve's target
    errors = []
    for argv in (("solve", "--T", "1e400,1,1"), ("iterate", "--start", "1e400,1,1", "--steps", "3")):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, argv[0], str(g2_path), *argv[1:], *json_flag)
            assert (code, out) == (2, "") and err.count("\n") == 1
            errors.append(err)
    assert set(errors) == {errors[0]} and errors[0].startswith("error: target coefficients must be normal doubles")


def test_model_data_beyond_the_float_range(tmp_path, capsys):
    # zeta_1 = 10**400: eta and the threshold are exact and huge, the margin
    # reads as -inf, and no solution exists; no figure overflows, and in
    # JSON the margin is null
    big = str(10**400)
    assert cli.main(["catalog", "twosum", "2", "3", big, "3/10", "4/5"]) == 0
    path = tmp_path / "huge.json"
    path.write_text(capsys.readouterr().out)
    code, out, err = run(capsys, "check", str(path), "--T", "1,1")
    assert (code, err) == (1, "")
    assert out.splitlines()[1].endswith("margin -inf FAIL")
    for flags in ((), ("--corollary",)):
        code, out, err = run(capsys, "check", str(path), "--T", "1,1", *flags, "--json")
        assert (code, err) == (1, "")
        doc = strict(out)
        assert doc["conditions"][0]["margin"] is None
        assert doc["two_summand"]["eta"].startswith(big[:50])
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "solve", str(path), "--T", "1,1", *flags)
        assert (code, err) == (1, "")
        assert "diverged" in out
    assert strict(out)["condition"]["conditions"][0]["margin"] is None


def test_float_model_figures_beyond_the_float_range(tmp_path, capsys):
    # a float model whose exact eta is about 1e600: its eta, threshold and
    # margin are null in JSON and inf in text
    path = tmp_path / "far.json"
    path.write_text(
        '{"name": "far", "s": 2, "dims": [2, 3], "casimir": [1e300, 1e-300], '
        '"triples": [[1, 2, 2, 1e-300]], "pairwise_inequivalent": true}'
    )
    lines = {}
    for argv in (["chains"], ["eta"], ["check", "--T", "1,1"], ["solve", "--T", "1,1"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], "--json")
        assert (code, err) == (0 if argv[0] in ("chains", "eta") else 1, "")
        lines[argv[0]] = strict(out)
    assert lines["chains"]["chains"][0]["eta"] is None
    assert lines["eta"]["chains"][0]["eta"] is None
    assert lines["check"]["two_summand"]["threshold"] is None
    for cond in (lines["check"]["conditions"][0], lines["solve"]["condition"]["conditions"][0]):
        assert (cond["eta"], cond["threshold"], cond["margin"]) == (None, None, None)
        assert cond["lambda_min"] == 1.0
    code, out, err = run(capsys, "check", str(path), "--T", "1,1")
    assert (code, err) == (1, "")
    assert out.splitlines()[1] == "  k'=[1]: 1/3 vs threshold inf margin -inf FAIL"
    code, out, _ = run(capsys, "chains", str(path))
    assert out.endswith("eta=inf\n")


def test_derived_data_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    # zeta_1 = 1e308 derives b_1 = 2 zeta_1 + r_1 / d_1, beyond the float range
    path = tmp_path / "over.json"
    path.write_text(
        '{"name": "f", "s": 2, "dims": [2, 3], "casimir": [1e308, 0.3], '
        '"triples": [[1, 2, 2, 0.8]], "pairwise_inequivalent": true}'
    )
    message = "derived killing values are beyond the float range"
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 2
    assert strict(out)["errors"] == [f"{message}: (inf, 1.1333333333333333)"]
    for argv in (["check", "--T", "1,1"], ["solve", "--T", "1,1"], ["chains"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_iterate_json_lines(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "twosum", "1", "4", "0", "1/3", "1/2")
    assert code == 0
    path = tmp_path / "line.json"
    path.write_text(out)
    code, out, _ = run(capsys, "iterate", str(path), "--start", "1,1", "--steps", "3", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [ln["step"] for ln in lines] == [1, 2, 3]
    assert all(ln["residual"] < 1e-7 for ln in lines)
    # the text lists the steps, the status and the step differences
    code, out, _ = run(capsys, "iterate", str(path), "--start", "1,1", "--steps", "3")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["step 1", "step 2", "step 3"]
    assert lines[3:-1] == ["status: completed; completed 3/3 steps"]
    assert re.fullmatch(r"normalized step differences: \S+e[+-]\d+, \S+e[+-]\d+", lines[-1])


def test_iterate_reports_the_failing_step(g2_path, capsys):
    # the README example: step 2's target has no solution
    argv = ["iterate", str(g2_path), "--start", "1,1,1", "--steps", "5"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [ln["step"] for ln in lines[:-1]] == [1]
    last = lines[-1]
    assert last["status"] == "truncated" and "step" not in last
    assert (last["failure"]["step"], last["failure"]["status"]) == (2, "diverged")
    assert last["failure"]["notes"][-1].startswith("no solution exists")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "step 2 failed: solve status = diverged" in out
    assert "note: no solution exists" in out


def test_iterate_tol_reaches_the_solves(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "catalog", "twosum", "1", "4", "0", "1/3", "1/2")
    path = tmp_path / "line.json"
    path.write_text(out)
    seen = []
    original = iteration.maximize_S_on_MT

    def recording(model, T, options=None):
        seen.append(options.residual_tol)
        return original(model, T, options)

    monkeypatch.setattr(iteration, "maximize_S_on_MT", recording)
    argv = ["iterate", str(path), "--start", "1,1", "--steps", "2", "--json"]
    assert run(capsys, *argv, "--tol", "1e-6")[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert seen == [1e-6, 1e-6, 1e-8, 1e-8]


def test_tol_on_solve_and_iterate_leaves_validation_alone(tmp_path, capsys):
    doc = {"name": "twosum-float", "s": 2, "dims": [2, 3], "casimir": [0.1, 0.3],
           "killing": [0.55, 1.0666666666666667], "triples": [[1, 2, 2, 0.7]],
           "pairwise_inequivalent": True}
    rounded = tmp_path / "rounded.json"  # Casimir identity holds to 4.4e-16
    rounded.write_text(json.dumps(doc))
    doc["killing"][0] = 0.5501  # Casimir identity off by 2e-4
    off = tmp_path / "off.json"
    off.write_text(json.dumps(doc))
    for argv in (("solve", "--T", "5,1"), ("iterate", "--start", "5,1", "--steps", "1")):
        # tighter than rounding: the model loads, the solve does not certify
        code, _, err = run(capsys, argv[0], str(rounded), *argv[1:], "--tol", "1e-20")
        assert code == 1 and err == ""
        # looser than the model's error: validation still rejects it
        code, _, err = run(capsys, argv[0], str(off), *argv[1:], "--tol", "1e-3")
        assert code == 2 and "casimir identity fails" in err
    # elsewhere --tol is still the validation tolerance, and a model it
    # accepts gets eta in the Casimir form, 0.8 / (2 * (3.6 + 2.8))
    assert run(capsys, "subalgebras", str(off), "--tol", "1e-3")[0] == 0
    assert run(capsys, "chains", str(off), "--tol", "1e-3")[0] == 0
    code, out, _ = run(capsys, "eta", str(off), "--tol", "1e-3", "--json")
    assert code == 0
    assert float(json.loads(out)["chains"][0]["eta"]) == pytest.approx(0.0625, rel=1e-12)
    code, out, _ = run(capsys, "check", str(off), "--T", "5,1", "--tol", "1e-3", "--json")
    assert code in (0, 1)
    assert float(json.loads(out)["conditions"][0]["eta"]) == pytest.approx(0.0625, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        # the model's Casimir identity fails by 8.2: no tolerance may accept it
        ("validate", "--tol", "nan"),
        ("validate", "--tol", "inf"),
        ("subalgebras", "--tol", "nan"),
        ("chains", "--tol", "inf"),
        ("eta", "--tol", "nan"),
        ("check", "--T", "5,1", "--tol", "nan"),
        ("ricci", "--x", "1,1", "--tol", "inf"),
        ("validate", "--tol", "0"),
        ("validate", "--tol", "abc"),
        ("solve", "--T", "5,1", "--tol", "-1"),
        ("solve", "--T", "5,1", "--tol", "nan"),
        ("solve", "--T", "5,1", "--tol", "0"),
        ("solve", "--T", "5,1", "--seed", "-1"),
        ("solve", "--T", "5,1", "--seed", "1.5"),
        ("iterate", "--start", "5,1", "--steps", "1", "--seed", "-1"),
    ],
    ids=" ".join,
)
def test_bad_tol_and_seed_values_exit_two(tmp_path, capsys, argv):
    doc = {"name": "twosum-float", "s": 2, "dims": [2, 3], "casimir": [0.1, 0.3],
           "killing": [4.65, 1.0666666666666667], "triples": [[1, 2, 2, 0.7]],
           "pairwise_inequivalent": True}
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {argv[-2]}: must be a" in err and "Traceback" not in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "flag3" in out and "E7/E6" in out


def test_catalog_fullflag_and_usage_errors(capsys):
    code, out, _ = run(capsys, "catalog", "fullflag", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "SU(4)/T" and doc["dims"] == [2] * 6
    assert doc["casimir"] == ["1/4"] * 6
    assert len(doc["triples"]) == 4
    assert "fullflag n" in run(capsys, "catalog", "list")[1]
    for argv in (
        ("flag3", "4", "2"), ("fullflag", "two"), ("fullflag", "2"), ("twosum", "2", "3"),
        ("g2u2", "4"),
    ):
        code, _, err = run(capsys, "catalog", *argv)
        assert code == 2 and "error:" in err


def test_validate_prints_derived_values(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text('{"name": "x", "s": 1, "dims": [3], "killing": [1], '
                    '"triples": [], "pairwise_inequivalent": true}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "derived casimir: 1/2" in out
    code, out, _ = run(capsys, "validate", str(path), "--json")
    doc = json.loads(out)
    assert doc["model"]["casimir"] == ["1/2"]


def test_solve_exits_with_its_own_status_where_the_lattice_is_beyond_its_guard(
    g2_path, capsys, monkeypatch
):
    # the chain check is advisory: a lattice beyond its guard (here of 2
    # members) is a note, and the solve's status decides the exit code
    monkeypatch.setattr(model_mod, "MAX_MEMBERS", 2)
    code, out, err = run(capsys, "solve", str(g2_path), "--T", "1,1,1", "--json")
    assert (code, err) == (0, "")
    doc = strict(out)
    assert (doc["status"], doc["condition"]) == ("solved", None)
    assert doc["notes"][0] == (
        "chain condition not checked: the subalgebra lattice has more than 2 members"
    )
    code, out, _ = run(capsys, "solve", str(g2_path), "--T", "1,1,1")
    assert code == 0 and "  note: chain condition not checked: " in out


def test_text_lines_for_no_chains_and_an_uncertified_inequivalence(tmp_path, capsys):
    # one summand: the isotropy algebra is maximal, so there is no chain
    one = tmp_path / "one.json"
    one.write_text('{"name": "one", "s": 1, "dims": [3], "casimir": ["1/100"], '
                   '"triples": [[1, 1, 1, 5]], "pairwise_inequivalent": false}')
    code, out, _ = run(capsys, "eta", str(one))
    assert (code, out) == (0, "no simple chains (isotropy algebra is maximal)\n")
    code, out, _ = run(capsys, "check", str(one), "--T", "1")
    assert code == 0
    assert out.splitlines() == [
        "one: theorem check PASS",
        "  no simple chains: passes unconditionally",
        "  caveat: inequivalence requirement not certified by the data",
    ]


def test_every_reader_refuses_a_form_of_the_wrong_length(g2_path, capsys):
    # a form has one coefficient per summand: one short and one long are
    # refused by each reader with its own error class, and by the CLI as an
    # input error naming both counts
    g2, pair = flag3(4, 2, 4), two_summand(2, 3, Fraction(1, 4), Fraction(3, 10), Fraction(4, 5))
    readers = [
        (g2, maximize_S_on_MT, SolverError, "target form"),
        (g2, solve_prescribed_ricci, SolverError, "target form"),
        (g2, check_theorem, ChainError, "target form"),
        (g2, check_corollary_lambda, ChainError, "target form"),
        (pair, two_summand_condition, ChainError, "target form"),
        (g2, ricci, CurvatureError, "metric"),
        (g2, grad_S, CurvatureError, "metric"),
        (g2, scalar_S, CurvatureError, "metric"),
        (g2, lambda m, x: scalar_S(m, x, (1,)), CurvatureError, "metric"),
        (g2, hat_S, CurvatureError, "metric"),
        (g2, lambda m, x: hat_S(m, x, (2,)), CurvatureError, "metric"),
        (g2, lambda m, x: ricci_iterate(m, x, 2), IterationError, "starting form"),
    ]
    for model, reader, error, what in readers:
        for n in (model.s - 1, model.s + 1):
            counted = f"{n} coefficient{'s' * (n != 1)}; the model has {model.s} summands"
            with pytest.raises(error, match=re.escape(f"{what} has {counted}")):
                reader(model, DiagonalForm.full((1,) * n))
    for command, option, what in (
        ("check", "--T", "target form"),
        ("solve", "--T", "target form"),
        ("ricci", "--x", "metric"),
        ("iterate", "--start", "starting form"),
    ):
        for n in (2, 4):
            steps = ["--steps", "2"] * (command == "iterate")
            argv = [command, str(g2_path), option, ",".join(["1"] * n), *steps]
            for extra in ([], ["--json"]):
                code, out, err = run(capsys, *argv, *extra)
                assert (code, out) == (2, "")
                assert err == f"error: {what} has {n} coefficients; the model has 3 summands\n"
