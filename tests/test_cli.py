"""Command-line interface: outputs, schemas, exit codes."""

import json

import pytest

from homricci import cli, iteration


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_unknown_flag_exits_two(g2_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eta", str(g2_path), "--frobnicate"])
    assert exc.value.code == 2


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


def test_ricci_command(g2_path, capsys):
    code, out, _ = run(capsys, "ricci", str(g2_path), "--x", "1,1,1", "--json", "--rational")
    assert code == 0
    doc = json.loads(out)
    assert doc["ricci"] == ["17/48", "7/24", "7/16"]


def test_solve_command(g2_path, capsys):
    code, out, _ = run(capsys, "solve", str(g2_path), "--T", "1,1,1", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "solved"
    assert doc["c"] > 0
    assert doc["residual"] < 1e-8


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


def test_targets_beyond_the_float_range_exit_two(g2_path, capsys):
    # the d-weighted trace of T is 3e308: one error line, no traceback
    for command in ("check", "solve"):
        code, out, err = run(capsys, command, str(g2_path), "--T", "3e307,3e307,3e307", "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: target out of range") and err.count("\n") == 1
    # a subnormal coefficient passes the check but not the solver
    code, out, err = run(capsys, "solve", str(g2_path), "--T", "1e-310,1e-310,1e-310", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: target coefficients must be normal doubles")


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


def test_iterate_tol_reaches_the_solves(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "catalog", "twosum", "1", "4", "0", "1/3", "1/2")
    path = tmp_path / "line.json"
    path.write_text(out)
    seen = []
    original = iteration.solve_prescribed_ricci

    def recording(model, T, options=None):
        seen.append(options.residual_tol)
        return original(model, T, options=options)

    monkeypatch.setattr(iteration, "solve_prescribed_ricci", recording)
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
