"""Solver behavior: certification, divergence, scale laws, determinism."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from homricci import (
    DiagonalForm,
    SolverError,
    SolverOptions,
    _kernels,
    build_model,
    flag3,
    grad_S,
    maximize_S_on_MT,
    ricci,
    solve_prescribed_ricci,
    two_summand,
    two_summand_condition,
)
from homricci import solver as solver_mod
from helpers import random_positive_form, random_space_model, random_two_summand_case

G2 = flag3(4, 2, 4)
UNIT = DiagonalForm.full((1.0, 1.0, 1.0))
TOL = SolverOptions.residual_tol


def flag3_target(p, q):
    """Unit-led target whose chain margins are p = 12 z2/(z1+z3) and
    q = (10/3) z3/(2 z1+z2)."""
    z3 = (0.6 * q + 0.025 * p * q) / (1.0 - 0.025 * p * q)
    return DiagonalForm.full((1.0, p * (1.0 + z3) / 12.0, z3))


def test_flag_solve_certifies():
    rep = solve_prescribed_ricci(G2, UNIT)
    assert rep.status == "solved"
    assert rep.c > 0
    assert rep.residual < 1e-8
    assert rep.constraint_error < 1e-12
    assert rep.condition is not None and rep.condition.passed
    # the reported metric really solves the equation
    r = ricci(G2, rep.x)
    assert max(abs(r[i] - rep.c * 1.0) for i in range(3)) < 1e-8


def test_single_summand_trivial_point():
    m = build_model("pt", dims=(3,), killing=(1,))
    T = DiagonalForm.full((2.0,))
    rep = solve_prescribed_ricci(m, T)
    assert rep.status == "solved"
    assert rep.x.values == (6.0,)
    assert rep.c == pytest.approx(0.25)  # r = 1/2, z = 2
    assert rep.residual == 0.0


def test_single_summand_flat_torus():
    # Ric = 0 = 0 T: c = 0 does not certify, and the residual stays finite
    m = build_model("torus", dims=(3,), killing=(0,))
    rep = solve_prescribed_ricci(m, DiagonalForm.full((2.0,)))
    assert rep.status == "inconclusive"
    assert (rep.c, rep.residual, rep.iterations, rep.starts_used) == (0.0, 0.0, 0, 1)
    assert rep.x.values == (6.0,)
    assert "not positive" in rep.notes[-1]
    assert "Infinity" not in json.dumps(rep.to_dict()) and "NaN" not in json.dumps(rep.to_dict())


def test_scale_coherence():
    unit = maximize_S_on_MT(G2, UNIT)
    for lam in (1e-300, 1e-160, 1e-100, 1e-7, 2.0, 3.0, 1e100, 1e160, 1e300):
        T = UNIT.scale(lam)
        rep = maximize_S_on_MT(G2, T)
        assert rep.status == "solved"
        assert [v / lam for v in rep.x.values] == pytest.approx(unit.x.values, rel=1e-9)
        assert rep.c * lam == pytest.approx(unit.c, rel=1e-9)
        if 1e-100 <= lam <= 1e100:
            # the residual is the returned metric's own, bit for bit (beyond
            # 1e+-154 the kernel's products overflow at that metric)
            r = np.array(ricci(G2, rep.x))
            assert solver_mod._Evaluator(G2, np.array(T.values)).fit(r)[1] == rep.residual
        text = json.dumps(rep.to_dict())
        assert "NaN" not in text and "Infinity" not in text


def test_two_summand_sides():
    m = two_summand(2, 3, 0.25, 0.3, 0.8)
    thr = float(two_summand_condition(m, DiagonalForm.full((1.0, 1.0))).threshold)
    passing = solve_prescribed_ricci(m, DiagonalForm.full((1.3 * thr, 1.0)))
    assert passing.status == "solved"
    failing = solve_prescribed_ricci(m, DiagonalForm.full((0.7 * thr, 1.0)))
    assert failing.status == "diverged"
    # the escaping direction is the complement of the subalgebra side
    assert failing.collapsed == (2,)


def test_constraint_and_tangent_criticality():
    rep = solve_prescribed_ricci(G2, UNIT)
    x = rep.x
    assert abs(sum(G2.dims[i - 1] / float(x[i]) for i in (1, 2, 3)) - 1.0) <= 1e-12
    g = np.array([float(v) for v in grad_S(G2, x)])
    xv = np.array([float(v) for v in x.values])
    normal = np.array([G2.dims[i] * 1.0 / xv[i] ** 2 for i in range(3)])
    proj = g - (g @ normal) / (normal @ normal) * normal
    assert np.linalg.norm(proj) < 1e-8


def test_solved_metric_accurate_beyond_tolerance():
    # of the starts tied in S, the report returns the most accurate one
    for p, q in ((4.0, 2.0), (2.0, 2.0), (4.0, 1.4)):
        rep = solve_prescribed_ricci(G2, flag3_target(p, q))
        assert rep.status == "solved"
        assert rep.residual <= 1e-11


def test_residual_is_scale_invariant():
    # a metric 0.1% off the solution is no more certified for 1e6 T than for T
    rep = solve_prescribed_ricci(G2, UNIT)
    x = np.array([float(v) for v in rep.x.values]) * np.array([1.001, 1.0, 1.0])
    r = np.array(ricci(G2, DiagonalForm.full(tuple(x))))
    residuals = []
    for lam in (1e-6, 1.0, 1e6):
        c, res = solver_mod._Evaluator(G2, lam * np.ones(3)).fit(r)
        assert c == pytest.approx(rep.c / lam, rel=1e-2)
        residuals.append(res)
    assert residuals == pytest.approx([residuals[1]] * 3, rel=1e-12)
    assert residuals[1] > 1e-8


def test_uncertified_solve_returns_most_accurate_tied_start():
    # 14 of the 16 starts tie in S; their residuals run from 3e-17 to 4e-10
    m = two_summand(2, 3, "1/10", "3/10", "7/10")
    opts = SolverOptions(residual_tol=1e-20)
    rep = solve_prescribed_ricci(m, DiagonalForm.full((5.0, 1.0)), options=opts)
    assert rep.status == "inconclusive"
    assert rep.residual <= 1e-15
    # with S = -inf at every start no start ties, and the first is returned
    outcomes = [
        solver_mod._StartOutcome(-np.inf, np.ones(3) / 3, 1.0, res, "stalled", 0, False, (), 0)
        for res in (0.5, 0.1)
    ]
    assert solver_mod._most_accurate(outcomes) is outcomes[0]


def test_multistart_agreement_on_passing_model():
    rep = solve_prescribed_ricci(G2, UNIT)  # default 16 starts
    best = max(rep.start_values)
    close = sum(1 for v in rep.start_values if abs(v - best) <= 1e-6)
    assert close >= 0.9 * len(rep.start_values)


def test_iterates_monotone_in_S():
    # S after k ascent iterations never decreases in k
    z = np.array([1.0, 1.0, 1.0])
    ev = solver_mod._Evaluator(G2, z)
    v0 = (np.log(ev.dz) + 0.3)[None, :]
    (full,) = solver_mod._run_starts(ev, v0, TOL, solver_mod.MAX_ITERATIONS)
    assert full.status == "converged" and full.iterations > 3
    values = [
        solver_mod._run_starts(ev, v0, TOL, k)[0].S
        for k in range(1, full.iterations + 1)
    ]
    assert values[-1] == full.S
    assert np.all(np.diff(np.array(values)) >= 0)


def test_every_start_monotone_in_S():
    # Newton steps accepted on a smaller residual must not lower S either
    rng = np.random.default_rng(0)
    for T in (flag3_target(1.2, 1.4), DiagonalForm.full((1.0, 0.5, 2.0))):
        ev = solver_mod._Evaluator(G2, np.array(T.values))
        V0 = np.log(ev.dz) + rng.normal(0.0, 0.75, size=(8, 3))
        full = solver_mod._run_starts(ev, V0, TOL, solver_mod.MAX_ITERATIONS)
        assert all(o.status == "converged" for o in full)
        values = np.array([
            [o.S for o in solver_mod._run_starts(ev, V0, TOL, k)]
            for k in range(1, max(o.iterations for o in full) + 1)
        ])
        assert np.all(np.diff(values, axis=0) >= 0)
        assert list(values[-1]) == [o.S for o in full]


def test_lockstep_starts_match_starts_run_alone():
    # a start's outcome does not depend on the starts it runs beside
    rng = np.random.default_rng(3)
    s6 = random_space_model(rng, s=6)
    cases = [(G2, T) for T in (UNIT, flag3_target(4.0, 1.4), DiagonalForm.full((1.0, 1.0, 0.1)))]
    cases += [(s6, random_positive_form(rng, 6)) for _ in range(2)]
    statuses, zero_points = set(), 0
    for model, T in cases:
        ev = solver_mod._Evaluator(model, np.array([float(v) for v in T.values]))
        V0 = np.log(ev.dz) + rng.normal(0.0, 0.75, size=(16, model.s))
        together = solver_mod._run_starts(ev, V0, TOL, 100)
        evaluate, points = ev.value_and_ricci, []

        def recording(u, out_r, out_jac):
            S = evaluate(u, out_r, out_jac)
            points.append((u.min(), np.isfinite(S[0]) and np.isfinite(out_r).all()))
            return S

        ev.value_and_ricci = recording
        for v0, o in zip(V0, together):
            points.clear()
            (alone,) = solver_mod._run_starts(ev, v0[None, :], TOL, 100)
            assert (alone.S, alone.status, alone.iterations, alone.rejected) == (
                o.S, o.status, o.iterations, o.rejected
            )
            assert np.array_equal(alone.u, o.u)
            # a trial point with a zero u_i is evaluated, counted as
            # rejected and never accepted
            trials = points[1:]
            assert o.rejected == sum(not (u_min > 0 and finite) for u_min, finite in trials)
            zero_points += sum(u_min <= 0 for u_min, _ in trials)
            assert np.all(np.isfinite(o.u)) and np.all(o.u > 0)
            statuses.add(o.status)
    assert statuses == {"converged", "collapsed", "stalled", "budget"}
    assert zero_points > 0


def test_determinism_and_seed_sensitivity():
    a = solve_prescribed_ricci(G2, UNIT, options=SolverOptions(seed=5))
    b = solve_prescribed_ricci(G2, UNIT, options=SolverOptions(seed=5))
    assert a.to_dict() == b.to_dict()
    c = solve_prescribed_ricci(G2, UNIT, options=SolverOptions(seed=9))
    assert c.status == "solved"
    assert c.S_value == pytest.approx(a.S_value, abs=1e-9)


def test_randomized_two_summand_agreement_small():
    rng = np.random.default_rng(31)
    for n in range(12):
        model, T, _ = random_two_summand_case(rng, pass_side=(n % 2 == 0))
        rep = solve_prescribed_ricci(model, T)
        want = two_summand_condition(model, T).passed
        assert (rep.status == "solved") == want


def test_status_matches_exact_threshold_within_one_percent():
    # s = 2: "solved" exactly above the threshold and "diverged" below it,
    # at ratios within 1% of it on both sides
    rng = np.random.default_rng(37)
    for _ in range(12):
        model, _, threshold = random_two_summand_case(rng, pass_side=True)
        for factor in (0.99, 0.995, 1.005, 1.01):
            T = DiagonalForm.full((factor * threshold, 1.0))
            assert two_summand_condition(model, T).passed == (factor > 1)
            rep = solve_prescribed_ricci(model, T)
            assert rep.status == ("solved" if factor > 1 else "diverged"), (factor, model.dims)


def test_unit_solve_kernel_calls(monkeypatch):
    original = _kernels.value_and_ricci
    calls = []

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(_kernels, "value_and_ricci", counting)
    rep = solve_prescribed_ricci(G2, UNIT)
    assert rep.status == "solved"
    assert len(calls) <= 600


def test_solves_leak_no_numeric_warnings(monkeypatch):
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passing = solve_prescribed_ricci(G2, flag3_target(1.2, 1.4))
        failing = solve_prescribed_ricci(G2, DiagonalForm.full((1.0, 1.0, 0.1)))
    assert passing.status == "solved"
    assert failing.status != "solved"
    # the overflowing trial points were rejected, and counted in one note
    assert sum("non-finite curvature" in note for note in failing.notes) == 1


def test_solver_rejects_partial_target():
    with pytest.raises(SolverError):
        maximize_S_on_MT(G2, DiagonalForm((1.0,), (2,)))


def _raise(constant):
    raise ValueError(f"{constant} in strict JSON")


def test_target_range_is_the_normal_doubles():
    # a subnormal or unrepresentable coefficient is an input error ...
    for T in ((1e-310, 1e-310, 1e-310), (1.0, 5e-324, 1.0), (1.0, Fraction(10) ** 400, 1.0)):
        with pytest.raises(SolverError):
            maximize_S_on_MT(G2, DiagonalForm.full(T))
    # ... and at both ends of the normal range the report is strict JSON
    tiny = np.finfo(np.float64).tiny
    low = maximize_S_on_MT(G2, UNIT.scale(tiny))
    assert low.status == "solved" and low.c * tiny == pytest.approx(0.3844014068, rel=1e-9)
    high = maximize_S_on_MT(G2, UNIT.scale(1.7e308))
    # c fits a double there, but x = d z / u does not
    assert (high.status, high.x) == ("inconclusive", None)
    assert high.c * 1.7e308 == pytest.approx(0.3844014068, rel=1e-9)
    assert "beyond the float range" in high.notes[-1]
    for rep in (low, high):
        assert np.isfinite(rep.c) and np.isfinite(rep.S_value)
        json.loads(json.dumps(rep.to_dict()), parse_constant=_raise)
    # c = 10 / z and S = c overflow at the smallest normal z: None, not inf
    m = build_model("pt", dims=(3,), killing=(20,))
    rep = maximize_S_on_MT(m, DiagonalForm.full((tiny,)))
    assert (rep.status, rep.c, rep.S_value, rep.start_values) == ("inconclusive", None, None, (None,))
    json.loads(json.dumps(rep.to_dict()), parse_constant=_raise)


def test_exact_target_converted_to_float():
    rep = solve_prescribed_ricci(G2, DiagonalForm.full((1, 1, 1)))
    assert rep.status == "solved"
    assert rep.c == pytest.approx(0.3844014068, abs=1e-9)


def test_report_serializes():
    rep = solve_prescribed_ricci(G2, UNIT)
    doc = rep.to_dict()
    assert doc["status"] == "solved"
    assert len(doc["x"]) == 3
    assert doc["condition"]["passed"] is True
