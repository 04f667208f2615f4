"""Solver behavior: certification, divergence, scale laws, determinism."""

import json
import math
import random
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from homricci import (
    DiagonalForm,
    SolverError,
    SolverOptions,
    _kernels,
    build_model,
    flag3,
    full_flag,
    grad_S,
    maximize_S_on_MT,
    ricci,
    solve_prescribed_ricci,
    two_summand,
    two_summand_condition,
)
from homricci import _elimination, curvature
from homricci import _polynomials as poly
from homricci import solver as solver_mod
from homricci._elimination import by_power, c_sign, equations, read_root, three_summand_points
from homricci._polynomials import (
    isolate,
    mul,
    point,
    positive_roots,
    refine,
    sign_near,
    squarefree,
    sub,
    subresultants,
    trim,
    value_at,
)
from homricci.numbers import figure, format_number, json_figure, ratio
from helpers import (
    bisected_root,
    draw_corpus,
    has_root_in,
    oracle_figures,
    oracle_ricci,
    random_positive_form,
    random_space_model,
    random_two_summand_case,
    subresultant,
    sweep_cases,
)

G2 = flag3(4, 2, 4)
UNIT = DiagonalForm.full((1.0, 1.0, 1.0))
TOL = SolverOptions.residual_tol

# s = 3 models whose elimination takes a special turn: summand 3 brackets
# with nothing (E_1 and E_2 free of u); E_1 of degree 1 in u (a draw of the
# s = 3 sweep); a target whose only solution is a saddle point of S; a
# target whose resultant has the dyadic root t = 2
DECOUPLED = build_model(
    "decoupled", dims=(2, 3, 2), casimir=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)),
    triples={(1, 1, 2): Fraction(1, 2), (1, 2, 2): Fraction(1, 3)},
)
LINEAR = build_model(
    "linear", dims=(1, 5, 4), casimir=(Fraction(3, 13), Fraction(8, 17), Fraction(2, 3)),
    triples={(1, 2, 2): Fraction(9, 10), (2, 2, 2): Fraction(1, 2), (2, 2, 3): Fraction(5, 3)},
)
SADDLE = build_model(
    "saddle", dims=(5, 3, 1), casimir=(Fraction(11, 24), Fraction(1, 21), Fraction(1, 6)),
    triples={(1, 1, 1): Fraction(5, 3), (1, 2, 2): Fraction(7, 10), (1, 2, 3): Fraction(4, 3),
             (2, 2, 2): Fraction(3, 8), (2, 2, 3): Fraction(7, 2)},
)
SADDLE_T = DiagonalForm.full((0.06292302025130755, 9.776903803386878, 0.47748253852506883))
DYADIC = build_model(
    "dyadic", dims=(4, 3, 1), casimir=(Fraction(11, 20), Fraction(2, 7), Fraction(5, 13)),
    triples={(1, 2, 2): Fraction(5, 8), (1, 2, 3): Fraction(11)},
)
DYADIC_T = DiagonalForm.full(ricci(DYADIC, DiagonalForm.full((1, 2, 3))))
# one summand, where the float kernel reads c = 32/75 one ulp low
ONE = build_model("one", dims=(3,), casimir=(Fraction(1, 100),), triples={(1, 1, 1): 5})


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
    assert rep.notes[-1] == "no root certified; best residual 0.000e+00, c = 0.000e+00 not positive"
    assert "Infinity" not in json.dumps(rep.to_dict()) and "NaN" not in json.dumps(rep.to_dict())


def test_scale_coherence():
    unit = maximize_S_on_MT(G2, UNIT)
    for lam in (1e-300, 1e-160, 1e-100, 1e-7, 2.0, 3.0, 1e100, 1e160, 1e300):
        T = UNIT.scale(lam)
        rep = maximize_S_on_MT(G2, T)
        assert rep.status == "solved"
        assert [v / lam for v in rep.x.values] == pytest.approx(unit.x.values, rel=1e-9)
        assert rep.c * lam == pytest.approx(unit.c, rel=1e-9)
        # the residual is the returned metric's own, exact and rounded once
        assert rep.residual == float(oracle_figures(G2, rep.x, T)[1])
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


def test_uncertified_solve_returns_most_accurate_tied_start(monkeypatch):
    # all 16 starts tie in S; their residuals run from 1e-16 to 1.5e-10, and
    # the start with the highest S has the largest
    opts = SolverOptions(residual_tol=1e-20)
    rep = newton_solve(monkeypatch, G2, flag3_target(2.0, 2.0), opts)
    assert rep.status == "inconclusive"
    assert rep.residual <= 1e-15
    # for s = 2 and s = 3 an admissible root that fails certification is
    # inconclusive
    m = two_summand(2, 3, "1/10", "3/10", "7/10")
    for model, T in ((m, DiagonalForm.full((5.0, 1.0))), (G2, flag3_target(2.0, 2.0))):
        rep = solve_prescribed_ricci(model, T, options=opts)
        assert (rep.status, rep.starts_used) == ("inconclusive", 1)
        assert rep.residual <= 1e-15 and rep.x is not None
        assert "no root certified" in rep.notes[-1]
    # with S = -inf at every start no start ties, and the first is returned
    outcomes = [
        solver_mod._StartOutcome(-np.inf, np.ones(3) / 3, 1.0, res, "stalled", 0, False, (), 0)
        for res in (0.5, 0.1)
    ]
    assert solver_mod._most_accurate(outcomes) is outcomes[0]


def test_multistart_agreement_on_passing_model(monkeypatch):
    # the ascent's 16 starts agree on the maximizer, where they stall: the
    # ascent certifies nothing, so alone it is "inconclusive" there
    rep = ascent_solve(monkeypatch, G2, UNIT)
    assert len(rep.start_values) == solver_mod.MULTISTARTS
    best = max(rep.start_values)
    close = sum(1 for v in rep.start_values if abs(v - best) <= 1e-6)
    assert close >= 0.9 * len(rep.start_values)
    assert rep.status == "inconclusive" and rep.notes[-1].startswith("no start certified")
    # Levenberg-Marquardt certifies the base start, at the ascent's metric
    lm = newton_solve(monkeypatch, G2, UNIT)
    assert (lm.status, lm.starts_used, len(lm.start_values)) == ("solved", 1, 1)
    assert lm.notes[-1].startswith("minimum-norm Newton on Ric g = c T; ")
    assert lm.x.values == pytest.approx(rep.x.values, rel=1e-12)


def stop_reason(outcome, budget=solver_mod.MAX_ITERATIONS):
    """How an ascent start stopped: "collapsed", "budget" or "stalled"."""
    if outcome.collapsed:
        return "collapsed"
    return "budget" if outcome.iterations == budget else "stalled"


def _run_starts_for(monkeypatch, ev, V0, iterations):
    """The ascent's outcomes from the rows of V0, each start stopped after
    at most ``iterations`` steps."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "MAX_ITERATIONS", iterations)
        return solver_mod._run_starts(ev, V0)


def test_iterates_monotone_in_S(monkeypatch):
    # S after k ascent iterations never decreases in k, up to the maximizer,
    # where the start stalls
    z = np.array([1.0, 1.0, 1.0])
    ev = solver_mod._Evaluator(G2, z)
    v0 = (np.log(ev.dz) + 0.3)[None, :]
    (full,) = solver_mod._run_starts(ev, v0)
    assert stop_reason(full) == "stalled" and full.iterations > 3
    values = [
        _run_starts_for(monkeypatch, ev, v0, k)[0].S
        for k in range(1, full.iterations + 1)
    ]
    assert values[-1] == full.S
    assert np.all(np.diff(np.array(values)) >= 0)


def test_every_start_monotone_in_S(monkeypatch):
    # Newton steps accepted on a smaller residual must not lower S either
    rng = np.random.default_rng(0)
    for T in (flag3_target(1.2, 1.4), DiagonalForm.full((1.0, 0.5, 2.0))):
        ev = solver_mod._Evaluator(G2, np.array(T.values))
        V0 = np.log(ev.dz) + rng.normal(0.0, 0.75, size=(8, 3))
        full = solver_mod._run_starts(ev, V0)
        assert all(stop_reason(o) == "stalled" for o in full)
        values = np.array([
            [o.S for o in _run_starts_for(monkeypatch, ev, V0, k)]
            for k in range(1, max(o.iterations for o in full) + 1)
        ])
        assert np.all(np.diff(values, axis=0) >= 0)
        assert list(values[-1]) == [o.S for o in full]


def test_lockstep_starts_match_starts_run_alone(monkeypatch):
    # a start's outcome does not depend on the starts it runs beside, also
    # in rounds where some rows take a Newton trial and others a gradient
    # one, as on the escaping failing-corpus s = 4 targets (entries 1 and 4)
    rng = np.random.default_rng(3)
    s6 = random_space_model(rng, s=6)
    cases = [(G2, T) for T in (UNIT, flag3_target(4.0, 1.4), DiagonalForm.full((1.0, 1.0, 0.1)))]
    cases += [(s6, random_positive_form(rng, 6)) for _ in range(2)]
    failing = draw_corpus(11, 3, 6, 0.05, 5, keep_passing=False, size=5)
    cases += [failing[1], failing[4]]
    assert [model.s for model, _ in cases[-2:]] == [4, 4]
    softmax, last = solver_mod._softmax, [None]

    def recording_softmax(v):
        last[0] = softmax(v)
        return last[0]

    monkeypatch.setattr(solver_mod, "_softmax", recording_softmax)
    statuses, zero_points, mixed = set(), 0, []
    for model, T in cases:
        ev = solver_mod._Evaluator(model, np.array([float(v) for v in T.values]))
        V0 = np.log(ev.dz) + rng.normal(0.0, 0.75, size=(16, model.s))
        evaluate, points = ev.at, []

        def batch(x, out_r, out_jac):
            # the rows whose trial point is the softmax one took a gradient
            # trial, the others a Newton one
            gradient = np.count_nonzero((x == ev.dz / last[0]).all(axis=1))
            mixed.append(0 < gradient < len(x))
            return evaluate(x, out_r, out_jac)

        ev.at = batch
        together = _run_starts_for(monkeypatch, ev, V0, 100)

        def recording(x, out_r, out_jac):
            S = evaluate(x, out_r, out_jac)
            u = ev.dz / x  # x = dz / u: u_i = 0 is x_i = inf
            points.append((u.min(), np.isfinite(S[0]) and np.isfinite(out_r).all()))
            return S

        ev.at = recording
        for v0, o in zip(V0, together):
            points.clear()
            (alone,) = _run_starts_for(monkeypatch, ev, v0[None, :], 100)
            assert (alone.S, alone.collapsed, alone.iterations, alone.rejected) == (
                o.S, o.collapsed, o.iterations, o.rejected
            )
            assert np.array_equal(alone.x, o.x)
            # a trial point with a zero u_i is evaluated, counted as
            # rejected and never accepted
            trials = points[1:]
            assert o.rejected == sum(not (u_min > 0 and finite) for u_min, finite in trials)
            zero_points += sum(u_min <= 0 for u_min, _ in trials)
            assert np.all(np.isfinite(o.x)) and np.all(np.array(o.x) > 0)
            statuses.add(stop_reason(o, 100))
    assert statuses == {"collapsed", "stalled", "budget"}
    assert zero_points > 0 and any(mixed)


def test_ascent_decides_the_escaping_failing_targets():
    # the ascent's own job, evidence of escape: the eight s = 4 and three
    # s = 5 failing-corpus targets that Levenberg-Marquardt does not certify
    # end "diverged", with the same escaping coordinates, in at most the
    # iterations the Newton ascent takes (a gradient-only ascent takes
    # 130,036 on entry 22)
    escaping = {
        1: ((4,), 289), 4: ((1, 2, 4), 71), 22: ((4,), 387), 27: ((2, 3, 4), 231),
        32: ((2,), 512), 36: ((1,), 497), 37: ((4,), 356), 38: ((1, 2, 4), 47),
        16: ((1, 2), 318), 31: ((5,), 543), 33: ((2, 3), 449),
    }
    failing = draw_corpus(11, 3, 6, 0.05, 5, keep_passing=False, size=40)
    for entry, (collapsed, iterations) in escaping.items():
        model, T = failing[entry]
        rep = maximize_S_on_MT(model, T)
        assert model.s == (5 if entry in (16, 31, 33) else 4) and rep.status == "diverged", entry
        assert rep.collapsed == collapsed and rep.iterations <= iterations, entry


def test_determinism_and_seed_sensitivity(monkeypatch):
    a = newton_solve(monkeypatch, G2, UNIT, SolverOptions(seed=5))
    b = newton_solve(monkeypatch, G2, UNIT, SolverOptions(seed=5))
    assert a.to_dict() == b.to_dict()
    c = newton_solve(monkeypatch, G2, UNIT, SolverOptions(seed=9))
    assert c.status == "solved"
    assert c.S_value == pytest.approx(a.S_value, abs=1e-9)
    # the exact path has no seed
    exact = [solve_prescribed_ricci(G2, UNIT, options=SolverOptions(seed=k)) for k in (5, 9)]
    assert exact[0].to_dict() == exact[1].to_dict()
    assert exact[0].S_value == pytest.approx(a.S_value, abs=1e-9)


def test_randomized_two_summand_agreement_small():
    rng = np.random.default_rng(31)
    for n in range(12):
        model, T, _ = random_two_summand_case(rng, pass_side=(n % 2 == 0))
        rep = solve_prescribed_ricci(model, T)
        want = two_summand_condition(model, T).passed
        assert (rep.status == "solved") == want


def newton_solve(monkeypatch, model, T, options=None):
    """The s = 2 or s = 3 solve by Levenberg-Marquardt and the multistart
    Newton ascent instead of the exact path, through the same report: the
    exact path passes the target on, as where it is degenerate, so the
    solve falls back to them."""
    opts = options or SolverOptions()
    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "_exact_roots", lambda *args: None)
        return solve_prescribed_ricci(model, T, opts)


def ascent_solve(monkeypatch, model, T, options=None):
    """The solve by the multistart Newton ascent alone: as ``newton_solve``,
    with Levenberg-Marquardt passing every target on, so never "solved"."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "_levenberg_marquardt", lambda *args: None)
        return newton_solve(monkeypatch, model, T, options)


def lm_solve(monkeypatch, model, T, options=None):
    """The solve by Levenberg-Marquardt alone, the exact path bypassed as by
    ``newton_solve``: "solved" exactly where it certifies a start, as in
    ``newton_solve``, but with the ascent's verdict replaced by a "diverged"
    with no start, so that a solve it does not certify costs no ascent."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "_ascent", lambda *args: ("diverged", None, [], (), ()))
        return newton_solve(monkeypatch, model, T, options)


def assert_same_solve(exact, newton, escaping=True):
    """Same status and x; for a diverged solve, the same escaping
    coordinates, which the exact solve names for s = 2 (``escaping``) and
    not for s = 3."""
    assert exact.status == newton.status
    if exact.status == "solved":
        assert exact.x.values == pytest.approx(newton.x.values, rel=1e-8)
    if exact.status == "diverged":
        assert exact.collapsed == (newton.collapsed if escaping else ())


def test_status_matches_exact_threshold_within_one_percent(monkeypatch):
    # s = 2: "solved" exactly above the threshold and "diverged" below it,
    # at ratios within 1% of it on both sides, as the Newton ascent finds
    rng = np.random.default_rng(37)
    for _ in range(12):
        model, _, threshold = random_two_summand_case(rng, pass_side=True)
        for factor in (0.99, 0.995, 1.005, 1.01):
            T = DiagonalForm.full((factor * threshold, 1.0))
            assert two_summand_condition(model, T).passed == (factor > 1)
            rep = solve_prescribed_ricci(model, T)
            assert rep.status == ("solved" if factor > 1 else "diverged"), (factor, model.dims)
            assert_same_solve(rep, newton_solve(monkeypatch, model, T))
            if rep.status == "diverged":
                assert rep.collapsed == (2,) and "no solution exists" in rep.notes[-1]


def test_degenerate_two_summand_lattices(monkeypatch):
    # both singletons closed: every metric has r = (1/2, 1/3)
    frozen = build_model("frozen", dims=(2, 2), casimir=(Fraction(1, 2), Fraction(1, 3)))
    # neither closed: every target is solvable
    unclosed = build_model(
        "unclosed", dims=(2, 2), casimir=(Fraction(1, 4), Fraction(1, 4)),
        triples={(1, 1, 2): Fraction(1, 3), (1, 2, 2): Fraction(1, 3)},
    )
    cases = [
        (frozen, (3, 2), "solved", ()),  # parallel: t = 1, the base start
        (frozen, (1, 5), "diverged", (2,)),
        (frozen, (5, 1), "diverged", (1,)),
        (unclosed, (1, 1), "solved", ()),
        (unclosed, (7, 1), "solved", ()),
        (unclosed, (1, 9), "solved", ()),
    ]
    for model, values, status, collapsed in cases:
        T = DiagonalForm.full(values)
        rep = maximize_S_on_MT(model, T)
        assert two_summand_condition(model, T).passed == (status == "solved")
        assert (rep.status, rep.collapsed) == (status, collapsed), (model.name, values)
        assert_same_solve(rep, newton_solve(monkeypatch, model, T))
    assert maximize_S_on_MT(frozen, DiagonalForm.full((3, 2))).x.values == (10.0, 10.0)
    # a float target is read at its exact value: (0.15, 0.1) is not
    # parallel to r, and z_1 / z_2 < 3/2 lets x_2 escape; (3/20, 1/10) is
    # parallel, and t = 1 certifies
    for values, status, collapsed in (
        ((0.15, 0.1), "diverged", (2,)), ((Fraction(3, 20), Fraction(1, 10)), "solved", ()),
    ):
        T = DiagonalForm.full(values)
        rep = maximize_S_on_MT(frozen, T)
        assert two_summand_condition(frozen, T).passed == (status == "solved")
        assert (rep.status, rep.collapsed) == (status, collapsed)
    assert (rep.starts_used, rep.x[1] / rep.x[2]) == (1, 1.0)


def test_unit_solve_kernel_calls(monkeypatch):
    original = _kernels.value_and_ricci
    calls = []

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(_kernels, "value_and_ricci", counting)
    rep = newton_solve(monkeypatch, G2, UNIT)
    assert rep.status == "solved"
    assert 0 < len(calls) <= 600


def test_two_summand_status_at_extreme_ratios():
    # with z_1 tiny, r_1 = c z_1 cancels to rounding at the root, but the
    # sign of c must still decide the status
    side1 = two_summand(2, 3, "1/4", "3/10", "4/5")
    side2 = build_model(
        "side2", dims=(2, 3), casimir=(Fraction(1, 4), Fraction(3, 10)),
        triples={(1, 1, 2): Fraction(4, 5)},
    )
    for model in (side1, side2):
        for values in ((2.3e-308, 1.0), (1e-200, 1.0), (1e-20, 1.0), (1.0, 1e-20), (1.0, 1e-200)):
            T = DiagonalForm.full(values)
            rep = maximize_S_on_MT(model, T)
            passed = two_summand_condition(model, T).passed
            assert rep.status == ("solved" if passed else "diverged"), (model.name, values)


def test_two_summand_root_read_from_sign_pattern():
    # P's nonzero coefficients, lowest degree first, read (+, +, any, -, -):
    # one sign change is one positive root, checked against its closed form
    def poly(*coefficients):  # lowest degree first
        return [Fraction(c) for c in coefficients]

    s = Fraction(3, 7)
    cases = [
        # (1 + t/s)(1 - (t/s)^3), a zero t^2 coefficient
        (poly(1, 1 / s, 0, -(1 / s) ** 3, -(1 / s) ** 4), 3 / 7),
        # t^2 (1 - t - t^2): the root at 0 is stripped
        (poly(0, 0, 1, -1, -1), (5**0.5 - 1) / 2),
        # (1/2 - t)(1 + 4 t + t^2 + t^3)
        (poly("1/2", 1, "-7/2", "-1/2", -1), 0.5),
        # 1/10 + 7 t - 2 t^2
        (poly("1/10", 7, -2, 0, 0), (7 + 49.8**0.5) / 4),
    ]
    for p, root in cases:
        # over a common denominator, without the root at 0 and trailing zeros
        scale = math.lcm(*(c.denominator for c in p))
        P = trim([int(c * scale) for c in p])
        P = P[next(i for i, c in enumerate(P) if c):]
        ((reverse, isolated),) = positive_roots(P)
        if reverse:
            P = P[::-1]
        assert read_root(P, isolated, reverse)[0] == pytest.approx(root, rel=1e-12)
    # one sign throughout: no root, and the coordinate on the side S grows
    # towards escapes
    side1 = two_summand(2, 3, "1/4", "3/10", "4/5")  # [112] = 0: P >= 0
    side2 = build_model(  # [122] = 0: P <= 0
        "side2", dims=(2, 3), casimir=(Fraction(1, 4), Fraction(3, 10)),
        triples={(1, 1, 2): Fraction(4, 5)},
    )
    for model, values, escaped in ((side1, (Fraction(1, 4), 1), (2,)), (side2, (5, 1), (1,))):
        rep = maximize_S_on_MT(model, DiagonalForm.full(values))
        assert (rep.status, rep.collapsed, rep.starts_used) == ("diverged", escaped, 0)


def test_two_summand_solve_kernel_calls(monkeypatch):
    # the exact s <= 3 solves certify their roots in integers and call no
    # kernel
    def kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(_kernels, "value_and_ricci", kernel)
    m = two_summand(2, 3, "1/4", "3/10", "4/5")
    cases = [
        (m, (1, 1), "solved"), (m, (1.0, 1.0), "solved"), (m, (Fraction(1, 4), 1), "diverged"),
        (G2, (1, 1, 1), "solved"), (G2, (1.0, 1.0, 0.1), "diverged"),
        (full_flag(3), (1, 1, 1), "solved"), (flag3(3, 2, 1), (1.0, 1.0, 1.0), "solved"),
    ]
    for model, values, status in cases:
        rep = maximize_S_on_MT(model, DiagonalForm.full(values))
        assert (rep.status, rep.iterations) == (status, 0)
    # one summand: the constraint set is the point x = d z, where r = c T
    # exactly with c = 32/75
    rep = maximize_S_on_MT(ONE, DiagonalForm.full((1.0,)))
    assert (rep.status, rep.iterations, rep.x.values, rep.solutions) == ("solved", 0, (3.0,), ((3.0,),))
    assert (rep.c, rep.residual, rep.S_value) == (0.4266666666666667, 0.0, 0.4266666666666667)


def test_exact_solves_report_exact_figures():
    # a solved s = 2 or s = 3 report's c, residual and S, and S at each
    # solution, are the correctly rounded exact values at its metric, on
    # exact and float models
    twosum = two_summand(2, 3, "1/4", "3/10", "4/5")
    cases = [(G2, UNIT), (G2, DiagonalForm.full((1, 1, 1))), (twosum, DiagonalForm.full((1, 1)))]
    cases += [(G2, flag3_target(p, q)) for p, q in ((1.2, 3.0), (4.0, 3.0), (2.0, 1.4))]
    cases += [(twosum, DiagonalForm.full(v)) for v in ((1.0, 1e-200), (Fraction(4, 9), 1), (5.0, 1.0))]
    cases += [(full_flag(3), UNIT), (flag3(3, 2, 1), UNIT), (SADDLE, SADDLE_T), (DYADIC, DYADIC_T)]
    g2_float = build_model(
        "g2-float", dims=(4, 2, 4), killing=(1.0, 1.0, 1.0),
        triples={(1, 1, 2): 2 / 3, (1, 2, 3): 0.5},
    )
    twosum_float = two_summand(2, 3, 0.25, 0.3, 0.8)
    cases += [(g2_float, UNIT), (g2_float, flag3_target(4.0, 1.4)), (twosum_float, DiagonalForm.full((1.0, 1.0)))]
    for model, T in cases:
        rep = maximize_S_on_MT(model, T)
        assert (rep.status, rep.iterations) == ("solved", 0), model.name
        c, residual, S = oracle_figures(model, rep.x, T)
        assert (rep.c, rep.residual, rep.S_value) == (float(c), float(residual), float(S))
        assert rep.start_values == tuple(
            float(oracle_figures(model, DiagonalForm.full(x), T)[2]) for x in rep.solutions
        )
    # flag3(3,2,1) at the normal metric: S = 3/8 and r = c T exactly
    rep = maximize_S_on_MT(flag3(3, 2, 1), UNIT)
    assert (rep.x.values, rep.S_value, rep.residual) == ((6.0, 6.0, 6.0), 0.375, 0.0)


def test_every_solved_report_is_its_exact_certificate(monkeypatch):
    # whichever method decides, at every s, a solved report's c, residual
    # and S are what certify reads at its x: the exact roots for s <= 3 and
    # Levenberg-Marquardt
    su4 = full_flag(4)
    unit6 = DiagonalForm.full((1.0,) * 6)
    twosum = two_summand(2, 3, "1/4", "3/10", "4/5")
    reports = [
        (ONE, DiagonalForm.full((1.0,)), maximize_S_on_MT, None),
        (twosum, DiagonalForm.full((1.0, 1.0)), maximize_S_on_MT, None),
        (G2, UNIT, maximize_S_on_MT, None),
        (G2, UNIT, lambda m, T: lm_solve(monkeypatch, m, T), "minimum-norm Newton"),
        (su4, unit6, maximize_S_on_MT, "minimum-norm Newton"),
    ]
    for model, T, solve, method in reports:
        rep = solve(model, T)
        assert rep.status == "solved", model.name
        assert method is None or any(method in note for note in rep.notes)
        assert max(T.values) < 2  # the solve runs at T itself, k = 0
        c, residual, S, certified, _ = _elimination.certify(model, T, list(rep.x.values), 0, TOL)
        assert certified and (rep.c, rep.residual, rep.S_value) == (c, residual, S), model.name
    # the ascent certifies nothing: alone, it stalls at the maximizer, whose
    # metric the certificate accepts, and the solve is "inconclusive"
    for model, T in ((G2, UNIT), (G2, flag3_target(1.2, 1.4)), (su4, unit6)):
        rep = ascent_solve(monkeypatch, model, T)
        assert (rep.status, rep.starts_used) == ("inconclusive", solver_mod.MULTISTARTS)
        assert rep.iterations > 0 and rep.notes[-1].startswith("no start certified")
        assert _elimination.certify(model, T, list(rep.x.values), 0, TOL)[3], model.name


def test_solver_rejects_unvalidated_model():
    # a model without Killing coefficients is an input error at every s,
    # on the exact path and the ascent alike
    s6 = random_space_model(np.random.default_rng(3), s=6)
    for model in (two_summand(2, 3, "1/4", "3/10", "4/5"), G2, s6):
        raw = replace(model, killing=None)
        with pytest.raises(SolverError, match="validated"):
            maximize_S_on_MT(raw, DiagonalForm.full((1.0,) * model.s))


def test_solves_leak_no_numeric_warnings(monkeypatch):
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passing = solve_prescribed_ricci(G2, flag3_target(1.2, 1.4))
        exact = solve_prescribed_ricci(G2, DiagonalForm.full((1.0, 1.0, 0.1)))
        failing = newton_solve(monkeypatch, G2, DiagonalForm.full((1.0, 1.0, 0.1)))
    assert passing.status == "solved"
    assert exact.status == "diverged"
    assert failing.status != "solved"
    # the overflowing trial points were rejected, and counted in one note
    assert sum("non-finite curvature" in note for note in failing.notes) == 1


def test_root_whose_metric_has_no_double_is_inconclusive():
    # [122] = 1e-700: P's root t, near 1e-700, reads as 0.0, and the metric
    # it makes has no double; the exact root is uncertified, not a crash,
    # and the note names the ratio, which no rescaling of T brings back
    m = two_summand(2, 3, "1/4", "3/10", "1e-700")
    rep = maximize_S_on_MT(m, DiagonalForm.full((1, 1)))
    assert (rep.status, rep.x, rep.residual, rep.S_value) == ("inconclusive", None, None, None)
    assert rep.solutions == ((None, None),)
    assert rep.notes == (
        "a root exists, but x_2 / x_1 there is beyond the float range; "
        "no scale of T brings it into range",
    )
    json.loads(json.dumps(rep.to_dict()), parse_constant=_raise)


def test_rescale_note_only_where_a_scale_of_T_helps():
    # [122] = 1e700: c is about 1e699 / max T at every scale, so no normal T
    # brings x and c into the float range together; with every value
    # 1e-700, c is positive, exactly, yet rounds to 0.0 at every scale.  On
    # flag3(4,2,4) at 3e307 x (1, 1, 1) x overflows, and T / 2**1000 answers
    for m in (two_summand(2, 3, "1/4", "3/10", "1e700"),
              two_summand(2, 3, "1e-700", "1e-700", "1e-700")):
        for T in ((1, 1), (1e300, 1e300), (1e300, 1e-5), (1e308, 1e308)):
            rep = maximize_S_on_MT(m, DiagonalForm.full(T))
            assert (rep.status, rep.c) == ("inconclusive", None), T
            assert rep.notes == (
                "x or c is beyond the float range at this scale of T; "
                "no scale of T brings x and c into the float range together",
            ), T
    rep = maximize_S_on_MT(G2, UNIT)
    assert rep.status == "solved" and rep.c > 0
    rep = maximize_S_on_MT(G2, DiagonalForm.full((3e307,) * 3))
    assert (rep.status, rep.x) == ("inconclusive", None)
    assert rep.notes == ("x or c is beyond the float range at this scale of T; rescale T",)
    rescaled = maximize_S_on_MT(G2, DiagonalForm.full((3e307 / 2**1000,) * 3))
    assert rescaled.status == "solved"


def test_solver_rejects_partial_target():
    with pytest.raises(SolverError):
        maximize_S_on_MT(G2, DiagonalForm.full((1.0,)))
    for T in ((1.0, 1.0, 1.0), [1, 1, 1]):
        with pytest.raises(SolverError, match="target must be a DiagonalForm"):
            maximize_S_on_MT(G2, T)


def test_chain_check_that_cannot_be_taken_is_a_note():
    # requirement 2 fails on this model (summand 2 commutes with {1}): no
    # eta is defined, and the solve, which the exact root count decides,
    # says so in a note and attaches no condition
    model = build_model("x", (2, 2), casimir=(1, 0), triples={(1, 1, 1): 1})
    rep = solve_prescribed_ricci(model, DiagonalForm.full((1, 1)))
    assert (rep.status, rep.condition) == ("diverged", None)
    assert rep.notes[0] == (
        "eta undefined: chain ((1, 2), (1,)) has zero denominator; the model violates "
        "requirement 2 (a summand block commutes with the inner subalgebra)"
    )
    assert rep.notes[1:] == maximize_S_on_MT(model, DiagonalForm.full((1, 1))).notes


def test_lattice_beyond_its_guard_leaves_the_solve_alone():
    # SU(10)/T has Bell(10) = 115,975 members, beyond the lattice guard: the
    # chain check cannot be taken, and the solve is Levenberg-Marquardt's
    model = full_flag(10)
    T = DiagonalForm.full((1,) * 45)
    rep = solve_prescribed_ricci(model, T)
    assert (rep.status, rep.condition) == ("solved", None)
    assert rep.notes == (
        "chain condition not checked: the subalgebra lattice has more than 25000 members",
        "minimum-norm Newton on Ric g = c T; 3 kernel calls",
    )
    assert replace(rep, notes=rep.notes[1:]) == maximize_S_on_MT(model, T)


def _raise(constant):
    raise ValueError(f"{constant} in strict JSON")


def test_target_range_is_the_normal_doubles():
    # a subnormal or unrepresentable coefficient, or a max z / min z beyond
    # the float range (the chain check's bound), is an input error ...
    twosum = two_summand(2, 3, "1/4", "3/10", "4/5")
    bad = [(1e-310, 1e-310, 1e-310), (1.0, 5e-324, 1.0), (1.0, Fraction(10) ** 400, 1.0),
           (1e300, 1e-300, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, T in [(G2, T) for T in bad] + [(twosum, (1e300, 1e-300))]:
            with pytest.raises(SolverError):
                maximize_S_on_MT(model, DiagonalForm.full(T))
    assert maximize_S_on_MT(twosum, DiagonalForm.full((1e300, 1e-8))).status == "solved"
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


def test_failing_chain_note_glosses_only_a_sufficient_condition(monkeypatch):
    # for s <= 3 the solve decides existence exactly, for s >= 4 it does not
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 100)
    twosum = two_summand(2, 3, "1/4", "3/10", "4/5")
    rep = solve_prescribed_ricci(twosum, DiagonalForm.full((Fraction(1, 4), 1)))
    assert rep.status == "diverged"
    assert rep.notes[0] == "chain condition failed"
    rep = solve_prescribed_ricci(G2, DiagonalForm.full((1.0, 1.0, 0.1)))
    assert rep.status == "diverged"
    assert rep.notes[0] == "chain condition failed"
    # SU(4)/T with the unit target: the first chain fails with margin 0
    rep = solve_prescribed_ricci(full_flag(4), DiagonalForm.full((1.0,) * 6))
    assert rep.notes[0] == "chain condition failed; existence not guaranteed"


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


def test_three_summand_table_rows():
    # flag3(4,2,4): one solution for the unit target, none for the two
    # failing ones, where the ascent ran out its budget
    rep = solve_prescribed_ricci(G2, UNIT)
    assert (rep.status, rep.starts_used, rep.iterations) == ("solved", 1, 0)
    assert rep.c == pytest.approx(0.38440, abs=1e-5)
    x = np.array(rep.x.values)
    assert x / x[0] == pytest.approx([1.0, 1.02066, 0.39237], abs=1e-5)
    assert rep.to_dict()["solutions"] == [list(rep.x.values)]
    for values in ((1.0, 1.0, 0.1), (1.0, 5.0, 1.0)):
        t0 = time.perf_counter()
        rep = solve_prescribed_ricci(G2, DiagonalForm.full(values))
        assert time.perf_counter() - t0 < 1.0
        assert (rep.status, rep.starts_used, rep.x, rep.S_value) == ("diverged", 0, None, None)
        assert rep.notes[-1].startswith("no solution exists")
        assert rep.to_dict()["solutions"] == []


def stripped_system(model, T):
    """E_1 and E_2 of the s = 3 solve over their monomial factors, by powers
    of u."""
    E, _ = equations(model, T)
    return [by_power(e, swap=False) for e in E]


def test_three_summand_roots_off_the_unit_interval(monkeypatch):
    # the grid targets (p, q) = (1.2, 3) and (4, 3): the resultant vanishes at
    # t = 1, where u = 0 is a common root, and the only solution of the second
    # has t = x_2 / x_1 > 1
    for (p, q), t in (((1.2, 3.0), 0.517991), ((4.0, 3.0), 1.736553)):
        T = flag3_target(p, q)
        f, g = stripped_system(G2, T)
        assert value_at(subresultant(f, g, 0)[0], 1, 0) == 0
        assert value_at(f[0], 1, 0) == value_at(g[0], 1, 0) == 0
        rep = solve_prescribed_ricci(G2, T)
        assert rep.status == "solved" and rep.starts_used == 1
        assert rep.x[2] / rep.x[1] == pytest.approx(t, abs=1e-6)
        assert_same_solve(rep, newton_solve(monkeypatch, G2, T), escaping=False)


def test_three_summand_grid_matches_ascent(monkeypatch):
    # the flag3(4,2,4) targets on the condition-margin grid (p, q), both > 1:
    # each is solved, at the ascent's x
    for p in (1.2, 2.0, 4.0, 8.0):
        for q in (1.1, 1.4, 2.0, 3.0):
            T = flag3_target(p, q)
            rep = solve_prescribed_ricci(G2, T)
            assert (rep.status, rep.iterations) == ("solved", 0)
            assert_same_solve(rep, newton_solve(monkeypatch, G2, T), escaping=False)


def test_three_summand_degenerate_eliminations(monkeypatch):
    # summand 3 brackets with nothing: E_1 and E_2 do not depend on u, so t
    # is eliminated instead, and their resultant is a constant
    assert [len(e) for e in stripped_system(DECOUPLED, UNIT)] == [1, 1]
    rep = solve_prescribed_ricci(DECOUPLED, UNIT)
    assert (rep.status, rep.starts_used) == ("diverged", 0)
    assert newton_solve(monkeypatch, DECOUPLED, UNIT).status == "diverged"
    # ... and when they share a root in t, every u solves: R = 0, a curve of
    # solutions, and the float solve decides.  The ascent alone certifies
    # nothing, and here its starts escape: "diverged", evidence only
    T = DiagonalForm.full(ricci(DECOUPLED, DiagonalForm.full((1, 1, 1))))
    ascent = ascent_solve(monkeypatch, DECOUPLED, T)
    assert (ascent.status, ascent.starts_used) == ("diverged", solver_mod.MULTISTARTS)
    assert ascent.notes[-2].startswith("the exact elimination is degenerate")
    assert ascent.notes[-2].endswith("; the multistart ascent decided")
    # Levenberg-Marquardt certifies the base start first
    rep = solve_prescribed_ricci(DECOUPLED, T)
    assert (rep.status, rep.starts_used) == ("solved", 1)
    assert rep.notes[-2].startswith("the exact elimination is degenerate")
    assert rep.notes[-2].endswith("; the minimum-norm Newton decided")
    assert rep.notes[-1] == "minimum-norm Newton on Ric g = c T; 1 kernel call"
    assert rep.solutions is None and rep.to_dict()["solutions"] is None
    # SU(3)/T with the unit target: E_1 = (1 - t)(1 + t - u)(1 + t + u) and
    # E_2 share the factor 1 + t + u, which vanishes at no t, u > 0 and is
    # divided out; the rest leaves the whole line t = 1 to E_1, so a = 0
    # there, and t = 1 is solved exactly: u = 1, the normal metric
    su3 = full_flag(3)
    rep = solve_prescribed_ricci(su3, UNIT)
    assert (rep.status, rep.starts_used, rep.notes) == ("solved", 1, ())
    assert rep.to_dict()["solutions"] == [[6.0, 6.0, 6.0]]
    # the invariant Kahler metrics x_3 = x_1 + x_2 all have a Ricci form
    # parallel to (1, 1, 2): a curve of solutions, and the float solve
    # decides.  Levenberg-Marquardt certifies a point of it; without it the
    # ascent stalls on the curve and, certifying nothing, is "inconclusive"
    T = DiagonalForm.full((1, 1, 2))
    assert subresultant(*stripped_system(su3, T), 0) == [[]]
    solved, ascent = solve_prescribed_ricci(su3, T), ascent_solve(monkeypatch, su3, T)
    assert (solved.status, ascent.status) == ("solved", "inconclusive")
    for rep in (solved, ascent):
        assert any(note.startswith("the exact elimination is degenerate") for note in rep.notes)
        assert rep.x[3] == pytest.approx(rep.x[1] + rep.x[2], rel=1e-8)
    # E_1 of degree 1 in u (a draw of the s = 3 sweep): u is read off E_1
    statuses = []
    for values in ((1.7117, 0.09559, 2.6901), (1.0, 1.0, 1.0), (1.0, 5.0, 0.1)):
        T = DiagonalForm.full(values)
        assert [len(e) - 1 for e in stripped_system(LINEAR, T)] == [1, 2]
        rep = solve_prescribed_ricci(LINEAR, T)
        assert_same_solve(rep, newton_solve(monkeypatch, LINEAR, T), escaping=False)
        statuses.append(rep.status)
    assert statuses == ["solved", "solved", "diverged"]


def test_three_summand_exact_matches_bounded_ascent(monkeypatch):
    # the first 30 targets of the s = 3 sweep: wherever Levenberg-Marquardt
    # certifies, the exact path solves too, at an x that matches; else,
    # wherever one of the 16 seeded ascent starts collapses within 100
    # steps, the exact path finds no solution
    decided = {"solved": 0, "diverged": 0}
    for model, T in sweep_cases(30):
        exact = maximize_S_on_MT(model, T)
        lm = lm_solve(monkeypatch, model, T)
        ev = solver_mod._Evaluator(model, T.values)
        outcomes = _run_starts_for(monkeypatch, ev, solver_mod._seeded_starts(ev, 0), 100)
        if lm.status == "solved":
            x, y = np.array(exact.x.values), np.array(lm.x.values)
            assert exact.status == "solved"
            assert x / x[0] == pytest.approx(y / y[0], rel=1e-8)
            decided["solved"] += 1
        elif any(o.collapsed for o in outcomes):
            assert exact.status == "diverged"
            decided["diverged"] += 1
    assert decided["solved"] >= 10 and decided["diverged"] >= 10


def test_three_summand_saddle_solution_is_found(monkeypatch):
    # the only solution is a saddle point of S on the constraint set: the
    # ascent climbs past it and escapes, the exact solve finds it
    rep = solve_prescribed_ricci(SADDLE, SADDLE_T)
    assert (rep.status, rep.starts_used) == ("solved", 1)
    r = np.array(ricci(SADDLE, rep.x))
    assert np.max(np.abs(r - rep.c * np.array(SADDLE_T.values))) <= 1e-8 * rep.c * max(SADDLE_T.values)
    monkeypatch.setattr(solver_mod, "MAX_ITERATIONS", 150)
    ascent = ascent_solve(monkeypatch, SADDLE, SADDLE_T)
    assert ascent.status == "diverged" and ascent.S_value > rep.S_value
    # Levenberg-Marquardt solves the equation itself, and certifies the saddle
    lm = newton_solve(monkeypatch, SADDLE, SADDLE_T)
    assert lm.status == "solved" and lm.notes[-1].startswith("minimum-norm Newton on Ric g = c T; ")
    assert_same_solve(rep, lm)


def test_levenberg_marquardt_certifies_no_target_without_a_solution(monkeypatch):
    # with the exact path bypassed, Levenberg-Marquardt certifies none of
    # the s = 3 targets that the exact path proves have no solution: 111 of
    # the s = 3 sweep and 16 of the failing corpus; on the two-summand
    # threshold set it certifies exactly the targets above the threshold;
    # and no solve spends more than LM_START_CALLS kernel calls a start on it
    original, calls = _kernels.value_and_ricci, []

    def counting(*args):
        calls.append(len(args[7]))
        return original(*args)

    monkeypatch.setattr(_kernels, "value_and_ricci", counting)

    def certified(model, T):
        calls.clear()
        rep = lm_solve(monkeypatch, model, T)
        assert calls == [1] * len(calls)
        assert len(calls) <= solver_mod.MULTISTARTS * solver_mod.LM_START_CALLS
        if rep.status == "solved":
            n = len(calls)
            assert rep.notes[-1] == f"minimum-norm Newton on Ric g = c T; {n} kernel call" + "s" * (n > 1)
        return rep.status == "solved"

    failing = [case for case in draw_corpus(11, 3, 6, 0.05, 5, False, 40) if case[0].s == 3]
    proved = 0
    for model, T in sweep_cases() + failing:
        if maximize_S_on_MT(model, T).status == "diverged":
            proved += 1
            assert not certified(model, T)
    assert proved == 111 + 16
    rng = np.random.default_rng(37)
    for _ in range(40):
        model, _, threshold = random_two_summand_case(rng, pass_side=True)
        for f in (0.99, 0.995, 0.999, 1.001, 1.005, 1.01):
            assert certified(model, DiagonalForm.full((f * threshold, 1.0))) == (f > 1)


def test_levenberg_marquardt_stops_a_start_that_stalls(monkeypatch):
    # the first s = 3 sweep target has no solution: with the exact path
    # bypassed, no start of Levenberg-Marquardt halves its least |F|^2 in
    # the 12 kernel calls after its first, so each stops at its 13th call,
    # well before the cap
    model, T = sweep_cases(1)[0]
    assert maximize_S_on_MT(model, T).status == "diverged"
    original, calls = _kernels.value_and_ricci, []

    def counting(*args):
        calls.append(len(args[7]))
        return original(*args)

    monkeypatch.setattr(_kernels, "value_and_ricci", counting)
    assert lm_solve(monkeypatch, model, T).status == "diverged"
    assert len(calls) == solver_mod.MULTISTARTS * 13 < solver_mod.MULTISTARTS * solver_mod.LM_START_CALLS


def test_degenerate_three_summand_targets_are_certified():
    # the six targets whose exact elimination is degenerate (ROADMAP.md,
    # Corpora): Levenberg-Marquardt certifies each at its first start, within
    # the call cap of a start
    cases = [(full_flag(3), T) for T in ((1, 1, 2), (2, 2, 4))]
    cases += [(flag3(1, 3, 3), T) for T in ((1, 2, 3), (1, 3, 2), (2, 1, 1))]
    cases += [(flag3(1, 4, 2), (1, 2, 3))]
    for model, values in cases:
        rep = solve_prescribed_ricci(model, DiagonalForm.full(values))
        assert (rep.status, rep.starts_used, rep.solutions) == ("solved", 1, None), (model.name, values)
        assert rep.notes[-2].startswith("the exact elimination is degenerate")
        note = rep.notes[-1]
        assert note.startswith("minimum-norm Newton on Ric g = c T; ")
        assert int(note.split("; ")[1].split()[0]) <= solver_mod.LM_START_CALLS
        c, residual, S = oracle_figures(model, rep.x, DiagonalForm.full(values))
        assert (rep.c, rep.residual, rep.S_value) == (float(c), float(residual), float(S))


def test_three_summand_float_target_near_a_curve_of_solutions(monkeypatch):
    # with [123] alone the metrics (1, t, t - 1) share one Ricci form up to
    # scale, so the target built from (1, 2, 1) has a curve of solutions;
    # its float rounding has none, yet (1, 2, 1) certifies: the float solve
    # decides, and Levenberg-Marquardt certifies a point of the curve; the
    # ascent alone certifies nothing, and its starts escape
    model = build_model(
        "curve", dims=(1, 1, 4), casimir=(1 / 3, 1 / 3, 1 / 3),
        triples={(1, 2, 3): math.sqrt(4 / 3)},
    )
    # the kernel's Ricci coefficients at (1, 2, 1), within 1 ulp of the
    # correctly rounded ones that ricci() returns there
    T = DiagonalForm.full((0.33333333333333326, 2.642734410091836, 0.3333333333333333))
    ascent = ascent_solve(monkeypatch, model, T)
    assert (ascent.status, ascent.starts_used, ascent.solutions) == (
        "diverged", solver_mod.MULTISTARTS, None
    )
    assert ascent.notes[-2].startswith("the exact elimination is degenerate here, or T is within")
    rep = solve_prescribed_ricci(model, T)
    assert (rep.status, rep.starts_used, rep.solutions) == ("solved", 1, None)
    assert rep.notes[-2].startswith("the exact elimination is degenerate here, or T is within")
    assert rep.notes[-1].startswith("minimum-norm Newton on Ric g = c T; ")
    assert rep.x[2] == pytest.approx(rep.x[1] + rep.x[3], rel=1e-8)
    assert _elimination.certify(model, T, [1.0, 2.0, 1.0], 0, TOL)[3]
    # the same dyadic numbers read as exact fractions: a proof of nonexistence
    exact = solve_prescribed_ricci(model, DiagonalForm.full(tuple(Fraction(v) for v in T.values)))
    assert (exact.status, exact.starts_used) == ("diverged", 0)
    assert exact.notes[-1].startswith("no solution exists")


def test_ricci_core_matches_dense_oracle():
    # at x = (1, x_2, ..., x_s) the core's row i is M r_i x_2^2 ... x_s^2,
    # with r from the dense tensor in fractions
    rng = np.random.default_rng(37)
    for n in range(100):
        model = random_space_model(rng, s=2 + n % 2, exact=n % 4 < 2)
        M, core = model.ricci_core
        for _ in range(20):
            x = [Fraction(1), *(
                Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
                for _ in range(model.s - 1)
            )]
            r = oracle_ricci(model, DiagonalForm.full(x), exact=True)
            scale = math.prod(v * v for v in x[1:])
            for ri, terms in zip(r, core):
                value = sum(
                    coeff * math.prod(v**e for v, e in zip(x[1:], exps))
                    for exps, coeff in terms.items()
                )
                assert value == M * ri * scale


def test_root_bisection_lands_on_a_dyadic_root():
    # (4t - 3)(8t - 1): the roots 1/8 and 3/4 are isolated in (0, 1/2) and
    # (1/2, 1); refining either lands on its root exactly
    p = [3, -28, 32]
    assert sorted(isolate(p)) == [(1, 0, 1), (1, 1, -1)]
    assert refine(p, (1, 1, -1), 55) == (2, 3, 0)
    assert refine(p, (1, 0, 1), 55) == (3, 1, 0)
    # a target built from the metric (1, 2, 3): the resultant's root t = 2
    # is a dyadic point that the refinement reaches exactly
    rep = solve_prescribed_ricci(DYADIC, DYADIC_T)
    assert (rep.status, rep.starts_used) == ("solved", 1)
    assert np.array(rep.x.values) / rep.x[1] == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)


def negated(p):
    return [[-c for c in q] for q in p] if p and isinstance(p[0], list) else [-c for c in p]


def test_subresultant_chain_matches_sylvester_determinants():
    # the chain's resultant and a u + b against Sylvester determinants, up to
    # one sign, with u and with t eliminated: on the flag3 grid, the s = 3
    # sweep, the special models above and SU(3)/T ...
    cases = [(G2, flag3_target(p, q)) for p in (1.2, 2.0, 4.0, 8.0) for q in (1.1, 1.4, 2.0, 3.0)]
    rng = np.random.default_rng(2026)
    for _ in range(150):
        model = random_space_model(rng, 3, exact=True)
        cases.append((model, DiagonalForm.full(tuple(float(v) for v in rng.uniform(0.05, 5, 3)))))
    cases += [(DECOUPLED, UNIT), (LINEAR, UNIT), (SADDLE, SADDLE_T), (DYADIC, DYADIC_T)]
    cases += [(full_flag(3), DiagonalForm.full(T)) for T in ((3, 3, 1), (1, 1, 2))]
    systems = []
    for model, T in cases:
        E, _ = equations(model, T)
        systems += [[by_power(e, swap) for e in E] for swap in (False, True)]
    # ... and on random pairs of degree up to 5 in u with gaps, where the
    # chain takes defective steps
    rand = random.Random(5)
    for _ in range(300):
        f, g = ([[rand.randint(-9, 9) for _ in range(rand.randint(1, 3))] if rand.random() < 0.6
                 else [] for _ in range(rand.randint(1, 6))] for _ in range(2))
        if f[-1] and g[-1] and any(f[-1]) and any(g[-1]):
            systems.append([[trim(c) for c in f], [trim(c) for c in g]])
    counts = {"S_1": 0, "gcd": 0}
    for f, g in systems:
        if len(f) + len(g) < 3:
            continue
        R, S1 = subresultants(f, g)
        (R0,) = subresultant(f, g, 0)
        assert R in (R0, negated(R0))
        if not R0:
            # the chain's last remainder: a common factor of f and g
            counts["gcd"] += 1
            assert len(S1) > 1 and poly_mod_u(f, S1) == poly_mod_u(g, S1) == []
        elif min(len(f), len(g)) > 2:
            counts["S_1"] += 1
            a, b = subresultant(f, g, 1)
            assert len(S1) <= 2 and [b, a] in ((S1 + [[], []])[:2], negated((S1 + [[], []])[:2]))
    assert counts["S_1"] >= 150 and counts["gcd"] >= 2


def poly_mod_u(f, D):
    """f mod D in u, over the field of fractions of Z[t], up to a factor."""
    f = [c[:] for c in f]
    while len(f) >= len(D):
        c, shift = f[-1], len(f) - len(D)
        f = [mul(D[-1], v) for v in f]
        for j, d in enumerate(D, shift):
            f[j] = sub(f[j], mul(c, d))
        while f and not f[-1]:
            f.pop()
    return f


def test_newton_root_read_matches_bisection():
    # the secant-Newton refinement ends on the interval that bisection one bit
    # at a time reaches, or on the same exact dyadic root: on random
    # square-free integer polynomials, roots near powers of two and dyadic
    # roots of depth up to 70
    rand = random.Random(17)
    polys = []
    for _ in range(150):
        polys.append([rand.randint(-(2**60), 2**60) for _ in range(rand.randint(2, 12))])
        j, e = rand.randint(0, 60), rand.randint(60, 120)
        near = [-(2**e + rand.randint(-3, 3)), 2 ** (e + j)]  # a root near 2**-j
        polys.append(mul(near, [rand.randint(-99, 99) for _ in range(rand.randint(1, 5))]))
        dyadic = [1]
        for _ in range(rand.randint(1, 3)):
            j = rand.randint(1, 70)
            dyadic = mul(dyadic, [-rand.randrange(1, 2**j), 2**j])
        polys.append(mul(dyadic, [rand.randint(-99, 99) for _ in range(rand.randint(1, 4))]))
    exact = reads = 0
    for p in polys:
        p = trim(p)
        if len(p) < 2 or not p[0] or not p[-1]:
            continue
        p = squarefree(p)
        for reverse, root in positive_roots(p):
            P = p[::-1] if reverse else p
            for bits in (55, rand.randint(1, 80)):
                refined = refine(P, root, bits)
                assert refined == bisected_root(P, root, bits), (P, root, bits)
                reads += 1
                exact += bool(root[2] and not refined[2])
    assert reads > 600 and exact > 30


def test_seeded_refine_ends_where_the_loop_and_bisection_end(monkeypatch):
    # the float first step changes how refine reaches its interval, not
    # which: on every refine the flag3 grid and the s = 3 sweep make, the
    # result is the unseeded loop's and one-bit bisection's, in few exact
    # evaluations on the grid
    calls, evaluations, inside = [], [0], [0]
    original, evaluate = poly.refine, poly.value_at

    def recording(p, root, bits):
        calls.append((p, root, bits))
        inside[0] += 1
        try:
            return original(p, root, bits)
        finally:
            inside[0] -= 1

    def counting(*args):
        evaluations[0] += inside[0] > 0
        return evaluate(*args)

    monkeypatch.setattr(poly, "refine", recording)
    monkeypatch.setattr(poly, "value_at", counting)
    for model, T in GRID:
        three_summand_points(model, T)
    grid, on_grid = len(calls), evaluations[0]
    for model, T in sweep_cases():
        three_summand_points(model, T)
    monkeypatch.undo()
    assert grid > 40 and on_grid <= 6 * grid
    seeded = [refine(*call) for call in calls]
    assert seeded == [bisected_root(*call) for call in calls]
    monkeypatch.setattr(poly, "_seeded", lambda p, root, bits: None)
    assert seeded == [refine(*call) for call in calls]
    monkeypatch.undo()
    # coefficients beyond the float range, where the loop runs alone; a
    # root 3 / 2**50 right of the end of its interval (1/2, 1), which the
    # first step brackets by the known sign there; two roots 2**-40 apart
    huge = mul([-3, 10], [10**400])
    near_end = mul([-1, 4], [-(2**49 + 3), 2**50])
    close = mul([-(3 << 40), 10 << 40], [-(3 << 40) - 10, 10 << 40])
    for p in (huge, near_end, close):
        for reverse, root in positive_roots(p):
            P = p[::-1] if reverse else p
            for bits in (20, 55, 90):
                assert refine(P, root, bits) == bisected_root(P, root, bits), (P, root, bits)
    ((_, root),) = positive_roots(huge)
    assert poly._seeded(huge, root, 55) is None
    assert poly._seeded(near_end, (1, 1, -1), 55)[0] == (44, 2**43, -1)


def test_unseeded_refine_starts_near_the_depth_of_its_interval(monkeypatch):
    # where no float seed fits, as on the reads of u from depth-56
    # intervals, the secant loop's first gain is about half the interval's
    # depth: of the refines that the flag3 grid and the s = 3 sweep make, 7
    # take 8 or more exact evaluations (31 with a first gain of 2), each from
    # an interval at most 4 levels deep
    per_refine, evaluations = [], [0]
    original, evaluate = poly.refine, poly.value_at

    def recording(p, root, bits):
        before = evaluations[0]
        refined = original(p, root, bits)
        per_refine.append((evaluations[0] - before, root[0]))
        return refined

    def counting(*args):
        evaluations[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(poly, "refine", recording)
    monkeypatch.setattr(poly, "value_at", counting)
    for model, T in GRID + sweep_cases():
        three_summand_points(model, T)
    costly = [depth for n, depth in per_refine if n >= 8]
    assert (len(per_refine), len(costly), max(costly)) == (189, 7, 4)


def test_sign_near_a_root_falls_back_where_the_bound_fails():
    # f = 2**80 (3t - 1) + e has the sign of e at the root 1/3 of p = 3t - 1,
    # but at the read point, within 2**-56 of it, the sign of 3t - 1: the
    # derivative bound fails there, and sign_at_root decides
    p = [-1, 3]
    ((_, root),) = positive_roots(p)
    root = refine(p, root, 55)
    num, depth = point(root)
    wrong = 0
    for e in (1, -1):
        f = [e - 2**80, 3 * 2**80]
        v = value_at(f, num, depth)
        assert sign_near(p, f, root, v) == e
        wrong += (v > 0) - (v < 0) != e
    assert wrong == 1
    # where f vanishes at the root the sign is 0; far from a root of f one
    # evaluation decides
    f = mul([-1, 3], [1, 1])
    assert sign_near(p, f, root, value_at(f, num, depth)) == 0
    assert sign_near(p, [5, 1], root, value_at([5, 1], num, depth)) == 1


def test_three_summand_rational_shared_roots():
    # flag3(4,2,4) shares t = 1 with the boundary root (t, u) = (1, 0): a
    # target built from a metric with x_1 = x_2 has a = 0 at t = 1, which
    # is solved in u exactly, beside any other solution
    rep = solve_prescribed_ricci(G2, DiagonalForm.full(ricci(G2, DiagonalForm.full((1, 1, 3)))))
    assert (rep.status, rep.starts_used) == ("solved", 2)
    assert not any("degenerate" in note for note in rep.notes)
    x = np.array(rep.solutions[1])
    assert x / x[0] == pytest.approx([1.0, 1.0, 3.0], rel=1e-12)
    # SU(3)/T: the Weyl group permutes the three summands, so every target in
    # {1, 2, 3}^3 has the status and solution count of its permutations;
    # each is decided exactly but those parallel to (1, 1, 2), whose
    # solutions form a curve (see test_three_summand_degenerate_eliminations)
    su3 = full_flag(3)
    reports = {}
    for T in product((1.0, 2.0, 3.0), repeat=3):
        t0 = time.perf_counter()
        reports[T] = solve_prescribed_ricci(su3, DiagonalForm.full(T))
        assert time.perf_counter() - t0 < 0.5
    for T, rep in reports.items():
        assert {(reports[P].status, reports[P].starts_used) for P in permutations(T)} == {
            (rep.status, rep.starts_used)
        }
        curve = sorted(T) == [1.0, 1.0, 2.0]
        assert any("degenerate" in note for note in rep.notes) == curve
    for T in ((3.0, 3.0, 1.0), (2.0, 2.0, 1.0)):
        assert reports[T].status == "diverged"
        assert reports[T].notes[-1].startswith("no solution exists")


GRID = [(G2, flag3_target(p, q)) for p in (1.2, 2.0, 4.0, 8.0) for q in (1.1, 1.4, 2.0, 3.0)]


def test_square_free_step_gives_the_same_points(monkeypatch):
    # with the isolation cap at 0 every resultant is made square-free before
    # it is isolated: the points are those of the default path, which takes
    # that step only where the cap is hit (SU(3)/T with z_1 = z_2 and
    # flag3(3,2,1) at multiples of (1, 1, 1) here)
    cases = GRID + sweep_cases()
    for model in (full_flag(3), flag3(3, 2, 1), flag3(1, 3, 3), flag3(1, 4, 2), flag3(2, 2, 5)):
        cases += [(model, DiagonalForm.full(T)) for T in product((1.0, 2.0, 3.0), repeat=3)]
    steps = []
    original = poly.squarefree
    monkeypatch.setattr(poly, "squarefree", lambda p: steps.append(p) or original(p))
    default = [three_summand_points(model, T) for model, T in cases]
    hit = len(steps)
    monkeypatch.setattr(_elimination, "_ISOLATION_DEPTH", 0)
    capped = [three_summand_points(model, T) for model, T in cases]
    assert capped == default
    assert 0 < hit and len(steps) >= hit + 150
    # the float solve decides the seven targets whose solutions form a curve
    assert sum(points is None for points in default) == 7 and sum(map(bool, default)) > 100


def test_isolation_under_the_cap():
    # a double irrational root, 1 / sqrt 2, is never separated: the cap stops
    # the isolation, and the square-free part isolates as without a cap
    p = mul(mul([-1, 0, 2], [-1, 0, 2]), [-1, 3])
    assert positive_roots(p, 64) is None
    q = squarefree(p)
    assert q == mul([-1, 0, 2], [-1, 3]) and positive_roots(q, 64) == positive_roots(q)
    # a double root at the dyadic point 1/2 is found exactly, and the
    # interval right of it, whose left end it is, reads the root 2/3 with
    # the sign p has there, as the square-free part reads it
    p, q = mul(mul([-1, 2], [-1, 2]), [-2, 3]), mul([-1, 2], [-2, 3])
    roots = positive_roots(p, 64)
    assert (False, (1, 1, 0)) in roots and len(roots) == 2
    ((_, root),) = [r for r in roots if r[1][2]]
    ((_, twin),) = [r for r in positive_roots(q) if r[1][2]]
    assert refine(p, root, 55) == refine(q, twin, 55) == bisected_root(q, twin, 55)
    # square-free polynomials isolate under the cap as without it
    rand = random.Random(31)
    for _ in range(200):
        p = trim([rand.randint(-(2**40), 2**40) for _ in range(rand.randint(2, 10))])
        if len(p) > 1 and p[0]:
            p = squarefree(p)
            assert positive_roots(p, 64) == positive_roots(p)


def test_c_sign_from_values_matches_the_polynomial(monkeypatch):
    # the sign of C = sum_j h_j (-b)^j a^(k-j) at a root of P, from the
    # values of the h_j, a and b there, against the sign of C itself
    def c_poly(H, A, B):
        C = []
        for j, h in enumerate(H):
            for factor in [[-v for v in B]] * j + [A] * (len(H) - 1 - j):
                h = mul(h, factor)
            C = sub(C, [-v for v in h])
        return C

    fallbacks = []
    original = _elimination._sign
    monkeypatch.setattr(
        _elimination, "_sign", lambda *args: fallbacks.append(args) or original(*args)
    )
    rand = random.Random(41)
    checked = 0
    for _ in range(300):
        P = [1]
        for _ in range(rand.randint(1, 4)):
            P = mul(P, [-rand.randint(1, 2**20), rand.randint(1, 2**20)])
        P = squarefree(P)
        k, width, hw = rand.randint(0, 3), rand.randint(1, 5), rand.randint(1, 4)
        A, B = ([rand.randint(-(2**30), 2**30) for _ in range(width)] for _ in range(2))
        H = [[rand.randint(-(2**30), 2**30) for _ in range(hw)] for _ in range(k + 1)]
        C = c_poly(H, A, B)
        for reverse, root in positive_roots(P) or []:
            Pr, Ar, Br, Cr = (q[::-1] for q in (P, A, B, C)) if reverse else (P, A, B, C)
            Hr = [h[::-1] for h in H] if reverse else H
            root = refine(Pr, root, 55)
            num, depth = point(root)
            va, vb = value_at(Ar, num, depth), value_at(Br, num, depth)
            expected = sign_near(Pr, Cr, root, value_at(Cr, num, depth))
            assert c_sign(Pr, Hr, Ar, Br, root, va, vb) == expected
            checked += 1
    assert checked > 300 and len(fallbacks) < checked / 10
    # C = 2**80 (3t - 1) + e has the sign of e at the root 1/3 of P, but the
    # bound from the norms cannot tell at the read point: C itself decides
    P = [-1, 3]
    ((_, root),) = positive_roots(P)
    root = refine(P, root, 55)
    num, depth = point(root)
    fallbacks.clear()
    for e in (1, -1):
        H, A, B = [[e - 2**80, 3 * 2**80], [1, 1]], [1, 0], [0, 0]
        assert c_poly(H, A, B) == H[0]
        assert c_sign(P, H, A, B, root, value_at(A, num, depth), value_at(B, num, depth)) == e
    assert len(fallbacks) == 2


def test_three_summand_reads_only_roots_the_interval_cannot_reject(monkeypatch):
    # on the flag3 grid and the s = 3 sweep a root of R is refined only when
    # it is admissible, or when its isolating interval cannot show that
    # u = -b / a < 0: a or b has a root there, or their signs differ (u > 0,
    # and c decides); every other root is dropped unread
    reads = []
    original = _elimination.read_root

    def recorded(P, root, reverse):
        t, refined = original(P, root, reverse)
        reads.append((root, reverse, t))
        return t, refined

    monkeypatch.setattr(_elimination, "read_root", recorded)
    totals = {"roots": 0, "exact": 0, "reads": 0, "admissible": 0, "undecided": 0}
    for model, T in GRID + sweep_cases():
        f, g = stripped_system(model, T)
        if min(len(f), len(g)) < 3:
            continue  # u is read off an E_i, or t is eliminated
        R, S1 = subresultants(f, g)
        if not R:
            continue
        R = R[next(i for i, c in enumerate(R) if c):]
        roots = positive_roots(R, 64)
        if roots is None:
            continue
        reads.clear()
        points = three_summand_points(model, T)
        b, a = S1[:2]
        width = max(len(a), len(b))
        a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
        totals["roots"] += len(roots)
        totals["admissible"] += len(points)
        for root, reverse, t in reads:
            k, c, left = root
            if not left:
                totals["exact"] += 1  # nothing to refine
                continue
            totals["reads"] += 1
            A, B = (q[::-1] if reverse else q for q in (a, b))
            lo, hi = Fraction(c, 2**k), Fraction(c + 1, 2**k)
            undecided = has_root_in(A, lo, hi) or has_root_in(B, lo, hi)
            totals["undecided"] += undecided
            mid = (lo + hi) / 2
            at_mid = [sum(x * mid**i for i, x in enumerate(F)) for F in (A, B)]
            opposite = at_mid[0] * at_mid[1] < 0
            assert undecided or opposite or t in [x[1] for x in points]
    assert totals["reads"] <= totals["admissible"] + totals["undecided"]
    assert totals["reads"] + totals["exact"] < totals["roots"]


def test_three_summand_u_read_as_accurately_as_t():
    # sweep target 3: u = -b / a is steep in t, and read at the 55-bit point
    # of t it was about 1,000 ulps off; now t is refined until -b / a at the
    # ends of its interval rounds to doubles at most 1 ulp apart.  The
    # reference: t bisected to 200 bits, u = -b / a there as a Fraction
    model, T = sweep_cases(4)[3]
    ((one, t, u),) = three_summand_points(model, T)
    f, g = stripped_system(model, T)
    (R,) = subresultant(f, g, 0)
    a, b = subresultant(f, g, 1)
    R = squarefree(R[next(i for i, c in enumerate(R) if c):])
    for reverse, root in positive_roots(R):
        P = R[::-1] if reverse else R
        k, c, _ = bisected_root(P, root, 200)
        x = Fraction(2 * c + 1, 2 ** (k + 1))
        x = 1 / x if reverse else x
        if abs(float(x) - t) <= math.ulp(t):
            ref = -sum(v * x**i for i, v in enumerate(b)) / sum(v * x**i for i, v in enumerate(a))
            break
    assert one == 1.0 and t == float(x)
    assert abs(Fraction(u) - ref) <= 2 * Fraction(math.ulp(float(ref)))
    assert u == 3.153812770743257


def test_rational_root_off_the_dyadic_grid():
    # 3t - 1: the root 1/3 is no dyadic point, so it is read as N / lead;
    # 2t^2 - 1: the root 1 / sqrt(2) is irrational
    ((reverse, root),) = positive_roots([-1, 3])
    assert not reverse and poly.rational_root([-1, 3], root) == (1, 3)
    # (3t - 1)(5t - 2): each root as N / 15; (3t - 4) (t - 2), its roots
    # above 1 read as those of the reversed polynomial
    p = mul([-1, 3], [-2, 5])
    roots = [poly.rational_root(p, r) for _, r in positive_roots(p)]
    assert sorted(Fraction(*r) for r in roots) == [Fraction(1, 3), Fraction(2, 5)]
    p = mul([-4, 3], [-2, 1])
    roots = [poly.rational_root(p[::-1], r) for reverse, r in positive_roots(p) if reverse]
    assert sorted(Fraction(den, num) for num, den in roots) == [Fraction(4, 3), 2]
    ((reverse, root),) = positive_roots([-1, 0, 2])
    assert not reverse and poly.rational_root([-1, 0, 2], root) is None


def test_points_at_a_rational_root_without_a_finite_point():
    # f and g as lists by powers of w of polynomials in t
    h = [[1]]
    # both vanish identically at t = 1: every w solves
    f, g = [[-1, 1]], [[-1, 1], [-1, 1]]
    assert _elimination._points_at((1, 1), f, g, h, False) is None
    # 1 + w and 2 + w share no root; w and w^2 only w = 0, not admissible
    assert _elimination._points_at((1, 1), [[1], [1]], [[2], [1]], h, False) == []
    assert _elimination._points_at((1, 1), [[0], [1]], [[0], [0], [1]], h, False) == []


def test_ratio_overflows_to_infinity():
    big = 10**400
    assert ratio(1, 3) == 1 / 3
    assert ratio(big, 1) == math.inf
    assert ratio(-big, 1) == -math.inf
    assert ratio(big, -3) == -math.inf
    assert ratio(-big, -3) == math.inf


def test_one_speller_for_json_figures():
    """json_figure writes what json.dumps writes of format_number(figure()),
    strict JSON: exact figures in lowest terms, floats as their repr, and
    null where a float is beyond the float range."""
    big = 10**400
    cases = [(1, 3), (6, 4), (-6, 4), (0, 7), (12, 4), (big, 1), (-big, 3), (1, big), (big, big + 1)]
    for num, den in cases:
        for exact in (False, True):
            text = json_figure(num, den, exact)
            assert text == json.dumps(format_number(figure(num, den, exact)))
            json.loads(text, parse_constant=_raise)
    assert [json_figure(n, d) for n, d in cases[5:7]] == ["null", "null"]
    assert (json_figure(6, 4, True), json_figure(12, 4, True)) == ('"3/2"', "3")
    assert [format_number(v) for v in (math.nan, -math.inf, None, 0.5)] == [None, None, None, 0.5]


def test_rejected_trial_points_are_counted_in_number(monkeypatch):
    # poisoned kernel calls read as non-finite: Levenberg-Marquardt rejects
    # its first trial points there, and the note agrees with the count
    original = _kernels.value_and_ricci
    model, T = full_flag(4), DiagonalForm.full((1.0,) * 5 + (1.01,))
    for poisoned, note in (({2}, "1 trial point with"), ({2, 3}, "2 trial points with")):
        calls = []

        def kernel(*args):
            S = original(*args)
            calls.append(len(S))
            return np.full_like(S, np.nan) if len(calls) in poisoned else S

        monkeypatch.setattr(_kernels, "value_and_ricci", kernel)
        rep = maximize_S_on_MT(model, T)
        assert rep.status == "solved" and calls[:3] == [1, 1, 1]
        assert rep.notes[-1] == f"{note} non-finite curvature rejected"


def test_certificate_matches_the_oracle_at_every_s(monkeypatch):
    # certify's c, residual and S are the correctly rounded exact figures at
    # T / 2**k, and certified and c_exponent are decided exactly, on exact
    # and float models with s = 2 to 6: at dyadic metrics whose ratios reach
    # 2**40 either way against a drawn T, and at metrics scaled by up to
    # 2**40 either way against their own rounded Ricci coefficients
    rng = np.random.default_rng(43)
    outcomes = set()
    for n in range(40):
        s, exact, certifiable = 2 + n % 5, n % 2 == 0, n % 4 < 2
        spread, shift = (2, int(rng.integers(-40, 41))) if certifiable else (20, 0)
        while True:
            model = random_space_model(rng, s=s, exact=exact)
            x = [math.ldexp(float(rng.uniform(1, 2)), shift + int(rng.integers(-spread, spread + 1)))
                 for _ in range(s)]
            r = ricci(model, DiagonalForm.full(x))
            if not certifiable or all(v > 0 for v in r):
                break
        T = DiagonalForm.full(r if certifiable else tuple(float(v) for v in rng.uniform(0.3, 3, s)))
        for k in (-3, 0, 4):
            c, residual, S, certified, e = _elimination.certify(model, T, x, k, TOL)
            z = DiagonalForm.full(tuple(Fraction(v) / 2**k for v in T.values))
            oc, ores, oS = oracle_figures(model, DiagonalForm.full(x), z)
            assert (c, residual, S) == (float(oc), float(ores), float(oS))
            assert certified == (oc > 0 and ores <= TOL)
            assert Fraction(2) ** e <= abs(oc) < Fraction(2) ** (e + 1)
            outcomes.add((s, certified))
    assert len(outcomes) == 10
    # a zero or infinite coordinate: every figure nan, uncertified
    model = random_space_model(rng, s=4)
    T = DiagonalForm.full((1.0,) * 4)
    for bad in (0.0, math.inf):
        figures = _elimination.certify(model, T, [1.0, bad, 2.0, 1.0], 0, TOL)
        assert [math.isnan(v) for v in figures[:3]] == [True] * 3 and figures[3:] == (False, None)
    # ricci and the certificate read the one curvature pass, with the same
    # integers at the same metric
    passes = []
    original = curvature._evaluate
    monkeypatch.setattr(curvature, "_evaluate", lambda *a: passes.append(a) or original(*a))
    x = [0.5, 3.0, 1.25, 0.75]
    ricci(model, DiagonalForm.full(x))
    _elimination.certify(model, T, x, 0, TOL)
    assert len(passes) == 2 and passes[0][1:] == passes[1][1:]
