"""Ricci iteration: per-step exactness, reproducibility, truncation."""

import re
import time
from fractions import Fraction

import numpy as np
import pytest

from homricci import (
    DiagonalForm,
    IterationError,
    abelian_line_two_summand,
    build_model,
    classify_cor_all,
    flag3,
    ricci,
    ricci_iterate,
    solve_prescribed_ricci,
    two_summand,
    two_summand_condition,
)
from homricci import iteration, solver
from homricci import model as model_mod
from helpers import oracle_figures


def line_space():
    return abelian_line_two_summand(4, Fraction(1, 3), Fraction(1, 2))


def test_iteration_on_unconditional_space():
    m = line_space()
    assert classify_cor_all(m)
    trace = ricci_iterate(m, DiagonalForm.full((1.0, 1.0)), steps=10)
    assert trace.status == "completed"
    assert len(trace.steps) == 10
    for st in trace.steps:
        assert st.c > 0
        assert st.residual < 1e-7


def test_step_verification_identity():
    m = line_space()
    trace = ricci_iterate(m, DiagonalForm.full((2.0, 0.5)), steps=4)
    steps = trace.steps
    # ricci(g_{i+1}) = ricci(gbar_{i+1}) = c_i gbar_i = g_i, by scale invariance
    for prev, cur in zip(steps, steps[1:]):
        r = ricci(m, cur.g)
        target = [float(v) for v in prev.g.values]
        scale = max(abs(v) for v in target)
        assert max(abs(float(a) - b) for a, b in zip(r, target)) / scale < 1e-7
        # the step's c and residual are the solve's, exact at gbar_{i+1}
        # (a multiple of the solve's metric) against gbar_i, rounded once
        c, residual, _ = oracle_figures(m, cur.g_bar, prev.g_bar)
        assert (prev.c, prev.residual) == (float(c), float(residual))


def test_single_summand_constant_ray():
    m = build_model("pt", dims=(3,), killing=(1,))
    trace = ricci_iterate(m, DiagonalForm.full((2.0,)), steps=5)
    assert trace.status == "completed"
    # rescaled metric is pinned at the fixed Ricci coefficient b/2
    for st in trace.steps:
        assert float(st.g.values[0]) == pytest.approx(0.5, abs=1e-12)
    # each target is scaled into [1, 2) (the raw one grows by d each
    # step), so c times the target's largest coefficient is constant
    cs = [st.c * max(st.g_bar.values) for st in trace.steps]
    assert cs == pytest.approx([cs[0]] * len(cs), rel=1e-9)
    assert all(1 <= max(st.g_bar.values) < 2 for st in trace.steps[1:])


def test_long_runs_stay_in_the_float_range():
    # unscaled, each step's target grows by a near-constant factor, and
    # these runs left the float range before their last step
    cases = [
        (flag3(6, 4, 2), (1.0, 1.0, 1.0), 300),
        (two_summand(2, 3, Fraction(1, 4), Fraction(3, 10), Fraction(4, 5)), (1.0, 1.0), 1000),
    ]
    for model, start, steps in cases:
        trace = ricci_iterate(model, DiagonalForm.full(start), steps)
        assert (trace.status, len(trace.steps)) == ("completed", steps)
        assert all(1 <= max(st.g_bar.values) < 2 for st in trace.steps[1:])
        assert trace.cauchy[-1] < 1e-12


def test_trace_bit_reproducible():
    m = line_space()
    t1 = ricci_iterate(m, DiagonalForm.full((1.0, 3.0)), steps=6)
    t2 = ricci_iterate(m, DiagonalForm.full((1.0, 3.0)), steps=6)
    assert t1.to_json_lines() == t2.to_json_lines()


def test_truncates_when_a_step_fails():
    m = two_summand(2, 3, 0.25, 0.3, 0.8)
    thr = float(two_summand_condition(m, DiagonalForm.full((1.0, 1.0))).threshold)
    start = DiagonalForm.full((0.5 * thr, 1.0))
    trace = ricci_iterate(m, start, steps=5)
    assert trace.status == "truncated"
    assert trace.steps == ()
    assert trace.failure is not None and trace.failure.status == "diverged"
    failure = trace.to_dict()["failure"]
    assert (failure["step"], failure["status"]) == (1, "diverged")
    assert failure["notes"] == list(trace.failure.notes)
    assert ricci_iterate(m, DiagonalForm.full((1.0, 1.0)), steps=2).to_dict()["failure"] is None


def test_three_summand_iteration_ends_with_a_proof():
    # g2u2 and flag3(1,2,3) from the unit metric: the step-2 target has no
    # solution, which the exact s = 3 solve proves at once
    for model in (flag3(4, 2, 4), flag3(1, 2, 3)):
        t0 = time.perf_counter()
        trace = ricci_iterate(model, DiagonalForm.full((1.0, 1.0, 1.0)), steps=5)
        assert time.perf_counter() - t0 < 1.0
        assert (trace.status, len(trace.steps)) == ("truncated", 1)
        failure = trace.to_dict()["failure"]
        assert (failure["step"], failure["status"]) == (2, "diverged")
        assert failure["notes"][-1].startswith("no solution exists")


def test_only_a_failing_step_takes_the_chain_check(monkeypatch):
    # g2u2 from the unit metric: step 1 solves and takes no check; step 2
    # is solved once, and its report is what solve_prescribed_ricci gives
    # for that target, with the check's condition and note
    model = flag3(4, 2, 4)
    solves, checks = [], []
    solve, check = iteration.maximize_S_on_MT, solver.check_theorem

    def solving(model, T, options=None):
        solves.append(T)
        return solve(model, T, options)

    def checking(model, T):
        checks.append(T)
        return check(model, T)

    monkeypatch.setattr(iteration, "maximize_S_on_MT", solving)
    monkeypatch.setattr(solver, "check_theorem", checking)
    trace = ricci_iterate(model, DiagonalForm.full((1.0, 1.0, 1.0)), steps=5)
    assert (trace.status, len(trace.steps), len(solves)) == ("truncated", 1, 2)
    assert checks == [solves[1]]
    failure = trace.failure
    assert not failure.condition.passed
    assert failure.notes[0] == "chain condition failed"
    monkeypatch.undo()
    assert failure.to_json() == solve_prescribed_ricci(model, solves[1]).to_json()


def test_iteration_input_validation():
    m = line_space()
    with pytest.raises(IterationError):
        ricci_iterate(m, DiagonalForm.full((1.0, 1.0)), steps=0)
    with pytest.raises(IterationError):
        ricci_iterate(m, DiagonalForm.full((1.0,)), steps=2)
    # a float or a bool is no step count, and is not truncated; an integer
    # of any integer type is one
    start = DiagonalForm.full((1.0, 1.0))
    for steps in (2.5, True, 2.0):
        error = f"steps must be an integer, got {steps!r}"
        with pytest.raises(IterationError, match=re.escape(error)):
            ricci_iterate(m, start, steps)
    assert len(ricci_iterate(m, start, np.int64(2)).steps) == 2


def test_cauchy_diagnostics_monotone_for_contracting_space():
    m = line_space()
    trace = ricci_iterate(m, DiagonalForm.full((5.0, 0.2)), steps=8)
    assert len(trace.cauchy) == 7
    # not asserted to converge in general; this space does settle down
    assert trace.cauchy[-1] < trace.cauchy[0]


def test_failing_step_reports_a_lattice_beyond_its_guard_as_a_note(monkeypatch):
    # the failing step takes the chain check of its target: where the
    # lattice is beyond its guard (here a guard of 2 members), the note says
    # so and the step's own status and notes stand
    model = flag3(4, 2, 4)
    start = DiagonalForm.full((1.0, 1.0, 1.0))
    monkeypatch.setattr(model_mod, "MAX_MEMBERS", 2)
    trace = ricci_iterate(model, start, steps=5)
    assert (trace.status, len(trace.steps), trace.failure.status) == ("truncated", 1, "diverged")
    assert trace.failure.condition is None
    assert trace.failure.notes[0] == (
        "chain condition not checked: the subalgebra lattice has more than 2 members"
    )
    assert trace.failure.notes[1].startswith("no solution exists")
