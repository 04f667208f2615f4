"""Ricci iteration: per-step exactness, reproducibility, truncation."""

from fractions import Fraction

import pytest

from homricci import (
    DiagonalForm,
    IterationError,
    abelian_line_two_summand,
    build_model,
    classify_cor_all,
    ricci,
    ricci_iterate,
    two_summand,
    two_summand_condition,
)


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
        # the step residual is the solve's certified one, rescaled by c
        r_bar = ricci(m, cur.g_bar)
        direct = max(abs(float(a) - b) for a, b in zip(r_bar, target)) / scale
        assert prev.residual == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_single_summand_constant_ray():
    m = build_model("pt", dims=(3,), killing=(1,))
    trace = ricci_iterate(m, DiagonalForm.full((2.0,)), steps=5)
    assert trace.status == "completed"
    # rescaled metric is pinned at the fixed Ricci coefficient b/2
    for st in trace.steps:
        assert float(st.g.values[0]) == pytest.approx(0.5, abs=1e-12)
    # the raw solve target grows by d each step, so c shrinks by d
    cs = [st.c for st in trace.steps]
    for a, b in zip(cs, cs[1:]):
        assert b == pytest.approx(a / 3, rel=1e-9)


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


def test_iteration_input_validation():
    m = line_space()
    with pytest.raises(IterationError):
        ricci_iterate(m, DiagonalForm.full((1.0, 1.0)), steps=0)
    with pytest.raises(IterationError):
        ricci_iterate(m, DiagonalForm((1.0,), (1,)), steps=2)


def test_cauchy_diagnostics_monotone_for_contracting_space():
    m = line_space()
    trace = ricci_iterate(m, DiagonalForm.full((5.0, 0.2)), steps=8)
    assert len(trace.cauchy) == 7
    # not asserted to converge in general; this space does settle down
    assert trace.cauchy[-1] < trace.cauchy[0]
