"""The numpy kernel: agreement with the exact path and the call route."""

from fractions import Fraction

import numpy as np
import pytest

from homricci import (
    DiagonalForm,
    _kernels,
    build_model,
    flag3,
    hat_S,
    ricci,
    scalar_S,
    solve_prescribed_ricci,
)
from homricci.curvature import tables_for
from helpers import random_positive_form, random_space_model


def _random_inputs(rng, m):
    full = tuple(range(1, m.s + 1))
    tab = tables_for(m, full)
    x = np.array(
        [float(v) for v in random_positive_form(rng, m.s).values], dtype=np.float64
    )
    return tab, x


def test_float_path_matches_exact_path():
    rng = np.random.default_rng(43)
    cases = [random_space_model(rng, exact=True) for _ in range(15)]
    # no bracket between the summands: the kernel sees no triple rows
    cases.append(build_model("no-triples", dims=(2, 3), killing=(1, Fraction(1, 2))))
    for m in cases:
        x_exact = random_positive_form(rng, m.s, exact=True)
        x_float = x_exact.to_float()
        s_e = float(scalar_S(m, x_exact))
        s_f = float(scalar_S(m, x_float))
        assert s_f == pytest.approx(s_e, rel=1e-12)
        r_e = [float(v) for v in ricci(m, x_exact)]
        r_f = [float(v) for v in ricci(m, x_float)]
        np.testing.assert_allclose(r_f, r_e, rtol=1e-11, atol=1e-12)
    assert len(tables_for(cases[-1], (1, 2)).tv) == 0


def test_value_and_ricci_consistent_with_public_ricci():
    rng = np.random.default_rng(44)
    m = flag3(4, 2, 4)
    tab, x = _random_inputs(rng, m)
    out = np.empty((1, 3))
    val = _kernels.value_and_ricci(
        tab.db, tab.b, tab.d, tab.ti, tab.tj, tab.tk, tab.tv, x[None, :], out
    )
    assert val.shape == (1,)
    form = DiagonalForm.full(tuple(float(v) for v in x))
    assert val[0] == pytest.approx(float(scalar_S(m, form)), rel=1e-13)
    np.testing.assert_allclose(out[0], [float(v) for v in ricci(m, form)], rtol=1e-12)


def test_batched_kernel_is_bit_identical_to_single_points():
    # every point of an (m, n) batch gets the S, r and Jacobian of a batch of
    # that point alone, bit for bit
    rng = np.random.default_rng(46)
    cases = [random_space_model(rng, s=int(rng.integers(2, 7))) for _ in range(10)]
    cases.append(flag3(4, 2, 4))
    for m in cases:
        tab = tables_for(m, tuple(range(1, m.s + 1)))
        args = (tab.db, tab.b, tab.d, tab.ti, tab.tj, tab.tk, tab.tv)
        for size in (1, 2, 16):
            x = np.exp(rng.normal(0.0, 1.0, size=(size, m.s)))
            r, jac = np.empty((size, m.s)), np.empty((size, m.s, m.s))
            S = _kernels.value_and_ricci(*args, x, r, jac)
            for i in range(size):
                r1, jac1 = np.empty((1, m.s)), np.empty((1, m.s, m.s))
                S1 = _kernels.value_and_ricci(*args, x[i : i + 1], r1, jac1)
                assert S1[0] == S[i]
                assert np.array_equal(r1[0], r[i]) and np.array_equal(jac1[0], jac[i])


def test_ricci_jacobian_matches_central_differences():
    rng = np.random.default_rng(45)
    cases = [random_space_model(rng, exact=bool(k % 2)) for k in range(12)]
    # (1,1,1) and (1,1,2) triples, and a model with no triple rows
    cases.append(
        build_model(
            "repeated", dims=(3, 2), casimir=(0.3, 0.4), triples={(1, 1, 1): 0.5, (1, 1, 2): 0.7}
        )
    )
    cases.append(build_model("no-triples", dims=(2, 3), killing=(1, Fraction(1, 2))))
    for m in cases:
        tab, x = _random_inputs(rng, m)
        x = x[None, :]
        n = m.s
        r_plain, r, jac = np.empty((1, n)), np.empty((1, n)), np.empty((1, n, n))
        args = (tab.db, tab.b, tab.d, tab.ti, tab.tj, tab.tk, tab.tv)
        _kernels.value_and_ricci(*args, x, r_plain)
        _kernels.value_and_ricci(*args, x, r, jac)
        assert np.array_equal(r, r_plain)
        # the 2n displaced points in one batch
        steps = np.vstack([np.diag(1e-6 * x[0]), -np.diag(1e-6 * x[0])])
        r_fd = np.empty((2 * n, n))
        _kernels.value_and_ricci(*args, x + steps, r_fd)
        fd = (r_fd[:n] - r_fd[n:]).T / (2e-6 * x)
        np.testing.assert_allclose(jac[0], fd, rtol=1e-8, atol=1e-8 * np.max(np.abs(jac)))
    assert len(tables_for(cases[-1], (1, 2)).tv) == 0


def test_float_evaluations_reach_the_module_kernel(monkeypatch):
    # A wrapper that takes positional arguments only, installed on the
    # module, must see every float evaluation: run records count kernel
    # calls this way.
    original = _kernels.value_and_ricci
    calls = []

    def counting(*args):
        calls.append(args[7].shape[0])  # the points evaluated
        return original(*args)

    monkeypatch.setattr(_kernels, "value_and_ricci", counting)
    m = flag3(4, 2, 4)
    x = DiagonalForm.full((1.0, 0.5, 2.0))
    for evaluate in (
        lambda: scalar_S(m, x),
        lambda: hat_S(m, x, (2,)),
        lambda: ricci(m, x),
    ):
        calls.clear()
        evaluate()
        assert calls == [1]
    calls.clear()
    rep = solve_prescribed_ricci(m, DiagonalForm.full((1.0, 1.0, 1.0)))
    assert rep.status == "solved"
    # at least one evaluated point per start and per ascent iteration
    assert sum(calls) >= rep.starts_used + rep.iterations
