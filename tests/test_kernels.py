"""The numpy kernel and the scalar pass: agreement with each other and with
exact arithmetic, and the solver's call route."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from homricci import (
    DiagonalForm,
    _kernels,
    build_model,
    flag3,
    full_flag,
    grad_S,
    hat_S,
    ricci,
    scalar_S,
    solve_prescribed_ricci,
)
from homricci import solver
from homricci.numbers import ldexp, to_float
from helpers import random_positive_form, random_space_model


def _random_point(rng, m):
    return np.array(
        [float(v) for v in random_positive_form(rng, m.s).values], dtype=np.float64
    )


def test_float_path_matches_exact_path():
    rng = np.random.default_rng(43)
    cases = [random_space_model(rng, exact=True) for _ in range(15)]
    # no bracket between the summands: the kernel sees no triple rows
    cases.append(build_model("no-triples", dims=(2, 3), killing=(1, Fraction(1, 2))))
    for m in cases:
        x_exact = random_positive_form(rng, m.s, exact=True)
        x_float = DiagonalForm.full(tuple(float(v) for v in x_exact.values))
        s_e = float(scalar_S(m, x_exact))
        s_f = float(scalar_S(m, x_float))
        assert s_f == pytest.approx(s_e, rel=1e-12)
        r_e = [float(v) for v in ricci(m, x_exact)]
        r_f = [float(v) for v in ricci(m, x_float)]
        np.testing.assert_allclose(r_f, r_e, rtol=1e-11, atol=1e-12)
    assert len(cases[-1].kernel_arrays[6]) == 0


def test_value_and_ricci_consistent_with_public_ricci():
    rng = np.random.default_rng(44)
    m = flag3(4, 2, 4)
    x = _random_point(rng, m)
    out = np.empty((1, 3))
    val = _kernels.value_and_ricci(*m.kernel_arrays, x[None, :], out, np.empty((1, 3, 3)))
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
        args = m.kernel_arrays
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
        x = _random_point(rng, m)[None, :]
        n = m.s
        r, jac = np.empty((1, n)), np.empty((1, n, n))
        args = m.kernel_arrays
        _kernels.value_and_ricci(*args, x, r, jac)
        # the 2n displaced points in one batch
        steps = np.vstack([np.diag(1e-6 * x[0]), -np.diag(1e-6 * x[0])])
        r_fd = np.empty((2 * n, n))
        _kernels.value_and_ricci(*args, x + steps, r_fd, np.empty((2 * n, n, n)))
        fd = (r_fd[:n] - r_fd[n:]).T / (2e-6 * x)
        np.testing.assert_allclose(jac[0], fd, rtol=1e-8, atol=1e-8 * np.max(np.abs(jac)))
    assert len(cases[-1].kernel_arrays[6]) == 0


def test_float_evaluations_reach_the_module_kernel(monkeypatch):
    # A wrapper that takes positional arguments only, installed on the
    # module, must see every solve evaluation: run records count kernel
    # calls this way.
    original = _kernels.value_and_ricci
    calls = []

    def counting(*args):
        calls.append(args[7].shape[0])  # the points evaluated
        return original(*args)

    monkeypatch.setattr(_kernels, "value_and_ricci", counting)
    # SU(4)/T: s = 6, where Levenberg-Marquardt certifies, one point a call
    # and as many calls as its note counts; at the unit target, the normal
    # metric, its first
    su4 = full_flag(4)
    for values, count in (((1.0,) * 6, 1), ((1.0,) * 5 + (1.01,), 8)):
        calls.clear()
        rep = solve_prescribed_ricci(su4, DiagonalForm.full(values))
        assert rep.status == "solved"
        assert rep.notes[-1].startswith("minimum-norm Newton on Ric g = c T; ")
        assert calls == [1] * count and rep.notes[-1].endswith(f" {count} kernel call" + "s" * (count > 1))
    # the ascent, where Levenberg-Marquardt certifies no start: at least
    # one evaluated point per start and per ascent iteration; it certifies
    # nothing, and stalls at the normal metric
    calls.clear()
    monkeypatch.setattr(solver, "_levenberg_marquardt", lambda *args: None)
    rep = solve_prescribed_ricci(su4, DiagonalForm.full((1.0,) * 6))
    assert rep.status == "inconclusive" and rep.iterations > 0
    assert sum(calls) >= rep.starts_used + rep.iterations


def test_float_ricci_is_the_correctly_rounded_exact_value():
    # both model arithmetics, float and exact forms (not both exact), at
    # scales a double holds from 2**-900 to 2**900
    rng = np.random.default_rng(47)
    for trial in range(60):
        m = random_space_model(rng, s=2 + trial % 6, exact=bool(trial % 2))
        # an exact form on every other float model
        x = random_positive_form(rng, m.s, exact=trial % 4 == 0)
        for e in (-900, -1, 0, 3, 900):
            scaled = x.scale(Fraction(2) ** e if x.exact else 2.0**e)
            r = _exact_r(m, scaled)
            assert ricci(m, scaled) == tuple(map(to_float, r))


def test_float_grad_S_is_rounded_once_at_any_scale():
    # -d_i r_i / x_i^2 taken exactly and rounded once: 2**e x has the
    # gradient 2**(-2e) grad(x) bit for bit, and 0 or inf beyond the range
    rng = np.random.default_rng(48)
    for trial in range(20):
        m = random_space_model(rng, exact=bool(trial % 2))
        x = random_positive_form(rng, m.s)
        r, g = _exact_r(m, x), grad_S(m, x)
        assert g == tuple(
            to_float(-d * ri / Fraction(v) ** 2) for d, ri, v in zip(m.dims, r, x.values)
        )
        for e in (-900, -300, 300, 900):
            assert grad_S(m, x.scale(2.0**e)) == tuple(ldexp(v, -2 * e) for v in g)


def _exact_values(m, x):
    """Each float of the model and of x at its exact value: (x by index,
    b, the triple values by ordered triple)."""
    xs = dict(enumerate(map(Fraction, x.values), 1))
    tv = {(i, j, k): Fraction(v) for i, j, k, v in m.ordered_triples}
    return xs, [Fraction(v) for v in m.killing], tv


def _exact_S(m, x, J):
    """(S, Shat) on J by dense summation in Fractions."""
    x, b, tv = _exact_values(m, x)
    lin = sum(m.dims[i - 1] * b[i - 1] / x[i] for i in J)
    tri = sum(tv.get((i, j, k), 0) * x[k] / (x[i] * x[j]) for i, j, k in product(J, repeat=3))
    outside = [i for i in range(1, m.s + 1) if i not in J]
    pen = sum(
        (tv.get((i, j, k), 0) / x[i] for i in J for j, k in product(outside, repeat=2)),
        Fraction(0),
    )
    S = lin / 2 - tri / 4
    return S, S - pen / 2


def _exact_r(m, x):
    """r on the full set by dense summation in Fractions."""
    x, b, tv = _exact_values(m, x)
    full = range(1, m.s + 1)
    return tuple(
        b[i - 1] / 2
        + x[i] ** 2 * sum(tv.get((j, k, i), 0) / (x[j] * x[k]) for j, k in product(full, repeat=2))
        / (4 * m.dims[i - 1])
        - sum(tv.get((i, j, k), 0) * x[k] / x[j] for j, k in product(full, repeat=2))
        / (2 * m.dims[i - 1])
        for i in full
    )


def test_exact_pass_matches_a_dense_fraction_oracle():
    # the flag3 goldens are in test_curvature; here random exact models
    rng = np.random.default_rng(49)
    for _ in range(15):
        m = random_space_model(rng, exact=True)
        x = random_positive_form(rng, m.s, exact=True)
        size = int(rng.integers(1, m.s + 1))
        J = tuple(sorted(int(i) + 1 for i in rng.choice(m.s, size=size, replace=False)))
        (S, S_hat), r = _exact_S(m, x, J), _exact_r(m, x)
        got = (scalar_S(m, x, J), hat_S(m, x, J), ricci(m, x))
        assert got == (S, S_hat, r)
        assert all(isinstance(v, Fraction) for v in (*got[:2], *got[2]))


def test_every_figure_is_its_exact_value_rounded_once():
    # float draws, s = 2..7, with coefficients of x spread up to 1e+-200:
    # S and Shat on every lattice member, r and grad S are the correctly
    # rounded floats of the dense oracle's values; exact draws keep them
    rng = np.random.default_rng(51)
    for trial in range(320):
        s = 2 + trial % 6
        exact = trial % 17 == 0
        m = random_space_model(rng, s=s, exact=exact or bool(trial % 3))
        x = random_positive_form(rng, s, exact=exact)
        if not exact:
            spread = 10.0 ** rng.uniform(-200, 200, s)
            x = DiagonalForm.full([float(v * w) for v, w in zip(x.values, spread)])
        spell = (lambda v: v) if exact else to_float
        r = _exact_r(m, x)
        assert ricci(m, x) == tuple(map(spell, r))
        assert grad_S(m, x) == tuple(
            spell(-d * ri / Fraction(v) ** 2) for d, ri, v in zip(m.dims, r, x.values)
        )
        for J in m.lattice.members[1:]:
            S, S_hat = _exact_S(m, x, J)
            assert (scalar_S(m, x, J), hat_S(m, x, J)) == (spell(S), spell(S_hat))
        if exact:
            assert all(isinstance(v, Fraction) for v in ricci(m, x))
    # g2u2 as a float model at (1, 1, 1e-200): 5/12, 5/12, 3/8, where the
    # kernel's formula cancels every digit of r_1 and r_2
    g2 = build_model(
        "g2u2-float", dims=(4, 2, 4), killing=(1.0, 1.0, 1.0),
        triples={(1, 1, 2): 2 / 3, (1, 2, 3): 0.5},
    )
    assert ricci(g2, DiagonalForm.full((1, 1, Fraction(1, 10**200)))) == (
        0.4166666666666667, 0.4166666666666667, 0.375,
    )


def test_float_scalar_S_is_no_less_accurate_than_the_kernel():
    # median relative error against the exact value at the same float point
    rng = np.random.default_rng(50)
    pass_err, kernel_err = [], []
    for trial in range(200):
        m = random_space_model(rng, s=2 + trial % 6, exact=True)
        x = random_positive_form(rng, m.s)
        exact = scalar_S(m, DiagonalForm.full([Fraction(v) for v in x.values]))
        if exact == 0:
            continue
        point = np.array(x.values)[None, :]
        out_r, out_jac = np.empty((1, m.s)), np.empty((1, m.s, m.s))
        kernel = _kernels.value_and_ricci(*m.kernel_arrays, point, out_r, out_jac)[0]
        for errors, value in ((pass_err, scalar_S(m, x)), (kernel_err, kernel)):
            errors.append(abs(Fraction(float(value)) - exact) / abs(exact))
    assert np.median([float(e) for e in pass_err]) <= np.median([float(e) for e in kernel_err])
