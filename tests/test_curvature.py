"""Curvature functionals against dense-tensor oracles and exact identities."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from homricci import (
    CurvatureError,
    DiagonalForm,
    SpaceModel,
    build_model,
    enumerate_simple_chains,
    enumerate_subalgebras,
    flag3,
    grad_S,
    hat_S,
    ricci,
    scalar_S,
)
from helpers import (
    fd_grad_S,
    oracle_hat_S,
    oracle_scalar_S,
    random_positive_form,
    random_space_model,
)

G2 = flag3(4, 2, 4)


def test_scalar_single_summand():
    # no brackets: S restricted to {1} is d*b/(2x)
    m = build_model("pt", dims=(2, 1), casimir=(Fraction(1, 2), Fraction(1, 4)))
    x = DiagonalForm.full((1, 3))  # read on {1} only
    assert scalar_S(m, x, (1,)) == m.dims[0] * m.killing[0] / 2


def test_exact_scalar_S_without_triples_is_a_fraction():
    # an empty triple sum must not turn the exact value into a float
    x = DiagonalForm.full((5, 1, 7))  # read on {2} only
    assert scalar_S(G2, x, (2,)) == 1
    assert isinstance(scalar_S(G2, x, (2,)), Fraction)
    m = build_model("no-triples", dims=(2, 3), killing=(1, Fraction(1, 2)))
    value = scalar_S(m, DiagonalForm.full((1, 2)))
    assert value == Fraction(11, 8)
    assert isinstance(value, Fraction)
    assert isinstance(hat_S(m, DiagonalForm.full((1, 2))), Fraction)


def test_scalar_flag_golden():
    assert scalar_S(G2, DiagonalForm.full((1, 1, 1))) == Fraction(15, 4)
    val = scalar_S(G2, DiagonalForm.full((1.0, 1.0, 1.0)))
    assert val == pytest.approx(3.75, abs=1e-14)


def test_scalar_homogeneity_exact_and_float():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = random_space_model(rng, exact=True)
        x = random_positive_form(rng, m.s, exact=True)
        lam = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        assert scalar_S(m, x.scale(lam)) * lam == scalar_S(m, x)
    for _ in range(10):
        m = random_space_model(rng)
        x = random_positive_form(rng, m.s)
        lam = float(rng.uniform(0.2, 5.0))
        a = scalar_S(m, x.scale(lam))
        b = scalar_S(m, x) / lam
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_scalar_matches_dense_oracle_restricted():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_space_model(rng)
        x = random_positive_form(rng, m.s)
        assert scalar_S(m, x) == pytest.approx(oracle_scalar_S(m, x), rel=1e-12)
        size = int(rng.integers(1, m.s + 1))
        J = tuple(sorted(int(i) + 1 for i in rng.choice(m.s, size=size, replace=False)))
        assert scalar_S(m, x, J) == pytest.approx(oracle_scalar_S(m, x, J), rel=1e-12)


def test_hat_S_equals_S_on_full_set():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_space_model(rng)
        x = random_positive_form(rng, m.s)
        assert hat_S(m, x) == pytest.approx(scalar_S(m, x), rel=1e-14)


def test_hat_S_flag_inner_block_golden():
    x = DiagonalForm.full((5, 1, 7))  # read on {2} only
    assert hat_S(G2, x, (2,)) == Fraction(1, 6)


def test_hat_S_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_space_model(rng)
        x = random_positive_form(rng, m.s)
        size = int(rng.integers(1, m.s + 1))
        J = tuple(sorted(int(i) + 1 for i in rng.choice(m.s, size=size, replace=False)))
        got = hat_S(m, x, J)
        assert got == pytest.approx(oracle_hat_S(m, x, J), rel=1e-12, abs=1e-12)


def test_splitting_inequality_on_chains():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 60:
        m = random_space_model(rng)
        chains = enumerate_simple_chains(m)
        if not chains:
            continue
        x = random_positive_form(rng, m.s)
        for ch in chains:
            whole = hat_S(m, x, ch.J_k)
            inner = hat_S(m, x, ch.J_kprime)
            middle = scalar_S(m, x, ch.J_l)
            assert whole <= inner + middle + 1e-12
            checked += 1


def test_sup_nonnegativity_at_balanced_point():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = random_space_model(rng)
        lat = enumerate_subalgebras(m)
        z = random_positive_form(rng, m.s)
        for J in lat.members:
            if not J:
                continue
            psi = sum(m.dims[i - 1] * float(z[i]) for i in J)
            x = DiagonalForm.full((psi,) * m.s)  # read on J only
            assert hat_S(m, x, J) >= -1e-12


def test_ricci_single_summand_is_half_killing():
    m = build_model("pt", dims=(3,), killing=(1,))
    for val in (0.5, 1.0, 7.3):
        assert ricci(m, DiagonalForm.full((val,))) == (pytest.approx(0.5),)


def test_ricci_flag_golden():
    r = ricci(G2, DiagonalForm.full((1, 1, 1)))
    assert r == (Fraction(17, 48), Fraction(7, 24), Fraction(7, 16))


def test_ricci_scale_invariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = random_space_model(rng, exact=True)
        x = random_positive_form(rng, m.s, exact=True)
        assert ricci(m, x.scale(3)) == ricci(m, x)
    for _ in range(10):
        m = random_space_model(rng)
        x = random_positive_form(rng, m.s)
        a = ricci(m, x.scale(float(rng.uniform(0.3, 4.0))))
        b = ricci(m, x)
        assert all(abs(p - q) <= 1e-12 * max(1.0, abs(q)) for p, q in zip(a, b))


def test_float_curvature_at_any_scale():
    # each figure is rounded once from its exact value: no overflow or
    # underflow at any scale a double holds, and a power-of-two scale maps
    # r and S back bit for bit
    x = DiagonalForm.full((1.0, 0.5, 2.0))
    r, S, S_hat = ricci(G2, x), scalar_S(G2, x), hat_S(G2, x, (2,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (-1000, -500, -3, 5, 700, 1000):
            lam = 2.0**e
            assert ricci(G2, x.scale(lam)) == r
            assert scalar_S(G2, x.scale(lam)) == S / lam
        for lam in (1e-300, 1e-200, 1e-154, 1e154, 1e200, 1e300):
            assert ricci(G2, x.scale(lam)) == pytest.approx(r, rel=1e-14)
            assert scalar_S(G2, x.scale(lam)) * lam == pytest.approx(S, rel=1e-14)
            assert hat_S(G2, x.scale(lam), (2,)) * lam == pytest.approx(S_hat, rel=1e-14)


def test_ricci_requires_full_support():
    with pytest.raises(CurvatureError, match="metric has 2 coefficients; the model has 3 summands"):
        ricci(G2, DiagonalForm.full((1, 1)))


def test_grad_single_summand():
    # S = 1/x for d=2, b=1, so dS/dx at 1 is exactly -1 (curvature formulas
    # do not require the dim >= 3 gate that validation enforces)
    from homricci import SpaceModel

    m = SpaceModel("pt2", (2,), (Fraction(1, 2),), (Fraction(1),), ())
    assert scalar_S(m, DiagonalForm.full((1,))) == 1
    assert grad_S(m, DiagonalForm.full((1,))) == (-1,)
    one = build_model("pt3", dims=(3,), killing=(1,))
    assert grad_S(one, DiagonalForm.full((2,))) == (Fraction(-3, 8),)


def test_grad_is_ricci_identity():
    m = build_model("mix", dims=(2, 1), casimir=(Fraction(1, 2), Fraction(1, 3)),
                    triples={(1, 2, 2): Fraction(1, 5)})
    x = DiagonalForm.full((1, 2))
    g = grad_S(m, x)
    r = ricci(m, x)
    assert g[0] == -m.dims[0] * r[0]
    assert g[1] == -m.dims[1] * r[1] / 4


def test_grad_flag_golden():
    g = grad_S(G2, DiagonalForm.full((1, 1, 1)))
    assert g == (Fraction(-17, 12), Fraction(-7, 12), Fraction(-7, 4))


def test_grad_matches_central_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_space_model(rng)
        x = random_positive_form(rng, m.s, low=0.5, high=2.0)
        analytic = grad_S(m, x)
        numeric = fd_grad_S(m, x)
        for a, n in zip(analytic, numeric):
            assert abs(a - n) <= 1e-6 * max(1.0, abs(a))


def test_trace_constraint_characterization():
    rng = np.random.default_rng(8)
    m = random_space_model(rng, s=3)
    T = random_positive_form(rng, 3)
    # x with u on the simplex lands exactly on the constraint set
    u = np.array([0.2, 0.5, 0.3])
    x = DiagonalForm.full(tuple(m.dims[i] * float(T.values[i]) / u[i] for i in range(3)))

    def constraint(x):
        return sum(m.dims[i - 1] * float(T[i]) / float(x[i]) for i in (1, 2, 3))

    assert constraint(x) == pytest.approx(1.0, abs=1e-12)
    assert constraint(x.scale(2.0)) != pytest.approx(1.0, abs=1e-3)


def test_index_sets_outside_the_model_and_unvalidated_models_are_rejected():
    x = DiagonalForm.full((1, 2, 3))
    with pytest.raises(CurvatureError, match=r"indices \(1, 4\) out of range for s=3"):
        scalar_S(G2, x, (1, 4))
    with pytest.raises(CurvatureError, match="hat_S needs a non-empty index set"):
        hat_S(G2, x, ())
    raw = SpaceModel("raw", G2.dims, G2.casimir, None, G2.triples)
    with pytest.raises(CurvatureError, match="model must be validated"):
        scalar_S(raw, x)


def test_scalar_S_on_the_empty_set_is_zero_in_the_model_arithmetic():
    exact = scalar_S(G2, DiagonalForm.full((1, 2, 3)), ())
    assert exact == 0 and type(exact) is Fraction
    floats = scalar_S(G2, DiagonalForm.full((1.0, 2.0, 3.0)), ())
    assert floats == 0 and type(floats) is float
