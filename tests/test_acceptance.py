"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria with stated runtime budgets enforce them with perf_counter.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from homricci import (
    DiagonalForm,
    SolverOptions,
    SpaceModel,
    abelian_line_two_summand,
    check_theorem,
    enumerate_simple_chains,
    enumerate_subalgebras,
    flag3,
    grad_S,
    hat_S,
    ricci,
    ricci_iterate,
    scalar_S,
    solve_prescribed_ricci,
    two_summand_condition,
    validate,
)
from helpers import (
    def_form_eta,
    fd_grad_S,
    oracle_simple_chains,
    random_positive_form,
    random_space_model,
    random_two_summand_case,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def test_criterion_1_flag_golden_values():
    with criterion(1, "exact eta values and reduced conditions on flag3(4,2,4)"):
        t0 = time.perf_counter()
        m = flag3(4, 2, 4)
        chains = enumerate_simple_chains(m)
        assert [ch.eta for ch in chains] == [Fraction(1, 48), Fraction(3, 20)]
        # reduced thresholds: z2/(z1+z3) > 1/12 and z3/(2 z1 + z2) > 3/10
        assert chains[0].eta * 4 == Fraction(1, 12)
        assert chains[1].eta * 2 == Fraction(3, 10)
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = [Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
                 for _ in range(3)]
            rep = check_theorem(m, DiagonalForm.full(z))
            manual = (
                z[1] / (z[0] + z[2]) > Fraction(1, 12)
                and z[2] / (2 * z[0] + z[1]) > Fraction(3, 10)
            )
            assert rep.passed == manual
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_eta_form_equivalence():
    with criterion(2, "defining and Casimir forms of eta agree on 200 models"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        total_chains = 0
        for idx in range(200):
            exact = idx % 2 == 0
            m = random_space_model(rng, exact=exact)
            for ch in enumerate_simple_chains(m):
                other = def_form_eta(m, ch)
                if exact:
                    assert other == ch.eta
                else:
                    assert abs(float(other) - float(ch.eta)) <= 1e-10 * max(
                        1.0, abs(float(ch.eta))
                    )
                total_chains += 1
        assert total_chains > 100
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_casimir_identity_gate():
    with criterion(3, "catalog models validate exactly; perturbed killing rejected"):
        models = [
            flag3(4, 2, 4),
            flag3(2, 2, 2),
            abelian_line_two_summand(4, Fraction(1, 3), Fraction(1, 2)),
        ]
        for m in models:
            report = validate(m)
            assert report.ok
            assert all(res == 0 for res in report.residuals)
        m = flag3(4, 2, 4)
        killing = [float(b) for b in m.killing]
        killing[1] += 5e-9  # residual d_2 * 5e-9 = 1e-8 > 1e-9
        bad = validate(
            SpaceModel(
                m.name,
                m.dims,
                tuple(float(z) for z in m.casimir),
                tuple(killing),
                tuple((i, j, k, float(v)) for i, j, k, v in m.triples),
            )
        )
        assert not bad.ok


def test_criterion_4_gradient_check():
    with criterion(4, "analytic gradient matches central differences to 1e-6"):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_space_model(rng)
            for _ in range(20):
                x = random_positive_form(rng, m.s, low=0.5, high=2.0)
                analytic = grad_S(m, x)
                numeric = fd_grad_S(m, x, step=1e-5)
                for a, n in zip(analytic, numeric):
                    assert abs(a - n) <= 1e-6 * max(1.0, abs(a))


def test_criterion_5_self_certifying_solve():
    with criterion(5, "flag3(4,2,4) with unit target solves and certifies"):
        t0 = time.perf_counter()
        m = flag3(4, 2, 4)
        rep = solve_prescribed_ricci(m, DiagonalForm.full((1.0, 1.0, 1.0)))
        assert rep.status == "solved"
        assert rep.c > 0
        assert rep.residual < 1e-8
        assert rep.constraint_error <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_two_summand_iff_oracle():
    with criterion(6, "solver agrees with the exact two-summand threshold, 100 models"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(6)
        for n in range(100):
            pass_side = n % 2 == 0
            model, T, threshold = random_two_summand_case(rng, pass_side)
            cond = two_summand_condition(model, T)
            ratio = float(cond.ratio)
            assert abs(ratio - threshold) >= 0.05 * threshold
            assert cond.passed == pass_side
            rep = solve_prescribed_ricci(model, T)
            assert (rep.status == "solved") == pass_side, (
                f"model {model.name} ratio={ratio:.4f} threshold={threshold:.4f} "
                f"status={rep.status}"
            )
        assert time.perf_counter() - t0 < 30.0


def test_criterion_7_scale_laws():
    with criterion(7, "S and ricci scale laws; margins sign-invariant under scaling"):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = random_space_model(rng)
            x = random_positive_form(rng, m.s)
            lam = float(rng.uniform(0.2, 6.0))
            s_scaled = scalar_S(m, x.scale(lam))
            s_plain = scalar_S(m, x)
            assert abs(s_scaled - s_plain / lam) <= 1e-12 * max(1.0, abs(s_plain / lam))
            r_scaled = ricci(m, x.scale(lam))
            r_plain = ricci(m, x)
            for a, b in zip(r_scaled, r_plain):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        for _ in range(25):
            m = random_space_model(rng, exact=True)
            chains = enumerate_simple_chains(m)
            if not chains:
                continue
            T = random_positive_form(rng, m.s, exact=True)
            lam = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 9)))
            before = check_theorem(m, T)
            after = check_theorem(m, T.scale(lam))
            for a, b in zip(before.conditions, after.conditions):
                assert (a.margin > 0) == (b.margin > 0)
                assert a.margin == b.margin


def test_criterion_8_splitting_and_sup_positivity():
    with criterion(8, "splitting inequality and balanced-point non-negativity"):
        rng = np.random.default_rng(8)
        samples = 0
        while samples < 100:
            m = random_space_model(rng)
            chains = enumerate_simple_chains(m)
            if not chains:
                continue
            ch = chains[int(rng.integers(0, len(chains)))]
            x = random_positive_form(rng, m.s)
            whole = hat_S(m, x.restrict(ch.J_k), ch.J_k)
            inner = hat_S(m, x.restrict(ch.J_kprime), ch.J_kprime)
            middle = scalar_S(m, x.restrict(ch.J_l), ch.J_l)
            assert whole <= inner + middle + 1e-12
            samples += 1
        for _ in range(20):
            m = random_space_model(rng)
            lat = enumerate_subalgebras(m)
            z = random_positive_form(rng, m.s)
            for J in lat.members:
                if not J:
                    continue
                psi = sum(m.dims[i - 1] * float(z[i]) for i in J)
                x = DiagonalForm(tuple(psi for _ in J), J)
                assert hat_S(m, x, J) >= -1e-12


def test_criterion_9_ricci_iteration():
    with criterion(9, "10-step iteration on the abelian-line space, reproducible"):
        m = abelian_line_two_summand(4, Fraction(1, 3), Fraction(1, 2))
        opts = SolverOptions(seed=0)
        trace = ricci_iterate(m, DiagonalForm.full((1.0, 1.0)), steps=10, options=opts)
        assert trace.status == "completed"
        assert len(trace.steps) == 10
        for st in trace.steps:
            assert st.c > 0
            assert st.residual < 1e-7
        again = ricci_iterate(m, DiagonalForm.full((1.0, 1.0)), steps=10, options=opts)
        assert trace.to_json_lines() == again.to_json_lines()


def test_criterion_10_enumeration_golden_and_oracle():
    with criterion(10, "flag lattice and chains; set-algebra oracle on random lattices"):
        m = flag3(4, 2, 4)
        assert m.lattice.members == ((), (2,), (3,), (1, 2, 3))
        chains = enumerate_simple_chains(m)
        assert [(ch.J_k, ch.J_kprime) for ch in chains] == [
            ((1, 2, 3), (2,)),
            ((1, 2, 3), (3,)),
        ]
        rng = np.random.default_rng(10)
        for _ in range(50):
            model = random_space_model(rng)
            got = [(ch.J_k, ch.J_kprime) for ch in enumerate_simple_chains(model)]
            assert got == oracle_simple_chains(model.lattice.members)
