"""The three answers agree: the chain check, the solve and, for two
summands, the exact threshold, on seeded corpora of random models.

The corpora are drawn as ROADMAP.md records them: the passing corpus
(every target whose theorem check passes), the s = 3 entries of the
failing corpus (every one decided by the exact solve), and a seeded set of
two-summand cases on both sides of the threshold.
"""

import numpy as np

from homricci import (
    SolverOptions,
    check_corollary_lambda,
    check_theorem,
    solve_prescribed_ricci,
    two_summand_condition,
)
from helpers import draw_corpus, oracle_figures, oracle_ricci, random_two_summand_case

TOL = SolverOptions.residual_tol


def _consistent(model, T):
    """Assert the invariants on one target; return its solve's status."""
    theorem = check_theorem(model, T)
    if check_corollary_lambda(model, T).passed:
        assert theorem.passed
    report = solve_prescribed_ricci(model, T)
    assert report.condition.passed == theorem.passed
    if theorem.passed:
        assert report.status == "solved"
    if report.status == "diverged":
        assert not theorem.passed
    if report.status == "solved":
        # the residual the solve certifies, recomputed by the dense oracle
        r = oracle_ricci(model, report.x)
        z = np.array([float(v) for v in T.values])
        assert np.max(np.abs(r - report.c * z)) / (report.c * np.max(z)) <= TOL
        if report.solutions is not None:
            # the exact s <= 3 solve's figures are exact, rounded once
            c, residual, S = oracle_figures(model, report.x, T)
            assert (report.c, report.residual, report.S_value) == (float(c), float(residual), float(S))
    return report.status


def test_passing_corpus_is_solved():
    corpus = draw_corpus(7, 3, 7, 0.3, 3, keep_passing=True, size=80)
    assert [_consistent(model, T) for model, T in corpus] == ["solved"] * 80


def test_failing_corpus_three_summands_decided():
    corpus = draw_corpus(11, 3, 6, 0.05, 5, keep_passing=False, size=40)
    statuses = [_consistent(model, T) for model, T in corpus if model.s == 3]
    assert len(statuses) == 17
    assert set(statuses) <= {"solved", "diverged"}


def test_two_summand_status_is_the_exact_threshold():
    rng = np.random.default_rng(13)
    for index in range(40):
        model, T, _ = random_two_summand_case(rng, pass_side=index % 2 == 0)
        status = _consistent(model, T)
        assert status == ("solved" if two_summand_condition(model, T).passed else "diverged")
