"""The three answers agree: the chain check, the solve and, for two
summands, the exact threshold, on seeded corpora of random models.

The corpora are drawn as ROADMAP.md records them: the passing corpus
(every target whose theorem check passes), the s = 3 entries of the
failing corpus (every one decided by the exact solve), a seeded set of
two-summand cases on both sides of the threshold, the known-solution
corpus (targets built from a metric, so that every one has a solution),
the s = 3 sweep and the near-curve corpus (float s = 3 targets within
rounding of one that a metric solves).
"""

from collections import Counter

import numpy as np

from homricci import (
    SolverOptions,
    check_corollary_lambda,
    check_theorem,
    maximize_S_on_MT,
    solve_prescribed_ricci,
    two_summand_condition,
)
from homricci import solver
from helpers import (
    draw_corpus,
    draw_known_solutions,
    draw_near_curve,
    oracle_figures,
    oracle_ricci,
    random_two_summand_case,
    sweep_cases,
)

TOL = SolverOptions.residual_tol
NEWTON = "minimum-norm Newton on Ric g = c T; "


def _newton_calls(report):
    """The kernel calls of the Levenberg-Marquardt certificate that decided
    the report, from its note; None where it did not."""
    for note in report.notes:
        if note.startswith(NEWTON):
            return int(note[len(NEWTON):].split()[0])
    return None


def _exact_figures(model, T, report):
    """Assert that c, the residual and S are the correctly rounded floats
    of their exact values at the returned metric."""
    c, residual, S = oracle_figures(model, report.x, T)
    assert (report.c, report.residual, report.S_value) == (float(c), float(residual), float(S))


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
        # whichever method found it, a solved report's figures are exact,
        # rounded once
        _exact_figures(model, T, report)
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


def test_three_summand_solved_exactly_where_an_admissible_root_exists():
    # for s = 3 the exact path decides: "solved" exactly when it finds an
    # admissible root, "diverged" when it finds none; where its elimination
    # is degenerate (no solutions listed) Levenberg-Marquardt solves
    failing = [case for case in draw_corpus(11, 3, 6, 0.05, 5, False, 40) if case[0].s == 3]
    counts = Counter()
    for model, T in sweep_cases() + failing + draw_near_curve(3, 300):
        report = maximize_S_on_MT(model, T)
        if report.solutions is None:
            assert report.status == "solved" and _newton_calls(report) is not None
            counts["degenerate"] += 1
        else:
            assert report.status == ("solved" if report.solutions else "diverged")
            counts[report.status] += 1
    assert counts == {"solved": 223, "diverged": 127, "degenerate": 117}


def test_known_solutions_are_solved():
    # every target has a solution, and Levenberg-Marquardt certifies all
    # 200, each start within LM_START_CALLS kernel calls, with exact figures
    corpus = draw_known_solutions(5, 200)
    calls = []
    for i, (model, T) in enumerate(corpus):
        report = maximize_S_on_MT(model, T)
        calls.append(_newton_calls(report))
        assert report.status == "solved" and calls[-1] is not None, i
        assert calls[-1] <= report.starts_used * solver.LM_START_CALLS, i
        _exact_figures(model, T, report)
    # the most is entry 121's, over seven starts; entry 154 takes 145, where
    # a start that stalls stops before its cap
    assert (max(calls), calls[121], calls[154]) == (218, 218, 145)
