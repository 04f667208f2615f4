"""The three answers agree: the chain check, the solve and, for two
summands, the exact threshold, on seeded corpora of random models.

The corpora are drawn as ROADMAP.md records them: the passing corpus
(every target whose theorem check passes), the s = 3 entries of the
failing corpus (every one decided by the exact solve), a seeded set of
two-summand cases on both sides of the threshold, and the known-solution
corpus (targets built from a metric, so that every one has a solution).
"""

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
    oracle_figures,
    oracle_ricci,
    random_two_summand_case,
)

TOL = SolverOptions.residual_tol
NEWTON = "minimum-norm Newton on Ric g = c T; "
# the known-solution entries that the ascent leaves unsolved, 26 "diverged"
# and 6 "inconclusive" (ROADMAP.md, Corpora)
ASCENT_MISSES = (
    7, 11, 17, 23, 43, 45, 49, 60, 61, 72, 77, 78, 83, 84, 95, 100,
    106, 111, 115, 117, 137, 144, 147, 152, 153, 154, 158, 159, 163, 171, 175, 183,
)


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


def test_known_solutions_are_solved(monkeypatch):
    corpus = draw_known_solutions(5, 200)
    # Levenberg-Marquardt alone (the ascent patched out, so that a solve is
    # "solved" exactly where it certifies a start), within its call cap
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_run_starts", lambda *args: [])
        alone = [maximize_S_on_MT(model, T) for model, T in corpus]
    # entries 121 and 154 need more than LM_CALLS kernel calls (about 125
    # and 700 uncapped), so the ascent decides them
    assert [i for i, rep in enumerate(alone) if rep.status != "solved"] == [121, 154]
    calls = [_newton_calls(rep) for rep in alone if rep.status == "solved"]
    assert all(0 < n <= solver.LM_CALLS for n in calls)
    # full solves: every ascent miss but 154 is certified, with exact figures
    for i in ASCENT_MISSES:
        if i == 154:
            continue
        model, T = corpus[i]
        report = maximize_S_on_MT(model, T)
        assert report.status == "solved" and _newton_calls(report) is not None, i
        _exact_figures(model, T, report)
    # the ascent solves 121, its start certified again exactly; 154 stays a
    # miss: the ascent ends it "inconclusive" after 160,000 iterations,
    # about 3 s, not spent here
    report = maximize_S_on_MT(*corpus[121])
    assert report.status == "solved" and _newton_calls(report) is None
    _exact_figures(*corpus[121], report)
