"""Ricci iteration driver: repeated prescribed-curvature solves.

Starting from a positive form gbar_1, each step solves Ric gbar_{i+1} =
c_i gbar_i and rescales g_i = c_i gbar_i, so consecutive rescaled metrics
satisfy Ric g_{i+1} = g_i (Ricci coefficients are scale invariant).  Each
target gbar_{i+1} is scaled by a power of two so that its largest
coefficient is in [1, 2): g_i is unchanged, and no run leaves the float
range.  Whether the sequence converges is not asserted; the trace records
the sup-normalized Cauchy differences so callers can judge for themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .model import DiagonalForm, IterationError, SpaceModel, _check_count, _integral
from .solver import SolveReport, SolverOptions, _as_target, _with_chain_check, maximize_S_on_MT


@dataclass(frozen=True)
class IterationStep:
    index: int
    g_bar: DiagonalForm
    c: float
    g: DiagonalForm
    residual: float

    def to_dict(self) -> dict:
        return {
            "step": self.index,
            "g_bar": [float(v) for v in self.g_bar.values],
            "c": self.c,
            "g": [float(v) for v in self.g.values],
            "residual": self.residual,
            "status": "solved",  # a step is kept only where its solve solved
        }


@dataclass(frozen=True)
class IterationTrace:
    """Completed steps plus convergence diagnostics.

    ``cauchy[i]`` is the sup-norm difference of the max-normalized metrics of
    steps i+1 and i+2; a truncated trace keeps the failing solve's report.
    """

    steps: tuple[IterationStep, ...]
    status: str
    cauchy: tuple[float, ...]
    failure: Optional[SolveReport] = None

    @property
    def failed_step(self) -> Optional[dict]:
        """The failing solve's step index, status and notes; None when
        every step solved."""
        if self.failure is None:
            return None
        return {
            "step": len(self.steps) + 1,
            "status": self.failure.status,
            "notes": list(self.failure.notes),
        }

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "steps": [st.to_dict() for st in self.steps],
            "cauchy": list(self.cauchy),
            "failure": self.failed_step,
        }

    def to_json_lines(self) -> str:
        """One JSON line per step, then the status and the failing step
        when a step failed."""
        lines = [st.to_dict() for st in self.steps]
        if self.failure is not None:
            lines.append({"status": self.status, "failure": self.failed_step})
        return "".join(json.dumps(line) + "\n" for line in lines)


def ricci_iterate(
    model: SpaceModel,
    g_bar_1: DiagonalForm,
    steps: int,
    options: Optional[SolverOptions] = None,
) -> IterationTrace:
    """Run the iteration for the requested number of solve steps.

    Each step maximizes S for its target.  On a failed solve the trace is
    truncated with that step's report attached, as ``solve_prescribed_ricci``
    gives it: with the chain check of its target (advisory), which a solved
    step, whose report is dropped, does not take.
    """
    steps = _integral(steps, "steps", IterationError)
    if steps < 1:
        raise IterationError("need at least one step")
    _check_count(g_bar_1, model.s, "starting form", IterationError)
    opts = options or SolverOptions()

    # the start is read as the first solve's target: normal doubles, or a
    # SolverError, also where a coefficient has no double
    g_bar = DiagonalForm.full(tuple(_as_target(model, g_bar_1)))
    completed: list[IterationStep] = []
    failure = None
    for index in range(1, steps + 1):
        report = maximize_S_on_MT(model, g_bar, opts)
        if report.status != "solved":
            failure = _with_chain_check(model, g_bar, report)
            break
        # max|Ric(gbar_{i+1}) - g_i| / max g_i with g_i = c_i gbar_i is the
        # solve's relative residual max|r - c z| / (c max z), c = c_i > 0.
        completed.append(
            IterationStep(
                index=index,
                g_bar=g_bar,
                c=report.c,
                g=g_bar.scale(report.c),
                residual=report.residual,
            )
        )
        e = math.frexp(max(report.x.values))[1]  # 2**(e - 1) <= max x < 2**e
        g_bar = DiagonalForm.full(tuple(math.ldexp(v, 1 - e) for v in report.x.values))

    cauchy = []
    for prev, cur in zip(completed, completed[1:]):
        pv = [float(v) for v in prev.g.values]
        cv = [float(v) for v in cur.g.values]
        pm, cm = max(pv), max(cv)
        cauchy.append(max(abs(a / pm - b / cm) for a, b in zip(pv, cv)))

    status = "completed" if failure is None else "truncated"
    return IterationTrace(
        steps=tuple(completed),
        status=status,
        cauchy=tuple(cauchy),
        failure=failure,
    )
