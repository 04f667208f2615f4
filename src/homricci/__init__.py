"""Prescribed Ricci curvature on compact homogeneous spaces.

Workflow: describe a space by its summand data (:class:`SpaceModel`),
enumerate its subalgebra lattice and simple chains, evaluate the solvability
conditions for a target form, then solve Ric g = c T by maximizing scalar
curvature on the constraint set, or run the Ricci iteration on top of the
solver.
"""

from .catalog import (
    abelian_line_two_summand,
    flag3,
    full_flag,
    two_summand,
)
from .chains import (
    ChainCondition,
    ChainError,
    ConditionReport,
    EtaUndefinedError,
    HypothesisViolatedError,
    SimpleChain,
    TwoSummandReport,
    check_corollary_lambda,
    check_theorem,
    enumerate_simple_chains,
    two_summand_condition,
)
from .curvature import (
    CurvatureError,
    grad_S,
    hat_S,
    ricci,
    scalar_S,
)
from .iteration import IterationError, IterationStep, IterationTrace, ricci_iterate
from .model import (
    DiagonalForm,
    HypothesisVerdict,
    ModelError,
    SpaceModel,
    SubalgebraLattice,
    ValidationReport,
    build_model,
    check_hypothesis,
    classify_cor_all,
    enumerate_subalgebras,
    load_model,
    parse_model,
    serialize_model,
    validate,
)
from .solver import (
    SolveReport,
    SolverError,
    SolverOptions,
    maximize_S_on_MT,
    solve_prescribed_ricci,
)

__version__ = "0.1.0"

#: The evaluation kernel in use; the numpy kernel in ``_kernels`` is the only one.
kernel_backend = "numpy"

__all__ = [
    "ChainCondition",
    "ChainError",
    "ConditionReport",
    "CurvatureError",
    "DiagonalForm",
    "EtaUndefinedError",
    "HypothesisVerdict",
    "HypothesisViolatedError",
    "IterationError",
    "IterationStep",
    "IterationTrace",
    "ModelError",
    "SimpleChain",
    "SolveReport",
    "SolverError",
    "SolverOptions",
    "SpaceModel",
    "SubalgebraLattice",
    "TwoSummandReport",
    "ValidationReport",
    "abelian_line_two_summand",
    "build_model",
    "check_corollary_lambda",
    "check_hypothesis",
    "check_theorem",
    "classify_cor_all",
    "enumerate_simple_chains",
    "enumerate_subalgebras",
    "flag3",
    "full_flag",
    "grad_S",
    "hat_S",
    "kernel_backend",
    "load_model",
    "maximize_S_on_MT",
    "parse_model",
    "ricci",
    "ricci_iterate",
    "scalar_S",
    "serialize_model",
    "solve_prescribed_ricci",
    "two_summand",
    "two_summand_condition",
    "validate",
]
