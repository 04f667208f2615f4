"""Prescribed Ricci curvature on compact homogeneous spaces.

Workflow: describe a space by its summand data (:class:`SpaceModel`),
enumerate its subalgebra lattice and simple chains, evaluate the solvability
conditions for a target form, then solve Ric g = c T by maximizing scalar
curvature on the constraint set, or run the Ricci iteration on top of the
solver.

Importing the package loads the exact side only: ``model``, ``numbers``,
``chains`` and ``catalog``, with no numpy.  The names of ``curvature``,
``solver`` and ``iteration`` (``ricci``, ``solve_prescribed_ricci``,
``ricci_iterate`` and the rest), ``kernel_backend`` and those modules
themselves are bound on first read (a module ``__getattr__``, PEP 562).
The first read of any of them imports ``_kernels``, ``curvature``,
``solver`` and ``iteration`` together, so that reading ``kernel_backend``
leaves every module whose functions a tracer wraps in ``sys.modules``.
Their error classes live in ``model`` and are bound at import.
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
from .model import (
    CurvatureError,
    DiagonalForm,
    HypothesisVerdict,
    IterationError,
    ModelError,
    SolverError,
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

__version__ = "0.1.0"

# The modules of the float side, and the names bound on first read by
# defining module.
_MODULES = ("_kernels", "curvature", "iteration", "solver")
_ON_FIRST_READ = {
    "curvature": ("grad_S", "hat_S", "ricci", "scalar_S"),
    "iteration": ("IterationStep", "IterationTrace", "ricci_iterate"),
    "solver": ("SolveReport", "SolverOptions", "maximize_S_on_MT", "solve_prescribed_ricci"),
}
_LAZY = frozenset({"kernel_backend", *_MODULES}.union(*_ON_FIRST_READ.values()))


def __getattr__(name):
    from importlib import import_module

    # a module alone, as ``import homricci.<name>`` would: ``from . import
    # _kernels`` in solver reads it here while solver is half imported
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = globals()
    for module in _MODULES:
        import_module(f"{__name__}.{module}")  # binds the module here
    for module, attrs in _ON_FIRST_READ.items():
        names.update((attr, getattr(names[module], attr)) for attr in attrs)
    # the evaluation kernel in use; the numpy kernel in ``_kernels`` is the only one
    names["kernel_backend"] = "numpy"
    return names[name]


def __dir__():
    # the names a full import binds, as before the lazy ones were read
    hidden = {"_LAZY", "_MODULES", "_ON_FIRST_READ", "__dir__", "__getattr__"}
    return sorted(_LAZY.union(globals()) - hidden)


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
