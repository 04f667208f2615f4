"""Command-line front end.

Subcommands mirror the library: validate / subalgebras / chains / eta for
model inspection, check / ricci / solve / iterate for the curvature problem,
and catalog for the built-in generators.  Exit codes: 0 on success or a
passing check, 1 when a condition fails or a solve does not certify, 2 for
input errors.

Only ``solve`` and ``iterate`` load numpy: they import ``solver`` and
``iteration`` when they run.  ``ricci`` imports ``curvature``, which is
exact.  The other commands load ``model``, ``numbers``, ``chains`` and
``catalog`` only; a ``check`` on a two-summand model whose single-index
sets are both closed adds the exact elimination (``_elimination``, with
``_polynomials`` and ``curvature``).  The error classes of ``curvature``,
``solver`` and ``iteration`` live in ``model``, so catching an input error
imports nothing.  Reading a name of those modules off the package loads all
of them together (see the package docstring).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import catalog as catalog_mod
from .chains import (
    ChainError,
    check_corollary_lambda,
    check_theorem,
    enumerate_simple_chains,
    two_summand_condition,
)
from .model import (
    CASIMIR_TOL,
    CurvatureError,
    DiagonalForm,
    IterationError,
    ModelError,
    SolverError,
    ValidationReport,
    _read_model,
    check_hypothesis,
    classify_cor_all,
    load_model,
    serialize_model,
    validate,
)
from .numbers import NumberFormatError, format_number, parse_number, to_float

_INPUT_ERRORS = (
    ModelError,
    ChainError,
    CurvatureError,
    SolverError,
    IterationError,
    NumberFormatError,
    OSError,
)


def _parse_form(text: str) -> DiagonalForm:
    """A comma-separated coefficient list; an empty field is an input error."""
    return DiagonalForm.full(tuple(map(parse_number, text.split(","))))


def _emit(args, line, text) -> None:
    """Print one JSON line under ``--json``, else lines of text.  ``line()``
    returns the line already encoded, as a report's ``to_json`` writes it
    or as ``_encoded`` dumps a payload, and ``text()`` yields the text
    lines: each is built only when it is printed."""
    if args.json:
        print(line())
    else:
        for row in text():
            print(row)


def _encoded(payload: dict):
    """``payload``'s JSON line, encoded when called.  Every payload is a
    freshly built tree, so the circular-reference check is off."""
    return lambda: json.dumps(payload, check_circular=False)


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _load(args, tol=None):
    """Read and validate the model file; ``tol`` overrides the Casimir-identity
    tolerance for float data (a ``--tol`` value is never 0)."""
    return load_model(args.model, rational=args.rational, tol=tol or CASIMIR_TOL)


def cmd_validate(args) -> int:
    try:
        raw = _read_model(args.model, rational=args.rational)
    except (ModelError, OSError) as exc:  # reported as a broken rule is
        report = ValidationReport(False, (str(exc),), None, None, None)
    else:
        report = validate(raw, tol=args.tol or CASIMIR_TOL)
    payload = report.to_dict()
    model = report.model
    if report.ok:
        payload["model"] = json.loads(serialize_model(model))

    def text():
        if report.ok:
            yield f"{model.name}: valid (s={model.s}, dim={model.dimension})"
            if report.derived:
                values = ", ".join(map(str, getattr(model, report.derived)))
                yield f"derived {report.derived}: {values}"
        else:
            yield "invalid model:"
            yield from (f"  - {err}" for err in report.errors)

    _emit(args, _encoded(payload), text)
    return 0 if report.ok else 2


def cmd_subalgebras(args) -> int:
    model = _load(args, args.tol)
    lattice = model.lattice
    verdict = check_hypothesis(model)
    payload = {
        "lattice": lattice.to_dict(),
        "hypothesis": verdict.to_dict(),
        "unconditional": classify_cor_all(model),
    }

    def text():
        yield f"{model.name}: {len(lattice.members)} bracket-closed index sets"
        for J, dim in zip(lattice.members, lattice.member_dims):
            label = "{" + ",".join(map(str, J)) + "}" if J else "{}"
            yield f"  {label}  dim={dim}"
        yield f"hypothesis: {verdict.status}"

    _emit(args, _encoded(payload), text)
    return 0


def cmd_chains(args) -> int:
    model = _load(args, args.tol)
    chains = enumerate_simple_chains(model)
    payload = {"chains": [ch.to_dict() for ch in chains]}

    def text():
        yield f"{model.name}: {len(chains)} simple chain(s)"
        for ch in chains:
            yield (
                f"  k={list(ch.J_k)} k'={list(ch.J_kprime)} l={list(ch.J_l)} "
                f"omega={ch.omega} eta={ch.eta}"
            )

    _emit(args, _encoded(payload), text)
    return 0


def cmd_eta(args) -> int:
    model = _load(args, args.tol)
    chains = enumerate_simple_chains(model)
    payload = {
        "chains": [
            {"k": list(ch.J_k), "kprime": list(ch.J_kprime), "eta": format_number(ch.eta)}
            for ch in chains
        ]
    }

    def text():
        if not chains:
            yield "no simple chains (isotropy algebra is maximal)"
        for ch in chains:
            yield f"eta(k={list(ch.J_k)}, k'={list(ch.J_kprime)}) = {ch.eta}"

    _emit(args, _encoded(payload), text)
    return 0


def cmd_check(args) -> int:
    model = _load(args, args.tol)
    T = _parse_form(args.T)
    if args.corollary:
        report = check_corollary_lambda(model, T)
    else:
        report = check_theorem(model, T)
    two = two_summand_condition(model, T) if model.s == 2 else None

    def line():
        # the report's line, with the two-summand verdict as its last key
        out = report.to_json()
        if two is None:
            return out
        return f'{out[:-1]}, "two_summand": {json.dumps(two.to_dict())}}}'

    def text():
        yield f"{model.name}: {report.criterion} check " + ("PASS" if report.passed else "FAIL")
        for cond in report.conditions:
            yield (
                f"  k'={list(cond.chain.J_kprime)}: "
                f"{to_float(cond.lambda_min):.6g}/{to_float(cond.trace):.6g} vs "
                f"threshold {cond.threshold} margin {to_float(cond.margin):+.6g} "
                + ("ok" if cond.passed else "FAIL")
            )
        if not report.conditions:
            yield "  no simple chains: passes unconditionally"
        if report.requirement1_unknown:
            yield "  caveat: inequivalence requirement not certified by the data"
        if not report.passed:
            yield "  verdict: inconclusive (the condition is sufficient, not necessary)"

    _emit(args, line, text)
    return 0 if report.passed else 1


def cmd_ricci(args) -> int:
    from .curvature import _ricci_and_grad

    model = _load(args, args.tol)
    x = _parse_form(args.x)
    r, g = _ricci_and_grad(model, x)
    payload = {
        "ricci": [format_number(v) for v in r],
        "grad_S": [format_number(v) for v in g],
    }
    _emit(
        args, _encoded(payload), lambda: ["ricci: " + ", ".join(map(str, r))]
    )
    return 0


def _solver_options(args):
    from .solver import SolverOptions

    return SolverOptions(seed=args.seed, residual_tol=args.tol or SolverOptions.residual_tol)


def cmd_solve(args) -> int:
    from .solver import solve_prescribed_ricci

    model = _load(args)
    T = _parse_form(args.T)
    report = solve_prescribed_ricci(model, T, options=_solver_options(args))

    def text():
        yield f"{model.name}: solve status = {report.status}"
        if report.x is not None:
            yield "  x = " + ", ".join(f"{float(v):.12g}" for v in report.x.values)
        if report.c is not None:
            yield f"  c = {report.c:.12g}"
        if report.residual is not None:
            yield f"  residual = {report.residual:.3e}"
        if report.collapsed:
            yield f"  escaped coordinates: {list(report.collapsed)}"
        for note in report.notes:
            yield f"  note: {note}"

    _emit(args, report.to_json, text)
    return 0 if report.status == "solved" else 1


def cmd_iterate(args) -> int:
    from .iteration import ricci_iterate

    model = _load(args)
    start = _parse_form(args.start)
    trace = ricci_iterate(model, start, args.steps, options=_solver_options(args))
    if args.json:
        sys.stdout.write(trace.to_json_lines())
    else:
        for st in trace.steps:
            print(
                f"step {st.index}: c={st.c:.9g} residual={st.residual:.3e} "
                f"g=({', '.join(f'{float(v):.9g}' for v in st.g.values)})"
            )
        print(f"status: {trace.status}; completed {len(trace.steps)}/{args.steps} steps")
        failed = trace.failed_step
        if failed is not None:
            print(f"step {failed['step']} failed: solve status = {failed['status']}")
            for note in failed["notes"]:
                print(f"  note: {note}")
        if trace.cauchy:
            print(f"normalized step differences: "
                  + ", ".join(f"{v:.3e}" for v in trace.cauchy))
    return 0 if trace.status == "completed" else 1


def cmd_catalog(args) -> int:
    if args.kind == "list" or args.kind is None:
        payload = {
            "generators": [usage for usage, *_ in catalog_mod.KINDS.values()],
            "placeholders": list(catalog_mod.PLACEHOLDER_SPACES),
        }

        def text():
            yield "generators:"
            yield from (f"  {g}" for g in payload["generators"])
            yield "placeholder spaces (supply your own constants):"
            yield from (f"  {p}" for p in payload["placeholders"])

        _emit(args, _encoded(payload), text)
        return 0
    sys.stdout.write(serialize_model(catalog_mod.entry(args.kind, *args.params)))
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommands' parsers by name, built once per
    process: parsing leaves them unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--rational",
        action="store_true",
        help="read the model file's decimal literals as exact fractions "
        "(command-line coefficients are always read exactly)",
    )
    common.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="tolerance override: for solve and iterate, the relative residual "
        "certifying each solve (default 1e-8); for every other command, the "
        "Casimir-identity residual of float model data (default 1e-9)",
    )

    parser = argparse.ArgumentParser(
        prog="homricci",
        description="prescribed Ricci curvature on compact homogeneous spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_model=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if with_model:
            p.add_argument("model", help="model JSON file")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check a model file and derive missing data")
    add("subalgebras", cmd_subalgebras, "enumerate the bracket-closed index sets")
    add("chains", cmd_chains, "list simple chains with their eta values")
    add("eta", cmd_eta, "print eta per simple chain")

    p = add("check", cmd_check, "evaluate the solvability conditions for a target form")
    p.add_argument("--T", required=True, help="comma-separated positive coefficients")
    p.add_argument(
        "--corollary",
        action="store_true",
        help="use the eigenvalue-ratio variant of the condition",
    )

    p = add("ricci", cmd_ricci, "Ricci coefficients of a diagonal metric")
    p.add_argument("--x", required=True, help="comma-separated positive coefficients")

    p = add("solve", cmd_solve, "solve Ric g = c T for a positive target form")
    p.add_argument("--T", required=True, help="comma-separated positive coefficients")
    p.add_argument("--seed", type=_seed, default=0, help="multistart seed")

    p = add("iterate", cmd_iterate, "run the Ricci iteration")
    p.add_argument("--start", required=True, help="starting form coefficients")
    p.add_argument("--steps", type=int, required=True, help="number of solve steps")
    p.add_argument("--seed", type=_seed, default=0, help="multistart seed")

    p = add("catalog", cmd_catalog, "emit a built-in model as JSON", with_model=False)
    p.add_argument("kind", nargs="?", help=" | ".join([*catalog_mod.KINDS, "list"]))
    p.add_argument("params", nargs="*", help="generator parameters")

    return parser, sub.choices


def main(argv=None) -> int:
    # the top-level parser runs only to report a line no subcommand's reads whole
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, True)
    if rest:
        args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
