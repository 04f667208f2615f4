"""Spans and counters at the library's layer boundaries, from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
``homricci`` module that holds it, aliases included, so that calls between
modules are seen too (``check_hypothesis`` is called from ``model``,
``chains`` and ``cli``).  ``remove`` puts the originals back.

A span records (request, id, parent id, layer, start, end); spans stay in
memory until the run writes them out.  A layer's self time is its span's
duration minus the time of its children.  The kernel is called hundreds of
thousands of times per failing solve, so it is aggregated (calls and busy
time, charged to the enclosing span) instead of producing a span per call.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _lattice_counts(lattice):
    return (("model.lattice_members", len(lattice.members)),)


def _chain_counts(chains):
    return (("chains.count", len(chains)),)


def _solve_counts(report):
    return (("solver.iterations", report.iterations), ("solver.starts", report.starts_used))


def _iteration_counts(trace):
    return (("iteration.steps", len(trace.steps)),)


# (defining module, function, layer, counters read off the return value)
SPANS = (
    ("homricci.cli", "main", "cli", None),
    ("homricci.model", "load_model", "model.load", None),
    ("homricci.model", "enumerate_subalgebras", "model.lattice", _lattice_counts),
    ("homricci.model", "check_hypothesis", "model.hypothesis", None),
    ("homricci.chains", "enumerate_simple_chains", "chains.enumerate", _chain_counts),
    ("homricci.chains", "check_theorem", "chains.check", None),
    ("homricci.chains", "check_corollary_lambda", "chains.check", None),
    ("homricci.solver", "maximize_S_on_MT", "solver.maximize", _solve_counts),
    ("homricci.curvature", "ricci", "curvature.ricci", None),
    ("homricci.iteration", "ricci_iterate", "iteration", _iteration_counts),
)
KERNEL = ("homricci._kernels", "value_and_ricci", "kernels")


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._ids = itertools.count(1)
        self._request = None
        self._patches = []

    @contextmanager
    def request(self, index: int):
        """Root span of one request; its children are the library calls."""
        self._request = index
        frame = [0, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((index, 0, None, "request", frame[1], time.perf_counter()))

    def _span(self, layer, fn, counters):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent[2] += duration
                calls[layer] += 1
                self_s[layer] += duration - frame[2]
                spans.append((self._request, frame[0], parent[0], layer, frame[1], end))
            if counters is not None:
                for name, value in counters(result):
                    counts[name] += value
            return result

        return wrapper

    def _leaf(self, layer, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stack[-1][2] += duration
                calls[layer] += 1
                self_s[layer] += duration

        return wrapper

    def install(self):
        wrappers = [
            (module, name, self._span(layer, getattr(sys.modules[module], name), counters))
            for module, name, layer, counters in SPANS
        ]
        module, name, layer = KERNEL
        wrappers.append((module, name, self._leaf(layer, getattr(sys.modules[module], name))))
        holders = [
            mod for key, mod in list(sys.modules.items())
            if key == "homricci" or key.startswith("homricci.")
        ]
        for module, name, wrapper in wrappers:
            original = wrapper.__wrapped__
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def layer_metrics(self, requests: int, wall_s: float) -> dict:
        """Per-layer figures per traced request (times in ms); ``wall_s`` is
        the mean latency of the traced requests."""

        def calls(layer):
            return self.calls[layer] / requests

        def ms(layer):
            return self.self_s[layer] * 1e3 / requests

        def count(name):
            return self.counts[name] / requests

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            "cli.self_ms": ms("cli"),
            "model.load_ms": ms("model.load"),
            "model.load_calls": calls("model.load"),
            "model.lattice_ms": ms("model.lattice"),
            "model.lattice_calls": calls("model.lattice"),
            "model.lattice_members": ratio(count("model.lattice_members"), calls("model.lattice")),
            "model.hypothesis_ms": ms("model.hypothesis"),
            "model.hypothesis_calls": calls("model.hypothesis"),
            "chains.enumerate_ms": ms("chains.enumerate"),
            "chains.enumerate_calls": calls("chains.enumerate"),
            "chains.count": ratio(count("chains.count"), calls("chains.enumerate")),
            "chains.check_ms": ms("chains.check"),
            "solver.maximize_ms": ms("solver.maximize"),
            "solver.iterations": count("solver.iterations"),
            "solver.starts": count("solver.starts"),
            "curvature.ricci_ms": ms("curvature.ricci"),
            "curvature.ricci_calls": calls("curvature.ricci"),
            "kernels.calls": calls("kernels"),
            "kernels.busy_ms": ms("kernels"),
            "kernels.us_per_call": ratio(ms("kernels") * 1e3, calls("kernels")),
            "kernels.calls_per_solve": ratio(calls("kernels"), calls("solver.maximize")),
            "iteration.self_ms": ms("iteration"),
            "iteration.steps": count("iteration.steps"),
        }
        model_chains = sum(
            ms(layer)
            for layer in ("model.load", "model.lattice", "model.hypothesis",
                          "chains.enumerate", "chains.check")
        )
        kernels_solver = ms("kernels") + ms("solver.maximize")
        metrics["share.model_chains_pct"] = 100.0 * ratio(model_chains, wall_s * 1e3)
        metrics["share.kernels_solver_pct"] = 100.0 * ratio(kernels_solver, wall_s * 1e3)
        return metrics
