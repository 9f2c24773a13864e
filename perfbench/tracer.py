"""Span tracer that wraps icatop's layer boundaries from outside the package.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it started.  Spans stay in memory; `layer_metrics`
turns them into per-layer counts and seconds once the run is over.

Several modules import their collaborators by name (``from .sparse import
ldlt_factor``), so a function is wrapped at every module that looks it up,
not only where it is defined.  Each lookup site gets its own wrapper around
the original function, so a call passes through exactly one wrapper.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from icatop import (assembly, filtering, nonlinear, optimizer, reanalysis,
                    sensitivity, sparse)
from icatop.errors import NewtonConvergenceError


class Tracer:
    """In-memory span log plus counters read off the wrapped calls' results."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.ends[idx] = perf_counter()
                self._open.pop()
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            self.ends[idx] = perf_counter()
            self._open.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return traced

    def totals(self):
        """Span name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
        return calls, incl, own

    def children_of(self, parent_name, child_name) -> int:
        """Number of `child_name` spans opened directly inside `parent_name`."""
        return sum(1 for name, parent in zip(self.names, self.parents)
                   if name == child_name and parent >= 0
                   and self.names[parent] == parent_name)


def _count_fill(counts, fact):
    # SuperLU's supernodal storage for L and U, padding included
    counts["factor_fill_nnz"] += int(fact._lu.nnz)


def _count_ica(counts, result):
    counts["ica_converged"] += int(result[1].converged)


def _count_adjoint(counts, result):
    counts["adjoint_fallbacks"] += int(result[1].fallback)


def _count_newton(counts, result):
    stats = result[1]
    counts["newton_iters"] += stats.iterations
    counts["newton_fallbacks"] += stats.fallbacks


def _count_newton_failure(counts, exc):
    if isinstance(exc, NewtonConvergenceError):
        counts["newton_failures"] += 1
        if exc.stats is not None:
            counts["newton_iters"] += exc.stats.iterations
            counts["newton_fallbacks"] += exc.stats.fallbacks


def _count_backtracks(counts, result):
    counts["backtracks"] += result[2]


# span name -> (attribute, lookup sites, result hook, error hook)
LAYERS = {
    "assembly.tangent": ("tangent", [assembly.FeModel], None, None),
    "assembly.residual": ("residual", [assembly.FeModel], None, None),
    "assembly.internal_forces": ("element_internal_forces",
                                 [assembly.FeModel], None, None),
    "sparse.factor": ("ldlt_factor", [sparse, reanalysis, nonlinear,
                                      sensitivity], _count_fill, None),
    "sparse.solve": ("solve", [sparse.Factorization], None, None),
    "sparse.delta_apply": ("delta_apply", [sparse, reanalysis],
                           None, None),
    "sparse.matvec": ("matvec", [sparse.SparseSym], None, None),
    "reanalysis.ica": ("ica_solve", [reanalysis, nonlinear],
                       _count_ica, None),
    "reanalysis.adjoint": ("ica_adjoint_solve",
                           [reanalysis, sensitivity],
                           _count_adjoint, None),
    "nonlinear.newton": ("newton_solve", [nonlinear, optimizer],
                         _count_newton, _count_newton_failure),
    "nonlinear.linesearch": ("armijo_linesearch", [nonlinear],
                             _count_backtracks, None),
    "sensitivity.adjoint": ("solve_adjoint", [sensitivity, optimizer],
                            None, None),
    "sensitivity.gradient": ("objective_gradient",
                             [sensitivity, optimizer], None, None),
    "filtering.build": ("build_filter", [filtering, optimizer],
                        None, None),
    "filtering.apply": ("apply", [filtering.FilterOperator], None, None),
    "filtering.backprop": ("backpropagate", [filtering.FilterOperator],
                           None, None),
    "optimizer.optimize": ("optimize", [optimizer], None, None),
    "optimizer.subproblem": ("slp_subproblem", [optimizer], None, None),
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block.

    A site that no longer looks a name up is skipped; a layer with no site
    left at all is an error, because its metrics would silently read zero.
    """
    saved = []
    try:
        for span, (attr, owners, on_result, on_error) in LAYERS.items():
            sites = [owner for owner in owners if attr in vars(owner)]
            if not sites:
                raise RuntimeError(f"no lookup site left for {span} ({attr})")
            for owner in sites:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        tracer.wrap(span, original, on_result, on_error))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(useful, attempts, empty):
    return useful / attempts if attempts else empty


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced optimize() call, by metric name."""
    calls, incl, own = tracer.totals()
    c = tracer.counts
    factors = calls["sparse.factor"]
    ica = calls["reanalysis.ica"]
    adjoint = calls["reanalysis.adjoint"]
    return {
        "assembly.tangent_calls": calls["assembly.tangent"],
        "assembly.tangent_s": incl["assembly.tangent"],
        "assembly.residual_calls": calls["assembly.residual"],
        "assembly.residual_s": incl["assembly.residual"],
        "assembly.internal_forces_s": incl["assembly.internal_forces"],
        "sparse.factor_calls": factors,
        "sparse.factor_s": incl["sparse.factor"],
        "sparse.factor_fill_nnz": _ratio(c["factor_fill_nnz"], factors, 0.0),
        "sparse.solve_calls": calls["sparse.solve"],
        "sparse.solve_s": incl["sparse.solve"],
        "sparse.delta_apply_calls": calls["sparse.delta_apply"],
        "sparse.delta_apply_s": incl["sparse.delta_apply"],
        "sparse.matvec_calls": calls["sparse.matvec"],
        "sparse.matvec_s": incl["sparse.matvec"],
        "reanalysis.ica_calls": ica,
        "reanalysis.sweeps": tracer.children_of("reanalysis.ica",
                                                "sparse.delta_apply"),
        "reanalysis.ica_converged_ratio": _ratio(c["ica_converged"], ica, 1.0),
        "reanalysis.ica_s": incl["reanalysis.ica"],
        "reanalysis.adjoint_calls": adjoint,
        "reanalysis.adjoint_fallback_ratio": _ratio(c["adjoint_fallbacks"],
                                                    adjoint, 0.0),
        "reanalysis.adjoint_s": incl["reanalysis.adjoint"],
        "nonlinear.newton_iters": c["newton_iters"],
        "nonlinear.fallbacks": c["newton_fallbacks"],
        "nonlinear.backtracks": c["backtracks"],
        "nonlinear.newton_failures": c["newton_failures"],
        "nonlinear.newton_s": own["nonlinear.newton"],
        "sensitivity.adjoint_s": incl["sensitivity.adjoint"],
        "sensitivity.gradient_s": incl["sensitivity.gradient"],
        "filtering.build_s": incl["filtering.build"],
        "filtering.apply_s": incl["filtering.apply"],
        "filtering.backprop_s": incl["filtering.backprop"],
        "optimizer.subproblem_calls": calls["optimizer.subproblem"],
        "optimizer.subproblem_s": incl["optimizer.subproblem"],
        "optimizer.self_s": own["optimizer.optimize"],
    }
