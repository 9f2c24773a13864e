"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps icatop functions at the modules that look
them up, and refuses to start when a layer has lost every lookup site.
Renaming or moving one of those functions would break every traced
benchmark run, so the tracer is installed here against this source tree.
Its counts read off the solvers' results must also agree with the totals
the run history books.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from icatop import bench
from icatop.nonlinear import Strategy
from icatop.optimizer import OptimizerConfig, optimize

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_has_a_lookup_site():
    tr = load_tracer()
    sites = [(owner, attr, vars(owner)[attr])
             for attr, owners, _, _ in tr.LAYERS.values()
             for owner in owners if attr in vars(owner)]
    tracer = tr.Tracer()
    with tr.installed(tracer):
        history = optimize(bench.cantilever(mesh=(8, 4)),
                           OptimizerConfig(strategy=Strategy.UPK03K100G,
                                           budget=6))
    assert not history.aborted
    # every wrapper is gone again
    for owner, attr, original in sites:
        assert vars(owner)[attr] is original
    metrics = tr.layer_metrics(tracer)
    assert metrics["sparse.factor_calls"] == history.total("factorizations")
    assert metrics["nonlinear.newton_iters"] == history.total("newton_iters")
    for name in ("assembly.tangent_calls", "assembly.residual_calls",
                 "reanalysis.ica_calls", "optimizer.subproblem_calls"):
        assert metrics[name] > 0, name
    assert np.isfinite(metrics["assembly.internal_forces_s"])


def test_traced_fallbacks_match_the_booked_reasons():
    # the tracer counts fallbacks off the solver's results; the history
    # books them from the reanalysis context: both must tell one story
    tr = load_tracer()
    tracer = tr.Tracer()
    with tr.installed(tracer):
        history = optimize(bench.desk("cantilever"),
                           OptimizerConfig(strategy=Strategy.UPK03K100G,
                                           budget=12))
    metrics = tr.layer_metrics(tracer)
    newton = sum(history.total(name) for name in (
        "step_fallbacks", "linesearch_fallbacks"))
    assert newton > 0 < history.total("adjoint_fallbacks")
    assert metrics["nonlinear.fallbacks"] == newton
    assert metrics["reanalysis.adjoint_fallback_ratio"] \
        * metrics["reanalysis.adjoint_calls"] \
        == pytest.approx(history.total("adjoint_fallbacks"), abs=1e-9)
