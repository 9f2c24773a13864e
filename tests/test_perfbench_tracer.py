"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps icatop functions at the modules that look
them up, and refuses to start when a layer has lost every lookup site.
Renaming or moving one of those functions would break every traced
benchmark run, so the tracer is installed here against this source tree.
"""

import importlib.util
from pathlib import Path

import numpy as np

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
