from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from icatop import nonlinear, optimizer, reanalysis, sensitivity
from icatop.assembly import FeModel
from icatop.material import MaterialParams
from icatop.mesh import LoadCase, build_grid, fix_region
from icatop.timing import Timers


def make_cantilever_model(nx=12, ny=4, load=-30.0, spring=0.0):
    """Small clamped beam used across the consistency tests.

    The 30 N tip load keeps the response visibly nonlinear while leaving
    Newton comfortable from cold starts.
    """
    mesh = build_grid(nx, ny, 120.0, 30.0, 1.0)
    mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
    tip = mesh.node_id(nx, ny // 2)
    loads = LoadCase().add_load(tip, 1, load)
    if spring:
        loads.add_spring(tip, 1, spring)
    return FeModel(mesh, loads, MaterialParams(3000.0, 0.4))


@pytest.fixture
def cantilever_model():
    return make_cantilever_model()


def random_positive_state(model, seed=0, scale=0.3):
    """A feasible (rho, u) pair with det(F) > 0 everywhere."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.2, 1.0, model.mesh.n_el)
    u = scale * rng.standard_normal(model.mesh.n_free)
    while True:
        try:
            model.residual(rho, 3.0, u)
            return rho, u
        except Exception:
            u *= 0.5


@pytest.fixture
def factor_scopes(monkeypatch):
    """Log the timer categories open at every ldlt_factor call.

    ``optimize`` runs on the returned ``timers`` class; ``at_factor`` gets
    the tuple of open categories per factorization and ``nested`` every
    category opened while another was open.
    """
    log = SimpleNamespace(open=[], nested=[], at_factor=[])

    class RecordingTimers(Timers):
        @contextmanager
        def scope(self, name):
            if log.open:
                log.nested.append((log.open[-1], name))
            log.open.append(name)
            try:
                with super().scope(name):
                    yield
            finally:
                log.open.pop()

    for module in (nonlinear, reanalysis, sensitivity):
        def factor(K, _real=module.ldlt_factor):
            log.at_factor.append(tuple(log.open))
            return _real(K)
        monkeypatch.setattr(module, "ldlt_factor", factor)
    monkeypatch.setattr(optimizer, "Timers", RecordingTimers)
    log.timers = RecordingTimers
    return log
