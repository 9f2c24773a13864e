import hashlib
import weakref
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from icatop import nonlinear, reanalysis
from icatop.assembly import FeModel
from icatop.material import MaterialParams
from icatop.mesh import LoadCase, build_grid, fix_region
from icatop.timing import Timers


def make_cantilever_model(nx=12, ny=4, load=-30.0, spring=0.0,
                          linear=False):
    """Small clamped beam used across the consistency tests, under the
    small-displacement law if ``linear``.

    The 30 N tip load keeps the response visibly nonlinear while leaving
    Newton comfortable from cold starts.
    """
    mesh = build_grid(nx, ny, 120.0, 30.0, 1.0)
    mesh = fix_region(mesh, lambda x, y: x <= 1e-12, axes="both")
    tip = mesh.node_id(nx, ny // 2)
    loads = LoadCase().add_load(tip, 1, load)
    if spring:
        loads.add_spring(tip, 1, spring)
    return FeModel(mesh, loads, MaterialParams(3000.0, 0.4), linear)


def full_csr(K):
    """Both triangles of the symmetric ``K``, rebuilt from the stored upper
    triangle U as U + triu(U, 1)^T."""
    U = K.to_csr()
    return (U + sp.triu(U, 1).T).tocsr()


def rest_state(model):
    """The element state of ``model`` at u = 0."""
    return model.state(np.zeros(model.mesh.n_free))


def linear_rest_state(model):
    """The small-displacement state of ``model`` at u = 0."""
    return model.linear_state(np.zeros(model.mesh.n_free))


def factored_context(K, single_sweeps=True):
    """A context holding the factor of ``K``, booked as one factorization."""
    ctx = reanalysis.ReanalysisContext(single_sweeps=single_sweeps)
    ctx.set_reference(K)
    return ctx


def sweep_iterates(ctx, rhs, k_max=10):
    """Iterates s_0 .. s_k_max of the sweep on ``rhs``: s_k is what a sweep
    stopped after k corrections returns."""
    return [reanalysis.ica_solve(ctx, rhs, eps=0.0, k_max=k)[0]
            for k in range(k_max + 1)]


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
            model.state(u)
            return rho, u
        except Exception:
            u *= 0.5


@pytest.fixture
def kernel_calls(monkeypatch):
    """Log a digest of the displacement of every element kernel call.

    ``FeModel.element_internal_forces`` and ``FeModel.upper_element_tangents``
    are wrapped at the class; ``calls[name]`` gets one digest of the
    displacement's bytes per call, in call order.  The digests only count
    the kernels' work; nothing reads a result back by them.
    """
    calls = {}
    for name in ("element_internal_forces", "upper_element_tangents"):
        def kernel(model, u_free, _real=getattr(FeModel, name),
                   _log=calls.setdefault(name, [])):
            _log.append(hashlib.blake2b(
                np.ascontiguousarray(u_free).tobytes()).hexdigest())
            return _real(model, u_free)
        monkeypatch.setattr(FeModel, name, kernel)
    return calls


@pytest.fixture
def factor_scopes(monkeypatch):
    """Log the timer categories open, and the factorizations alive, at
    every ldlt_factor call.

    Every context made while the fixture is active times on a recording
    ``Timers``; ``at_factor`` gets the tuple of open categories per
    factorization, ``alive`` the number of earlier factorizations still
    referenced when it starts, and ``nested`` every category opened while
    another was open.
    """
    log = SimpleNamespace(open=[], nested=[], at_factor=[], alive=[])
    made = []       # weak references to every factorization so far

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

    def factor(K, _real=reanalysis.ldlt_factor):
        log.at_factor.append(tuple(log.open))
        log.alive.append(sum(ref() is not None for ref in made))
        fact = _real(K)
        made.append(weakref.ref(fact))
        return fact

    # the context's set_reference is the one lookup site
    monkeypatch.setattr(reanalysis, "ldlt_factor", factor)
    monkeypatch.setattr(reanalysis, "Timers", RecordingTimers)
    return log


@pytest.fixture
def sweeps(monkeypatch):
    """Count the sweeps performed, independently of the context's ledger.

    Wraps ``ReanalysisContext.solve_held`` at the class and ``ica_solve`` at
    its two lookup sites; each sweep call's held solves less its s_0 solve
    are added to ``sweeps.count``.
    """
    log = SimpleNamespace(count=0, held=0)
    real_held = reanalysis.ReanalysisContext.solve_held

    def solve_held(ctx, b):
        log.held += 1
        return real_held(ctx, b)

    def ica_solve(*args, _real=reanalysis.ica_solve, **kwargs):
        before = log.held
        try:
            return _real(*args, **kwargs)
        finally:
            log.count += max(log.held - before - 1, 0)

    monkeypatch.setattr(reanalysis.ReanalysisContext, "solve_held",
                        solve_held)
    for site in (reanalysis, nonlinear):
        monkeypatch.setattr(site, "ica_solve", ica_solve)
    return log
