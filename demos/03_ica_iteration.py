"""Anatomy of the reanalysis sweep on a small dense-backed system.

With a held factorization F of K0 and a drifted matrix Kcur = K0 + dK,
the sweep runs in residual form,

    s_{k+1} = s_k - F^{-1} (Kcur s_k - rhs),

which for an exact F is s_{k+1} = s_tilde - B s_k with B = K0^{-1} dK, and
contracts toward the true solution at the rate of the spectral norm of B.
Each sweep costs one product with Kcur and one reuse of the factorization,
never a new factorization.
"""

from dataclasses import replace

import numpy as np

from icatop.reanalysis import ReanalysisContext, estimate_norm_B, ica_solve
from icatop.sparse import SparseSym

rng = np.random.default_rng(42)
n = 40

A = rng.standard_normal((n, n))
K0_dense = A @ A.T + n * np.eye(n)
perturbation = rng.standard_normal((n, n))
perturbation = 0.5 * (perturbation + perturbation.T)

for target in (0.3, 0.7, 0.95):
    dK = perturbation * target / np.linalg.svd(
        np.linalg.solve(K0_dense, perturbation), compute_uv=False)[0]
    K0 = SparseSym.from_dense(K0_dense)
    Kc = replace(K0, data=SparseSym.from_dense(K0_dense + dK).data)
    ctx = ReanalysisContext(K0)
    ctx.refresh(Kc)

    r = rng.standard_normal(n)
    s_star = np.linalg.solve(K0_dense + dK, -r)
    # s_k is what a sweep stopped after k corrections returns
    errors = [np.linalg.norm(ica_solve(ctx, -r, eps=0.0, k_max=k)[0] - s_star)
              for k in range(11)]
    rates = [b / a for a, b in zip(errors[:-1], errors[1:])]

    print(f"target ||B|| = {target:.2f}   estimated "
          f"{estimate_norm_B(ctx):.3f}")
    print("  error per sweep:", "  ".join(f"{e:.2e}" for e in errors[:6]))
    print("  contraction    :", "  ".join(f"{q:.3f}" for q in rates[:5]),
          end="\n\n")

print("beyond ||B|| = 1 the sweep diverges and the solver falls back to a")
print("fresh factorization; the residual check catches it within ten sweeps")
dK = perturbation * 1.5 / np.linalg.svd(
    np.linalg.solve(K0_dense, perturbation), compute_uv=False)[0]
K0 = SparseSym.from_dense(K0_dense)
Kc = replace(K0, data=SparseSym.from_dense(K0_dense + dK).data)
ctx = ReanalysisContext(K0)
ctx.refresh(Kc)
_, report = ica_solve(ctx, rng.standard_normal(n), eps=1e-2)
print(f"||B|| = 1.5: converged = {report.converged}, residual "
      f"{report.residual:.2e} after {report.iterations} sweeps")
