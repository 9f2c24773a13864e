"""Small-displacement versus large-displacement designs.

The same slender beam optimized under the linear-elastic assumption and
under the full geometrically nonlinear model produces different layouts;
at a vanishing load the two equilibrium models agree, which is also the
correctness check connecting them.
"""

import numpy as np

from icatop import bench
from icatop.assembly import FeModel
from icatop.cli import write_density_pgm
from icatop.nonlinear import Strategy, linear_equilibrium, newton_solve
from icatop.optimizer import RHO_MIN, OptimizerConfig, optimize
from icatop.reanalysis import ReanalysisContext

problem = bench.build("slender", mesh=(80, 10))

# agreement of the two models in the small-load limit
model = FeModel(problem.mesh, problem.loads, problem.material)
model.f_free = model.f_free * 1e-6
rho = np.full(problem.mesh.n_el, 0.5)
lin, _ = linear_equilibrium(model, rho, 3.0, ReanalysisContext())
non, _ = newton_solve(model, rho, 3.0,
                      model.state(np.zeros(problem.mesh.n_free)), Strategy.N,
                      ReanalysisContext(), 1, tol=1e-12)
gap = np.abs(non.u - lin.u).max() / np.abs(lin.u).max()
print(f"displacement gap at one-millionth of the load: {gap:.2e}")

budget = 40
cfg = OptimizerConfig(strategy=Strategy.UPK100G, budget=budget)
nonlinear_run = optimize(problem, cfg)
linear_run = optimize(bench.linear_mode(problem), cfg)

print(f"\nafter {budget} iterations:")
print(f"  nonlinear compliance {nonlinear_run.final_objective:10.3f}")
print(f"  linear compliance    {linear_run.final_objective:10.3f}")

diff = np.abs(nonlinear_run.rho_phys - linear_run.rho_phys)
print(f"  mean |density gap| {diff.mean():.3f}, max {diff.max():.2f}; the "
      f"gap widens as the continuation pushes the designs toward 0/1")

write_density_pgm("slender_nonlinear.pgm", nonlinear_run.rho_phys,
                  problem.mesh.nx, problem.mesh.ny, RHO_MIN)
write_density_pgm("slender_linear.pgm", linear_run.rho_phys,
                  problem.mesh.nx, problem.mesh.ny, RHO_MIN)
print("  layouts written to slender_nonlinear.pgm / slender_linear.pgm")
