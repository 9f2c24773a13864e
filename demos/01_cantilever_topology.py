"""Minimize the compliance of a clamped beam under a tip load.

Runs the desk-scale cantilever for a short budget, prints the optimization
trace, and writes the final material distribution as a PGM image (solid
material renders black).
"""

import numpy as np

from icatop import bench
from icatop.cli import write_density_pgm
from icatop.nonlinear import Strategy
from icatop.optimizer import RHO_MIN, OptimizerConfig, optimize

problem = bench.desk("cantilever")
print(f"domain {problem.mesh.width} x {problem.mesh.height} mm, "
      f"mesh {problem.mesh.nx} x {problem.mesh.ny}, "
      f"volume fraction {problem.volume_fraction}")

config = OptimizerConfig(strategy=Strategy.UPK100G, budget=40)
history = optimize(problem, config)

print(f"\n{'iter':>4} {'compliance':>12} {'newton':>7} {'p':>5} {'volume':>10}")
for i in range(0, history.iterations, 5):
    print(f"{i + 1:4d} {history.objective[i]:12.2f} "
          f"{history.newton_iters[i]:7d} {history.penalty[i]:5.2f} "
          f"{history.volume[i]:10.1f}")

print(f"\nfinal compliance {history.final_objective:.2f} after "
      f"{history.iterations} outer iterations, "
      f"{history.total('factorizations')} factorizations, "
      f"{history.total('newton_iters')} Newton iterations")

write_density_pgm("cantilever_density.pgm", history.rho_phys,
                  problem.mesh.nx, problem.mesh.ny, RHO_MIN)
print("material distribution written to cantilever_density.pgm")

solid = np.mean(history.rho_phys > 0.9)
void = np.mean(history.rho_phys < 0.1)
print(f"design is {solid:.0%} solid, {void:.0%} void at this stage of the "
      f"continuation (p = {history.penalty[-1]:.2f})")
