"""Design a compliant displacement inverter and watch the drift norm.

The mechanism objective rewards output-port displacement.  Running with
the sparsest factorization policy and the drift monitor on shows the
spectral norm of B = K0^{-1} dK regularly exceeding one between
factorizations; the safeguards keep every equilibrium solve at the full
residual tolerance anyway.  A second run then stops early on the
stationarity test, well within its budget of 2000 outer iterations.
"""

import numpy as np

from icatop import bench
from icatop.nonlinear import Strategy
from icatop.optimizer import OptimizerConfig, optimize

problem = bench.build("inverter", mesh=(40, 20))
config = OptimizerConfig(strategy=Strategy.UPK03K100G, budget=30,
                         monitor_normB=True)
history = optimize(problem, config)

print("fixed budget with the drift monitor on:")
print(f"{'iter':>4} {'objective':>11} {'newton':>7} {'max ||B||':>10}")
for i in range(0, history.iterations, 3):
    b = history.max_normB[i]
    btxt = f"{b:10.2f}" if b is not None else f"{'-':>10}"
    print(f"{i + 1:4d} {history.objective[i]:11.5f} "
          f"{history.newton_iters[i]:7d} {btxt}")

traced = [b for b in history.max_normB if b is not None]
if traced:
    above = np.mean(np.array(traced) > 1.0)
    accepted = [r for r, ok in zip(history.residual_inf, history.accepted)
                if ok]
    print(f"\ndrift norm exceeded 1 on {above:.0%} of the monitored solves; "
          f"max residual of any accepted equilibrium: {max(accepted):.1e}")

config = OptimizerConfig(strategy=Strategy.UPK03K100G, budget=2000,
                         converge_tol=1e-3)
history = optimize(problem, config)
print(f"\nstationarity mode: stopped after {history.iterations} iterations "
      f"with projected-gradient norm {history.final('gp_norm'):.2e} "
      f"(converged = {history.converged})")
print(f"output displacement reached: {-history.final_objective:.4f}")
