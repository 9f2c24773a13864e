"""Random small problems run to the end, cleanly and repeatably.

Any builder on a small mesh, under any strategy, budget, move limit and
filter kernel, in linear mode or not, with or without a convergence
tolerance: ``optimize`` lets no exception escape and emits no warning,
every accepted row's equilibrium meets the 1e-5 max-norm residual, every
row, rejected or not, books its share of ``predicted_factorizations`` plus
its fallbacks (a linear row one factorization and one iteration, no sweep
and no reason), and a second run books a bitwise-identical history.
"""

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from icatop import bench
from icatop.nonlinear import Strategy, predicted_factorizations
from icatop.optimizer import OptimizerConfig, optimize
from icatop.reanalysis import REASONS

BOOKED = ("objective", "newton_iters", "factorizations", "ica_iters",
          "accepted", "move_limit") + REASONS


def run(problem, config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        history = optimize(problem, config)
    assert not caught, [str(w.message) for w in caught]
    return history


@settings(max_examples=20, deadline=None, derandomize=True)
# the last step before the Newton cap was once never tested (row 12, at
# residual 3.7e-7), and a solve repeated after a failure once booked its
# scheduled refactor twice; row 12's solve now fails and the row is
# rejected, one of nine rejected rows
@example(name="cantilever", nx=10, ny=8, strategy=Strategy.MN, budget=17,
         move=0.5, kernel="cone", linear=False, converge=None)
# an exact step whose line search failed once booked its factorization
# but not its iteration (row 11)
@example(name="cantilever", nx=15, ny=8, strategy=Strategy.N, budget=18,
         move=0.5, kernel="gaussian", linear=False, converge=None)
# a diverging float32 sweep once overflowed in the held solve's cast
@example(name="cantilever", nx=5, ny=8, strategy=Strategy.UPK03K100G,
         budget=27, move=0.5, kernel="cone", linear=False, converge=None)
# six rejected rows in a row, 5 to 10, under reuse: row 11 steps at 1/64
# of the move limit
@example(name="gripper", nx=12, ny=6, strategy=Strategy.UPK100G, budget=20,
         move=0.2, kernel="cone", linear=False, converge=None)
@given(name=st.sampled_from(sorted(bench.BUILDERS)),
       nx=st.integers(2, 15), ny=st.integers(2, 9),
       strategy=st.sampled_from(list(Strategy)), budget=st.integers(6, 20),
       move=st.floats(0.05, 0.5), kernel=st.sampled_from(["cone", "gaussian"]),
       linear=st.booleans(), converge=st.none() | st.floats(1e-3, 1e-1))
def test_small_runs_finish_cleanly_and_repeat(name, nx, ny, strategy, budget,
                                              move, kernel, linear, converge):
    problem = bench.build(name, mesh=(nx, ny))
    if linear:
        problem = bench.linear_mode(problem)
    config = OptimizerConfig(strategy=strategy, budget=budget,
                             converge_tol=converge, move_limit=move,
                             filter_kernel=kernel)
    history = run(problem, config)
    accepted = history.accepted
    assert all(r <= 1e-5 for r, ok in zip(history.residual_inf, accepted)
               if ok)
    iters = history.newton_iters
    if linear:
        rows = len(iters)
        assert iters == history.factorizations == [1] * rows
        for column in ("ica_iters",) + REASONS:
            assert getattr(history, column) == [0] * rows, column
    else:
        shares = [predicted_factorizations(strategy, iters[:i + 1],
                                           accepted[:i + 1])
                  - predicted_factorizations(strategy, iters[:i],
                                             accepted[:i])
                  for i in range(len(iters))]
        assert history.factorizations == [
            share + fallbacks
            for share, fallbacks in zip(shares, history.fallbacks)]
    again = run(problem, config)
    for column in BOOKED:
        assert getattr(again, column) == getattr(history, column), column
    assert again.aborted == history.aborted
