"""Random small problems run to the end, cleanly and repeatably.

Any builder on a small mesh, under any strategy, budget, move limit and
filter kernel: ``optimize`` lets no exception escape and emits no warning,
every accepted equilibrium meets the 1e-5 max-norm residual, and a second
run books a bitwise-identical history.
"""

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from icatop import bench
from icatop.nonlinear import Strategy
from icatop.optimizer import OptimizerConfig, optimize
from icatop.reanalysis import REASONS

BOOKED = ("objective", "newton_iters", "factorizations", "ica_iters") + REASONS


def run(problem, config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        history = optimize(problem, config)
    assert not caught, [str(w.message) for w in caught]
    return history


@settings(max_examples=20, deadline=None, derandomize=True)
# the last step before the Newton cap was once never tested: row 12
# retried with a halved move limit at residual 3.7e-7
@example(name="cantilever", nx=10, ny=8, strategy=Strategy.MN, budget=17,
         move=0.5, kernel="cone")
# a diverging float32 sweep once overflowed in the held solve's cast
@example(name="cantilever", nx=5, ny=8, strategy=Strategy.UPK03K100G,
         budget=27, move=0.5, kernel="cone")
@given(name=st.sampled_from(sorted(bench.BUILDERS)),
       nx=st.integers(2, 15), ny=st.integers(2, 9),
       strategy=st.sampled_from(list(Strategy)), budget=st.integers(6, 20),
       move=st.floats(0.05, 0.5), kernel=st.sampled_from(["cone", "gaussian"]))
def test_small_runs_finish_cleanly_and_repeat(name, nx, ny, strategy, budget,
                                              move, kernel):
    problem = bench.build(name, mesh=(nx, ny))
    config = OptimizerConfig(strategy=strategy, budget=budget,
                             move_limit=move, filter_kernel=kernel)
    history = run(problem, config)
    assert max(history.residual_inf, default=0.0) <= 1e-5
    again = run(problem, config)
    for column in BOOKED:
        assert getattr(again, column) == getattr(history, column), column
    assert again.aborted == history.aborted
