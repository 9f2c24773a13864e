"""Topology optimization of geometrically nonlinear 2D structures and
compliant mechanisms, with factorization-reusing inexact Newton solvers."""

from .assembly import FeModel
from .bench import Problem, cantilever, desk, gripper, inverter, slender
from .errors import (InfeasibleSubproblemError, NewtonConvergenceError,
                     NonPositiveJacobianError, SingularMatrixError)
from .filtering import FilterOperator, build_filter
from .material import MaterialParams
from .mesh import LoadCase, Mesh, build_grid, fix_region
from .nonlinear import (Action, NewtonStats, ReusePolicy, Strategy,
                        newton_solve, predicted_factorizations)
from .optimizer import (OptimizerConfig, RunHistory, optimize,
                        projected_gradient_norm, slp_subproblem)
from .reanalysis import (IcaReport, ReanalysisContext, estimate_norm_B,
                         ica_adjoint_solve, ica_solve)
from .sensitivity import objective_gradient, solve_adjoint
from .sparse import Factorization, SparseSym

__version__ = "0.1.0"
