"""Exception types shared across the package."""


class NonPositiveJacobianError(ArithmeticError):
    """A deformation state has det(F) <= 0 at some quadrature point.

    Recoverable: the Newton line search treats it as a rejected trial step.
    """

    def __init__(self, message="nonpositive Jacobian", element=None):
        super().__init__(message)
        self.element = element


class SingularMatrixError(RuntimeError):
    """The factorization met non-finite values or an exactly zero pivot.

    Not recovered: ``optimize`` ends the run as aborted, keeping its history.
    """


class NewtonConvergenceError(RuntimeError):
    """Newton's method exhausted its iteration or line-search budget."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class InfeasibleSubproblemError(ValueError):
    """The volume target cannot be met inside the box and move limits."""
