"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested on a wedge wall or at the r = 0 collision point."""


class UsageError(TypeError):
    """A call mixed incompatible objects, e.g. a phase point from the wrong chart."""


class DegenerateOrbitError(RuntimeError):
    """The requested measurement needs genuine radial oscillation."""


class AccuracyError(RuntimeError):
    """A quadrature or grid computation failed to converge to its target."""


class IntegrationError(RuntimeError):
    """Time integration broke down; carries the last accepted state."""

    def __init__(self, message, t_last=None, state_last=None):
        super().__init__(message)
        self.t_last = t_last
        self.state_last = state_last
