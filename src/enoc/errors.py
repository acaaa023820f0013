"""Exception and warning types shared across the package."""


class EnocError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(EnocError, ValueError):
    """Shapes of states, costates or controls are inconsistent."""


class DivergenceError(EnocError, RuntimeError):
    """Integration produced a non-finite state.

    Raised by the one batched integrator that ``integrate``, the adjoint's
    forward pass and the verify integrators step through, and by the dp
    rollout and the oracle tree, which take the same RK4 step and locate
    their first non-finite state the same way.  Carries the first offending
    time node and atom index.
    """

    def __init__(self, t, atom):
        self.t = float(t)
        self.atom = int(atom)
        super().__init__(f"non-finite state at t={self.t:.6g}, atom {self.atom}")


class CapacityError(EnocError, RuntimeError):
    """An enumeration budget would be exceeded; shrink the grid or control set."""


class CapabilityError(EnocError, RuntimeError):
    """The problem lacks an optional capability (modulus, derivatives) a method needs."""


class ScheduleError(EnocError, ValueError):
    """The control schedule has no admissible points at the queried time."""


class TerminalValueError(EnocError, ValueError):
    """Terminal cost is NaN, or infinite where the caller needs it finite.

    One rule, applied by one gate (``enoc.value._weighted_costs``) that every
    solver calls on each block of states it costs, summing the weighted
    per-atom costs atom by atom: +inf propagates, except on ``value_dp``'s
    grid nodes; NaN, -inf and finite per-atom costs whose mass-weighted sum
    overflows raise this error, naming the state by its index among all
    the caller's states.  So do a per-atom cost that overflows to +inf while
    it is computed and an adjoint costate or gradient that is not finite.
    """


class GridCoverageWarning(UserWarning):
    """Value-grid axes do not cover the a-priori reachable set."""
