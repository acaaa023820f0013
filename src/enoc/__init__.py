"""Ensemble optimal control: shared-control ODE families under parameter
uncertainty, with a value-function solver trio and a numerical certification
harness for the structural properties the solvers rely on."""

__version__ = "0.1.0"

from .errors import (CapabilityError, CapacityError, DimensionMismatchError,
                     DivergenceError, EnocError, GridCoverageWarning,
                     ScheduleError, TerminalValueError)
from .measure import (EnsembleState, ParameterSpace, ball_average, ball_mass,
                      l2_inner, l2_norm)
from .problem import (CheckReport, ControlSchedule, DynamicsSpec, ProblemSpec,
                      TerminalCostSpec, modulus_check, validate_cost_bound,
                      validate_growth, validate_lipschitz)
from .library import (builtin, closed_form, cost_lipschitz_bound, load_problem,
                      problem_from_dict)
from .ensemble import (ControlSignal, TimeGrid, Trajectory, integrate,
                       trajectory_bound_suite, random_signal)
from .value import (AdjointResult, Axis, OracleResult, OracleTree, QueryResult,
                    ValueGrid, ValueQuery, build_oracle_tree,
                    compute_value, dpp_residual, greedy_rollout, stack_state,
                    terminal_functional, unstack_state, value_adjoint, value_dp,
                    value_oracle)
from .verify import (epigraph_invariance, hjb_residual, oscillation_diagnostic,
                     terminal_limit)
