import pytest

from enoc import EnsembleState, ParameterSpace, builtin


@pytest.fixture
def two_atom_space():
    return ParameterSpace(weights=[0.5, 0.5], coords=[[0.0], [1.0]])


@pytest.fixture
def lin2():
    """Two-atom linear family with positive cost weights (smooth instance)."""
    return builtin("linear-ensemble", M=2, a=[0.5, -0.3], c=[2.0, 1.0])


@pytest.fixture
def lin2_zero_gain():
    return builtin("linear-ensemble", M=2, a=[0.0, 0.0], c=[2.0, 1.0])


@pytest.fixture
def steering():
    return builtin("decoupled-quadratic", M=1, tau=[0.5])


def random_state(space, n, rng, scale=1.0):
    return EnsembleState(scale * rng.standard_normal((space.size, n)), space)


@pytest.fixture
def sine_drift_doc():
    """Expression problem x' = 5 sin(40 t), cost x^2: no builtin name, so no
    cost Lipschitz certificate, and from phibar = 0 the terminal differences
    do not decay monotonically in the horizon gap."""
    return {
        "format": "enoc-problem/1",
        "space": {"format": "enoc-space/1",
                  "atoms": [{"id": "a", "coords": [0.0]},
                            {"id": "b", "coords": [1.0]}],
                  "weights": [0.5, 0.5]},
        "n": 1, "m": 1, "horizon": 1.0,
        "dynamics": {"expressions": ["5 * sin(40 * t) + 0 * u1"],
                     "growth_c": 2.0, "lipschitz_k": 1.0,
                     "omega_modulus": "60 * r"},
        "cost": {"expression": "x1 ** 2", "lower_bound_a": 0.0,
                 "lower_bound_b": 0.0},
        "controls": {"breakpoints": [0.0], "sets": [[[-1.0], [0.0], [1.0]]],
                     "box": [[-1.0, 1.0]]},
    }
