import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enoc import (DimensionMismatchError, EnsembleState, ParameterSpace,
                  ball_average, ball_mass, l2_inner, l2_norm)


def _space(weights, metric=None, coords=None):
    return ParameterSpace(weights=weights, metric=metric, coords=coords)


# -- construction -------------------------------------------------------------

def test_rejects_nonpositive_weight_with_index():
    with pytest.raises(ValueError, match="atom 1"):
        _space([1.0, 0.0], coords=[[0.0], [1.0]])


def test_rejects_asymmetric_metric():
    with pytest.raises(ValueError, match="asymmetric"):
        _space([1.0, 1.0], metric=[[0.0, 1.0], [2.0, 0.0]])


def test_rejects_triangle_violation_with_indices():
    bad = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="triangle"):
        _space([1.0, 1.0, 1.0], metric=bad)


def test_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        _space([1.0], metric=[[0.5]])


def test_metrics_near_the_float_limit():
    # coords whose distance overflows are rejected; a metric entry near the
    # limit is kept, though its triangle check's detours overflow
    with pytest.raises(ValueError, match=r"atoms \(0,1\) overflows"):
        _space([1.0, 1.0], coords=[[1e308], [-1e308]])
    sp = _space([1.0, 1.0, 1.0],
                metric=[[0.0, 1e308, 1e308], [1e308, 0.0, 1.0], [1e308, 1.0, 0.0]])
    assert sp.metric.max() == 1e308


def test_euclidean_embedding_metric():
    sp = _space([1.0, 1.0, 1.0], coords=[[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert sp.metric[1, 2] == pytest.approx(5.0)
    assert sp.metric.max() == pytest.approx(5.0)


def test_weights_need_not_be_normalized():
    sp = _space([2.0, 3.0], coords=[[0.0], [1.0]])
    assert sp.mass == pytest.approx(5.0)


def test_state_shape_mismatch():
    sp = _space([1.0, 1.0], coords=[[0.0], [1.0]])
    with pytest.raises(DimensionMismatchError):
        EnsembleState(np.zeros((3, 1)), sp)


def test_state_rejects_nonfinite():
    sp = _space([1.0, 1.0], coords=[[0.0], [1.0]])
    with pytest.raises(ValueError, match="atom 1"):
        EnsembleState([[0.0], [np.inf]], sp)


# -- inner product and norm ---------------------------------------------------

def test_inner_zero_state(two_atom_space):
    z = EnsembleState.zeros(two_atom_space, 1)
    assert l2_inner(z, z) == 0.0


def test_inner_symmetry_cancellation(two_atom_space):
    phi = EnsembleState([[2.0], [-2.0]], two_atom_space)
    psi = EnsembleState([[1.0], [1.0]], two_atom_space)
    assert l2_inner(phi, psi) == pytest.approx(0.0)


def test_inner_matches_extended_precision_sum():
    rng = np.random.default_rng(7)
    sp = _space(rng.uniform(0.1, 2.0, 4), coords=rng.standard_normal((4, 2)))
    phi = EnsembleState(rng.standard_normal((4, 3)), sp)
    psi = EnsembleState(rng.standard_normal((4, 3)), sp)
    terms = [sp.weights[i] * phi.values[i, k] * psi.values[i, k]
             for i in range(4) for k in range(3)]
    assert l2_inner(phi, psi) == pytest.approx(math.fsum(terms), abs=1e-12)


def test_norm_examples():
    sp1 = _space([1.0], coords=[[0.0]])
    assert l2_norm(EnsembleState([[3.0]], sp1)) == pytest.approx(3.0)
    sp2 = _space([1.0, 1.0], coords=[[0.0], [1.0]])
    assert l2_norm(EnsembleState([[3.0], [4.0]], sp2)) == pytest.approx(5.0)
    assert l2_norm(EnsembleState.zeros(sp2, 1)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_cauchy_schwarz(m_atoms, n_dim, seed):
    rng = np.random.default_rng(seed)
    sp = _space(rng.uniform(0.05, 3.0, m_atoms),
                coords=rng.standard_normal((m_atoms, 1)))
    phi = EnsembleState(rng.standard_normal((m_atoms, n_dim)), sp)
    psi = EnsembleState(rng.standard_normal((m_atoms, n_dim)), sp)
    assert abs(l2_inner(phi, psi)) <= l2_norm(phi) * l2_norm(psi) * (1 + 1e-12)


# -- ball operations ----------------------------------------------------------

def test_ball_mass_covers_everything_beyond_diameter(two_atom_space):
    assert ball_mass(two_atom_space, 2.0) == pytest.approx(two_atom_space.mass)


def test_ball_mass_two_atoms():
    sp = _space([0.3, 0.7], metric=[[0.0, 1.0], [1.0, 0.0]])
    assert ball_mass(sp, 0.5) == pytest.approx(0.3)


def test_ball_mass_single_atom():
    sp = _space([0.8], coords=[[0.0]])
    for r in (0.01, 1.0, 100.0):
        assert ball_mass(sp, r) == pytest.approx(0.8)


def test_ball_mass_rejects_nonpositive_radius(two_atom_space):
    with pytest.raises(ValueError):
        ball_mass(two_atom_space, 0.0)


def test_ball_mass_nondecreasing_in_radius():
    rng = np.random.default_rng(3)
    sp = _space(rng.uniform(0.1, 1.0, 5), coords=rng.standard_normal((5, 2)))
    radii = np.linspace(0.05, 2 * sp.metric.max(), 25)
    masses = [ball_mass(sp, r) for r in radii]
    assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
    assert masses[-1] == pytest.approx(sp.mass)


def test_ball_average_constant_fixed_point():
    rng = np.random.default_rng(5)
    sp = _space(rng.uniform(0.1, 1.0, 4), coords=rng.standard_normal((4, 1)))
    F = EnsembleState(np.full((4, 2), 1.7), sp)
    for r in (0.01, 0.6, 10.0):
        out = ball_average(sp, F, r)
        np.testing.assert_allclose(out.values, F.values)


def test_ball_average_singleton_balls_identity():
    sp = _space([1.0, 1.0], coords=[[0.0], [1.0]])
    F = EnsembleState([[0.3], [0.9]], sp)
    out = ball_average(sp, F, 0.5)
    np.testing.assert_array_equal(out.values, F.values)


def test_ball_average_two_atom_mean():
    sp = _space([1.0, 1.0], metric=[[0.0, 1.0], [1.0, 0.0]])
    F = EnsembleState([[0.0], [4.0]], sp)
    out = ball_average(sp, F, 2.0)
    np.testing.assert_allclose(out.values, [[2.0], [2.0]])


def test_ball_average_linear_operator():
    rng = np.random.default_rng(11)
    sp = _space(rng.uniform(0.1, 1.0, 5), coords=rng.standard_normal((5, 1)))
    F = EnsembleState(rng.standard_normal((5, 2)), sp)
    G = EnsembleState(rng.standard_normal((5, 2)), sp)
    r = 0.8
    lhs = ball_average(sp, EnsembleState(2.0 * F.values - 3.0 * G.values, sp), r)
    rhs = 2.0 * ball_average(sp, F, r).values - 3.0 * ball_average(sp, G, r).values
    np.testing.assert_allclose(lhs.values, rhs, atol=1e-12)


def ball_average_norm_bound(space, r):
    """Upper bound on the weighted-L2 operator norm of ball_average: Jensen
    plus the weighted column sums give ||A v|| <= sqrt(C) ||v|| with
    C = max_j sum_{i in B_r(j)} w_i / mass(B_r(i))."""
    inside = space.metric < r
    masses = inside @ space.weights
    return float(np.sqrt((inside * (space.weights / masses)[:, None]).sum(axis=0).max()))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**31 - 1),
       st.floats(0.05, 4.0, allow_nan=False))
def test_ball_average_weighted_norm_bound(m_atoms, seed, r):
    rng = np.random.default_rng(seed)
    sp = _space(rng.uniform(0.1, 2.0, m_atoms),
                coords=rng.standard_normal((m_atoms, 1)))
    F = EnsembleState(rng.standard_normal((m_atoms, 2)), sp)
    bound = ball_average_norm_bound(sp, r)
    assert l2_norm(ball_average(sp, F, r)) <= bound * l2_norm(F) * (1 + 1e-10)


def test_ball_average_contracts_when_balls_are_uniform():
    # full-space balls: averaging is the weighted-mean projection
    rng = np.random.default_rng(13)
    sp = _space(rng.uniform(0.1, 1.0, 6), coords=rng.standard_normal((6, 1)))
    r = 2 * sp.metric.max()
    assert ball_average_norm_bound(sp, r) <= 1 + 1e-12
    for _ in range(25):
        F = EnsembleState(rng.standard_normal((6, 2)), sp)
        assert l2_norm(ball_average(sp, F, r)) <= l2_norm(F) * (1 + 1e-12)


def test_ball_average_can_expand_on_irregular_spaces():
    # regression pin: the mean-over-ball operator is not an L2 contraction
    # in general; on this three-atom line it expands a specific profile.
    sp = _space([1.0, 1.0, 1.0], coords=[[0.0], [1.0], [2.0]])
    F = EnsembleState([[1.0], [1.62], [1.0]], sp)
    out = ball_average(sp, F, 1.5)
    assert l2_norm(out) > l2_norm(F)
    assert l2_norm(out) <= ball_average_norm_bound(sp, 1.5) * l2_norm(F)


# -- serialization ------------------------------------------------------------

def test_space_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    sp = _space(rng.uniform(0.1, 1.0, 4), coords=rng.standard_normal((4, 2)))
    path = tmp_path / "space.json"
    sp.save(path)
    back = ParameterSpace.load(path)
    np.testing.assert_allclose(back.weights, sp.weights)
    np.testing.assert_allclose(back.metric, sp.metric)
    assert back.labels == sp.labels


def test_space_round_trip_explicit_metric(tmp_path):
    sp = _space([0.3, 0.7], metric=[[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "space.json"
    sp.save(path)
    back = ParameterSpace.load(path)
    np.testing.assert_allclose(back.metric, sp.metric)


def test_loader_reports_first_violation(tmp_path):
    doc = {
        "format": "enoc-space/1",
        "atoms": [{"id": "a"}, {"id": "b"}],
        "weights": [1.0, -2.0],
        "metric": [[0.0, 1.0], [1.0, 0.0]],
    }
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="atom 1"):
        ParameterSpace.load(path)


def test_loader_rejects_unknown_format(tmp_path):
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope", "atoms": [], "weights": []}))
    with pytest.raises(ValueError, match="format"):
        ParameterSpace.load(path)
