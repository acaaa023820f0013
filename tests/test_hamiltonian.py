import numpy as np
import pytest

from enoc import EnsembleState, builtin


def min_pairing(p, t, phi, costate):
    """The Hamiltonian as hjb_residual forms it: the minimum over the active
    set of the mass-weighted pairing, with its lowest minimizing index."""
    G = p.space.weights[:, None] * costate.values
    return p.dynamics.min_pairing(t, phi.values, G, p.controls.active_set(t))


def test_zero_costate_gives_zero_and_first_index(lin2):
    phi = EnsembleState([[0.3], [0.4]], lin2.space)
    value, k = min_pairing(lin2, 0.0, phi, EnsembleState.zeros(lin2.space, 1))
    assert value == 0.0
    assert k == 0


def test_pure_control_field_two_point_set():
    p = builtin("decoupled-quadratic", M=2, tau=[0.0, 0.0], levels=2)
    pts = p.controls.active_set(0.0)
    # set is {-1, +1}; f = u, so H = min_u u * sum(w p)
    phi = EnsembleState.zeros(p.space, 1)
    for pvals, expect_val, expect_u in [
        ([[2.0], [1.0]], -abs(0.5 * 2 + 0.5 * 1), -1.0),
        ([[-2.0], [-1.0]], -abs(-0.5 * 2 - 0.5 * 1), 1.0),
    ]:
        value, k = min_pairing(p, 0.0, phi, EnsembleState(pvals, p.space))
        assert value == pytest.approx(expect_val)
        assert pts[k][0] == expect_u
    # exact tie: weighted sum zero -> lowest index wins
    value, k = min_pairing(p, 0.0, phi, EnsembleState([[1.0], [-1.0]], p.space))
    assert value == pytest.approx(0.0)
    assert k == 0


def test_linear_family_closed_hamiltonian(lin2):
    rng = np.random.default_rng(2)
    a = np.array([0.5, -0.3])
    w = lin2.space.weights
    for _ in range(10):
        phi = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
        costate = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
        expect = (float((w * a * phi.values[:, 0] * costate.values[:, 0]).sum())
                  - 1.0 * abs(float((w * costate.values[:, 0]).sum())))
        value, _ = min_pairing(lin2, 0.3, phi, costate)
        assert value == pytest.approx(expect, abs=1e-12)


def test_positive_homogeneity(lin2):
    rng = np.random.default_rng(3)
    phi = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
    costate = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
    base, k = min_pairing(lin2, 0.5, phi, costate)
    for lam in (0.25, 1.0, 7.5):
        scaled, k_scaled = min_pairing(
            lin2, 0.5, phi, EnsembleState(lam * costate.values, lin2.space))
        assert scaled == pytest.approx(lam * base, rel=1e-12)
        assert k_scaled == k


def test_concavity_in_costate(lin2):
    rng = np.random.default_rng(4)
    phi = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
    for _ in range(30):
        pa = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
        pb = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
        mid = EnsembleState(0.5 * (pa.values + pb.values), lin2.space)
        h_mid = min_pairing(lin2, 0.2, phi, mid)[0]
        h_avg = 0.5 * (min_pairing(lin2, 0.2, phi, pa)[0]
                       + min_pairing(lin2, 0.2, phi, pb)[0])
        assert h_mid >= h_avg - 1e-12


def test_enumeration_equivalence_under_shuffle(lin2):
    rng = np.random.default_rng(5)
    phi = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
    costate = EnsembleState(rng.standard_normal((2, 1)), lin2.space)
    value, _ = min_pairing(lin2, 0.0, phi, costate)
    pts = lin2.controls.active_set(0.0)
    vals = []
    for k in rng.permutation(pts.shape[0]):
        vel = lin2.dynamics.field(0.0, phi.values, pts[k])
        # the mass-weighted pairing of the costate with the velocity
        vals.append(float(np.einsum("i,ij,ij->", lin2.space.weights, costate.values, vel)))
    assert value == pytest.approx(min(vals), abs=0.0)
