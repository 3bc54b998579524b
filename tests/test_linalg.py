import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.linalg import affine_flow, cross_matrix, expm

from conftest import rk4_affine_oracle


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    d = np.diag([-1.0, -2.5, 0.3])
    expected = np.diag(np.exp([-1.0, -2.5, 0.3]))
    assert np.allclose(expm(d), expected, rtol=1e-14, atol=1e-15)


def test_expm_nilpotent():
    n = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    # exp(N) = I + N + N^2/2 terminates exactly.
    expected = np.eye(3) + n + n @ n / 2.0
    assert np.allclose(expm(n), expected, rtol=1e-15, atol=1e-15)


def test_expm_rotation():
    theta = 0.73
    g = theta * cross_matrix([0.0, 1.0, 0.0])
    rot = expm(g)
    # Rotation about y carries e_z toward e_x.
    assert np.allclose(rot @ [0.0, 0.0, 1.0],
                       [np.sin(theta), 0.0, np.cos(theta)], atol=1e-14)
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-14)


def test_expm_additivity_for_commuting_args():
    a = np.array([[-1.2, 0.4, 0.0], [0.4, -0.7, 0.1], [0.0, 0.1, -0.2]])
    assert np.allclose(expm(a) @ expm(a), expm(2 * a), rtol=1e-12, atol=1e-13)


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 3.0))
def test_expm_matches_rk4_oracle(seed, dt):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, size=(3, 3))  # generically non-normal
    r0 = rng.uniform(-1.0, 1.0, size=3)
    via_expm = expm(lam * dt) @ r0
    via_rk4 = rk4_affine_oracle(lam, np.zeros(3), r0, dt, n_steps=6000)
    assert np.allclose(via_expm, via_rk4, rtol=1e-9, atol=1e-9)


def test_affine_flow_singular_generator():
    # lam annihilates e_z: that component must stay frozen, q handles r_st.
    lam = np.diag([-1.0, -1.0, 0.0])
    g = affine_flow(lam, np.zeros(3), 1.0)
    p, q = g[:3, :3], g[:3, 3]
    assert np.array_equal(g[3], [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(p, np.diag([np.exp(-1.0), np.exp(-1.0), 1.0]), rtol=1e-13)
    assert np.allclose(q, 0.0, atol=1e-15)


def test_affine_flow_zero_generator_is_identity():
    g = affine_flow(np.zeros((3, 3)), np.array([0.3, 0.2, 0.9]), 2.0)
    assert np.allclose(g, np.eye(4), atol=1e-15)


def test_affine_flow_relaxation_toward_fixed_point():
    gamma = 0.8
    lam = -gamma * np.eye(3)
    r_st = np.array([0.0, 0.0, 1.0])
    g = affine_flow(lam, r_st, 1.7)
    # From r0 = 0 the solution is (1 - exp(-gamma t)) r_st.
    expected = (1.0 - np.exp(-gamma * 1.7)) * r_st
    assert np.allclose((g @ (0.0, 0.0, 0.0, 1.0))[:3], expected, rtol=1e-13, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_affine_flow_matches_rk4_oracle(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.5, 1.5, size=(3, 3))
    r_st = rng.uniform(-0.5, 0.5, size=3)
    r0 = rng.uniform(-0.8, 0.8, size=3)
    dt = float(rng.uniform(0.1, 2.0))
    g = affine_flow(lam, r_st, dt)
    expected = rk4_affine_oracle(lam, r_st, r0, dt, n_steps=6000)
    assert np.array_equal(g[3], [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(g[:3, :3] @ r0 + g[:3, 3], expected, rtol=1e-9, atol=1e-9)


def test_cross_matrix_matches_numpy_cross(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    assert np.allclose(cross_matrix(a) @ b, np.cross(a, b), atol=1e-15)
