"""Shared fixtures and independent oracles used across the test suite."""

import numpy as np
import pytest

from qcorr import EnsembleModel, MeasurementChannel, ReplicaConfig, replica_model, trajectory
from qcorr.bloch import ordered_propagator

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def density_matrix(r):
    """rho = (I + r . sigma) / 2."""
    rho = np.eye(2, dtype=complex) / 2.0
    for comp, pauli in zip(r, PAULIS):
        rho = rho + 0.5 * comp * pauli
    return rho


def bloch_components(rho):
    return np.array([np.trace(pauli @ rho).real for pauli in PAULIS])


def dephasing_generator_operator_oracle(channels):
    """Bloch-space generator obtained from the 2x2 operator map.

    Applies rate * (sigma_n rho sigma_n - rho) / 2 per channel to the basis
    density matrices and reads off the Bloch components column by column:
    independent of the 3x3 projector formula under test.
    """
    columns = []
    for basis in np.eye(3):
        rho = density_matrix(basis)
        drho = np.zeros((2, 2), dtype=complex)
        for ch in channels:
            sigma_n = sum(c * p for c, p in zip(ch.axis_vector, PAULIS))
            drho += ch.dephasing_rate * (sigma_n @ rho @ sigma_n - rho) / 2.0
        columns.append(bloch_components(drho))
    # Columns are d/dt of the basis states minus the identity part (traceless).
    return np.column_stack(columns)


def density_matrix_correlator_oracle(model, channels, spec):
    """Correlator from the 2x2 operator form of the quantum Bayesian event map.

    Carries the unnormalised operator rho = (c I + v . sigma) / 2 and applies
    rho -> {sigma_n, rho}/2 - (i k/2) [sigma_n, rho] at each event on a
    channel with axis n and phase_k = k; the correlator is tr rho at the end.
    Gaps apply the model's gap map G = [[P, q], [0, 1]] to (Bloch part,
    tr rho), v -> P v + c q.
    """
    rho = density_matrix(spec.r_in)
    t = spec.t_in
    for ch, t_event in spec.events:
        gap = ordered_propagator(model, t, t_event)
        c = np.trace(rho).real
        v = gap[:3, :3] @ bloch_components(rho) + c * gap[:3, 3]
        rho = density_matrix(v) + (c - 1.0) * np.eye(2) / 2.0
        sigma_n = sum(a * p for a, p in zip(channels[ch].axis_vector, PAULIS))
        k = channels[ch].phase_k
        rho = (0.5 * (sigma_n @ rho + rho @ sigma_n)
               - 0.5j * k * (sigma_n @ rho - rho @ sigma_n))
        t = t_event
    return np.trace(rho).real


def rk4_affine_oracle(generator, drift, r0, dt_total, n_steps=4000):
    """High-resolution Runge-Kutta integration of dr/dt = generator r + drift.

    The flow is linear in the homogeneous state (r, 1), whose generator is
    M = [[generator, drift], [0, 0]]. On a linear ODE one classical RK4 step
    of size h is the fixed map I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, so
    that map is built once and applied n_steps times.
    """
    n = len(r0)
    hm = np.zeros((n + 1, n + 1))
    hm[:n, :n] = generator
    hm[:n, n] = drift
    hm *= dt_total / n_steps
    step = term = np.eye(n + 1)
    for k in range(1, 5):
        term = term @ hm / k
        step = step + term
    state = np.append(np.asarray(r0, dtype=float), 1.0)
    for _ in range(n_steps):
        state = step @ state
    return state[:n]


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_model(rng, unital, max_channels=3, allow_rabi=True):
    """Random ensemble model plus channels, mixing dephasing and rotation."""
    n_ch = int(rng.integers(1, max_channels + 1))
    channels = []
    lam = np.zeros((3, 3))
    for _ in range(n_ch):
        axis = random_unit_vector(rng)
        gamma = float(rng.uniform(0.1, 2.0))
        eta = float(rng.uniform(0.3, 1.0))
        tau = 1.0 / (2.0 * eta * gamma)
        channels.append(MeasurementChannel(tuple(axis), tau, eta))
        lam -= gamma * (np.eye(3) - np.outer(axis, axis))
    if allow_rabi and rng.random() < 0.7:
        axis = random_unit_vector(rng)
        omega = float(rng.uniform(0.0, 4.0))
        lam = lam + omega * np.array([
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ])
    if unital:
        return EnsembleModel(lam), tuple(channels)
    # A relaxation target drawn from a cube: not every such model is a Lindblad one.
    return EnsembleModel(lam, drift=-lam @ rng.uniform(-0.4, 0.4, size=3)), tuple(channels)


def random_event_spec(rng, channels, n_events, t_span=5.0):
    times = np.sort(rng.uniform(0.0, t_span, size=n_events))
    times = times + np.arange(n_events) * 1e-3  # enforce strict ordering
    chans = rng.integers(0, len(channels), size=n_events)
    return tuple((int(c), float(t)) for c, t in zip(chans, times))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def batch_cap(monkeypatch):
    """Set the most trajectories per batch (DEFAULT_BATCH_SIZE, 8192) for one test.

    Batches follow from the record shape (trajectory.batch_rows); a small
    cap cuts a small ensemble into several batches.
    """
    def cap(rows):
        monkeypatch.setattr(trajectory, "DEFAULT_BATCH_SIZE", rows)

    return cap


@pytest.fixture(scope="session")
def replica_pair():
    """Replica model and channels at phi = 3 pi / 10."""
    config = ReplicaConfig(phi=3 * np.pi / 10, include_mc=False)
    model, channels = replica_model(config)
    return config, model, channels
