"""Bloch-vector models of continuously measured qubits.

A qubit state is a Bloch vector r = (x, y, z), represented throughout as a
plain float ndarray of shape (3,); norm 1 is a pure state, norm < 1 mixed.
Monitoring a qubit observable along unit axis n with measurement time tau and
quantum efficiency eta dephases the ensemble-averaged state at rate

    dephasing_rate = (1 + phase_k**2) / (2 * eta * tau)

in the plane perpendicular to n. The ensemble-averaged evolution is the
affine Markovian form

    dr/dt = L r + b

with a constant 3x3 generator L and drift b, so the solution map over a
time span depends on its length alone. A model is *unital* when b = 0,
which makes the solution map odd in the initial state: propagating -r0
gives minus the propagation of r0. EnsembleModel accepts only a Lindblad
generator (require_lindblad), and SimConfig only a model whose flow between
its event maps is one too, so no route evaluates a flow that carries a
state out of the Bloch ball.

All functions here are pure; nothing is mutated, so concurrent use needs no
locking.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import ValidationError, check_positive
from .linalg import affine_flow, cross_matrix

UNIT_AXIS_TOL = 1e-9
STATE_NORM_TOL = 1e-9
UNITAL_TOL = 1e-10
LINDBLAD_TOL = 1e-12


def as_bloch(r) -> np.ndarray:
    """Coerce to a float 3-vector without norm checks."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValidationError(f"Bloch vector must have shape (3,), got {r.shape}")
    return r


def validate_state(r) -> np.ndarray:
    """Coerce to a Bloch vector and require it to lie in the unit ball."""
    r = as_bloch(r)
    norm = float(np.linalg.norm(r))
    if not norm <= 1.0 + STATE_NORM_TOL:  # also refuses NaN
        raise ValidationError(f"Bloch vector norm {norm:.6g} exceeds 1")
    return r


@dataclass(frozen=True)
class MeasurementChannel:
    """One linear detector monitoring the qubit observable along ``axis``.

    tau is the measurement (collapse) time in microseconds: the time needed
    for the output signal-to-noise ratio to reach 1. eta in (0, 1] is the
    quantum efficiency. phase_k sets the relative strength of phase
    backaction (rotation about the axis driven by the output noise); zero
    when the optimal quadrature is amplified.
    """

    axis: tuple
    tau: float
    eta: float = 1.0
    phase_k: float = 0.0

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValidationError(f"channel axis must be a 3-vector, got shape {axis.shape}")
        norm = float(np.linalg.norm(axis))
        if not abs(norm - 1.0) <= UNIT_AXIS_TOL:  # also refuses NaN
            raise ValidationError(f"channel axis must be unit length, got norm {norm:.12g}")
        check_positive(self.tau, "channel tau")
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError(f"channel eta must be in (0, 1], got {self.eta}")
        if not np.isfinite(self.phase_k):
            raise ValidationError(f"channel phase_k must be finite, got {self.phase_k}")
        object.__setattr__(self, "axis", tuple(float(c) for c in axis))

    @property
    def axis_vector(self) -> np.ndarray:
        return np.array(self.axis, dtype=float)

    @property
    def dephasing_rate(self) -> float:
        """Ensemble dephasing rate contributed by this channel, in 1/us."""
        return (1.0 + self.phase_k ** 2) / (2.0 * self.eta * self.tau)


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """Time-homogeneous ensemble-averaged Lindblad evolution dr/dt = lam r + drift."""

    lam: np.ndarray
    _: KW_ONLY
    drift: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name, shape in (("lam", (3, 3)), ("drift", (3,))):
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValidationError(f"model {name} must have shape {shape}, got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"model {name} must be finite")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        require_lindblad(self.lam, self.drift, "the model")

    @property
    def unital(self) -> bool:
        """True when the model keeps the fully mixed state fixed."""
        return float(np.linalg.norm(self.drift)) <= UNITAL_TOL


def measurement_dephasing_generator(channels) -> np.ndarray:
    """Ensemble generator contribution of a set of measurement channels.

    Sum over channels of -rate * (I - n n^T): each channel damps the Bloch
    components perpendicular to its axis at its dephasing rate. Symmetric and
    negative semidefinite.
    """
    total = np.zeros((3, 3))
    for ch in channels:
        if not isinstance(ch, MeasurementChannel):
            ch = MeasurementChannel(*ch)
        n = ch.axis_vector
        total -= ch.dephasing_rate * (np.eye(3) - np.outer(n, n))
    return total


def require_lindblad(generator, drift, name: str) -> None:
    """Refuse dr/dt = generator r + drift unless it is a qubit Lindblad generator.

    With M = sym(generator), S = M/2 - (tr M / 4) I and t = drift / 4, the
    flow is a quantum dynamical semigroup exactly when its Kossakowski
    matrix K = S + i [t]_x is positive semidefinite (Gorini, Kossakowski &
    Sudarshan, J. Math. Phys. 17, 821 (1976)); the antisymmetric part of the
    generator is a Hamiltonian's and free. A PSD S makes M negative
    semidefinite, so such a flow never stretches the Bloch ball, and its
    drift never carries a state out of it. K's least eigenvalue may lie
    LINDBLAD_TOL (1 + max|generator|) below 0. It is read off the real form
    [[S, -T], [T, S]] of K = S + i T, T = [t]_x, which has K's eigenvalues,
    each twice: a complex eigvalsh would map about 0.75 MiB more of LAPACK
    into every process that builds a model.
    """
    m = 0.5 * (generator + generator.T)
    s = 0.5 * m - 0.25 * np.trace(m) * np.eye(3)
    t = 0.25 * cross_matrix(drift)
    low = float(np.linalg.eigvalsh(np.block([[s, -t], [t, s]]))[0])
    if not low >= -LINDBLAD_TOL * (1.0 + float(np.abs(generator).max())):
        raise ValidationError(f"{name} is no Lindblad generator: its Kossakowski matrix has "
                              f"eigenvalue {low:.3g}/us")


def build_ensemble_model(
    channels,
    rabi_axis=None,
    rabi_freq: float = 0.0,
    env_lambda=None,
    env_rst=None,
) -> EnsembleModel:
    """Assemble the ensemble model of a monitored qubit.

    The evolution is the measurement dephasing of all channels, a coherent
    rotation rabi_freq * [rabi_axis]_x (rad/us about a unit axis) and an
    environment env_lambda (r - env_rst) that relaxes toward env_rst (zero
    by default), so the model drift is -env_lambda env_rst. EnsembleModel
    refuses a model that is no Lindblad generator. A non-finite rabi_freq,
    env_lambda or env_rst is refused by name.
    """
    if not np.isfinite(rabi_freq):
        raise ValidationError(f"rabi_freq must be finite, got {rabi_freq}")
    lam = measurement_dephasing_generator(channels)
    if rabi_freq != 0.0:
        if rabi_axis is None:
            raise ValidationError("rabi_freq != 0 requires a rabi_axis")
        axis = as_bloch(rabi_axis)
        norm = float(np.linalg.norm(axis))
        if not abs(norm - 1.0) <= UNIT_AXIS_TOL:
            raise ValidationError(f"rabi_axis must be unit length, got norm {norm:.12g}")
        lam = lam + rabi_freq * cross_matrix(axis)
    r_env = np.zeros(3) if env_rst is None else as_bloch(env_rst)
    if not np.all(np.isfinite(r_env)):
        raise ValidationError(f"env_rst must be finite, got {r_env.tolist()}")
    drift = np.zeros(3)
    if env_lambda is not None:
        env_lambda = np.asarray(env_lambda, dtype=float)
        if env_lambda.shape != (3, 3):
            raise ValidationError(f"env_lambda must be 3x3, got {env_lambda.shape}")
        if not np.all(np.isfinite(env_lambda)):
            raise ValidationError(f"env_lambda must be finite, got {env_lambda.tolist()}")
        lam = lam + env_lambda
        drift = -env_lambda @ r_env
    return EnsembleModel(lam, drift=drift)  # refuses a non-finite or non-Lindblad generator


def ordered_propagator(model: EnsembleModel, t0: float, t1: float) -> np.ndarray:
    """Exact 4x4 gap map G of the model from t0 to t1 (t0 <= t1).

    (r(t1), 1) = G (r(t0), 1); see linalg.affine_flow. The model is
    time-homogeneous, so the map depends on t1 - t0 alone.
    """
    if not t0 <= t1 or not np.isfinite(t1 - t0):
        raise ValidationError(f"ordered_propagator requires finite t0 <= t1, got {t0} and {t1}")
    return affine_flow(model.lam, model.drift, t1 - t0)


def propagate_ensemble(model: EnsembleModel, r0, t0: float, t1: float) -> np.ndarray:
    """Ensemble-averaged state at t1 given state r0 at t0."""
    r0 = validate_state(r0)
    return (ordered_propagator(model, t0, t1) @ np.append(r0, 1.0))[:3]
