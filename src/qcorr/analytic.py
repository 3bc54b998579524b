"""Exact multi-time output-signal correlators of monitored qubits.

An N-time correlator is the ensemble average of a time-ordered product of
output samples, one per event (channel, time). It is a product of linear
maps on the unnormalised qubit operator (c I + v . sigma) / 2, held as the
homogeneous 4-vector (v, c) (Korotkov, PRB 60, 5737 (1999)).
chain_correlator starts from (r_in, 1), applies one 4x4 map per gap and one
per event, and returns the final c:

    gap:    G = [[P, q], [0, 1]]           (v, c) -> (P v + c q, c)
    event:  E = [[k [n]x, n], [n^T, 0]]    (v, c) -> (k n x v + c n, n . v)

G is the model's ensemble evolution r -> P r + q over the gap
(bloch.ordered_propagator). E is the quantum Bayesian event map
rho -> {sigma_n, rho}/2 - (i k/2) [sigma_n, rho] of a channel with axis n
and phase-backaction strength k. The k term is the phase kick the output
noise gives the state (Korotkov, PRB 63, 115403 (2001)); with k = 0 the
event map is the projective +-1 collapse, which brute_force_correlator sums
literally over all 2^N outcomes as the k = 0 oracle.

Factorization is a corollary. For a unital model (q = 0) without phase
backaction the state splits into two threads that never mix: G acts on v
alone, and E turns c into the vector c n and v into the scalar n . v. The
final c follows one thread. For even N it starts from c = 1 and is the
product of two-time correlators K(t_i, t_k) = n_k . P(t_i -> t_k) n_i
over the pairs (1, 2), (3, 4), ...; for odd N it starts from r_in and is the
mean signal at the first event times the pairs (2, 3), (4, 5), ... The
evolution inside the unpaired gaps drops out, as does the initial state for
even N.

Window averages are one evaluation. The maps act linearly on the
unnormalised state, so every route (chain, factorized, brute force) is
affine in the state r(t1) at the earliest event.
The mean of a route over the placements t1 = i dt of an averaging window is
therefore the route evaluated once, from window_mean_state: the ensemble
state averaged over those placements, taken as r_in at t_in = t1 = 0 with
the later events at their gaps from t1. window_mean_spec builds that spec
from a resolved windowed spec and its window's state, which qcorr analytic
and the replica scans build once per window.

No route evaluates coinciding event times. In the records a same-channel
pair in one bin carries the white noise's second moment tau/dt + 1, which
only the Monte Carlo estimator measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as outcome_product

import numpy as np

from .bloch import EnsembleModel, ordered_propagator, validate_state
from .errors import FactorizationInapplicableError, SpecSizeError, ValidationError, check_integer
from .linalg import cross_matrix

BRUTE_FORCE_MAX_EVENTS = 16


@dataclass(frozen=True)
class CorrelatorSpec:
    """Ordered list of correlator events plus the initial condition.

    events is a sequence of (channel_index, time_us) with strictly increasing
    times. The qubit is prepared in r_in at t_in <= first event time.
    """

    events: tuple
    r_in: tuple = (0.0, 0.0, 0.0)
    t_in: float = 0.0

    def __post_init__(self):
        events = tuple((check_integer(ch, "channel index"), float(t)) for ch, t in self.events)
        if not events:
            raise ValidationError("CorrelatorSpec needs at least one event")
        times = [t for _, t in events]
        if not np.all(np.isfinite([self.t_in, *times])):
            raise ValidationError(
                f"event times and t_in must be finite, got {times} and {self.t_in}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(
                f"event times must be strictly increasing, got {times}; "
                "no exact route evaluates coinciding events"
            )
        if any(ch < 0 for ch, _ in events):
            raise ValidationError("channel indices must be nonnegative")
        if times[0] < self.t_in:
            raise ValidationError(f"first event time {times[0]} precedes t_in={self.t_in}")
        object.__setattr__(self, "events", events)
        r_in = validate_state(self.r_in)
        object.__setattr__(self, "r_in", tuple(float(c) for c in r_in))

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def times(self) -> tuple:
        return tuple(t for _, t in self.events)

    @property
    def channel_indices(self) -> tuple:
        return tuple(ch for ch, _ in self.events)


def _axis(channels, index: int) -> np.ndarray:
    if not (0 <= index < len(channels)):
        raise ValidationError(
            f"channel index {index} out of range for {len(channels)} channels"
        )
    return channels[index].axis_vector


def _require_no_phase_backaction(channels):
    for i, ch in enumerate(channels):
        if ch.phase_k != 0.0:
            raise FactorizationInapplicableError(
                f"channel {i} has phase backaction (phase_k={ch.phase_k}); "
                "the factorized form does not apply; use chain_correlator"
            )


def _require_no_kick_before_last(channels, channel_indices):
    """Refuse phase backaction at any event but the last.

    The collapse picture drops the phase kick an event gives the state that
    later events see; the last event's kick reaches none.
    """
    for ch in channel_indices[:-1]:
        if channels[ch].phase_k != 0.0:
            raise ValidationError(
                f"channel {ch} has phase backaction (phase_k={channels[ch].phase_k}) "
                "at an event before the last, which the collapse picture drops; "
                "use chain_correlator"
            )


def mean_signal(model: EnsembleModel, channels, channel_index: int, t: float,
                r_in=(0.0, 0.0, 0.0), t_in: float = 0.0) -> float:
    """Ensemble-averaged output signal of one channel at time t (one-event chain)."""
    spec = CorrelatorSpec(((channel_index, t),), r_in, t_in)
    return chain_correlator(model, channels, spec)


def _pair_value(model: EnsembleModel, n_i, t_i: float, n_k, t_k: float) -> float:
    """The closed form n_k . P(t_i -> t_k) n_i of a two-time pair, unchecked."""
    gap = ordered_propagator(model, t_i, t_k)
    return float(n_k @ (gap[:3, :3] @ n_i))


def two_time_correlator(model: EnsembleModel, channels,
                        channel_i: int, t_i: float,
                        channel_k: int, t_k: float) -> float:
    """Two-time correlator n_k . P(t_i -> t_k) n_i of a unital model.

    Independent of the initial state. For non-unital models, or phase
    backaction on channel_i, this closed form does not hold and is refused;
    evaluate a two-event chain_correlator instead.
    """
    if t_k < t_i:
        raise ValidationError(f"two_time_correlator requires t_i <= t_k, got {t_i} > {t_k}")
    if not model.unital:
        raise ValidationError(
            "two_time_correlator requires a unital model; "
            "use chain_correlator with a two-event spec for non-unital evolution"
        )
    n_i = _axis(channels, channel_i)
    n_k = _axis(channels, channel_k)
    _require_no_kick_before_last(channels, (channel_i, channel_k))
    return _pair_value(model, n_i, t_i, n_k, t_k)


def window_mean_state(model: EnsembleModel, r_in, window, dt: float) -> np.ndarray:
    """Ensemble state from r_in at 0, averaged over t1 = i dt for i in window.bins(dt).

    Every route is affine in the state at t1, so its window average is one
    evaluation from this state (module docstring). The model is
    time-homogeneous, so the state is propagated to the first placement
    once and then stepped bin by bin with the one-bin gap map: two matrix
    exponentials and one running sum of states for any window length.
    """
    i0, i1 = window.bins(dt)
    step = ordered_propagator(model, 0.0, dt)
    state = ordered_propagator(model, 0.0, i0 * dt) @ np.append(validate_state(r_in), 1.0)
    total = state.copy()
    for _ in range(i1 - i0):
        state = step @ state
        total += state
    return total[:3] / (i1 - i0 + 1)


def window_mean_spec(r_window, events, dt: float) -> CorrelatorSpec:
    """Exact spec of a resolved windowed spec: its window average is one evaluation.

    events are (channel_index, gap_in_bins) from an earliest time t1 that
    runs over the bins of a window. The events sit at g dt from t1 = 0, and
    the qubit starts there in r_window, the window_mean_state of that window.
    """
    return CorrelatorSpec(tuple((ch, g * dt) for ch, g in events), r_window, 0.0)


def _gap_maps(model: EnsembleModel, spec: CorrelatorSpec):
    """4x4 gap maps G over (t_in -> t_1), (t_1 -> t_2), ..."""
    times = (spec.t_in,) + spec.times
    return [ordered_propagator(model, a, b) for a, b in zip(times, times[1:])]


def _event_map(channels, index: int) -> np.ndarray:
    """4x4 event map E = [[k [n]x, n], [n^T, 0]] of a channel (module docstring)."""
    n = _axis(channels, index)
    event = np.zeros((4, 4))
    event[:3, :3] = channels[index].phase_k * cross_matrix(n)
    event[:3, 3] = n
    event[3, :3] = n
    return event


def brute_force_correlator(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Correlator by explicit summation over all 2^N projective outcomes.

    Exponential cost; retained permanently as the k = 0 oracle that the O(N)
    chain evaluation is checked against. It refuses phase backaction at any
    event but the last.
    """
    n = spec.n_events
    if n > BRUTE_FORCE_MAX_EVENTS:
        raise SpecSizeError(
            f"brute-force summation over 2^{n} outcomes refused "
            f"(limit {BRUTE_FORCE_MAX_EVENTS} events); use chain_correlator"
        )
    axes = [_axis(channels, ch) for ch in spec.channel_indices]
    _require_no_kick_before_last(channels, spec.channel_indices)
    gaps = [(g[:3, :3], g[:3, 3]) for g in _gap_maps(model, spec)]
    p, q = gaps[0]
    r_first = p @ np.asarray(spec.r_in) + q
    total = 0.0
    for outcomes in outcome_product((1.0, -1.0), repeat=n):
        weight = 0.5 * (1.0 + outcomes[0] * float(axes[0] @ r_first))
        for k in range(1, n):
            p, q = gaps[k]
            conditioned = p @ (outcomes[k - 1] * axes[k - 1]) + q
            weight *= 0.5 * (1.0 + outcomes[k] * float(axes[k] @ conditioned))
        total += weight * float(np.prod(outcomes))
    return total


def chain_correlator(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Correlator via the O(N) forward transfer product; covers every model."""
    events = [_event_map(channels, ch) for ch in spec.channel_indices]
    state = np.append(spec.r_in, 1.0)
    for gap, event in zip(_gap_maps(model, spec), events):
        state = event @ (gap @ state)
    return float(state[3])


def _factorized_value(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Pair-product form without precondition checks (testing hook)."""
    axes = [_axis(channels, ch) for ch in spec.channel_indices]
    times = spec.times
    n = spec.n_events
    if n % 2 == 0:
        value = 1.0
        start = 0
    else:
        value = mean_signal(model, channels, spec.channel_indices[0], times[0],
                            spec.r_in, spec.t_in)
        start = 1
    for i in range(start, n - 1, 2):
        value *= _pair_value(model, axes[i], times[i], axes[i + 1], times[i + 1])
    return value


def factorized_correlator(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Correlator as a product of consecutive-pair two-time correlators.

    Valid only for unital models with zero phase backaction on every channel;
    even N gives the pure pair product, odd N adds the mean signal at the
    earliest event. Raises FactorizationInapplicableError otherwise.
    """
    if not model.unital:
        raise FactorizationInapplicableError(
            "factorized evaluation requires a unital model (drift = 0); "
            "use chain_correlator"
        )
    _require_no_phase_backaction(channels)
    return _factorized_value(model, channels, spec)
