"""Exact multi-time output-signal correlators of monitored qubits.

An N-time correlator is the ensemble average of a time-ordered product of
output samples, one per event (channel, time). chain_correlator evaluates it
as a forward transfer product over the unnormalised qubit operator
(c I + v . sigma) / 2, held as the homogeneous pair (c, v) and started from
(1, r_in). Each gap applies the ensemble-averaged affine map r -> P r + q of
the model, and each event on a channel with axis n and phase-backaction
strength k applies the quantum Bayesian event map
rho -> {sigma_n, rho}/2 - (i k/2) [sigma_n, rho]:

    gap:    (c, v) -> (c, P v + c q)
    event:  (c, v) -> (n . v, c n + k n x v)

The correlator is the final c. The k term is the phase kick the output noise
gives the state (Korotkov, PRB 63, 115403 (2001)); with k = 0 the event map
is the projective +-1 collapse, which brute_force_correlator sums literally
over all 2^N outcomes as the k = 0 oracle.

Factorization is a corollary. For a unital model (q = 0) without phase
backaction the state splits into two threads that never mix: a gap acts on
v alone, and an event turns c into the vector c n and v into the scalar
n . v. The final c follows one thread. For even N it starts from c = 1 and
is the product of two-time correlators K(t_i, t_k) = n_k . P(t_i -> t_k) n_i
over the pairs (1, 2), (3, 4), ...; for odd N it starts from r_in and is the
mean signal at the first event times the pairs (2, 3), (4, 5), ... The
evolution inside the unpaired gaps drops out, as does the initial state for
even N.

Window averages are one evaluation. The event maps act linearly on the
unnormalised state (Korotkov, PRB 60, 5737 (1999)), so every route (chain,
factorized, brute force) is affine in the state r(t1) at the earliest event.
The mean of a route over the placements t1 = i dt of an averaging window is
therefore the route evaluated once, from window_mean_state: the ensemble
state averaged over those placements, taken as r_in at t_in = t1 = 0 with
the later events at their gaps from t1.

Coinciding event times are meaningful only between two events of the same
channel, where the white output noise contributes a delta-function term
tau_l * delta(0) (discretized as tau_l / dt) times the correlator with the
pair removed; singular_corrections enumerates those terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as outcome_product

import numpy as np

from .bloch import (
    EnsembleModel,
    as_bloch,
    ordered_propagator,
    propagate_ensemble,
    validate_state,
)
from .errors import (
    FactorizationInapplicableError,
    SpecSizeError,
    ValidationError,
)
from .linalg import cross_matrix

BRUTE_FORCE_MAX_EVENTS = 16


@dataclass(frozen=True)
class CorrelatorSpec:
    """Ordered list of correlator events plus the initial condition.

    events is a sequence of (channel_index, time_us) with strictly increasing
    times; coinciding times are only representable through SingularSpec. The
    qubit is prepared in r_in at t_in <= first event time.
    """

    events: tuple
    r_in: tuple = (0.0, 0.0, 0.0)
    t_in: float = 0.0

    def __post_init__(self):
        events = tuple((int(ch), float(t)) for ch, t in self.events)
        if not events:
            raise ValidationError("CorrelatorSpec needs at least one event")
        times = [t for _, t in events]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(
                f"event times must be strictly increasing, got {times}; "
                "coinciding times are only legal through SingularSpec"
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


@dataclass(frozen=True)
class SingularSpec:
    """Event list that may contain coinciding-time same-channel pairs.

    pairs holds the indices i of events for which event i and i+1 coincide in
    time on the same channel. At most two same-channel events may share one
    time value; a third makes the would-be singular weight vanish and is
    rejected instead of silently dropped.
    """

    events: tuple
    pairs: tuple
    r_in: tuple = (0.0, 0.0, 0.0)
    t_in: float = 0.0

    def __post_init__(self):
        events = tuple((int(ch), float(t)) for ch, t in self.events)
        if not events:
            raise ValidationError("SingularSpec needs at least one event")
        times = [t for _, t in events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValidationError(f"event times must be nondecreasing, got {times}")
        if times[0] < self.t_in:
            raise ValidationError(f"first event time {times[0]} precedes t_in={self.t_in}")
        per_time_channel = {}
        for ch, t in events:
            per_time_channel[(t, ch)] = per_time_channel.get((t, ch), 0) + 1
        for (t, ch), count in per_time_channel.items():
            if count > 2:
                raise ValidationError(
                    f"{count} events of channel {ch} coincide at t={t}: "
                    "Gaussian noise leaves no singular contribution from three or "
                    "more coinciding same-channel times; split the spec instead"
                )
        pairs = tuple(sorted(int(i) for i in self.pairs))
        for i in pairs:
            if not (0 <= i < len(events) - 1):
                raise ValidationError(f"pair index {i} out of range")
            (ch_a, t_a), (ch_b, t_b) = events[i], events[i + 1]
            if t_a != t_b or ch_a != ch_b:
                raise ValidationError(
                    f"events {i} and {i + 1} are not a coinciding same-channel pair"
                )
        if any(b - a < 2 for a, b in zip(pairs, pairs[1:])):
            raise ValidationError("coinciding pairs must not overlap")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "pairs", pairs)
        r_in = validate_state(self.r_in)
        object.__setattr__(self, "r_in", tuple(float(c) for c in r_in))

    @classmethod
    def from_events(cls, events, r_in=(0.0, 0.0, 0.0), t_in=0.0) -> "SingularSpec":
        """Identify coinciding same-channel pairs among sorted events."""
        events = sorted(((int(ch), float(t)) for ch, t in events), key=lambda e: e[1])
        pairs = []
        i = 0
        while i < len(events) - 1:
            (ch_a, t_a), (ch_b, t_b) = events[i], events[i + 1]
            if t_a == t_b and ch_a == ch_b:
                pairs.append(i)
                i += 2
            else:
                i += 1
        return cls(tuple(events), tuple(pairs), r_in, t_in)


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
    prop = ordered_propagator(model, t_i, t_k)
    return float(n_k @ (prop.matrix @ n_i))


def window_mean_state(model: EnsembleModel, r_in, window, dt: float) -> np.ndarray:
    """Ensemble state from r_in at 0, averaged over t1 = i dt for i in window.bins(dt).

    Every route is affine in the state at t1, so its window average is one
    evaluation from this state (module docstring). The model is
    time-homogeneous, so the state is propagated to the first placement
    once and then stepped bin by bin with the one-bin map: two matrix
    exponentials and one running sum of states for any window length.
    """
    i0, i1 = window.bins(dt)
    step = ordered_propagator(model, 0.0, dt)
    state = propagate_ensemble(model, r_in, 0.0, i0 * dt)
    total = state.copy()
    for _ in range(i1 - i0):
        state = step.apply(state)
        total += state
    return total / (i1 - i0 + 1)


def _event_propagators(model: EnsembleModel, spec: CorrelatorSpec):
    """Affine maps over the gaps (t_in -> t_1), (t_1 -> t_2), ..."""
    times = (spec.t_in,) + spec.times
    return [ordered_propagator(model, a, b) for a, b in zip(times, times[1:])]


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
    props = _event_propagators(model, spec)
    r_first = props[0].apply(as_bloch(spec.r_in))
    total = 0.0
    for outcomes in outcome_product((1.0, -1.0), repeat=n):
        weight = 0.5 * (1.0 + outcomes[0] * float(axes[0] @ r_first))
        for k in range(1, n):
            conditioned = props[k].apply(outcomes[k - 1] * axes[k - 1])
            weight *= 0.5 * (1.0 + outcomes[k] * float(axes[k] @ conditioned))
        total += weight * float(np.prod(outcomes))
    return total


def chain_correlator(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Correlator via the O(N) forward transfer product; covers every model."""
    c, v = 1.0, as_bloch(spec.r_in)
    for prop, ch in zip(_event_propagators(model, spec), spec.channel_indices):
        n = _axis(channels, ch)
        v = prop.matrix @ v + c * prop.offset
        c, v = float(n @ v), c * n + channels[ch].phase_k * (cross_matrix(n) @ v)
    return c


def _factorized_value(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Pair-product form without precondition checks (testing hook)."""
    axes = [_axis(channels, ch) for ch in spec.channel_indices]
    times = spec.times
    n = spec.n_events

    def pair(i: int, k: int) -> float:
        prop = ordered_propagator(model, times[i], times[k])
        return float(axes[k] @ (prop.matrix @ axes[i]))

    if n % 2 == 0:
        value = 1.0
        start = 0
    else:
        value = mean_signal(model, channels, spec.channel_indices[0], times[0],
                            spec.r_in, spec.t_in)
        start = 1
    for i in range(start, n - 1, 2):
        value *= pair(i, i + 1)
    return value


def factorized_correlator(model: EnsembleModel, channels, spec: CorrelatorSpec) -> float:
    """Correlator as a product of consecutive-pair two-time correlators.

    Valid only for unital models with zero phase backaction on every channel;
    even N gives the pure pair product, odd N adds the mean signal at the
    earliest event. Raises FactorizationInapplicableError otherwise.
    """
    if not model.unital:
        raise FactorizationInapplicableError(
            "factorized evaluation requires a unital model (r_st = 0); "
            "use chain_correlator"
        )
    _require_no_phase_backaction(channels)
    return _factorized_value(model, channels, spec)


def singular_corrections(channels, spec: SingularSpec):
    """Delta-function terms of a correlator with coinciding same-channel pairs.

    Returns a list of (weight, reduced_spec) where weight is the product of
    tau over the removed pairs; each term multiplies one formal delta(0) per
    removed pair, to be discretized as 1/dt by the consumer. reduced_spec is
    None when removal empties the event list (the remaining factor is 1).
    Only removals that leave strictly ordered remaining events are emitted;
    pair subsets whose residue still contains a coincidence are accounted for
    by the higher-order term that removes them too.
    """
    terms = []
    n_pairs = len(spec.pairs)
    for mask in range(1, 2 ** n_pairs):
        chosen = [spec.pairs[i] for i in range(n_pairs) if mask >> i & 1]
        removed = set()
        weight = 1.0
        for i in chosen:
            ch = spec.events[i][0]
            if not (0 <= ch < len(channels)):
                raise ValidationError(
                    f"channel index {ch} out of range for {len(channels)} channels"
                )
            weight *= channels[ch].tau
            removed.update((i, i + 1))
        remaining = [e for j, e in enumerate(spec.events) if j not in removed]
        if not remaining:
            terms.append((weight, None))
            continue
        times = [t for _, t in remaining]
        if any(b <= a for a, b in zip(times, times[1:])):
            continue
        terms.append(
            (weight, CorrelatorSpec(tuple(remaining), spec.r_in, spec.t_in))
        )
    return terms
