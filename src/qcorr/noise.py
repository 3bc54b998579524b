"""Counter-based noise streams for reproducible parallel Monte Carlo.

Each trajectory owns one Philox-keyed stream; the draw used at (channel c,
step k) sits at a fixed position in that stream. The draw block for a given
(master_seed, trajectory) pair is therefore a pure function of the key,
independent of scheduling, batching, or worker count, and streams with
distinct keys are statistically independent by construction of the
counter-based generator.

trajectory_draws does not build a generator per trajectory. Each thread
keeps one Philox bit generator and rekeys it for every call: the key becomes
(master_seed, trajectory), the counter goes back to 0 and the output buffer
is emptied. That is exactly the state of a freshly built
Philox(key=[master_seed, trajectory]), so the stream is the same, without
the cost of construction. A call never sees what an earlier call left in the
generator, and no two threads share one.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ValidationError, check_integer

_UINT64_MAX = 2 ** 64 - 1
_ZERO_WORDS = (0, 0, 0, 0)
_per_thread = threading.local()


def check_seed(master_seed: int) -> int:
    seed = check_integer(master_seed, "master_seed")
    if not (0 <= seed <= _UINT64_MAX):
        raise ValidationError("master_seed must fit in an unsigned 64-bit integer")
    return seed


def _key(master_seed: int, trajectory_index: int) -> tuple:
    seed = check_seed(master_seed)
    if trajectory_index < 0:
        raise ValidationError(f"trajectory_index must be nonnegative, got {trajectory_index}")
    return seed, int(trajectory_index)


def trajectory_generator(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Generator for one trajectory, keyed by (master_seed, trajectory_index)."""
    key = np.array(_key(master_seed, trajectory_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trajectory_draws(master_seed: int, trajectory_index: int, n_steps: int, n_channels: int) -> np.ndarray:
    """Standard-normal draw block of shape (n_steps, n_channels).

    Entry [k, c] is the draw consumed by channel c at integration step k;
    identical arguments always return identical arrays, the first draws of
    trajectory_generator(master_seed, trajectory_index).
    """
    key = _key(master_seed, trajectory_index)
    gen = getattr(_per_thread, "generator", None)
    if gen is None:
        gen = _per_thread.generator = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,  # all 4 buffered words used: the next draw runs Philox
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal((n_steps, n_channels))
