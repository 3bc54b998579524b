import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qcorr import ValidationError, trajectory_draws, trajectory_generator


def test_identical_keys_identical_draws():
    a = trajectory_draws(987654321, 17, 200, 2)
    b = trajectory_draws(987654321, 17, 200, 2)
    assert np.array_equal(a, b)


def test_draws_equal_a_freshly_keyed_generator():
    # The rekeyed per-thread generator reproduces Generator(Philox(key)),
    # however the previous call left it.
    for seed, index, shape in ((987654321, 17, (200, 2)), (2 ** 64 - 1, 2 ** 63 + 5, (7, 3)),
                               (0, 0, (1, 1)), (42, 3, (301, 2))):
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, index], np.uint64)))
        assert np.array_equal(trajectory_draws(seed, index, *shape), fresh.standard_normal(shape))
        assert np.array_equal(trajectory_generator(seed, index).standard_normal(shape),
                              trajectory_draws(seed, index, *shape))


def test_concurrent_threads_draw_the_serial_blocks():
    keys = [(seed, index) for seed in (5, 2 ** 40) for index in range(60)]
    serial = [trajectory_draws(seed, index, 500, 2) for seed, index in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda key: trajectory_draws(*key, 500, 2), keys * 3,
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial * 3):
        assert np.array_equal(got, want)


def test_block_prefix_stable_under_length():
    # Drawing a longer block must not change the earlier draws.
    short = trajectory_draws(42, 3, 50, 2)
    long = trajectory_draws(42, 3, 300, 2)
    assert np.array_equal(long[:50], short)


def test_distinct_trajectories_differ():
    a = trajectory_draws(42, 0, 100, 1)
    b = trajectory_draws(42, 1, 100, 1)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = trajectory_draws(1, 0, 100, 1)
    b = trajectory_draws(2, 0, 100, 1)
    assert not np.array_equal(a, b)


def test_streams_statistically_independent():
    n = 20000
    bound = 4.0 / np.sqrt(n)
    base = trajectory_draws(777, 0, n, 2)
    other = trajectory_draws(777, 1, n, 2)
    columns = [base[:, 0], base[:, 1], other[:, 0], other[:, 1]]
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            rho = np.corrcoef(columns[i], columns[j])[0, 1]
            assert abs(rho) < bound, (i, j, rho)
    # Also no correlation between consecutive steps of one stream.
    rho_lag = np.corrcoef(base[:-1, 0], base[1:, 0])[0, 1]
    assert abs(rho_lag) < bound


def test_draws_are_standard_normal():
    draws = trajectory_draws(5, 9, 100000, 1).ravel()
    assert abs(draws.mean()) < 4.0 / np.sqrt(draws.size)
    assert draws.var() == pytest.approx(1.0, rel=0.02)


def test_seed_validation():
    with pytest.raises(ValidationError):
        trajectory_draws(-1, 0, 10, 1)
    with pytest.raises(ValidationError):
        trajectory_draws(2 ** 64, 0, 10, 1)
    with pytest.raises(ValidationError):
        trajectory_draws(1.5, 0, 10, 1)
    with pytest.raises(ValidationError):
        trajectory_draws(1, -3, 10, 1)
