"""Acceptance suite: one test per top-level requirement, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo checks
[A4]-[A6] dominate the runtime (a few minutes on two cores) and carry the
`slow` marker, so `pytest -m "not slow"` leaves them out; everything else
finishes in seconds. All randomness is seeded, so verdicts are reproducible.
"""

import time

import numpy as np
import pytest

from qcorr import (
    CorrelatorSpec,
    EnsembleModel,
    MeasurementChannel,
    ReplicaConfig,
    SimConfig,
    Window,
    brute_force_correlator,
    build_ensemble_model,
    chain_correlator,
    estimate_correlator,
    factorized_correlator,
    four_time_scan,
    merge_estimates,
    propagate_ensemble,
    read_records,
    replica_model,
    simulate_ensemble,
    simulate_range,
    simulate_records,
    three_time_scan,
    two_time_correlator,
    window_mean_state,
)
from qcorr.analytic import _factorized_value
from qcorr.cli import main as cli_main
from qcorr.empirical import ResolvedSpecs, estimate_batches, resolve_spec

from conftest import random_event_spec, random_model, random_unit_vector

GAMMA = 1.0 / 1.3


def verdict(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def simulated_estimates(sim, gap_lists, window, workers=2):
    """Estimates of every gap list over sim's ensemble, through the Monte Carlo driver.

    Each batch of sim's trajectories is simulated and estimated in one of the
    worker processes; the batches' estimates are pooled in order.
    """
    specs = ResolvedSpecs(resolve_spec(gaps, window, sim.dt) for gaps in gap_lists)
    batches = estimate_batches(lambda lo, hi: [simulate_range(sim, lo, hi).samples], specs,
                               sim, workers, source="simulation")
    return [merge_estimates(parts) for parts in zip(*batches)]


def weighted_slope(x, y, se):
    """Weighted least-squares slope and its standard error."""
    w = 1.0 / np.asarray(se) ** 2
    x = np.asarray(x)
    y = np.asarray(y)
    xbar = np.sum(w * x) / np.sum(w)
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = np.sum(w * (x - xbar) * y) / sxx
    return slope, np.sqrt(1.0 / sxx)


def test_a1_chain_equals_brute_force_oracle():
    rng = np.random.default_rng(20240801)
    start = time.time()
    worst = 0.0
    for trial in range(200):
        model, channels = random_model(rng, unital=bool(trial % 2))
        n_events = int(rng.integers(2, 9))
        events = random_event_spec(rng, channels, n_events, t_span=5.0)
        r_in = random_unit_vector(rng) * rng.uniform(0.0, 1.0)
        spec = CorrelatorSpec(events, r_in=tuple(r_in))
        brute = brute_force_correlator(model, channels, spec)
        chain = chain_correlator(model, channels, spec)
        worst = max(worst, abs(brute - chain))
    elapsed = time.time() - start
    verdict(
        "[A1] route equivalence (200 random models, N=2..8)",
        worst <= 1e-10 and elapsed < 60.0,
        f"max |chain - brute| = {worst:.3e} (<= 1e-10), {elapsed:.1f}s (< 60s)",
    )


def test_a2_factorization_theorem_and_witness():
    rng = np.random.default_rng(20240802)
    worst_match = 0.0
    worst_shift = 0.0
    for _ in range(100):
        model, channels = random_model(rng, unital=True)
        n_events = int(rng.integers(2, 9))
        events = random_event_spec(rng, channels, n_events, t_span=4.0)
        r_in = random_unit_vector(rng) * rng.uniform(0.0, 1.0)
        spec = CorrelatorSpec(events, r_in=tuple(r_in))
        chain = chain_correlator(model, channels, spec)
        fact = factorized_correlator(model, channels, spec)
        worst_match = max(worst_match, abs(chain - fact))
        # Perturb every gap the pairing leaves unpaired: the value must hold.
        first_paired = 1 if n_events % 2 == 0 else 2
        for boundary in range(first_paired, n_events - 1, 2):
            delta = float(rng.uniform(0.05, 0.5))
            shifted = tuple(
                (c, t + delta if k > boundary else t)
                for k, (c, t) in enumerate(spec.events)
            )
            sspec = CorrelatorSpec(shifted, r_in=spec.r_in)
            worst_shift = max(
                worst_shift,
                abs(chain_correlator(model, channels, sspec) - chain),
                abs(factorized_correlator(model, channels, sspec) - chain),
            )
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), tau=0.5, eta=1.0),
        MeasurementChannel((1.0, 0.0, 0.0), tau=0.5, eta=1.0),
    )
    witness_model = EnsembleModel(-np.eye(3), drift=(0.0, 0.0, 0.5))
    wspec = CorrelatorSpec(((0, 0.5), (0, 1.0), (0, 1.5), (0, 2.0)))
    gap = abs(
        chain_correlator(witness_model, channels, wspec)
        - _factorized_value(witness_model, channels, wspec)
    )
    verdict(
        "[A2] unital factorization (100 models) + non-unital witness",
        worst_match <= 1e-10 and worst_shift <= 1e-10 and gap > 1e-3,
        f"max |chain - factorized| = {worst_match:.3e}, max gap-shift change = "
        f"{worst_shift:.3e} (<= 1e-10), witness deviation = {gap:.3e} (> 1e-3)",
    )


def test_a3_short_gap_pair_correlator_constant():
    gap = 0.15 / GAMMA
    ratios = {}
    for n in range(11):
        if n == 5:
            continue
        phi = n * np.pi / 10
        model, channels = replica_model(ReplicaConfig(phi=phi))
        k = two_time_correlator(model, channels, 0, 0.0, 1, gap)
        ratios[n] = k ** 2 / np.cos(phi) ** 2
    lo, hi = min(ratios.values()), max(ratios.values())
    verdict(
        "[A3] squared pair correlator at gap 0.15/gamma vs cos^2",
        0.98 <= lo and hi <= 1.005,
        f"ratio range [{lo:.4f}, {hi:.4f}] within [0.98, 1.005] "
        f"(grid average {np.mean(list(ratios.values())):.4f})",
    )


@pytest.mark.slow
def test_a4_monte_carlo_two_time_correlator():
    # The spec-level error target (std_error <= 0.02 with a T = 0.5 us
    # window at dt = 0.01 us) fixes the trajectory budget: the per-sample
    # noise floor (tau/dt)/sqrt(W M) crosses 0.02 at M ~ 2.2e5.
    phi = 3 * np.pi / 10
    config = ReplicaConfig(phi=phi, n_traj=220_000, dt=0.01, master_seed=4001)
    model, channels = replica_model(config)
    window = Window(1.0, 0.5)
    n_grid = 10
    # Events on different channels may not share a bin: the shortest gap is one bin.
    gaps_us = [max(round(g / config.dt), 1) * config.dt
               for g in np.linspace(0.0, 2.5 / GAMMA, n_grid)]
    t_total = window.t_a + window.length + max(gaps_us) + 2 * config.dt
    sim = SimConfig(
        model=model, channels=channels, r_init=config.r_init,
        t_total=t_total, dt=config.dt, n_traj=config.n_traj,
        master_seed=config.master_seed,
    )
    start = time.time()
    estimates = simulated_estimates(sim, [[(0, 0.0), (1, g)] for g in gaps_us], window)
    elapsed = time.time() - start
    hits = 0
    max_se = 0.0
    details = []
    for g, est in zip(gaps_us, estimates):
        expected = two_time_correlator(model, channels, 0, 0.0, 1, g)
        ok = abs(est.value - expected) <= 4.0 * est.std_error
        hits += ok
        max_se = max(max_se, est.std_error)
        details.append(f"{abs(est.value - expected) / est.std_error:.1f}")
    verdict(
        "[A4] Monte Carlo pair correlator vs analytic (2.2e5 trajectories)",
        hits >= 0.95 * n_grid and max_se <= 0.02,
        f"{hits}/{n_grid} grid points within 4 se (sigmas: {', '.join(details)}), "
        f"max std_error = {max_se:.4f} (<= 0.02), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_a5_three_time_correlator_flat_in_first_gap():
    phis = (np.pi / 10, 3 * np.pi / 10, 7 * np.pi / 10)
    dt = 0.01
    dt21_grid = tuple(np.linspace(0.1, 2.3, 10) / GAMMA)
    dt32_grid = tuple(np.linspace(0.2, 1.8, 8) / GAMMA)
    fixed_dt32 = round(dt32_grid[3] / dt) * dt  # rows carry snapped gaps
    fixed_dt21 = round(dt21_grid[2] / dt) * dt
    slopes = []
    agree = []
    start = time.time()
    for phi in phis:
        config = ReplicaConfig(
            phi=phi, n_traj=50_000, dt=0.01, master_seed=5002,
            workers=2,
        )
        rows = three_time_scan(config, dt21_values=dt21_grid, dt32_values=dt32_grid)
        flat = [r for r in rows if r.dt32 == pytest.approx(fixed_dt32, abs=1e-9)]
        slope, slope_se = weighted_slope(
            [r.dt21 for r in flat], [r.mc_value for r in flat],
            [r.mc_se for r in flat])
        slopes.append(abs(slope) / slope_se)
        varying = [r for r in rows if r.dt21 == pytest.approx(fixed_dt21, abs=1e-9)]
        agree.append(all(
            abs(r.mc_value - r.analytic) <= 4.0 * r.mc_se for r in varying))
    elapsed = time.time() - start
    verdict(
        "[A5] three-time correlator: no first-gap trend, tracks last gap",
        all(s <= 3.0 for s in slopes) and all(agree),
        f"slope significance {['%.2f' % s for s in slopes]} sigma (<= 3), "
        f"last-gap curve within 4 se for all angles: {agree}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_a6_four_time_correlator_flat_in_middle_gap():
    phis = (np.pi / 10, 3 * np.pi / 10, 7 * np.pi / 10)
    dt32_grid = tuple(np.linspace(0.5, 2.3, 10) / GAMMA)
    start = time.time()
    trends = []
    matches = []
    for phi in phis:
        config = ReplicaConfig(
            phi=phi, n_traj=200_000, dt=0.01, master_seed=6003,
            workers=2,
        )
        rows, summary = four_time_scan(config, dt32_values=dt32_grid)
        slope, slope_se = weighted_slope(
            [r.dt32 for r in rows], [r.mc_value for r in rows],
            [r.mc_se for r in rows])
        trends.append(abs(slope) / slope_se)
        matches.append(
            abs(summary.mc_mean - summary.analytic) / summary.mc_pooled_se)
    elapsed = time.time() - start
    verdict(
        "[A6] four-time correlator: no middle-gap trend, average matches K^2",
        all(t <= 3.0 for t in trends) and all(m <= 4.0 for m in matches),
        f"trend significance {['%.2f' % t for t in trends]} sigma (<= 3), "
        f"grid-average offsets {['%.2f' % m for m in matches]} pooled se (<= 4), "
        f"{elapsed:.0f}s",
    )


def test_a7_purity_scaling_and_ensemble_consistency():
    # Purity: ideal single-channel monitoring keeps pure states pure. Every
    # event map does so exactly, so the defect must be rounding at every dt.
    ch = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0)
    model = build_ensemble_model([ch])
    defects = []
    for dt in (0.02, 0.01, 0.005):
        config = SimConfig(
            model=model, channels=(ch,), r_init=(1.0, 0.0, 0.0),
            t_total=2.0, dt=dt, n_traj=400, master_seed=7004,
        )
        records = simulate_ensemble(config, states=True)
        norms = np.linalg.norm(records.states, axis=2)
        defects.append(float(np.abs(norms - 1.0).max()))
    purity_ok = max(defects) <= 1e-12

    # Ensemble mean vs the exact propagation, 4 standard errors everywhere.
    phi = 3 * np.pi / 10
    rconfig = ReplicaConfig(phi=phi)
    rmodel, rchannels = replica_model(rconfig)
    config = SimConfig(
        model=rmodel, channels=rchannels, r_init=rconfig.r_init,
        t_total=2.0, dt=0.005, n_traj=20_000, master_seed=7005,
    )
    records = simulate_ensemble(config, states=True)
    mean = records.states.mean(axis=0)
    se = records.states.std(axis=0, ddof=1) / np.sqrt(config.n_traj)
    worst_sigma = 0.0
    for k in range(1, config.n_samples + 1):
        expected = propagate_ensemble(rmodel, rconfig.r_init, 0.0, k * config.dt)
        sigmas = np.abs(mean[k] - expected) / np.maximum(se[k], 1e-12)
        worst_sigma = max(worst_sigma, float(sigmas.max()))
    ensemble_ok = worst_sigma <= 4.0
    verdict(
        "[A7] purity kept to rounding and ensemble mean consistency",
        purity_ok and ensemble_ok,
        f"max ||r| - 1| at dt 0.02, 0.01, 0.005: {['%.1e' % d for d in defects]} "
        f"(<= 1e-12), worst ensemble deviation {worst_sigma:.2f} se "
        f"(<= 4) over {config.n_samples} times x 3 components",
    )


def test_a8_equal_time_singular_term():
    # Pure-dephasing single channel, tau/dt = 65 >= 50.
    ch = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0)
    model = build_ensemble_model([ch])
    dt = 0.01
    config = SimConfig(
        model=model, channels=(ch,), r_init=(1.0, 0.0, 0.0),
        t_total=2.0, dt=dt, n_traj=4000, master_seed=8006,
    )
    records = simulate_ensemble(config)
    est = estimate_correlator(records, [(0, 0.0), (0, 0.0)], Window(1.0, 0.5))
    expected = ch.tau / dt
    within = abs(est.value - expected) / expected
    verdict(
        "[A8] discretized equal-time delta term",
        within <= 0.05,
        f"same-channel equal-time product = {est.value:.2f} vs tau/dt = "
        f"{expected:.1f} ({100 * within:.2f}% off, <= 5%)",
    )


def test_a9_pipeline_determinism(tmp_path, batch_cap):
    phi = 3 * np.pi / 10
    config = ReplicaConfig(phi=phi)
    model, channels = replica_model(config)
    sim = SimConfig(
        model=model, channels=channels, r_init=config.r_init,
        t_total=2.5, dt=0.01, n_traj=2000, master_seed=9007,
    )
    batch_cap(256)
    window = Window(1.0, 0.5)
    gaps = [(0, 0.0), (1, 0.5)]

    outputs = []
    for run, workers in ((0, 1), (1, 8), (2, 1)):
        path = tmp_path / f"run{run}.qcr"
        simulate_records(path, sim, workers=workers)
        est = estimate_correlator(read_records(path), gaps, window)
        outputs.append((path.read_bytes(), est.value, est.std_error))
    byte_match = outputs[0][0] == outputs[1][0] == outputs[2][0]
    value_match = (outputs[0][1:] == outputs[1][1:] == outputs[2][1:])

    # Full CLI pipeline, twice, byte-compared CSVs.
    csvs = []
    for tag in ("x", "y"):
        cfg = tmp_path / f"cfg_{tag}.json"
        cfg.write_text("""
        {"channels": [
            {"axis": [0.0, 0.0, 1.0], "tau_us": 0.65},
            {"axis": [0.80901699437494745, 0.0, 0.58778525229247314], "tau_us": 0.65}
         ],
         "sim": {"dt_us": 0.01, "t_total_us": 2.0, "n_traj": 500, "seed": 12321}}
        """)
        spec = tmp_path / f"spec_{tag}.json"
        spec.write_text(
            '{"window": {"t_a_us": 0.5, "T_us": 0.4},'
            ' "gaps": [{"channel": 0, "dt_us": 0.0}, {"channel": 1, "dt_us": 0.3}]}')
        rec = tmp_path / f"rec_{tag}.qcr"
        out = tmp_path / f"est_{tag}.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(rec),
                         "--workers", "1" if tag == "x" else "8"]) == 0
        assert cli_main(["estimate", "--records", str(rec), "--spec", str(spec),
                         "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    cli_match = csvs[0] == csvs[1]
    verdict(
        "[A9] simulate -> estimate determinism across runs and worker counts",
        byte_match and value_match and cli_match,
        f"record bytes identical: {byte_match}, estimates identical: "
        f"{value_match}, CLI CSV bytes identical: {cli_match}",
    )


def test_a10_phase_backaction_chain_matches_monte_carlo():
    # Channel 0 on z with phase backaction, channel 1 on y, r_in = x: the z
    # event's kick turns x into y, so without drive the pair correlator is the
    # kick alone (0 in the collapse picture). Budget fixed before the first
    # run: 1e5 trajectories at dt 0.01 us, one seed per point, 4 se.
    dt, gap = 0.01, 0.1
    window = Window(0.1, 0.5)
    points = (
        ("phase_k=1", 1.0, 0.0, 10001),
        ("phase_k=0.5", 0.5, 0.0, 10002),
        ("phase_k=0.8, Rabi 2 rad/us about x", 0.8, 2.0, 10003),
    )
    start = time.time()
    ok, details = True, []
    for label, phase_k, rabi_freq, seed in points:
        channels = (
            MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=phase_k),
            MeasurementChannel((0.0, 1.0, 0.0), tau=0.65, eta=1.0),
        )
        model = build_ensemble_model(channels, rabi_axis=(1.0, 0.0, 0.0), rabi_freq=rabi_freq)
        sim = SimConfig(
            model=model, channels=channels, r_init=(1.0, 0.0, 0.0),
            t_total=window.t_a + window.length + gap + 2 * dt, dt=dt,
            n_traj=100_000, master_seed=seed,
        )
        (est,) = simulated_estimates(sim, [[(0, 0.0), (1, gap)]], window)
        r_window = window_mean_state(model, (1.0, 0.0, 0.0), window, dt)
        exact = chain_correlator(model, channels, CorrelatorSpec(((0, 0.0), (1, gap)), r_window))
        sigma = abs(est.value - exact) / est.std_error
        ok = ok and sigma <= 4.0
        details.append(f"{label}: exact {exact:.3f}, MC {est.value:.3f} +- "
                       f"{est.std_error:.3f} ({sigma:.1f} se)")
        if phase_k == 1.0 and rabi_freq == 0.0:
            old_sigma = abs(est.value) / est.std_error
            ok = ok and old_sigma > 4.0
            details.append(f"collapse value 0 is {old_sigma:.1f} se off (> 4)")
    verdict(
        "[A10] phase backaction: chain vs Monte Carlo (1e5 trajectories per point)",
        ok, "; ".join(details) + f", {time.time() - start:.0f}s",
    )


def test_a11_non_unital_environment_matches_monte_carlo():
    # Environment relaxation toward z with measurements on z and y, r_in = x:
    # the mean z signal over the window, without drive and with a 2 rad/us
    # Rabi drive about x. Budget fixed before the first run: 5e4 trajectories
    # at dt 0.005 us, seed 55, 4 se.
    dt = 0.005
    window = Window(0.1, 0.5)
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0),
        MeasurementChannel((0.0, 1.0, 0.0), tau=0.65, eta=1.0),
    )
    start = time.time()
    ok, details = True, []
    for label, rabi_freq in (("no drive", 0.0), ("Rabi 2 rad/us about x", 2.0)):
        model = build_ensemble_model(
            channels, rabi_axis=(1.0, 0.0, 0.0), rabi_freq=rabi_freq,
            env_lambda=-0.5 * np.diag([0.5, 0.5, 1.0]), env_rst=(0.0, 0.0, 1.0))
        sim = SimConfig(
            model=model, channels=channels, r_init=(1.0, 0.0, 0.0),
            t_total=window.t_a + window.length + 2 * dt, dt=dt,
            n_traj=50_000, master_seed=55,
        )
        (est,) = simulated_estimates(sim, [[(0, 0.0)]], window)
        r_window = window_mean_state(model, (1.0, 0.0, 0.0), window, dt)
        exact = chain_correlator(model, channels, CorrelatorSpec(((0, 0.0),), r_window))
        sigma = abs(est.value - exact) / est.std_error
        ok = ok and sigma <= 4.0
        details.append(f"{label}: exact {exact:.4f}, MC {est.value:.4f} +- "
                       f"{est.std_error:.4f} ({sigma:.1f} se)")
    verdict(
        "[A11] non-unital environment: chain vs Monte Carlo (5e4 trajectories per point)",
        ok, "; ".join(details) + f", {time.time() - start:.0f}s",
    )


def test_a12_correlator_exceeding_one_matches_monte_carlo():
    # One z channel with phase backaction and a Rabi drive about x, r_in = x:
    # the kick makes the same-channel pair correlator exceed the collapse
    # bound |K| <= 1. Budget fixed before the first run: 2e5 trajectories at
    # dt 0.01 us, seed 12012, 4 se.
    dt, gap = 0.01, 0.12
    window = Window(0.0, 0.5)
    channels = (MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=1.0),)
    model = build_ensemble_model(channels, rabi_axis=(1.0, 0.0, 0.0), rabi_freq=6.0)
    sim = SimConfig(
        model=model, channels=channels, r_init=(1.0, 0.0, 0.0),
        t_total=window.t_a + window.length + gap + 2 * dt, dt=dt,
        n_traj=200_000, master_seed=12012,
    )
    start = time.time()
    (est,) = simulated_estimates(sim, [[(0, 0.0), (0, gap)]], window)
    r_window = window_mean_state(model, (1.0, 0.0, 0.0), window, dt)
    exact = chain_correlator(model, channels, CorrelatorSpec(((0, 0.0), (0, gap)), r_window))
    sigma = abs(est.value - exact) / est.std_error
    margin = (est.value - 1.0) / est.std_error
    verdict(
        "[A12] correlator exceeding one: chain vs Monte Carlo (2e5 trajectories)",
        sigma <= 4.0 and margin > 4.0,
        f"chain {exact:.4f}, MC {est.value:.4f} +- {est.std_error:.4f} ({sigma:.1f} se, <= 4), "
        f"above 1 by {margin:.1f} se (> 4), {time.time() - start:.1f}s",
    )
