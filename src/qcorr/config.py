"""Run-configuration files: JSON with unit-suffixed keys, strictly validated.

Sections: channels[] (axis, tau_us, eta, phase_k), hamiltonian (rabi_axis,
rabi_freq_rad_per_us), environment (lambda, r_st), sim (dt_us, t_total_us,
n_traj, seed, r_init), outputs (records). The sim keys are the ensemble
alone: simulation batches follow from the record shape
(trajectory.batch_rows). Unknown keys are rejected with the offending path
in the message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bloch import MeasurementChannel, build_ensemble_model
from .errors import ConfigError, ValidationError
from .trajectory import SimConfig


@dataclass(frozen=True)
class RunSetup:
    """Validated contents of a run-configuration file: the ensemble and its outputs."""

    sim: SimConfig
    outputs: dict


def _require_keys(obj: dict, path: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    # json reads NaN, Infinity and integers beyond float range; no key of a
    # config or spec means any of them.
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {obj!r}")
    return value


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    return obj


def _vector3(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 3:
        raise ConfigError(f"{path}: expected a 3-element array")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(obj)])


def _matrix3(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 3:
        raise ConfigError(f"{path}: expected a 3x3 array")
    return np.array([_vector3(row, f"{path}[{i}]") for i, row in enumerate(obj)])


def _parse_channel(obj, path: str) -> MeasurementChannel:
    _require_keys(obj, path, required=("axis", "tau_us"), optional=("eta", "phase_k"))
    axis = _vector3(obj["axis"], f"{path}.axis")
    tau = _number(obj["tau_us"], f"{path}.tau_us")
    eta = _number(obj.get("eta", 1.0), f"{path}.eta")
    phase_k = _number(obj.get("phase_k", 0.0), f"{path}.phase_k")
    try:
        return MeasurementChannel(tuple(axis), tau, eta, phase_k)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def decode_json(text: str, source: str):
    """Decoded JSON text; a ConfigError names source, line and column if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def read_json(path):
    """Decoded JSON of a file; see decode_json."""
    with open(path, "r", encoding="utf-8") as fh:
        return decode_json(fh.read(), str(path))


def setup_from_json(raw) -> RunSetup:
    """Validate decoded configuration JSON; see load_config and parse_config."""
    _require_keys(
        raw, "config",
        required=("channels", "sim"),
        optional=("hamiltonian", "environment", "outputs"),
    )

    if not isinstance(raw["channels"], list) or not raw["channels"]:
        raise ConfigError("config.channels: expected a non-empty array")
    channels = tuple(
        _parse_channel(ch, f"config.channels[{i}]") for i, ch in enumerate(raw["channels"])
    )

    rabi_axis = None
    rabi_freq = 0.0
    if "hamiltonian" in raw:
        ham = raw["hamiltonian"]
        _require_keys(ham, "config.hamiltonian", required=(), optional=("rabi_axis", "rabi_freq_rad_per_us"))
        if "rabi_freq_rad_per_us" in ham:
            rabi_freq = _number(ham["rabi_freq_rad_per_us"], "config.hamiltonian.rabi_freq_rad_per_us")
        if "rabi_axis" in ham:
            rabi_axis = _vector3(ham["rabi_axis"], "config.hamiltonian.rabi_axis")

    env_lambda = None
    env_rst = None
    if "environment" in raw:
        env = raw["environment"]
        _require_keys(env, "config.environment", required=(), optional=("lambda", "r_st"))
        if "lambda" in env:
            env_lambda = _matrix3(env["lambda"], "config.environment.lambda")
        if "r_st" in env:
            env_rst = _vector3(env["r_st"], "config.environment.r_st")

    sim_raw = raw["sim"]
    _require_keys(
        sim_raw, "config.sim",
        required=("dt_us", "t_total_us", "n_traj", "seed"),
        optional=("r_init",),
    )
    dt = _number(sim_raw["dt_us"], "config.sim.dt_us")
    t_total = _number(sim_raw["t_total_us"], "config.sim.t_total_us")
    n_traj = _integer(sim_raw["n_traj"], "config.sim.n_traj")
    seed = _integer(sim_raw["seed"], "config.sim.seed")
    r_init = _vector3(sim_raw.get("r_init", [0.0, 0.0, 1.0]), "config.sim.r_init")

    outputs = {}
    if "outputs" in raw:
        _require_keys(raw["outputs"], "config.outputs", required=(), optional=("records",))
        for key, value in raw["outputs"].items():
            if not isinstance(value, str):
                raise ConfigError(f"config.outputs.{key}: expected a path string")
            outputs[key] = value

    try:
        model = build_ensemble_model(
            channels,
            rabi_axis=None if rabi_axis is None else tuple(rabi_axis),
            rabi_freq=rabi_freq,
            env_lambda=env_lambda,
            env_rst=env_rst,
        )
        sim = SimConfig(
            model=model,
            channels=channels,
            r_init=tuple(r_init),
            t_total=t_total,
            dt=dt,
            n_traj=n_traj,
            master_seed=seed,
        )
    except ValidationError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return RunSetup(sim=sim, outputs=outputs)


def load_config(text: str, source: str = "<config>") -> RunSetup:
    """Parse and validate configuration text; see parse_config for files."""
    return setup_from_json(decode_json(text, source))


def parse_config(path) -> RunSetup:
    """Load and validate a configuration file."""
    return setup_from_json(read_json(path))
