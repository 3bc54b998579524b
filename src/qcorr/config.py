"""The JSON inputs, config and spec files: unit-suffixed keys, strictly validated.

Config sections: channels[] (axis, tau_us, eta, phase_k), hamiltonian
(rabi_axis, rabi_freq_rad_per_us), environment (lambda, r_st), sim (dt_us,
t_total_us, n_traj, seed, r_init), outputs (records). The sim keys are the
ensemble alone: simulation batches follow from the record shape
(trajectory.batch_rows). A spec file (read_specs) holds one entry or a
non-empty list: events[] (channel, t_us) with an optional initial (r, t_us),
or window (t_a_us, T_us) with gaps[] (channel, dt_us). Every JSON object is
checked by one field parser (_fields) against the table of its keys; a
fault is refused with the offending path in the message.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import CorrelatorSpec
from .bloch import MeasurementChannel, build_ensemble_model
from .empirical import Window
from .errors import ConfigError, ValidationError
from .trajectory import SimConfig


@dataclass(frozen=True)
class RunSetup:
    """Validated contents of a run-configuration file: the ensemble and its outputs."""

    sim: SimConfig
    outputs: dict


def _fields(obj, path: str, parsers: dict, required=()) -> dict:
    """The parsed values of a JSON object, by key.

    parsers maps each allowed key to parse(value, path). Unknown keys, then
    missing required ones, are refused; the present keys are parsed in the
    order of parsers, so the first fault reported does not depend on the
    file's key order.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in parsers:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(parsers)})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")
    return {key: parse(obj[key], f"{path}.{key}") for key, parse in parsers.items() if key in obj}


def _items(parse):
    """Parser of a non-empty JSON array whose items parse(item, path) reads."""
    def parse_items(obj, path: str) -> list:
        if not isinstance(obj, list) or not obj:
            raise ConfigError(f"{path}: expected a non-empty array")
        return [parse(item, f"{path}[{i}]") for i, item in enumerate(obj)]
    return parse_items


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


def _path(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise ConfigError(f"{path}: expected a path string")
    return obj


# The key tables. Each lists its keys in the order they are checked.
_CHANNEL = {"axis": _vector3, "tau_us": _number, "eta": _number, "phase_k": _number}
_HAMILTONIAN = {"rabi_freq_rad_per_us": _number, "rabi_axis": _vector3}
_ENVIRONMENT = {"lambda": _matrix3, "r_st": _vector3}
_SIM = {"dt_us": _number, "t_total_us": _number, "n_traj": _integer, "seed": _integer,
        "r_init": _vector3}
_OUTPUTS = {"records": _path}
_INITIAL = {"r": _vector3, "t_us": _number}
_EVENT = {"channel": _integer, "t_us": _number}
_WINDOW = {"t_a_us": _number, "T_us": _number}
_GAP = {"channel": _integer, "dt_us": _number}


def _channel(obj, path: str) -> MeasurementChannel:
    f = _fields(obj, path, _CHANNEL, required=("axis", "tau_us"))
    try:
        return MeasurementChannel(f["axis"], f["tau_us"], f.get("eta", 1.0), f.get("phase_k", 0.0))
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_CONFIG = {
    "channels": _items(_channel),
    "hamiltonian": partial(_fields, parsers=_HAMILTONIAN),
    "environment": partial(_fields, parsers=_ENVIRONMENT),
    "sim": partial(_fields, parsers=_SIM, required=("dt_us", "t_total_us", "n_traj", "seed")),
    "outputs": partial(_fields, parsers=_OUTPUTS),
}
_EVENTS_ENTRY = {
    "initial": partial(_fields, parsers=_INITIAL),
    "events": _items(partial(_fields, parsers=_EVENT, required=("channel", "t_us"))),
}
_WINDOWED_ENTRY = {
    "window": partial(_fields, parsers=_WINDOW, required=("t_a_us", "T_us")),
    "gaps": _items(partial(_fields, parsers=_GAP, required=("channel", "dt_us"))),
}


def decode_json(text: str, source: str):
    """Decoded JSON text; a ConfigError names source (and line and column) if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def read_json(path):
    """Decoded JSON of a file; see decode_json. A file that is not UTF-8 is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: not UTF-8 text: {exc.reason} at offset {exc.start}") from None
    return decode_json(text, str(path))


def setup_from_json(raw) -> RunSetup:
    """Validate decoded configuration JSON; see load_config and parse_config."""
    f = _fields(raw, "config", _CONFIG, required=("channels", "sim"))
    ham, env, sim = f.get("hamiltonian", {}), f.get("environment", {}), f["sim"]
    channels = tuple(f["channels"])
    try:
        model = build_ensemble_model(
            channels,
            rabi_axis=ham.get("rabi_axis"),
            rabi_freq=ham.get("rabi_freq_rad_per_us", 0.0),
            env_lambda=env.get("lambda"),
            env_rst=env.get("r_st"),
        )
        return RunSetup(
            sim=SimConfig(
                model=model,
                channels=channels,
                r_init=sim.get("r_init", (0.0, 0.0, 1.0)),
                t_total=sim["t_total_us"],
                dt=sim["dt_us"],
                n_traj=sim["n_traj"],
                master_seed=sim["seed"],
            ),
            outputs=f.get("outputs", {}),
        )
    except ValidationError as exc:
        raise ConfigError(f"config: {exc}") from exc


def load_config(text: str, source: str = "<config>") -> RunSetup:
    """Parse and validate configuration text; see parse_config for files."""
    return setup_from_json(decode_json(text, source))


def parse_config(path) -> RunSetup:
    """Load and validate a configuration file."""
    return setup_from_json(read_json(path))


@contextmanager
def named_entry(i: int):
    """Name spec[i] in a ValidationError raised inside: it refuses that entry."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"spec[{i}]: {exc}") from None


def read_specs(path, r_init=None) -> list:
    """Validated entries of a spec file: each a CorrelatorSpec or ((channel, gap_us) pairs, Window).

    Event lists are accepted only when r_init, their default initial state,
    is not None; the windowed form needs no state.
    """
    raw = read_json(path)
    if raw == []:
        raise ConfigError("spec: expected a non-empty array")
    entries = []
    for i, entry in enumerate(raw if isinstance(raw, list) else [raw]):
        with named_entry(i):
            if r_init is not None and isinstance(entry, dict) and "events" in entry:
                f = _fields(entry, f"spec[{i}]", _EVENTS_ENTRY, required=("events",))
                initial = f.get("initial", {})
                entries.append(CorrelatorSpec(
                    [(e["channel"], e["t_us"]) for e in f["events"]],
                    initial.get("r", r_init),
                    initial.get("t_us", 0.0),
                ))
            else:
                f = _fields(entry, f"spec[{i}]", _WINDOWED_ENTRY, required=("window", "gaps"))
                window = f["window"]
                entries.append(([(g["channel"], g["dt_us"]) for g in f["gaps"]],
                                Window(window["t_a_us"], window["T_us"])))
    return entries
