import json

import numpy as np
import pytest

import qcorr.config as config_module
from qcorr import ConfigError, TimestepWarning, load_config, parse_config

MINIMAL = {
    "channels": [
        {"axis": [0.0, 0.0, 1.0], "tau_us": 0.65}
    ],
    "sim": {"dt_us": 0.005, "t_total_us": 2.0, "n_traj": 100, "seed": 7},
}


def as_text(obj):
    return json.dumps(obj)


def test_minimal_config_defaults():
    setup = load_config(as_text(MINIMAL))
    assert len(setup.sim.channels) == 1
    assert setup.sim.channels[0].eta == 1.0
    assert setup.sim.channels[0].phase_k == 0.0
    assert setup.sim.r_init == (0.0, 0.0, 1.0)
    assert setup.sim.n_traj == 100
    assert setup.sim.model.unital
    assert setup.outputs == {}


def test_full_config_sections(tmp_path):
    cfg = {
        "channels": [
            {"axis": [0.0, 0.0, 1.0], "tau_us": 0.65, "eta": 0.9, "phase_k": 0.1},
            {"axis": [1.0, 0.0, 0.0], "tau_us": 0.5},
        ],
        "hamiltonian": {"rabi_axis": [0.0, 1.0, 0.0], "rabi_freq_rad_per_us": 2.0},
        "environment": {
            "lambda": [[-0.1, 0, 0], [0, -0.1, 0], [0, 0, -0.1]],
            "r_st": [0.0, 0.0, 0.2],
        },
        "sim": {"dt_us": 0.005, "t_total_us": 1.0, "n_traj": 10, "seed": 1,
                "r_init": [0.0, 0.0, 0.0]},
        "outputs": {"records": "out.qcr"},
    }
    path = tmp_path / "config.json"
    path.write_text(as_text(cfg))
    setup = parse_config(path)
    assert not setup.sim.model.unital
    assert setup.outputs["records"] == "out.qcr"
    lam = setup.sim.model.lam
    # Rotation about y at 2 rad/us: antisymmetric part (lam - lam.T)[0, 2]
    # is twice the rate.
    assert np.allclose((lam - lam.T)[0, 2], 4.0)


def test_environment_without_stationary_state_rejected():
    # No channels along x and no drive: lam = env lambda is singular, yet it
    # drives toward env r_st.
    cfg = {**MINIMAL, "environment": {"lambda": [[0, 0, 0], [0, -0.5, 0], [0, 0, -0.5]],
                                      "r_st": [0.0, 0.0, 0.5]}}
    cfg["channels"] = [{"axis": [1.0, 0.0, 0.0], "tau_us": 0.65}]
    with pytest.raises(ConfigError, match="no Lindblad generator"):
        load_config(as_text(cfg))


def test_outputs_csv_key_rejected():
    cfg = {**MINIMAL, "outputs": {"records": "out.qcr", "csv": "out.csv"}}
    with pytest.raises(ConfigError, match=r"config\.outputs\.csv: unknown key"):
        load_config(as_text(cfg))


def test_nonpositive_tau_names_field():
    cfg = {**MINIMAL, "channels": [{"axis": [0, 0, 1], "tau_us": -0.5}]}
    with pytest.raises(ConfigError, match=r"channels\[0\]"):
        load_config(as_text(cfg))


def test_coarse_dt_cites_stability_rule():
    cfg = {**MINIMAL, "sim": {**MINIMAL["sim"], "dt_us": 0.04}}
    with pytest.raises(ConfigError, match="min channel tau"):
        load_config(as_text(cfg))


def test_unknown_key_rejected_with_path():
    cfg = {**MINIMAL, "sim": {**MINIMAL["sim"], "dt": 0.01}}
    with pytest.raises(ConfigError, match=r"config\.sim\.dt"):
        load_config(as_text(cfg))
    cfg2 = {**MINIMAL, "typo_section": {}}
    with pytest.raises(ConfigError, match="typo_section"):
        load_config(as_text(cfg2))


def test_missing_required_key_reported():
    cfg = {"channels": MINIMAL["channels"], "sim": {"dt_us": 0.005, "t_total_us": 1.0, "n_traj": 1}}
    with pytest.raises(ConfigError, match=r"config\.sim\.seed"):
        load_config(as_text(cfg))


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match=r"<config>:2:"):
        load_config('{\n  "channels": [,]\n}')


@pytest.mark.parametrize("text, message", [
    ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    ("[" + "9" * 5000 + "]", "Exceeds the limit"),
], ids=["nested-too-deep", "integer-too-long"])
def test_undecodable_json_refused_with_source(text, message):
    # Neither is a JSONDecodeError: unchecked, each ends the command in a traceback.
    with pytest.raises(ConfigError, match=rf"^<config>: {message}"):
        load_config(text)


def test_non_numeric_value_rejected():
    cfg = {**MINIMAL, "sim": {**MINIMAL["sim"], "dt_us": "fast"}}
    with pytest.raises(ConfigError, match="dt_us"):
        load_config(as_text(cfg))


def test_bad_axis_shape_rejected():
    cfg = {**MINIMAL, "channels": [{"axis": [0, 1], "tau_us": 1.0}]}
    with pytest.raises(ConfigError, match="axis"):
        load_config(as_text(cfg))


def test_preset_config_parses():
    from importlib import resources
    text = resources.files("qcorr").joinpath("presets/two_detector_sim.json").read_text()
    with pytest.warns(TimestepWarning) as seen:  # dt_us 0.01 against tau_us 0.65
        setup = load_config(text, source="two_detector_sim.json")
    # The warning points at config's call, as the command-line tool does not show it.
    assert [w.filename for w in seen] == [config_module.__file__]
    assert len(setup.sim.channels) == 2
    assert setup.sim.model.unital
    assert np.linalg.norm(setup.sim.r_init) == pytest.approx(1.0)


@pytest.mark.parametrize("key, literal", [
    ("t_total_us", "Infinity"),
    ("t_total_us", "1e999"),
    ("t_total_us", "1" + "0" * 400),
    ("dt_us", "NaN"),
    ("r_init", "[NaN, 0, 0]"),
], ids=["infinity", "float-overflow", "integer-overflow", "nan", "nan-in-vector"])
def test_non_finite_number_rejected_with_path(key, literal):
    # json reads NaN and Infinity; each must be refused by name, not reach
    # the integrator (r_init NaN) or the step count (t_total_us Infinity).
    text = as_text(MINIMAL).replace('"seed": 7', f'"seed": 7, "{key}": {literal}')
    if key in MINIMAL["sim"]:
        text = text.replace(f'"{key}": {MINIMAL["sim"][key]}, ', "")
    with pytest.raises(ConfigError, match=rf"config\.sim\.{key}.*: expected a finite number"):
        load_config(text)
