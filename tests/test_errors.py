import json
import math
import pickle

import numpy as np
import pytest

from qcorr import (
    CorrelatorSpec,
    MeasurementChannel,
    RecordSet,
    SimConfig,
    ValidationError,
    Window,
    build_ensemble_model,
    errors,
    merge_estimates,
    ordered_propagator,
    simulate_range,
    two_time_correlator,
    window_mean_state,
)
from qcorr.bloch import validate_state
from qcorr.cli import build_parser
from qcorr.config import setup_from_json
from qcorr.empirical import resolve_events
from qcorr.errors import (ConfigError, EstimateMismatchError, IntegrationDivergedError,
                          QcorrError)


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


ERRORS = sorted({QcorrError, *all_subclasses(QcorrError)}, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_every_error_survives_a_pickle_round_trip(cls):
    # Worker processes send errors back to the parent pickled.
    assert getattr(errors, cls.__name__) is cls
    exc = cls(19, 12) if cls is IntegrationDivergedError else cls("what went wrong")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)  # IntegrationDivergedError's step and trajectory



def _window_mean_state(dt):
    channel = MeasurementChannel((0.0, 0.0, 1.0), 0.65)
    return window_mean_state(build_ensemble_model([channel]), (1.0, 0.0, 0.0), Window(1.0, 0.5), dt)


@pytest.mark.parametrize("call, message", [
    (lambda: Window(1.0, 0.5).bins(0.0), "dt must be positive and finite, got 0.0"),
    (lambda: resolve_events([(0, 0.0)], 0.0), "dt must be positive and finite, got 0.0"),
    (lambda: _window_mean_state(0.0), "dt must be positive and finite, got 0.0"),
    (lambda: _window_mean_state(math.inf), "dt must be positive and finite, got inf"),
    (lambda: _window_mean_state(-0.01), "dt must be positive and finite, got -0.01"),
    (lambda: MeasurementChannel((0.0, 0.0, 1.0), math.inf),
     "channel tau must be positive and finite, got inf"),
    (lambda: build_ensemble_model([], rabi_axis=(0.0, 1.0, 0.0), rabi_freq=math.inf),
     "rabi_freq must be finite, got inf"),
    (lambda: build_ensemble_model([], env_lambda=np.diag([-1.0, -1.0, -math.inf])),
     "env_lambda must be finite, got [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -inf]]"),
], ids=["window-bins-zero-dt", "resolve-zero-dt", "window-state-zero-dt", "window-state-inf-dt",
        "window-state-negative-dt", "channel-inf-tau", "model-inf-rabi-freq",
        "model-inf-env-lambda"])
def test_bad_time_step_or_rate_refused_by_name(call, message):
    # Library calls only: a config file's numbers are checked finite on parse.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def _z_model():
    return build_ensemble_model([MeasurementChannel((0.0, 0.0, 1.0), 0.65)])


@pytest.mark.parametrize("call, message", [
    (lambda: MeasurementChannel((math.nan, 0.0, 1.0), 0.65),
     "channel axis must be unit length, got norm nan"),
    (lambda: build_ensemble_model([], rabi_axis=(0.0, math.nan, 1.0), rabi_freq=1.0),
     "rabi_axis must be unit length, got norm nan"),
    (lambda: CorrelatorSpec(((0, 0.5),), r_in=(math.nan, 0.0, 0.0)),
     "Bloch vector norm nan exceeds 1"),
    (lambda: CorrelatorSpec(((0, 0.5), (0, math.nan))),
     "event times and t_in must be finite, got [0.5, nan] and 0.0"),
    (lambda: CorrelatorSpec(((0, 0.5),), t_in=math.nan),
     "event times and t_in must be finite, got [0.5] and nan"),
    (lambda: ordered_propagator(_z_model(), 0.0, math.nan),
     "ordered_propagator requires finite t0 <= t1, got 0.0 and nan"),
    (lambda: build_ensemble_model([], rabi_axis=(0.0, 1.0, 0.0), rabi_freq=math.nan),
     "rabi_freq must be finite, got nan"),
    (lambda: build_ensemble_model([], env_lambda=np.diag([-1.0, math.nan, -1.0])),
     "env_lambda must be finite, got [[-1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, -1.0]]"),
    (lambda: build_ensemble_model([], env_lambda=-np.eye(3), env_rst=(0.0, math.nan, 0.5)),
     "env_rst must be finite, got [0.0, nan, 0.5]"),
], ids=["channel-axis", "rabi-axis", "state", "event-time", "t-in", "propagator-time",
        "model-rabi-freq", "model-env-lambda", "model-env-rst"])
def test_nan_refused_by_name(call, message):
    # Every comparison with NaN is false: a range check written as "refuse
    # when out of range" let it through.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: CorrelatorSpec(((1.9, 0.5),)), "channel index must be an integer, got 1.9"),
    (lambda: CorrelatorSpec(((True, 0.5),)), "channel index must be an integer, got True"),
    (lambda: resolve_events([(0.7, 0.0)], 0.01), "channel index must be an integer, got 0.7"),
    (lambda: resolve_events([(0, 0.0), (True, 0.3)], 0.01),
     "channel index must be an integer, got True"),
], ids=["spec-float", "spec-bool", "resolve-float", "resolve-bool"])
def test_non_integer_channel_index_refused_by_name(call, message):
    # Truncating 1.9 to channel 1 would evaluate a correlator nobody asked for.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_numpy_integer_channel_index_accepted():
    assert CorrelatorSpec(((np.int64(1), 0.5),)).events == ((1, 0.5),)
    assert resolve_events([(np.int64(1), 0.0), (0, 0.3)], 0.01) == ((1, 0), (0, 30))


@pytest.mark.parametrize("value, message", [
    (True, "n must be an integer, got True"),
    (2.0, "n must be an integer, got 2.0"),
    (np.float64(2.0), "n must be an integer, got np.float64(2.0)"),
    (1, "n must be >= 2, got 1"),
    (np.int64(1), "n must be >= 2, got 1"),
], ids=["bool", "float", "numpy-float", "int-below", "numpy-int-below"])
def test_check_integer_refusals_hold_for_every_type(value, message):
    with pytest.raises(ValidationError) as refused:
        errors.check_integer(value, "n", 2)
    assert str(refused.value) == message


def test_check_integer_returns_a_python_int():
    for value in (3, np.int64(3), np.uint8(3)):
        checked = errors.check_integer(value, "n", 2)
        assert checked == 3 and type(checked) is int


Z = MeasurementChannel((0.0, 0.0, 1.0), 0.65)


def _sim(**changes):
    fields = dict(model=build_ensemble_model([Z]), channels=(Z,), r_init=(0.0, 0.0, 1.0),
                  t_total=1.0, dt=0.005, n_traj=4, master_seed=1)
    return SimConfig(**{**fields, **changes})


@pytest.mark.parametrize("call, cls, message", [
    (lambda: CorrelatorSpec(()), ValidationError, "CorrelatorSpec needs at least one event"),
    (lambda: CorrelatorSpec(((-1, 0.5),)), ValidationError,
     "channel indices must be nonnegative"),
    (lambda: two_time_correlator(_z_model(), (Z,), 0, 0.5, 0, 0.2), ValidationError,
     "two_time_correlator requires t_i <= t_k, got 0.5 > 0.2"),
    (lambda: validate_state((1, 0)), ValidationError,
     "Bloch vector must have shape (3,), got (2,)"),
    (lambda: MeasurementChannel((0.0, 1.0), 0.65), ValidationError,
     "channel axis must be a 3-vector, got shape (2,)"),
    (lambda: MeasurementChannel((0.0, 0.0, 1.0), 0.65, phase_k=math.nan), ValidationError,
     "channel phase_k must be finite, got nan"),
    (lambda: build_ensemble_model([], env_lambda=-np.eye(2)), ValidationError,
     "env_lambda must be 3x3, got (2, 2)"),
    (lambda: _sim(channels=()), ValidationError, "SimConfig needs at least one channel"),
    (lambda: _sim(channels=(((0.0, 0.0, 1.0), 0.65),)), ValidationError,
     "channels must be MeasurementChannel instances"),
    (lambda: _sim(t_total=0.004), ValidationError,
     "t_total=0.004 shorter than one step dt=0.005"),
    (lambda: RecordSet(np.zeros((2, 10)), 0.005, (Z,), 1), ValidationError,
     "RecordSet samples must be 3-d, got shape (2, 10)"),
    (lambda: RecordSet(np.zeros((2, 2, 10)), 0.005, (Z,), 1), ValidationError,
     "RecordSet channel count does not match samples shape"),
    (lambda: simulate_range(_sim(), 2, 5), ValidationError,
     "range [2, 5) invalid for an ensemble of 4"),
    (lambda: resolve_events([], 0.005), ValidationError,
     "at least one (channel, gap) event is required"),
    (lambda: merge_estimates([]), EstimateMismatchError, "nothing to merge"),
], ids=["spec-no-events", "spec-negative-channel", "pair-reversed-times", "state-shape",
        "channel-axis-shape", "channel-nan-phase-k", "model-env-lambda-shape",
        "sim-no-channels", "sim-channel-type", "sim-shorter-than-a-step", "records-2d",
        "records-channel-count", "simulate-range-outside", "resolve-no-events",
        "merge-nothing"])
def test_malformed_input_refused_by_name(call, cls, message):
    with pytest.raises(cls) as refused:
        call()
    assert type(refused.value) is cls
    assert str(refused.value) == message


CONFIG = {"channels": [{"axis": [0, 0, 1], "tau_us": 0.65}],
          "sim": {"dt_us": 0.005, "t_total_us": 1.0, "n_traj": 4, "seed": 1}}


def _cli(*argv):
    """Run a CLI command, letting its error out (main would print it and return 1)."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.func(args)


def _written(path, content):
    path.write_text(json.dumps(content))
    return path


@pytest.mark.parametrize("call, cls, message", [
    (lambda tmp: setup_from_json({**CONFIG, "sim": []}), ConfigError,
     "config.sim: expected an object, got list"),
    (lambda tmp: setup_from_json({**CONFIG, "sim": {**CONFIG["sim"], "n_traj": 4.0}}),
     ConfigError, "config.sim.n_traj: expected an integer, got 4.0"),
    (lambda tmp: setup_from_json({**CONFIG, "environment": {"lambda": [[-1, 0, 0], [0, -1, 0]]}}),
     ConfigError, "config.environment.lambda: expected a 3x3 array"),
    (lambda tmp: setup_from_json({**CONFIG, "channels": []}), ConfigError,
     "config.channels: expected a non-empty array"),
    (lambda tmp: setup_from_json({**CONFIG, "outputs": {"records": 3}}), ConfigError,
     "config.outputs.records: expected a path string"),
    (lambda tmp: _cli("estimate", "--records", tmp / "absent.qcr", "--spec", _written(
        tmp / "spec.json", [{"window": {"t_a_us": 0.1, "T_us": 0.2}, "gaps": []}])),
     ConfigError, "spec[0].gaps: expected a non-empty array"),
    (lambda tmp: _cli("simulate", "--config", _written(tmp / "config.json", CONFIG)), QcorrError,
     "no output path: pass --out or set outputs.records in the config"),
], ids=["config-section-not-object", "config-float-n-traj", "config-two-row-lambda",
        "config-no-channels", "config-records-not-string", "spec-no-gaps", "simulate-no-out"])
def test_malformed_file_refused_by_path(tmp_path, call, cls, message):
    with pytest.raises(cls) as refused:
        call(tmp_path)
    assert type(refused.value) is cls
    assert str(refused.value) == message
