import math
import pickle

import pytest

from qcorr import (
    MeasurementChannel,
    ReplicaConfig,
    ValidationError,
    Window,
    build_ensemble_model,
    errors,
    window_mean_state,
)
from qcorr.empirical import resolve_events
from qcorr.errors import IntegrationDivergedError, QcorrError


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
    (lambda: resolve_events([(0, 0.0)], 0.0, 1), "dt must be positive and finite, got 0.0"),
    (lambda: _window_mean_state(0.0), "dt must be positive and finite, got 0.0"),
    (lambda: _window_mean_state(math.inf), "dt must be positive and finite, got inf"),
    (lambda: _window_mean_state(-0.01), "dt must be positive and finite, got -0.01"),
    (lambda: MeasurementChannel((0.0, 0.0, 1.0), math.inf),
     "channel tau must be positive and finite, got inf"),
    (lambda: ReplicaConfig(phi=1.0, gamma=math.inf), "gamma must be positive and finite, got inf"),
], ids=["window-bins-zero-dt", "resolve-zero-dt", "window-state-zero-dt", "window-state-inf-dt",
        "window-state-negative-dt", "channel-inf-tau", "replica-inf-gamma"])
def test_bad_time_step_or_rate_refused_by_name(call, message):
    # Library calls only: a config file's numbers are checked finite on parse.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message
