import pickle

import pytest

from qcorr import errors
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

