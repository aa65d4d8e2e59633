"""Every exception type of `hmpsearch.errors` survives pickling, as when a
worker process hands it back to its parent."""

import inspect
import pickle

import pytest

from hmpsearch import errors

ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle_with_its_type_and_message(cls):
    message = "data/run.cfg: no descriptor for 2 query id(s): q1, q2"
    copy = pickle.loads(pickle.dumps(cls(message)))
    assert type(copy) is cls and str(copy) == message
