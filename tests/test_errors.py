import inspect
import pickle

import pytest

from windforecast import errors

# constructor arguments of the classes that take more than a message
ARGUMENTS = {
    errors.RowParseError: ([(1, "x"), (3, "wind_speed -1.0 < 0")],),
    errors.RankDeficient: (["a", "b"],),
    errors.NonFiniteLoss: (3, 0.1),
}

CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    exc = cls(*ARGUMENTS.get(cls, ("something went wrong",)))
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is cls
    assert str(again) == str(exc)
    assert vars(again) == vars(exc)
    assert again.args == exc.args
