import pickle

import pytest

from switchgame.errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    ExpressionDomainError,
    ExpressionSyntaxError,
    PreconditionError,
    SpecificationError,
)


# one instance of every package error, built as the package builds them
ERRORS = [
    ExpressionSyntaxError("unexpected token", 4, ("number", "(")),
    ExpressionDomainError("division by zero", 7),
    SpecificationError("horizon must be positive"),
    PreconditionError("rewards are not separated across players", witness=[{"t": 0.5}]),
    ConvergenceError("maxmin fixed point stalled at penalty 4, time level 3", 2.5e-9),
    AdmissibilityError("switch cap exceeded", 12),
    ConfigError("config.json.grid.nt", "must be an integer"),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_round_trip_through_pickle(error):
    # a forked solve sends the exception it raised to its parent this way
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
