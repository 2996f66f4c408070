"""Shared test configuration.

Property-based checks use a bounded hypothesis profile so the whole suite
stays fast and deterministic enough for CI.
"""

import pytest
from hypothesis import HealthCheck, settings

import extbar.algebra

settings.register_profile(
    "bounded",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bounded")


@pytest.fixture()
def square_checks(monkeypatch):
    """The weights the d^2 = 0 check (``extbar.algebra._check_square``)
    runs on during the test, in call order."""
    weights = []
    check = extbar.algebra._check_square

    def counted(algebra, weight, columns):
        weights.append(weight)
        check(algebra, weight, columns)

    monkeypatch.setattr(extbar.algebra, "_check_square", counted)
    return weights


@pytest.fixture()
def full_columns():
    """A function giving every boundary column of a weight slice, the
    blocks that ``slice_columns`` leaves out included: the algebra's
    compiled columns (``_compiled``), which heavier slices read, checked for
    d^2 = 0 by ``extbar.algebra._check_square`` as ``slice_columns``
    checks the columns homology reads, but not kept as checked."""

    def get(algebra, weight):
        columns = algebra._compiled(weight)
        extbar.algebra._check_square(algebra, weight, columns)
        return columns

    return get
