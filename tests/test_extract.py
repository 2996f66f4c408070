"""Tests for the bar-construction table pipeline and its agreement with the
closed-form predictors, over Z and over prime fields, and for the one bar
tower it shares per process."""

import sys
import threading

import pytest

from extbar import (
    DIVIDED,
    EXTERIOR,
    GF,
    SYMMETRIC,
    ZZ,
    AbelianGroup,
    BarAlgebra,
    ExtTable,
    FreeAlgebra,
    bar_source_algebra,
    ext_field_predict,
    ext_integral_predict,
    ext_table_via_bar,
    hom_dimension,
    poincare_dims,
)

Z = AbelianGroup.free(1)


def Zmod(n):
    return AbelianGroup.cyclic(n)


# ----------------------------------------------------------------------
# the source complex and table container
# ----------------------------------------------------------------------


def test_bar_source_algebra_smallest_slices():
    algebra = bar_source_algebra(1, 2)
    assert algebra.dims(0) == {0: 1}
    assert algebra.dims(1) == {3: 2}


def depth_and_rank(algebra):
    """How many bar constructions ``algebra`` is, and on how many
    generators the divided powers at its bottom are."""
    depth = 0
    while isinstance(algebra, BarAlgebra):
        algebra, depth = algebra.base, depth + 1
    assert isinstance(algebra, FreeAlgebra) and algebra.flavor == DIVIDED
    return depth, len(algebra.generators)


def test_one_tower_is_shared():
    two = bar_source_algebra(2, 1)
    assert bar_source_algebra(2, 1) is two
    assert bar_source_algebra(3, 1).base is two
    assert bar_source_algebra(2, 1) is two
    assert bar_source_algebra(1, 1) is two.base
    assert bar_source_algebra(0, 1) is two.base.base
    assert depth_and_rank(bar_source_algebra(4, 1)) == (4, 1)


def test_towers_of_two_ranks_coexist():
    rank1 = bar_source_algebra(2, 1)
    rank2 = bar_source_algebra(2, 2)
    assert rank2 is not rank1
    assert depth_and_rank(rank1) == (2, 1)
    assert depth_and_rank(rank2) == (2, 2)
    levels = {m: [bar_source_algebra(n, m) for n in range(4)] for m in (1, 2)}
    assert levels[1][2] is rank1 and levels[2][2] is rank2
    for m in (2, 1, 2):
        again = [bar_source_algebra(n, m) for n in range(4)]
        assert all(a is b for a, b in zip(again, levels[m]))
    for m in (1, 2):
        assert all(level.base is below for below, level in zip(levels[m], levels[m][1:]))


def test_the_tower_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="bar iteration count must be >= 0"):
        bar_source_algebra(-1, 1)


def test_threads_asking_for_different_towers_each_get_their_own():
    asks = [(1, 1), (3, 1), (2, 2), (0, 3)]
    start = threading.Barrier(len(asks), timeout=60)
    got = {ask: [] for ask in asks}

    def ask_for(n, m):
        start.wait()
        for _ in range(300):
            got[(n, m)].append(depth_and_rank(bar_source_algebra(n, m)))

    threads = [threading.Thread(target=ask_for, args=ask) for ask in asks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {ask: [ask] * 300 for ask in asks}


def test_table_container_needs_exactly_one_payload():
    with pytest.raises(ValueError):
        ExtTable(SYMMETRIC, EXTERIOR, ZZ, 0, 0, 1, 4)
    with pytest.raises(ValueError):
        ExtTable(
            SYMMETRIC,
            EXTERIOR,
            ZZ,
            0,
            0,
            1,
            4,
            groups={(0, 0): Z},
            dims={(0, 0): 1},
        )


def test_pipeline_validates_source_and_target():
    with pytest.raises(ValueError):
        ext_table_via_bar(EXTERIOR, EXTERIOR, ZZ, 3)
    with pytest.raises(ValueError):
        ext_table_via_bar(SYMMETRIC, SYMMETRIC, ZZ, 3)


# ----------------------------------------------------------------------
# integral tables
# ----------------------------------------------------------------------


def test_integral_table_exterior_target():
    table = ext_table_via_bar(SYMMETRIC, EXTERIOR, ZZ, 4)
    assert table.groups == {
        (0, 0): Z,
        (0, 1): Z,
        (1, 2): Zmod(2),
        (1, 3): Zmod(2),
        (2, 3): Zmod(3),
        (1, 4): Zmod(2),
        (2, 4): Zmod(3),
        (3, 4): Zmod(2),
    }
    assert table.dims is None


def test_integral_table_divided_target():
    table = ext_table_via_bar(SYMMETRIC, DIVIDED, ZZ, 4)
    assert table.groups == {
        (0, 0): Z,
        (0, 1): Z,
        (0, 2): Z,
        (2, 2): Zmod(2),
        (0, 3): Z,
        (2, 3): Zmod(2),
        (4, 3): Zmod(3),
        (0, 4): Z,
        (2, 4): Zmod(2),
        (3, 4): Zmod(2),
        (4, 4): Zmod(12),
        (6, 4): Zmod(2),
    }


@pytest.mark.parametrize("target", [EXTERIOR, DIVIDED])
@pytest.mark.parametrize("m", [1, 2])
def test_integral_table_matches_closed_form(target, m):
    computed = ext_table_via_bar(SYMMETRIC, target, ZZ, 4, m=m)
    assert computed.groups == ext_integral_predict(SYMMETRIC, target, m, 4)


# ----------------------------------------------------------------------
# field tables
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("target", [EXTERIOR, DIVIDED])
def test_field_table_matches_predictor(p, m, target):
    computed = ext_table_via_bar(SYMMETRIC, target, GF(p), 4, m=m)
    predicted = poincare_dims(ext_field_predict(SYMMETRIC, target, p, 4, m), 4)
    assert computed.dims == predicted
    assert computed.groups is None


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("target", [EXTERIOR, DIVIDED])
def test_field_dims_follow_from_integral_table(p, target):
    """Universal coefficients, cohomologically regraded: the mod-p dimension
    in degree i counts free rank plus p-torsion in degrees i and i + 1."""
    groups = ext_table_via_bar(SYMMETRIC, target, ZZ, 4).groups
    dims = ext_table_via_bar(SYMMETRIC, target, GF(p), 4).dims
    derived = {}
    for (i, d), group in groups.items():
        top = group.free_rank + group.p_torsion_count(p)
        if top:
            derived[(i, d)] = derived.get((i, d), 0) + top
        torsion = group.p_torsion_count(p)
        if torsion:
            derived[(i - 1, d)] = derived.get((i - 1, d), 0) + torsion
    assert derived == dims


# ----------------------------------------------------------------------
# degree-zero (plain transformation) dimensions
# ----------------------------------------------------------------------


def test_hom_dimension_symmetric_to_exterior_weight2():
    assert hom_dimension(SYMMETRIC, EXTERIOR, 2, 2) == 1
    assert hom_dimension(SYMMETRIC, EXTERIOR, 3, 2) == 0


def test_hom_dimension_divided_to_exterior_is_binomial():
    from math import comb

    for m in (1, 2, 3):
        for d in (0, 1, 2, 3):
            assert hom_dimension(DIVIDED, EXTERIOR, 2, d, m) == comb(m, d)
            assert hom_dimension(DIVIDED, EXTERIOR, 3, d, m) == comb(m, d)


def test_hom_dimension_identity_pairs():
    for p in (2, 3):
        for d in (1, 2, 3, 4):
            assert hom_dimension(SYMMETRIC, SYMMETRIC, p, d) == 1
            assert hom_dimension(DIVIDED, DIVIDED, p, d) == 1
            assert hom_dimension(EXTERIOR, EXTERIOR, p, d) == 1
