"""Tests for integer/mod-p homology: Smith normal form, abelian group
arithmetic, weight-slice homology, the mod-p homology ring, and the table
combinators (Kunneth, unitalization, universal coefficients)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from extbar import (
    DIVIDED,
    AbelianGroup,
    FreeAlgebra,
    ZZ,
    bar,
    dimensions_mod_p_from_integral,
    homology_over_Fp,
    homology_over_Z,
    homology_ring_over_Fp,
    integral_homology_table,
    kunneth,
    kunneth_fold,
    p_primary_unitalize,
    smith_normal_form,
    tensor_signed,
)
from extbar.extract import bar_source_algebra
from extbar.homology import boundary_matrix, check_boundary_squares_to_zero, compile_slice
from extbar.modp import columns_mod_p, nullspace_mod_p

GAMMA = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
BAR1 = bar(GAMMA)
G1, G2 = (1,), (2,)

Z = AbelianGroup.free(1)


def Zmod(n):
    return AbelianGroup.cyclic(n)


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


def test_snf_oracle_values():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[1]]) == ((1,), 1)
    assert smith_normal_form([[0]]) == ((), 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)


def test_snf_divisibility_fix():
    # diag(2, 3) is not in normal form; the invariant factors are (1, 6).
    assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)


def test_snf_empty_and_rectangular():
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form([[0, 0, 0]]) == ((), 0)
    assert smith_normal_form([[2, 0, 0]]) == ((2,), 1)
    assert smith_normal_form([[3], [6]]) == ((3,), 1)


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _minor_gcd(rows, k):
    m, n = len(rows), len(rows[0])
    g = 0
    for ris in itertools.combinations(range(m), k):
        for cjs in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in cjs] for i in ris]
            g = math.gcd(g, _det(sub))
    return g


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_matches_minor_gcds(rows):
    """d_1 * ... * d_k equals the gcd of all k x k minors, and the factors
    form a divisibility chain: the defining property of the normal form."""
    factors, rank = smith_normal_form(rows)
    assert rank == len(factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    prod = 1
    for k, d in enumerate(factors, start=1):
        prod *= d
        assert prod == _minor_gcd(rows, k)
    if rank < 3:
        assert _minor_gcd(rows, rank + 1) == 0


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.integers(-3, 3),
)
def test_snf_invariant_under_row_operation(rows, c):
    moved = [list(r) for r in rows]
    for j in range(3):
        moved[0][j] += c * moved[1][j]
    assert smith_normal_form(moved) == smith_normal_form(rows)


# ----------------------------------------------------------------------
# abelian groups
# ----------------------------------------------------------------------


def test_group_construction_and_normalization():
    assert Zmod(12).primary == ((2, (2,)), (3, (1,)))
    assert Zmod(12) == AbelianGroup.from_invariant_factors([12])
    assert Zmod(0) == Z
    assert Zmod(1) == AbelianGroup.zero()
    assert AbelianGroup.from_invariant_factors([2, 4]).primary == ((2, (2, 1)),)


def test_invariant_factors_round_trip():
    g = AbelianGroup.from_invariant_factors([2, 4])
    assert g.invariant_factors() == (2, 4)
    mixed = AbelianGroup.sum_of([Zmod(2), Zmod(4), Zmod(3)])
    assert mixed.invariant_factors() == (2, 12)
    assert AbelianGroup.from_invariant_factors((2, 12)) == mixed


def test_group_str():
    assert str(AbelianGroup.zero()) == "0"
    assert str(Z) == "Z"
    assert str(AbelianGroup.free(2)) == "Z^2"
    assert str(Z.direct_sum(Zmod(4))) == "Z + Z/4"
    assert str(AbelianGroup.sum_of([Zmod(2), Zmod(12)])) == "Z/2 + Z/12"


def test_primary_queries():
    g = Zmod(12)
    assert g.exponents_of(2) == (2,)
    assert g.exponents_of(5) == ()
    assert g.p_torsion_count(2) == 1
    assert g.p_primary_part(2) == Zmod(4)
    assert g.p_primary_part(3) == Zmod(3)
    assert g.p_primary_part(5).is_trivial


def test_tensor_product():
    free_plus_four = Z.direct_sum(Zmod(4))
    assert free_plus_four.tensor(Zmod(6)) == AbelianGroup.sum_of([Zmod(6), Zmod(2)])
    assert Z.tensor(Zmod(9)) == Zmod(9)
    assert Zmod(2).tensor(Zmod(3)).is_trivial


def test_tor_product():
    assert Zmod(4).tor(Zmod(6)) == Zmod(2)
    assert Z.tor(Zmod(6)).is_trivial
    assert Zmod(6).tor(Z).is_trivial
    assert Zmod(4).tor(Zmod(8)) == Zmod(4)


# ----------------------------------------------------------------------
# weight-slice homology
# ----------------------------------------------------------------------


def test_boundary_matrix_shape_and_entries():
    assert boundary_matrix(BAR1, 2, 6) == [[-2]]
    assert boundary_matrix(BAR1, 2, 5) == []
    # rows index the degree-9 basis, columns the degree-10 basis:
    m = boundary_matrix(BAR1, 4, 10)
    assert len(m) == 1 and len(m[0]) == 3


def test_check_boundary_squares_to_zero_passes():
    for w in range(5):
        check_boundary_squares_to_zero(BAR1, w)


def test_integral_homology_small_weights():
    assert homology_over_Z(BAR1, 0) == {0: Z}
    assert homology_over_Z(BAR1, 1) == {3: Z}
    assert homology_over_Z(BAR1, 2) == {5: Zmod(2)}
    assert homology_over_Z(BAR1, 3) == {7: Zmod(3), 8: Zmod(2)}


def test_integral_homology_table_collects_weights():
    table = integral_homology_table(BAR1, 2)
    assert table == {(0, 0): Z, (3, 1): Z, (5, 2): Zmod(2)}


def test_mod_p_homology_dimensions():
    assert homology_over_Fp(BAR1, 2, 2) == {5: 1, 6: 1}
    assert homology_over_Fp(BAR1, 2, 3) == {}
    assert homology_over_Fp(BAR1, 4, 2) == {9: 1, 10: 1, 11: 1, 12: 1}
    assert homology_over_Fp(BAR1, 4, 3) == {10: 1, 11: 1}
    assert homology_over_Fp(BAR1, 4, 5) == {}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_universal_coefficients_consistency(p):
    """Mod-p dimensions derived from the integral table agree with
    dimensions computed directly over F_p."""
    table = integral_homology_table(BAR1, 4)
    derived = dimensions_mod_p_from_integral(table, p)
    direct = {}
    for d in range(5):
        for i, n in homology_over_Fp(BAR1, d, p).items():
            direct[(i, d)] = n
    assert derived == direct


def test_dimensions_mod_p_shift_direction():
    table = {(0, 0): Z, (5, 2): Zmod(2)}
    assert dimensions_mod_p_from_integral(table, 2) == {
        (0, 0): 1,
        (5, 2): 1,
        (6, 2): 1,
    }
    assert dimensions_mod_p_from_integral(table, 3) == {(0, 0): 1}


# ----------------------------------------------------------------------
# table combinators
# ----------------------------------------------------------------------


def test_kunneth_matches_direct_tensor_homology():
    table = integral_homology_table(BAR1, 2)
    predicted = kunneth(table, table, 2)
    direct = integral_homology_table(tensor_signed(BAR1, BAR1), 2)
    assert predicted == direct
    assert predicted[(3, 1)] == AbelianGroup.free(2)
    assert predicted[(5, 2)] == AbelianGroup.sum_of([Zmod(2), Zmod(2)])


def test_kunneth_tor_term_appears_one_degree_up():
    t = {(0, 0): Z, (5, 2): Zmod(2)}
    out = kunneth(t, {(0, 0): Z, (5, 2): Zmod(4)}, 4)
    assert out[(10, 4)] == Zmod(2)  # tensor
    assert out[(11, 4)] == Zmod(2)  # Tor, one degree higher


def test_kunneth_fold_unit_and_truncation():
    assert kunneth_fold([], 5) == {(0, 0): Z}
    t = {(0, 0): Z, (3, 1): Z, (5, 2): Zmod(2)}
    assert kunneth_fold([t], 1) == {(0, 0): Z, (3, 1): Z}


def test_p_primary_unitalize():
    table = {
        (0, 0): Z,
        (5, 2): Zmod(12),
        (7, 3): Z.direct_sum(Zmod(3)),
        (9, 4): Zmod(5),
    }
    assert p_primary_unitalize(table, 2) == {(0, 0): Z, (5, 2): Zmod(4)}
    assert p_primary_unitalize(table, 3) == {
        (0, 0): Z,
        (5, 2): Zmod(3),
        (7, 3): Zmod(3),
    }


# ----------------------------------------------------------------------
# the mod-p homology ring
# ----------------------------------------------------------------------


def test_ring_dimensions_match_slicewise_homology():
    ring = homology_ring_over_Fp(BAR1, 2, 3)
    assert ring.dimensions() == {
        (0, 0): 1,
        (3, 1): 1,
        (5, 2): 1,
        (6, 2): 1,
        (8, 3): 1,
        (9, 3): 1,
    }
    assert ring.dimension(3, 1) == 1
    assert ring.dimension(4, 1) == 0


def test_ring_unit_and_products():
    ring = homology_ring_over_Fp(BAR1, 2, 3)
    one = ring.unit()
    x = ring.classes(3, 1)[0]
    assert ring.multiply(one, x) == x
    # the square of the weight-1 class dies, but multiplying by the
    # two-letter class in weight 2 hits the top of weight 3.
    assert ring.multiply(x, x).is_zero
    y = ring.classes(6, 2)[0]
    assert not ring.multiply(x, y).is_zero


def test_ring_truncation_enforced():
    ring = homology_ring_over_Fp(BAR1, 2, 3)
    y = ring.classes(6, 2)[0]
    with pytest.raises(ValueError):
        ring.multiply(y, y)
    with pytest.raises(ValueError):
        ring.dimension(3, 7)


def test_express_boundary_gives_zero_class():
    ring = homology_ring_over_Fp(BAR1, 3, 2)
    # -2[g2] is a boundary, and 3 does not divide 2, so [g2] itself dies.
    cls = ring.express({(G2,): 1}, 5, 2)
    assert cls.is_zero


def test_express_rejects_non_cycles():
    ring = homology_ring_over_Fp(BAR1, 3, 2)
    with pytest.raises(ValueError):
        ring.express({(G1, G1): 1}, 6, 2)


def test_representative_express_round_trip():
    ring = homology_ring_over_Fp(BAR1, 2, 3)
    for (i, d), n in ring.dimensions().items():
        for cls in ring.classes(i, d):
            assert ring.express(ring.representative(cls), i, d) == cls


def incremental_representatives(cycles, bounds, p):
    """Reference choice of representatives: reduce each boundary, then each
    cycle, against the pivot rows found so far, and keep the cycles that
    leave a nonzero remainder."""
    pivots = {}

    def reduce(v):
        v = v.copy() % p
        for col in sorted(pivots):
            if v[col]:
                v = (v - v[col] * pivots[col]) % p
        return v

    def insert(v):
        lead = int(np.nonzero(v)[0][0])
        pivots[lead] = (v * pow(int(v[lead]), p - 2, p)) % p

    for b in bounds:
        r = reduce(b)
        if np.any(r):
            insert(r)
    reps = []
    for c in cycles:
        r = reduce(c)
        if np.any(r):
            insert(r)
            reps.append(c % p)
    if not reps:
        return np.zeros((0, cycles.shape[1]), dtype=np.int64)
    return np.vstack(reps)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_ring_representatives_match_incremental_choice(n, p):
    algebra = bar_source_algebra(n, 1)
    ring = homology_ring_over_Fp(algebra, p, 5)
    for d in range(6):
        slice_ = algebra.weight_slice(d)
        columns = compile_slice(algebra, d)
        for i, basis in slice_.items():
            cycles = nullspace_mod_p(
                columns_mod_p(columns[i], len(slice_.get(i - 1, ())), p), p
            )
            bounds = columns_mod_p(columns.get(i + 1, ()), len(basis), p).T
            expected = incremental_representatives(cycles, bounds, p)
            assert ring._reps[(i, d)].shape == expected.shape
            assert np.array_equal(ring._reps[(i, d)], expected)
