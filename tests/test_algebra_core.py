"""Tests for the weighted graded algebra layer: free algebras of all three
flavors, sign conventions, regrading, weight twisting, and signed tensor
products."""

import doctest
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import extbar.algebra
from extbar import (
    DIVIDED,
    EXTERIOR,
    SYMMETRIC,
    Bidegree,
    FreeAlgebra,
    GF,
    ZZ,
    algebras_agree,
    check_one_eps_commutative,
    divided_power_composition_coefficient,
    make_free_algebra,
    regrade,
    tensor_signed,
    weight_twist,
)


# ----------------------------------------------------------------------
# flavors and structure constants
# ----------------------------------------------------------------------


def test_bidegree_addition():
    assert Bidegree(1, 2) + Bidegree(3, 4) == Bidegree(4, 6)


def test_algebra_module_doctests_pass():
    failed, attempted = doctest.testmod(extbar.algebra)
    assert attempted >= 2
    assert failed == 0


def test_divided_power_product_has_binomial_coefficient():
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    assert gamma.mul_monomials((2,), (3,)) == {(5,): math.comb(5, 2)}
    assert gamma.mul_monomials((1,), (1,)) == {(2,): 2}


def test_divided_power_composition_coefficient_oracle():
    # gamma_l(gamma_k(x)) = c * gamma_{kl}(x) with c = (kl)! / (l! * (k!)^l);
    # spot values computed by hand from the factorial formula.
    assert divided_power_composition_coefficient(2, 2) == 3
    assert divided_power_composition_coefficient(2, 3) == 15
    assert divided_power_composition_coefficient(3, 2) == 10
    for k in range(1, 5):
        for l in range(1, 4):
            expected = math.factorial(k * l) // (
                math.factorial(l) * math.factorial(k) ** l
            )
            assert divided_power_composition_coefficient(k, l) == expected


def test_symmetric_product_is_plain():
    sym = FreeAlgebra(SYMMETRIC, [(2, 1, 1)], ZZ)
    assert sym.mul_monomials((2,), (3,)) == {(5,): 1}


def test_exterior_sign_and_repeat_kill():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    assert lam.mul_monomials((0,), (1,)) == {(0, 1): 1}
    assert lam.mul_monomials((1,), (0,)) == {(0, 1): -1}
    assert lam.mul_monomials((0,), (0,)) == {}


def test_exterior_merge_sign_counts_inversions():
    lam = FreeAlgebra(EXTERIOR, [(1, 1, 3)], ZZ)
    # merging (0,2) with (1,) moves index 1 past index 2: one inversion.
    assert lam.mul_monomials((0, 2), (1,)) == {(0, 1, 2): -1}
    assert lam.mul_monomials((1,), (0, 2)) == {(0, 1, 2): -1}


def test_unknown_flavor_rejected():
    with pytest.raises(ValueError):
        FreeAlgebra("Tensor", [(2, 1, 1)], ZZ)


def test_generator_validation():
    with pytest.raises(ValueError):
        FreeAlgebra(DIVIDED, [(2, 0, 1)], ZZ)
    with pytest.raises(ValueError):
        FreeAlgebra(DIVIDED, [(2, 1, -1)], ZZ)


def test_make_free_algebra_dispatch():
    alg = make_free_algebra(EXTERIOR, [(3, 1, 2)])
    assert isinstance(alg, FreeAlgebra)
    assert alg.flavor == EXTERIOR
    assert alg.dims(2) == {6: 1}


def test_slice_enumeration_exterior():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    assert lam.dims(0) == {0: 1}
    assert lam.dims(1) == {3: 2}
    assert lam.dims(2) == {6: 1}
    assert lam.dims(3) == {}


def test_slice_enumeration_divided():
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    for d in range(5):
        assert gamma.dims(d) == {2 * d: 1}


# ----------------------------------------------------------------------
# commutativity classes
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "flavor,degree,eps,expected",
    [
        (EXTERIOR, 1, 0, True),
        (EXTERIOR, 1, 1, False),
        (EXTERIOR, 2, 1, True),
        (EXTERIOR, 2, 0, False),
        (DIVIDED, 2, 0, True),
        (DIVIDED, 2, 1, False),
        (DIVIDED, 1, 1, True),
        (DIVIDED, 1, 0, False),
        (SYMMETRIC, 2, 0, True),
        (SYMMETRIC, 1, 1, True),
    ],
)
def test_one_eps_commutativity_table(flavor, degree, eps, expected):
    """Which (1,eps) class each flavor lands in, by generator parity.

    On weight-1 generators: exterior algebras on odd generators and divided
    power/symmetric algebras on even generators are (1,0)-commutative, the
    parity-swapped variants are (1,1)-commutative.
    """
    alg = FreeAlgebra(flavor, [(degree, 1, 2)], ZZ)
    ok, witness = check_one_eps_commutative(alg, eps, weight_max=4)
    assert ok is expected, witness


def test_one_eps_failure_reports_witness():
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    ok, witness = check_one_eps_commutative(gamma, 1, weight_max=2)
    assert not ok
    x, y = witness
    assert gamma.bidegree(x).weight % 2 == 1
    assert gamma.bidegree(y).weight % 2 == 1


# ----------------------------------------------------------------------
# regrading and weight twist
# ----------------------------------------------------------------------


def test_regrade_shifts_degrees_by_weight():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    shifted = regrade(lam, 1)
    assert shifted.dims(1) == {2: 2}
    assert shifted.dims(2) == {4: 1}
    assert regrade(lam, -2).dims(2) == {10: 1}


def test_regrade_round_trip_even_alpha_is_identity():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    assert algebras_agree(regrade(regrade(lam, 2), -2), lam, weight_max=4)


def test_regrade_round_trip_odd_alpha_is_weight_twist():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    round_trip = regrade(regrade(lam, 1), -1)
    assert algebras_agree(round_trip, weight_twist(lam), weight_max=4)
    assert not algebras_agree(round_trip, lam, weight_max=4)


def test_weight_twist_is_involution():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    assert algebras_agree(weight_twist(weight_twist(lam)), lam, weight_max=4)


def test_weight_twist_flips_odd_weight_products():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    twisted = weight_twist(lam)
    assert lam.mul_monomials((0,), (1,)) == {(0, 1): 1}
    assert twisted.mul_monomials((0,), (1,)) == {(0, 1): -1}


def test_weight_twist_preserves_commutativity_class():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    ok, _ = check_one_eps_commutative(weight_twist(lam), 0, weight_max=4)
    assert ok


# ----------------------------------------------------------------------
# signed tensor products
# ----------------------------------------------------------------------


def test_tensor_product_degree_sign():
    lam = FreeAlgebra(EXTERIOR, [(1, 1, 1)], ZZ)
    tens = tensor_signed(lam, lam, eps=0)
    one_e = ((), (0,))
    e_one = ((0,), ())
    assert tens.mul_monomials(e_one, one_e) == {((0,), (0,)): 1}
    assert tens.mul_monomials(one_e, e_one) == {((0,), (0,)): -1}


def test_tensor_product_weight_sign_eps1():
    # with eps=1 an extra (-1)^{w(a')w(b)} cancels the degree sign here.
    lam = FreeAlgebra(EXTERIOR, [(1, 1, 1)], ZZ)
    tens = tensor_signed(lam, lam, eps=1)
    one_e = ((), (0,))
    e_one = ((0,), ())
    assert tens.mul_monomials(one_e, e_one) == {((0,), (0,)): 1}


def test_tensor_ring_mismatch_rejected():
    from extbar import GF

    with pytest.raises(ValueError):
        tensor_signed(
            FreeAlgebra(EXTERIOR, [(1, 1, 1)], ZZ),
            FreeAlgebra(EXTERIOR, [(1, 1, 1)], GF(2)),
        )


def test_tensor_slice_dimensions_multiply():
    lam = FreeAlgebra(EXTERIOR, [(3, 1, 2)], ZZ)
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    tens = tensor_signed(lam, gamma)
    # weight 2 = (0,2), (1,1), (2,0) contributions.
    assert tens.dims(2) == {4: 1, 5: 2, 6: 1}


def test_tensor_preserves_commutativity_with_matching_eps():
    lam = FreeAlgebra(EXTERIOR, [(1, 1, 1)], ZZ)
    ok, witness = check_one_eps_commutative(tensor_signed(lam, lam, 0), 0, 4)
    assert ok, witness
    gamma = FreeAlgebra(DIVIDED, [(1, 1, 1)], ZZ)
    ok, witness = check_one_eps_commutative(tensor_signed(gamma, gamma, 1), 1, 4)
    assert ok, witness


# ----------------------------------------------------------------------
# element arithmetic
# ----------------------------------------------------------------------


def test_ring_rejects_a_prime_past_the_bound_without_testing_it():
    # 10**18 + 3 is prime; trial division up to its square root would not
    # finish in any reasonable time
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most 3037000493"):
        GF(1000000000000000003)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="prime"):
        GF(3037000491)  # = 3 * 1012333497, below the bound
    assert GF(3037000493).char == 3037000493


def test_element_normalizes_and_drops_zeros():
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    assert gamma.element({(1,): 0}) == {}
    assert gamma.add({(1,): 1}, {(1,): -1}) == {}


def test_bidegree_of_element():
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    assert gamma.bidegree_of_element({(2,): 5}) == Bidegree(4, 2)
    assert gamma.bidegree_of_element({}) is None
    with pytest.raises(ValueError):
        gamma.bidegree_of_element({(1,): 1, (2,): 1})


def test_augmentation_reads_unit_coefficient():
    gamma = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
    assert gamma.augmentation({(0,): 3, (2,): 7}) == 3
    assert gamma.augmentation({(2,): 7}) == 0


# ----------------------------------------------------------------------
# property-based structure checks
# ----------------------------------------------------------------------


def _basis_monomials(algebra, weight_max):
    monos = []
    for w in range(weight_max + 1):
        for basis in algebra.weight_slice(w).values():
            monos.extend(basis)
    return monos


_GAMMA2 = FreeAlgebra(DIVIDED, [(2, 1, 1), (4, 2, 1)], ZZ)
_LAM = FreeAlgebra(EXTERIOR, [(3, 1, 2), (5, 2, 1)], ZZ)
_SYM = FreeAlgebra(SYMMETRIC, [(2, 1, 2)], ZZ)


@pytest.mark.parametrize("algebra", [_GAMMA2, _LAM, _SYM], ids=repr)
def test_unit_laws(algebra):
    for mono in _basis_monomials(algebra, 3):
        assert algebra.mul_monomials(algebra.unit, mono) == {mono: 1}
        assert algebra.mul_monomials(mono, algebra.unit) == {mono: 1}


@given(data=st.data())
@pytest.mark.parametrize("algebra", [_GAMMA2, _LAM, _SYM], ids=repr)
def test_multiplication_associative(algebra, data):
    monos = _basis_monomials(algebra, 2)
    x = data.draw(st.sampled_from(monos))
    y = data.draw(st.sampled_from(monos))
    z = data.draw(st.sampled_from(monos))
    left = algebra.mul(algebra.mul_monomials(x, y), {z: 1})
    right = algebra.mul({x: 1}, algebra.mul_monomials(y, z))
    assert left == right


@given(data=st.data())
def test_tensor_associativity_spot(data):
    tens = tensor_signed(_LAM, _GAMMA2, eps=0)
    monos = _basis_monomials(tens, 2)
    x = data.draw(st.sampled_from(monos))
    y = data.draw(st.sampled_from(monos))
    z = data.draw(st.sampled_from(monos))
    left = tens.mul(tens.mul_monomials(x, y), {z: 1})
    right = tens.mul({x: 1}, tens.mul_monomials(y, z))
    assert left == right
