"""Tests for the bar construction: word bases and their run layout,
differential signs, the shuffle product, iteration, and suspension."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extbar import (
    DIVIDED,
    FreeAlgebra,
    ZZ,
    bar,
    bar_source_algebra,
    check_one_eps_commutative,
    homology_over_Fp,
    iterate_bar,
    regrade,
    suspension_chain,
    tensor_signed,
)

GAMMA = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
BAR1 = bar(GAMMA)
BAR2 = bar(BAR1)

# base monomials of the divided power algebra on one weight-1 generator
G1 = (1,)
G2 = (2,)
G3 = (3,)


def _all_monomials(algebra, weight_max):
    monos = []
    for w in range(weight_max + 1):
        for basis in algebra.weight_slice(w).values():
            monos.extend(basis)
    return monos


# ----------------------------------------------------------------------
# word bases and grading
# ----------------------------------------------------------------------


def test_unit_word():
    assert BAR1.weight_slice(0) == {0: ((),)}
    assert BAR1.bidegree(()) == (0, 0)


def test_word_bidegree_suspends_each_letter():
    assert BAR1.bidegree((G1,)) == (3, 1)
    assert BAR1.bidegree((G1, G2)) == (8, 3)


def test_weight4_slice_counts_compositions():
    # words of weight 4 <-> compositions of 4; all letters have degree 2c,
    # so an r-letter word sits in degree r + 8.
    assert BAR1.dims(4) == {9: 1, 10: 3, 11: 3, 12: 1}


def test_double_bar_weight4_dimension():
    # letters are single-bar words of weights 1..4 (counts 1, 2, 4, 8);
    # summing over compositions of 4 gives 27 basis words.
    assert sum(iterate_bar(GAMMA, 2).dims(4).values()) == 27


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n, weight_max", [(1, 6), (2, 5), (3, 4)])
def test_layout_lays_out_the_sorted_basis_run_by_run(n, m, weight_max):
    algebra = bar_source_algebra(n, m)
    assert algebra._layout(0)[0] == {0: {None: (0, 1)}}
    for weight in range(1, weight_max + 1):
        runs, sizes, keys = algebra._layout(weight)
        slice_ = algebra.weight_slice(weight)
        assert sizes == algebra.dims(weight) == {i: len(ws) for i, ws in slice_.items()}
        if m > 1:
            assert {i: len(ks) for i, ks in keys.items()} == sizes
        assert runs.keys() == slice_.keys()
        for i, words in slice_.items():
            laid_out = []
            for a, (start, length) in runs[i].items():
                assert start == len(laid_out)
                b = algebra.base.bidegree(a)
                rest = algebra.weight_slice(weight - b.weight)[i - 1 - b.degree]
                assert length == len(rest)
                laid_out.extend((a,) + r for r in rest)
            assert tuple(laid_out) == words == tuple(sorted(words))


def test_homology_builds_no_word_of_the_level_it_reduces():
    algebra = bar_source_algebra(2, 1)
    homology_over_Fp(algebra, 7, 3)
    assert not algebra._slice_cache  # no words of weight 7, nor of those below
    assert 7 in algebra.base._slice_cache  # the letters of weight 7


def test_iterate_bar_degenerate_cases():
    assert iterate_bar(GAMMA, 0) is GAMMA
    with pytest.raises(ValueError):
        iterate_bar(GAMMA, -1)


# ----------------------------------------------------------------------
# differential
# ----------------------------------------------------------------------


def test_merge_differential_sign():
    # d[g1|g1] = -[g1*g1] = -2[g2]: the merge at position 1 is signed by the
    # suspended degree 1+|g1| = 3 of the one-letter prefix.
    assert BAR1.diff_monomial((G1, G1)) == {(G2,): -2}


def test_three_letter_differential():
    assert BAR1.diff_monomial((G1, G1, G1)) == {(G2, G1): -2, (G1, G2): 2}


def test_single_letters_are_cycles_when_base_has_zero_differential():
    for c in (G1, G2, G3):
        assert BAR1.diff_monomial((c,)) == {}


@pytest.mark.parametrize("algebra", [BAR1, BAR2], ids=["single", "double"])
@pytest.mark.parametrize("weight", [1, 2, 3, 4])
def test_differential_squares_to_zero(algebra, weight):
    for basis in algebra.weight_slice(weight).values():
        for word in basis:
            assert algebra.diff(algebra.diff_monomial(word)) == {}


def test_inner_differential_anticommutes_with_suspension():
    outer = bar(BAR1)
    chain = suspension_chain(outer, {(G1, G1): 1})
    assert outer.diff(chain) == outer.smul(
        -1, suspension_chain(outer, BAR1.diff_monomial((G1, G1)))
    )


def test_regraded_differential_flips_sign_on_odd_weight():
    shifted = regrade(BAR1, 1)
    assert shifted.diff_monomial((G1, G1)) == {(G2,): -2}  # weight 2: unchanged
    assert shifted.diff_monomial((G1, G1, G1)) == {(G2, G1): 2, (G1, G2): -2}


def test_tensor_differential_leibniz_sign():
    tens = tensor_signed(BAR1, BAR1)
    # |[g1]| = 3 is odd, so the right-hand differential picks up a sign.
    assert tens.diff_monomial(((G1,), (G1, G1))) == {((G1,), (G2,)): 2}
    assert tens.diff_monomial(((G1, G1), (G1,))) == {((G2,), (G1,)): -2}


# ----------------------------------------------------------------------
# shuffle product
# ----------------------------------------------------------------------


def test_shuffle_of_single_letters():
    assert BAR1.mul_monomials((G1,), (G2,)) == {(G1, G2): 1, (G2, G1): -1}


def test_odd_suspended_square_vanishes():
    assert BAR1.mul_monomials((G1,), (G1,)) == {}


def test_even_suspended_square_doubles():
    # [[g1]] has degree 4, so its shuffle square survives with coefficient 2.
    assert BAR2.mul_monomials(((G1,),), ((G1,),)) == {((G1,), (G1,)): 2}


def test_shuffle_one_into_two():
    assert BAR1.mul_monomials((G1,), (G1, G1)) == {(G1, G1, G1): 1}


def test_shuffle_unit():
    assert BAR1.mul_monomials((), (G1, G2)) == {(G1, G2): 1}
    assert BAR1.mul_monomials((G1, G2), ()) == {(G1, G2): 1}


@pytest.mark.parametrize("algebra", [BAR1, BAR2], ids=["single", "double"])
def test_shuffle_graded_commutative(algebra):
    ok, witness = check_one_eps_commutative(algebra, 0, weight_max=4)
    assert ok, witness


@given(data=st.data())
def test_shuffle_associative(data):
    monos = _all_monomials(BAR1, 2)
    x = data.draw(st.sampled_from(monos))
    y = data.draw(st.sampled_from(monos))
    z = data.draw(st.sampled_from(monos))
    left = BAR1.mul(BAR1.mul_monomials(x, y), {z: 1})
    right = BAR1.mul({x: 1}, BAR1.mul_monomials(y, z))
    assert left == right


@given(data=st.data())
def test_differential_satisfies_leibniz(data):
    monos = [m for m in _all_monomials(BAR2, 3) if m]
    x = data.draw(st.sampled_from(monos))
    y = data.draw(st.sampled_from(monos))
    lhs = BAR2.diff(BAR2.mul_monomials(x, y))
    sign = -1 if BAR2.bidegree(x).degree % 2 else 1
    rhs = BAR2.add(
        BAR2.mul(BAR2.diff_monomial(x), {y: 1}),
        BAR2.smul(sign, BAR2.mul({x: 1}, BAR2.diff_monomial(y))),
    )
    assert lhs == rhs


# ----------------------------------------------------------------------
# suspension
# ----------------------------------------------------------------------


def test_suspension_rejects_weight_zero():
    with pytest.raises(ValueError):
        suspension_chain(BAR1, {GAMMA.unit: 1})


def test_suspension_sends_cycles_to_cycles():
    outer = bar(BAR1)
    chain = suspension_chain(outer, {(G2,): 1})
    assert outer.bidegree_of_element(chain) == (6, 2)
    assert outer.diff(chain) == {}
