"""Tests for admissible words: degree/height/twisting invariants, the two
admissibility notions, enumeration against a brute-force oracle, and the
pairing of words."""

import itertools
import re

import pytest

from extbar import (
    enumerate_p_pairs,
    enumerate_words,
    is_admissible,
    is_admissible_mod2,
    pair_partner,
    word_degree,
    word_height,
    word_twisting,
)
from extbar.words import enumerate_general_words, word_degree_bound


# ----------------------------------------------------------------------
# invariants of single words
# ----------------------------------------------------------------------


def test_word_degree_recursion():
    assert word_degree("s", 3) == 1
    assert word_degree("ss", 2) == 2
    assert word_degree("ss", 7) == 2
    assert word_degree("sgss", 3) == 7
    assert word_degree("sgss", 2) == 5
    assert word_degree("fss", 3) == 8
    assert word_degree("fss", 2) == 6
    assert word_degree("sggss", 3) == 19


def test_word_degree_rejects_unknown_letters():
    with pytest.raises(ValueError):
        word_degree("sxs", 2)


def test_height_and_twisting_count_letters():
    assert word_height("sgss") == 3
    assert word_height("fss") == 3
    assert word_height("sfss") == 4
    assert word_twisting("sgss") == 1
    assert word_twisting("fgss") == 2
    assert word_twisting("sss") == 0


@pytest.mark.parametrize("count", [word_height, word_twisting])
@pytest.mark.parametrize("word, letter", [("sxs", "x"), ("x", "x"), ("fgS", "S"), ("s s", " ")])
def test_height_and_twisting_reject_unknown_letters(count, word, letter):
    with pytest.raises(ValueError, match=re.escape(f"unknown letter {letter!r} in word {word!r}")):
        count(word)


def test_general_admissibility():
    assert is_admissible("s")
    assert is_admissible("ss")
    assert is_admissible("sgss")
    assert is_admissible("fss")
    assert is_admissible("fgss")
    assert not is_admissible("")
    assert not is_admissible("gss")  # must start with s or f
    assert not is_admissible("sf")  # must end with s
    assert not is_admissible("fs")  # odd number of s to the right of f
    assert not is_admissible("sgs")  # odd number of s to the right of g


def test_mod2_admissibility():
    assert is_admissible_mod2("ss")
    assert is_admissible_mod2("sgss")
    assert is_admissible_mod2("ssgss")
    assert not is_admissible_mod2("s")
    assert not is_admissible_mod2("sgs")  # must end in ss
    assert not is_admissible_mod2("sfss")  # no f in the mod-2 alphabet
    assert not is_admissible_mod2("gss")


# ----------------------------------------------------------------------
# enumeration against a brute-force oracle
# ----------------------------------------------------------------------


def _brute_force(p, height, max_degree, alphabet, admissible):
    """Filter every string over the alphabet.  Admissible words gain at
    least one degree per letter and each g multiplies the degree of its
    suffix by p, so length height + log_p(max_degree) suffices."""
    max_g = 0
    while p ** (max_g + 1) <= max_degree:
        max_g += 1
    found = set()
    for length in range(1, height + max_g + 1):
        for letters in itertools.product(alphabet, repeat=length):
            w = "".join(letters)
            if (
                word_height(w) == height
                and admissible(w)
                and word_degree(w, p) <= max_degree
            ):
                found.add(w)
    return found


@pytest.mark.parametrize(
    "p,height,max_degree",
    [(3, 2, 9), (3, 3, 20), (5, 2, 30), (3, 4, 15)],
)
def test_enumerate_words_odd_prime_matches_brute_force(p, height, max_degree):
    expected = _brute_force(p, height, max_degree, "sfg", is_admissible)
    assert set(enumerate_words(p, height, max_degree)) == expected


@pytest.mark.parametrize("height,max_degree", [(2, 10), (3, 20), (4, 20)])
def test_enumerate_words_mod2_matches_brute_force(height, max_degree):
    expected = _brute_force(2, height, max_degree, "sg", is_admissible_mod2)
    assert set(enumerate_words(2, height, max_degree)) == expected


@pytest.mark.parametrize("p,height,max_degree", [(2, 3, 20), (2, 4, 12)])
def test_enumerate_general_words_at_two_matches_brute_force(p, height, max_degree):
    expected = _brute_force(p, height, max_degree, "sfg", is_admissible)
    assert set(enumerate_general_words(p, height, max_degree)) == expected


def test_enumeration_is_sorted_by_degree_then_word():
    words = enumerate_words(3, 3, 30)
    keys = [(word_degree(w, 3), w) for w in words]
    assert keys == sorted(keys)


def test_height_three_slice_at_p3():
    assert enumerate_words(3, 3, 20) == ["sss", "sgss", "fss", "sggss", "fgss"]


def test_height_four_field_words_at_p2():
    # mod-2 words s g^k s g^l ss of degree 2^(k+l+1) + 2^k + 1.
    words = enumerate_words(2, 4, 20)
    assert words == [
        "ssss",
        "ssgss",
        "sgsss",
        "ssggss",
        "sgsgss",
        "sggsss",
        "ssgggss",
        "sgsggss",
    ]
    degrees = [word_degree(w, 2) for w in words]
    assert degrees == [4, 6, 7, 10, 11, 13, 18, 19]


def test_only_pure_suspension_word_at_height_two():
    assert enumerate_words(3, 2, 50) == ["ss"]
    assert enumerate_words(5, 2, 50) == ["ss"]


# ----------------------------------------------------------------------
# pairing
# ----------------------------------------------------------------------


def test_pair_partner_swaps_sg_for_f():
    assert pair_partner("sgss") == "fss"
    assert pair_partner("fss") == "sgss"
    assert pair_partner("sggss") == "fgss"
    assert pair_partner("ssgss") == "sfss"


def test_pair_partner_rejects_unpaired_or_inadmissible():
    with pytest.raises(ValueError):
        pair_partner("sss")
    with pytest.raises(ValueError):
        pair_partner("gss")
    for word in ["xs", "sxs", "fsx"]:
        with pytest.raises(ValueError, match=f"unknown letter 'x' in word '{word}'"):
            pair_partner(word)


@pytest.mark.parametrize("p,height,max_degree", [(2, 3, 20), (3, 3, 30), (5, 3, 30)])
def test_pairing_partitions_general_words(p, height, max_degree):
    """Every admissible word except s^height belongs to exactly one pair;
    partners are admissible, share height and twisting, and differ by one
    in degree."""
    words = enumerate_general_words(p, height, max_degree)
    for w in words:
        if set(w) == {"s"}:
            continue
        partner = pair_partner(w)
        assert is_admissible(partner)
        assert pair_partner(partner) == w
        assert word_height(partner) == word_height(w)
        assert word_twisting(partner) == word_twisting(w)
        low, high = sorted([w, partner], key=lambda u: word_degree(u, p))
        assert word_degree(high, p) == word_degree(low, p) + 1
        # the lower-degree member is the g-side word
        first = next(c for c in low if c != "s")
        assert first == "g"


def test_enumerate_p_pairs_at_p3():
    pairs = enumerate_p_pairs(3, 3, 20)
    assert [(q.gamma_word, q.phi_word, q.degree, q.twisting, q.weight) for q in pairs] == [
        ("sgss", "fss", 7, 1, 3),
        ("sggss", "fgss", 19, 2, 9),
    ]


def test_enumerate_p_pairs_uses_general_alphabet_at_p2():
    pairs = enumerate_p_pairs(2, 3, 20)
    assert [(q.gamma_word, q.phi_word) for q in pairs] == [
        ("sgss", "fss"),
        ("sggss", "fgss"),
        ("sgggss", "fggss"),
    ]
    assert [q.degree for q in pairs] == [5, 9, 17]
    assert [q.weight for q in pairs] == [2, 4, 8]


def test_pair_degree_is_g_side_degree():
    for q in enumerate_p_pairs(3, 5, 40):
        assert q.degree == word_degree(q.gamma_word, 3)
        assert word_degree(q.phi_word, 3) == q.degree + 1


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("height", [2, 3, 4])
def test_word_degree_bound_covers_every_word_under_the_weight_cap(p, height):
    for weight_max in (1, p - 1, p, p + 1, p * p, p * p + 1):
        bound = word_degree_bound(p, height, weight_max)
        for alphabet in (enumerate_words, enumerate_general_words):
            for w in alphabet(p, height, 2 * bound):
                if p ** word_twisting(w) <= weight_max:
                    assert word_degree(w, p) <= bound, (w, weight_max)


@pytest.mark.parametrize(
    "call, p",
    [
        (enumerate_words, 4),
        (enumerate_words, 0),
        (enumerate_words, 1),
        (enumerate_general_words, 4),
        (enumerate_general_words, 1),
        (enumerate_p_pairs, 4),
        (enumerate_p_pairs, 1),
        (word_degree_bound, 4),
        (word_degree_bound, 6),
        (word_degree_bound, -3),
    ],
)
def test_words_reject_a_modulus_that_is_not_prime(call, p):
    # p = 0 and 1 would recurse without end in the enumerators and loop
    # without end in the degree bound; p = 4 would list words as if prime
    with pytest.raises(ValueError, match=f"modulus {p} is not a prime"):
        call(p, 3, 20)
