"""Tests for the closed-form table predictors: Poincare dimension tables,
the nine functor-pair generator descriptions, the two twist-reduction
transforms, duality, and the integral assembly."""

import doctest
import hashlib
import itertools
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import extbar.predict
from extbar import (
    DIVIDED,
    EXTERIOR,
    SYMMETRIC,
    AbelianGroup,
    FreeAlgebraSpec,
    GeneratorFamily,
    InternalAssertionError,
    build_Xp,
    cartan_field_generators,
    check_one_eps_commutative,
    duality_flip,
    expand_by_even_offsets,
    ext_field_predict,
    ext_integral_predict,
    ext_twisted_predict,
    hom_dimension,
    poincare_dims,
    run_suite,
    twist_shift,
)
from extbar.predict import AlgebraFactor, build_spec_algebra, regrade_bar_table

Z = AbelianGroup.free(1)


def Zmod(n):
    return AbelianGroup.cyclic(n)


PAIRS = list(itertools.product((SYMMETRIC, EXTERIOR, DIVIDED), repeat=2))

#: weight-sign parity of each flavor; a maps-algebra between flavors X, Y is
#: (1, eps(X)+eps(Y))-commutative.
EPS = {SYMMETRIC: 0, DIVIDED: 0, EXTERIOR: 1}


def _convolve(a, b, weight_max):
    out = {}
    for (i1, d1), c1 in a.items():
        for (i2, d2), c2 in b.items():
            if d1 + d2 <= weight_max:
                key = (i1 + i2, d1 + d2)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def _family_series(flavor, fam, weight_max):
    """Bigraded Hilbert series of a free algebra on a single family,
    truncated by weight: binomials for an exterior generator, multiset
    coefficients for symmetric/divided-power ones (the unit alone at
    multiplicity 0)."""
    if fam.weight < 1:
        raise ValueError("generator weights must be >= 1")
    out = {}
    j = 0
    while j * fam.weight <= weight_max:
        if flavor == EXTERIOR:
            if j > fam.multiplicity:
                break
            c = comb(fam.multiplicity, j)
        elif fam.multiplicity:
            c = comb(fam.multiplicity + j - 1, j)
        else:
            c = int(j == 0)
        if c:
            out[(j * fam.degree, j * fam.weight)] = c
        j += 1
    return out


def reference_poincare_dims(spec, weight_max):
    """Every family convolved with its full truncated series, in turn."""
    table = {(0, 0): 1}
    for flavor, fam in spec.all_generators():
        table = _convolve(table, _family_series(flavor, fam, weight_max), weight_max)
    return dict(sorted(table.items()))


# ----------------------------------------------------------------------
# Poincare tables of free algebras
# ----------------------------------------------------------------------


def _single(p, flavor, families):
    return FreeAlgebraSpec(p, (AlgebraFactor(flavor, tuple(families)),), ())


def test_exterior_poincare_dims():
    spec = _single(2, EXTERIOR, [GeneratorFamily(3, 1, 0, 2)])
    assert poincare_dims(spec, 4) == {(0, 0): 1, (3, 1): 2, (6, 2): 1}


def test_divided_and_symmetric_share_hilbert_series():
    fams = [GeneratorFamily(2, 1, 0, 2)]
    div = poincare_dims(_single(3, DIVIDED, fams), 4)
    sym = poincare_dims(_single(3, SYMMETRIC, fams), 4)
    assert div == sym
    assert div[(4, 2)] == 3  # multiset coefficient C(2+2-1, 2)


def test_poincare_dims_respect_generator_weight():
    spec = _single(2, DIVIDED, [GeneratorFamily(1, 2, 1, 1)])
    assert poincare_dims(spec, 5) == {(0, 0): 1, (1, 2): 1, (2, 4): 1}


families = st.builds(
    GeneratorFamily,
    degree=st.integers(0, 9),
    weight=st.integers(1, 6),
    twist=st.just(0),
    multiplicity=st.integers(0, 6),
)


@st.composite
def specs(draw):
    """Up to three factors of any flavor, each on up to three families."""
    factors = draw(
        st.lists(
            st.builds(
                lambda flavor, fams: AlgebraFactor(flavor, tuple(fams)),
                st.sampled_from([SYMMETRIC, EXTERIOR, DIVIDED]),
                st.lists(families, max_size=3),
            ),
            max_size=3,
        )
    )
    eps = draw(st.lists(st.integers(0, 1), min_size=max(len(factors) - 1, 0),
                        max_size=max(len(factors) - 1, 0)))
    return FreeAlgebraSpec(2, tuple(factors), tuple(eps))


def _spec_of(*factors):
    return FreeAlgebraSpec(
        2,
        tuple(AlgebraFactor(flavor, tuple(GeneratorFamily(*g) for g in gens))
              for flavor, gens in factors),
        (0,) * max(len(factors) - 1, 0),
    )


@given(specs(), st.integers(0, 12))
@example(_spec_of((DIVIDED, [(3, 6, 0, 2)]), (EXTERIOR, [(1, 5, 0, 1)])), 4)
@example(_spec_of((SYMMETRIC, [(0, 1, 0, 6), (2, 1, 0, 0)])), 12)
@example(_spec_of((EXTERIOR, [(0, 1, 0, 6), (0, 2, 0, 3)])), 12)
@example(_spec_of((EXTERIOR, [(3, 4, 0, 2)]), (DIVIDED, [(1, 2, 0, 3), (0, 4, 0, 1)])), 4)
@example(_spec_of(), 0)
# weights on the lattice of 4; the weight-6 family past the cap must not
# enter the gcd, and neither must the weight-14 one
@example(_spec_of((EXTERIOR, [(1, 4, 0, 2), (2, 6, 0, 1)]), (SYMMETRIC, [(3, 4, 0, 3)])), 5)
@example(_spec_of((DIVIDED, [(2, 4, 0, 2), (5, 14, 0, 1)]), (EXTERIOR, [(3, 8, 0, 2)])), 12)
# a multiplicity-0 family of weight 2 among families of weight 3
@example(_spec_of((DIVIDED, [(2, 3, 0, 2), (1, 2, 0, 0)]), (EXTERIOR, [(1, 6, 0, 1)])), 12)
# families listed lightest first, in one factor and across factors
@example(_spec_of((EXTERIOR, [(1, 1, 0, 1), (2, 2, 0, 2)]), (SYMMETRIC, [(3, 3, 0, 2), (0, 5, 0, 1)])), 12)
# counts of 105 bits, so digits of two 64-bit limbs
@example(_spec_of((DIVIDED, [(2, 1, 0, 50)]), (EXTERIOR, [(1, 2, 0, 3)])), 60)
def test_poincare_dims_match_convolution_reference(spec, weight_max):
    got = poincare_dims(spec, weight_max)
    want = reference_poincare_dims(spec, weight_max)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("flavor", [SYMMETRIC, EXTERIOR, DIVIDED])
def test_poincare_dims_reject_bad_generators(flavor):
    for gens in [
        [(1, 0, 0, 1)],
        [(1, -1, 0, 0)],
        [(1, 50, 0, 1), (1, 0, 0, 1)],  # behind a generator past the cap
    ]:
        with pytest.raises(ValueError, match="weights"):
            poincare_dims(_spec_of((flavor, gens)), 0)
    for gens in [[(1, 1, 0, -1)], [(1, 50, 0, -1)]]:
        with pytest.raises(ValueError, match="multiplicities"):
            poincare_dims(_spec_of((flavor, gens)), 4)
    for gens in [[(-1, 1, 0, 1)], [(-2, 1, 0, 0)], [(1, 1, 0, 1), (-1, 50, 0, 1)]]:
        with pytest.raises(ValueError, match="degrees must be >= 0"):
            poincare_dims(_spec_of((flavor, gens)), 4)


@pytest.mark.parametrize(
    "factors, weight_max, count_bits, total_bits",
    [
        # divided powers of multiplicity 50: counts C(49 + d, d)
        ([(DIVIDED, [(2, 1, 0, 50)])], 60, 105, 105),
        # an exterior family of multiplicity 200: counts C(200, d)
        ([(EXTERIOR, [(1, 1, 0, 200)])], 200, 196, 196),
        # the same beside a symmetric family on the weight lattice of 3
        ([(EXTERIOR, [(1, 3, 0, 40)]), (SYMMETRIC, [(4, 6, 0, 30), (0, 3, 0, 2)])], 120, 70, 74),
        # counts C(67, d) and C(67, d - 1) in degrees 0 and 1 fit 64 bits,
        # but their row total C(68, 34) does not
        ([(EXTERIOR, [(0, 1, 0, 67)]), (EXTERIOR, [(1, 1, 0, 1)])], 67, 64, 65),
    ],
    ids=["divided-m50", "exterior-m200", "lattice-3", "totals-past-64-bits"],
)
def test_poincare_dims_with_digits_past_64_bits_match_the_reference(
    factors, weight_max, count_bits, total_bits
):
    spec = _spec_of(*factors)
    got = poincare_dims(spec, weight_max)
    assert list(got.items()) == list(reference_poincare_dims(spec, weight_max).items())
    assert max(got.values()).bit_length() == count_bits
    totals = {}
    for (_, weight), n in got.items():
        totals[weight] = totals.get(weight, 0) + n
    assert max(totals.values()).bit_length() == total_bits


#: One digest over the Poincaré tables that the ``predict_twisted`` benchmark
#: builds: the nine functor pairs for p in {2, 3, 5} and s, t in {0, 1, 2} at
#: weight 70, each from its direct spec and its composite
#: ``twist_shift`` -> ``expand_by_even_offsets`` spec, hashed as the ``repr``
#: of each table's item list in turn.  Taken before the tables were packed.
TWISTED_TABLES_DIGEST = "885a8ed013583881472885f43b1bb8c4a6c84e8c62bdfae8cc3c75c7049668d4"


def test_twisted_poincare_tables_keep_their_digest():
    digest = hashlib.sha256()
    for p, s, t in itertools.product((2, 3, 5), range(3), range(3)):
        for source, target in PAIRS:
            direct = ext_twisted_predict(source, target, p, s, t, 70)
            base = ext_field_predict(source, target, p, 70)
            composite = expand_by_even_offsets(twist_shift(base, t, target), s)
            for spec in (direct, composite):
                digest.update(repr(list(poincare_dims(spec, 70).items())).encode())
    assert digest.hexdigest() == TWISTED_TABLES_DIGEST


#: The grid of the two spec digests below, outermost loop first: p, s, t,
#: weight cap, multiplicity, then the nine functor pairs.
SPEC_GRID = list(
    itertools.product((2, 3, 5, 7), range(4), range(4), (0, 1, 2, 5, 9, 27, 70, 200), (1, 2), PAIRS)
)

#: sha256 of the ``repr`` of every direct spec of :data:`SPEC_GRID` in turn,
#: generator order included.
TWISTED_SPECS_DIGEST = "97f3354efab5f4e3d0d4ca59d11753dcfc066a0d2f5d74c22f7b6a79827c6981"

#: sha256 of the ``repr`` of, for each point of :data:`SPEC_GRID`, the
#: composite spec cut at the untwisted weight ``W // p**s`` and the untwisted
#: spec at triple multiplicity.
TRANSFORMED_SPECS_DIGEST = "5bad40efd3547cac1409c4fe2b6ff3a4beac5cc26d2c41ad9f4d421b122c423e"


def test_twisted_specs_keep_their_digest():
    digest = hashlib.sha256()
    for p, s, t, weight_max, m, (source, target) in SPEC_GRID:
        spec = ext_twisted_predict(source, target, p, s, t, weight_max, m)
        digest.update(repr(spec).encode())
    assert digest.hexdigest() == TWISTED_SPECS_DIGEST


def test_transformed_specs_keep_their_digest():
    digest = hashlib.sha256()
    for p, s, t, weight_max, m, (source, target) in SPEC_GRID:
        base = ext_field_predict(source, target, p, weight_max, m)
        shifted = twist_shift(base, t, target).truncate(weight_max // p**s)
        digest.update(repr(expand_by_even_offsets(shifted, s)).encode())
        digest.update(repr(base.scaled_multiplicity(3)).encode())
    assert digest.hexdigest() == TRANSFORMED_SPECS_DIGEST


def test_poincare_dims_reject_negative_weight_cap():
    for spec in [_spec_of(), _spec_of((DIVIDED, [(2, 1, 0, 1)]))]:
        with pytest.raises(ValueError, match="weight_max"):
            poincare_dims(spec, -1)


def test_predict_module_doctests_pass():
    failed, attempted = doctest.testmod(extbar.predict)
    assert attempted >= 3
    assert failed == 0


def test_junction_count_validated():
    factor = AlgebraFactor(DIVIDED, (GeneratorFamily(2, 1, 0, 1),))
    with pytest.raises(ValueError):
        FreeAlgebraSpec(2, (factor, factor), ())
    with pytest.raises(ValueError):
        FreeAlgebraSpec(2, (factor,), (1,))


def test_truncate_drops_heavy_generators():
    spec = _single(2, DIVIDED, [GeneratorFamily(1, 2, 1, 1), GeneratorFamily(3, 8, 3, 1)])
    cut = spec.truncate(4)
    assert [g.weight for _, g in cut.all_generators()] == [2]
    assert poincare_dims(cut, 4) == poincare_dims(spec, 4)


def test_scaled_multiplicity_convolves_dimensions():
    spec = ext_field_predict(SYMMETRIC, EXTERIOR, 2, 4)
    single = poincare_dims(spec, 4)
    double = poincare_dims(spec.scaled_multiplicity(2), 4)
    assert double == _convolve(single, single, 4)


def test_build_spec_algebra_dims_match_poincare():
    for spec in [
        ext_field_predict(SYMMETRIC, EXTERIOR, 3, 4),
        ext_field_predict(SYMMETRIC, DIVIDED, 2, 4),
        cartan_field_generators(3, 1, 4),
    ]:
        algebra = build_spec_algebra(spec)
        dims = {}
        for d in range(5):
            for i, n in algebra.dims(d).items():
                dims[(i, d)] = n
        assert dims == poincare_dims(spec, 4)


# ----------------------------------------------------------------------
# the nine pairs, untwisted
# ----------------------------------------------------------------------


def test_hom_lines_of_projective_like_sources():
    # pairs whose tables live in cohomological degree 0 only
    for p in (2, 3):
        assert poincare_dims(ext_field_predict(DIVIDED, SYMMETRIC, p, 3), 3) == {
            (0, d): 1 for d in range(4)
        }
        assert poincare_dims(ext_field_predict(SYMMETRIC, SYMMETRIC, p, 3), 3) == {
            (0, d): 1 for d in range(4)
        }
        assert poincare_dims(ext_field_predict(EXTERIOR, EXTERIOR, p, 3), 3) == {
            (0, d): 1 for d in range(4)
        }
        assert poincare_dims(ext_field_predict(DIVIDED, EXTERIOR, p, 3), 3) == {
            (0, 0): 1,
            (0, 1): 1,
        }


def test_divided_to_exterior_hom_counts_multiplicity():
    # dim Hom(Gamma^d, Lambda^d) = C(m, d) on a rank-m module.
    spec = ext_field_predict(DIVIDED, EXTERIOR, 2, 4, m=3)
    assert poincare_dims(spec, 4) == {
        (0, 0): 1,
        (0, 1): 3,
        (0, 2): 3,
        (0, 3): 1,
    }


def test_symmetric_to_exterior_at_p2():
    spec = ext_field_predict(SYMMETRIC, EXTERIOR, 2, 4)
    gens = [(g.degree, g.weight, g.twist) for _, g in spec.all_generators()]
    assert gens == [(0, 1, 0), (1, 2, 1), (3, 4, 2)]
    assert spec.factors[0].flavor == DIVIDED


def test_symmetric_to_exterior_at_odd_p_has_two_factors():
    spec = ext_field_predict(SYMMETRIC, EXTERIOR, 3, 9)
    assert [f.flavor for f in spec.factors] == [EXTERIOR, DIVIDED]
    assert spec.factors[1].weight_twisted
    assert spec.junction_eps == (1,)
    assert [(g.degree, g.weight) for g in spec.factors[0].generators] == [
        (0, 1),
        (2, 3),
        (8, 9),
    ]
    assert [(g.degree, g.weight) for g in spec.factors[1].generators] == [
        (1, 3),
        (7, 9),
    ]


def test_weight_p_column_of_symmetric_to_divided():
    """The weight-p column of the (S, Gamma) table is one-dimensional in
    cohomological degrees 0, 2p-3 and 2p-2 and zero elsewhere."""
    for p in (2, 3, 5):
        dims = poincare_dims(ext_field_predict(SYMMETRIC, DIVIDED, p, p), p)
        column = {i: n for (i, d), n in dims.items() if d == p}
        assert column == {0: 1, 2 * p - 3: 1, 2 * p - 2: 1}


def test_generator_weights_are_twist_powers():
    for (x, y), p in itertools.product(PAIRS, (2, 3)):
        for s, t in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            spec = ext_twisted_predict(x, y, p, s, t, 27)
            for _, g in spec.all_generators():
                assert g.weight == p**g.twist


def test_duality_flip_table():
    assert duality_flip(SYMMETRIC, EXTERIOR) == (EXTERIOR, DIVIDED)
    assert duality_flip(EXTERIOR, DIVIDED) == (SYMMETRIC, EXTERIOR)
    assert duality_flip(DIVIDED, SYMMETRIC) == (DIVIDED, SYMMETRIC)
    assert duality_flip(SYMMETRIC, SYMMETRIC) == (DIVIDED, DIVIDED)
    assert duality_flip(EXTERIOR, EXTERIOR) == (EXTERIOR, EXTERIOR)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("x,y", PAIRS)
def test_untwisted_tables_are_duality_invariant(p, x, y):
    flipped = duality_flip(x, y)
    mine = poincare_dims(ext_field_predict(x, y, p, 6), 6)
    dual = poincare_dims(ext_field_predict(*flipped, p, 6), 6)
    assert mine == dual


@pytest.mark.parametrize("x,y", PAIRS)
@pytest.mark.parametrize("s,t", [(0, 0), (1, 0), (0, 1)])
def test_predictions_are_one_eps_commutative(x, y, s, t):
    """Structural sign check over F_3, where signs are visible: the
    predicted algebra is (1, eps(X)+eps(Y))-commutative."""
    spec = ext_twisted_predict(x, y, 3, s, t, 9)
    algebra = build_spec_algebra(spec)
    eps = (EPS[x] + EPS[y]) % 2
    ok, witness = check_one_eps_commutative(algebra, eps, weight_max=9)
    assert ok, witness


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        ext_twisted_predict("T", EXTERIOR, 2, 0, 0, 4)
    with pytest.raises(ValueError):
        ext_twisted_predict(SYMMETRIC, EXTERIOR, 2, -1, 0, 4)
    with pytest.raises(ValueError):
        twist_shift(ext_field_predict(SYMMETRIC, EXTERIOR, 2, 4), -1, EXTERIOR)
    with pytest.raises(ValueError):
        expand_by_even_offsets(ext_field_predict(SYMMETRIC, EXTERIOR, 2, 4), -1)


def test_unknown_functor_names_rejected():
    base = ext_field_predict(SYMMETRIC, EXTERIOR, 2, 4)
    for call in [
        lambda: twist_shift(base, 1, "T"),
        lambda: duality_flip(SYMMETRIC, "T"),
        lambda: duality_flip("T", SYMMETRIC),
    ]:
        with pytest.raises(ValueError, match=r"functors must be in \('S', 'Lambda', 'Gamma'\)"):
            call()


NOT_PRIME_CALLS = {
    "twisted S-Lambda": lambda p: ext_twisted_predict(SYMMETRIC, EXTERIOR, p, 0, 0, 5),
    "twisted Lambda-Gamma": lambda p: ext_twisted_predict(EXTERIOR, DIVIDED, p, 1, 1, 9),
    "field S-Gamma": lambda p: ext_field_predict(SYMMETRIC, DIVIDED, p, 5),
    "hom dimension": lambda p: hom_dimension(SYMMETRIC, EXTERIOR, p, 4),
    "cartan generators": lambda p: cartan_field_generators(p, 1, 4),
    "twist-consistency suite": lambda p: run_suite("twist-consistency", p=p),
}


@pytest.mark.parametrize("call", NOT_PRIME_CALLS.values(), ids=NOT_PRIME_CALLS)
@pytest.mark.parametrize("p", [4, 6])
def test_predict_route_rejects_a_modulus_that_is_not_prime(call, p):
    with pytest.raises(ValueError, match=f"modulus {p} is not a prime"):
        call(p)


# ----------------------------------------------------------------------
# the twist-reduction transforms
# ----------------------------------------------------------------------


def test_twist_shift_on_divided_to_exterior():
    base = ext_field_predict(DIVIDED, EXTERIOR, 2, 8)
    assert [(g.degree, g.weight, g.twist) for _, g in base.all_generators()] == [
        (0, 1, 0)
    ]
    shifted = twist_shift(base, 1, EXTERIOR)
    assert [(g.degree, g.weight, g.twist) for _, g in shifted.all_generators()] == [
        (1, 2, 1)
    ]
    direct = ext_twisted_predict(DIVIDED, EXTERIOR, 2, 0, 1, 8)
    assert poincare_dims(shifted, 8) == poincare_dims(direct, 8)


def test_twist_shift_alpha_depends_on_target():
    fam = GeneratorFamily(4, 3, 1, 1)
    spec = _single(3, DIVIDED, [fam])
    for target, alpha in [(SYMMETRIC, 0), (EXTERIOR, 2), (DIVIDED, 4)]:
        out = twist_shift(spec, 1, target)
        ((_, g),) = out.all_generators()
        assert (g.degree, g.weight, g.twist) == (4 + 3 * alpha, 9, 2)


def test_expand_by_even_offsets_uses_current_twist():
    spec = _single(2, EXTERIOR, [GeneratorFamily(1, 2, 1, 1)])
    out = expand_by_even_offsets(spec, 1)
    assert [(g.degree, g.weight, g.twist) for _, g in out.all_generators()] == [
        (1, 4, 2),
        (5, 4, 2),
    ]


def test_composite_path_equals_direct_twisted_prediction():
    for x, y, p, s, t in [
        (DIVIDED, EXTERIOR, 2, 1, 1),
        (SYMMETRIC, EXTERIOR, 2, 1, 0),
        (SYMMETRIC, DIVIDED, 3, 0, 1),
        (EXTERIOR, DIVIDED, 3, 1, 0),
    ]:
        weight_max = 3 * p ** (s + t)
        direct = poincare_dims(
            ext_twisted_predict(x, y, p, s, t, weight_max), weight_max
        )
        base = ext_field_predict(x, y, p, weight_max)
        composite = expand_by_even_offsets(twist_shift(base, t, y), s)
        assert poincare_dims(composite.truncate(weight_max), weight_max) == direct


# ----------------------------------------------------------------------
# word-generated field predictions
# ----------------------------------------------------------------------


def test_cartan_field_generators_at_p2():
    spec = cartan_field_generators(2, 1, 4)
    assert [f.flavor for f in spec.factors] == [DIVIDED]
    assert [(g.degree, g.weight, g.twist) for _, g in spec.all_generators()] == [
        (3, 1, 0),
        (5, 2, 1),
        (9, 4, 2),
    ]


def test_cartan_field_generators_at_p3_split_by_parity():
    spec = cartan_field_generators(3, 1, 3)
    flavors = {f.flavor: [(g.degree, g.weight) for g in f.generators] for f in spec.factors}
    assert flavors == {
        EXTERIOR: [(3, 1), (7, 3)],
        DIVIDED: [(8, 3)],
    }


@pytest.mark.parametrize("n", [-1, -3])
def test_cartan_field_generators_reject_a_negative_bar_count(n):
    with pytest.raises(ValueError, match="bar iteration count must be >= 0"):
        cartan_field_generators(3, n, 4)


def test_cartan_field_prediction_matches_bar_homology():
    from extbar import DIVIDED as D, FreeAlgebra, ZZ, bar, homology_over_Fp

    algebra = bar(FreeAlgebra(D, [(2, 1, 1)], ZZ))
    predicted = poincare_dims(cartan_field_generators(2, 1, 4), 4)
    computed = {}
    for d in range(5):
        for i, n in homology_over_Fp(algebra, d, 2).items():
            computed[(i, d)] = n
    assert predicted == computed


# ----------------------------------------------------------------------
# integral assembly
# ----------------------------------------------------------------------


def test_integral_prediction_symmetric_to_exterior():
    assert ext_integral_predict(SYMMETRIC, EXTERIOR, 1, 4) == {
        (0, 0): Z,
        (0, 1): Z,
        (1, 2): Zmod(2),
        (1, 3): Zmod(2),
        (2, 3): Zmod(3),
        (1, 4): Zmod(2),
        (2, 4): Zmod(3),
        (3, 4): Zmod(2),
    }


def test_integral_prediction_symmetric_to_divided_weight4_column():
    table = ext_integral_predict(SYMMETRIC, DIVIDED, 1, 4)
    column = {i: g for (i, d), g in table.items() if d == 4}
    assert column == {
        0: Z,
        2: Zmod(2),
        3: Zmod(2),
        4: Zmod(12),
        6: Zmod(2),
    }


def test_integral_prediction_validates_pair():
    with pytest.raises(ValueError):
        ext_integral_predict(EXTERIOR, EXTERIOR, 1, 4)
    with pytest.raises(ValueError):
        ext_integral_predict(SYMMETRIC, SYMMETRIC, 1, 4)


def test_bar_regrading_sorts_its_keys_and_rejects_negative_degrees():
    """A class of degree j and weight d of n-fold bar homology sits at
    (n + 2) d - j; a class that would land below degree 0 is a fault."""
    table = regrade_bar_table({(4, 2): Zmod(2), (1, 1): Zmod(3)}, 1)
    assert list(table.items()) == [((2, 1), Zmod(3)), ((2, 2), Zmod(2))]
    with pytest.raises(InternalAssertionError, match="regrades below degree 0"):
        regrade_bar_table({(9, 2): Z}, 2)
