"""Tests for the parameterized Koszul-type complexes, their closed-form
homology, and the assembly of bar-homology predictions from them."""

import pytest

from extbar import (
    AbelianGroup,
    DIVIDED,
    EXTERIOR,
    FreeAlgebra,
    KoszulSpec,
    ZZ,
    bar,
    build_X0,
    build_Xp,
    build_koszul,
    integral_homology_table,
    koszul_homology_closed_form,
    koszul_kernels_dims,
    predicted_bar_homology,
    xp_homology_table,
)
from extbar.homology import check_boundary_squares_to_zero
from extbar.koszul import DERHAM, KOSZUL

Z = AbelianGroup.free(1)


def Zmod(n):
    return AbelianGroup.cyclic(n)


# ----------------------------------------------------------------------
# construction and differentials
# ----------------------------------------------------------------------


def test_spec_validates_parities():
    KoszulSpec(((3, 1, 1),), h=2, variant=KOSZUL)
    KoszulSpec(((2, 1, 1),), h=2, variant=DERHAM)
    with pytest.raises(ValueError):
        KoszulSpec(((2, 1, 1),), h=2, variant=KOSZUL)
    with pytest.raises(ValueError):
        KoszulSpec(((3, 1, 1),), h=2, variant=DERHAM)
    with pytest.raises(ValueError):
        KoszulSpec(((3, 1, 1),), h=2, variant="Cech")


def test_koszul_variant_differential():
    alg = build_koszul(KoszulSpec(((3, 1, 1),), h=2, variant=KOSZUL))
    # gamma_1 (x) 1 |-> h * gamma_0 (x) v
    assert alg.diff_monomial(((1,), ())) == {((0,), (0,)): 2}
    assert alg.diff_monomial(((0,), (0,))) == {}
    # gamma_2 (x) 1 |-> h * gamma_1 (x) v; the wedge with v twice dies.
    assert alg.diff_monomial(((2,), ())) == {((1,), (0,)): 2}
    assert alg.diff_monomial(((1,), (0,))) == {}


def test_derham_variant_differential():
    alg = build_koszul(KoszulSpec(((2, 1, 1),), h=3, variant=DERHAM))
    # gamma_e (x) dv |-> h * (e+1) * gamma_(e+1) (x) 1
    assert alg.diff_monomial(((0,), (0,))) == {((1,), ()): 3}
    assert alg.diff_monomial(((1,), (0,))) == {((2,), ()): 6}
    assert alg.diff_monomial(((2,), ())) == {}


@pytest.mark.parametrize(
    "spec",
    [
        KoszulSpec(((3, 1, 1), (5, 2, 1)), h=2, variant=KOSZUL),
        KoszulSpec(((2, 1, 1), (4, 2, 1)), h=3, variant=DERHAM),
    ],
    ids=["Koszul", "DeRham"],
)
def test_differential_squares_to_zero(spec):
    alg = build_koszul(spec)
    for w in range(5):
        check_boundary_squares_to_zero(alg, w)


@pytest.mark.parametrize(
    "spec",
    [
        KoszulSpec(((3, 1, 1), (5, 1, 1)), h=2, variant=KOSZUL),
        KoszulSpec(((2, 1, 1), (4, 1, 1)), h=3, variant=DERHAM),
    ],
    ids=["Koszul", "DeRham"],
)
def test_differential_satisfies_leibniz(spec):
    alg = build_koszul(spec)
    monos = []
    for w in range(3):
        for basis in alg.weight_slice(w).values():
            monos.extend(basis)
    for x in monos:
        for y in monos:
            lhs = alg.diff(alg.mul_monomials(x, y))
            sign = -1 if alg.bidegree(x).degree % 2 else 1
            rhs = alg.add(
                alg.mul(alg.diff_monomial(x), {y: 1}),
                alg.smul(sign, alg.mul({x: 1}, alg.diff_monomial(y))),
            )
            assert lhs == rhs, (x, y)


# ----------------------------------------------------------------------
# closed-form homology
# ----------------------------------------------------------------------


@pytest.mark.parametrize("h", [2, 3])
def test_closed_form_matches_direct_homology_odd_generator(h):
    alg = build_koszul(KoszulSpec(((3, 1, 1),), h=h, variant=KOSZUL))
    assert integral_homology_table(alg, 4) == koszul_homology_closed_form(3, h, 4)


@pytest.mark.parametrize("h", [2, 3])
def test_closed_form_matches_direct_homology_even_generator(h):
    alg = build_koszul(KoszulSpec(((2, 1, 1),), h=h, variant=DERHAM))
    assert integral_homology_table(alg, 4) == koszul_homology_closed_form(2, h, 4)


def test_closed_form_tables():
    assert koszul_homology_closed_form(3, 2, 3) == {
        (0, 0): Z,
        (3, 1): Zmod(2),
        (7, 2): Zmod(2),
        (11, 3): Zmod(2),
    }
    assert koszul_homology_closed_form(2, 2, 3) == {
        (0, 0): Z,
        (2, 1): Zmod(2),
        (4, 2): Zmod(4),
        (6, 3): Zmod(6),
    }


def test_closed_form_respects_generator_weight():
    assert koszul_homology_closed_form(3, 2, 6, weight=3) == {
        (0, 0): Z,
        (3, 3): Zmod(2),
        (7, 6): Zmod(2),
    }
    with pytest.raises(ValueError):
        koszul_homology_closed_form(3, 2, 6, weight=0)


def test_unit_parameter_gives_exact_complex():
    assert koszul_homology_closed_form(3, 1, 5) == {(0, 0): Z}


@pytest.mark.parametrize(
    "variant, degree, missed", [(KOSZUL, 3, [(4, 1), (8, 2)]), (DERHAM, 2, [(3, 1), (5, 2)])]
)
def test_closed_form_refuses_zero_parameter(variant, degree, missed):
    """At h = 0 the differential vanishes, so every basis element is a
    class, and direct homology has classes the closed form lacks."""
    direct = integral_homology_table(build_koszul(KoszulSpec(((degree, 1, 1),), 0, variant)), 2)
    assert all(direct[key] == Z for key in missed)
    with pytest.raises(ValueError, match="h != 0"):
        koszul_homology_closed_form(degree, 0, 2)


def test_koszul_kernels_dims():
    assert koszul_kernels_dims([(3, 1, 1)], 2, 3, 20) == {
        (0, 0): 1,
        (3, 1): 1,
        (7, 2): 1,
        (11, 3): 1,
    }


# ----------------------------------------------------------------------
# assembly of bar-homology predictions
# ----------------------------------------------------------------------


def test_build_X0_parity():
    lam = build_X0(3, m=2)
    assert lam.flavor == EXTERIOR
    assert lam.dims(1) == {3: 2}
    gamma = build_X0(4, m=1)
    assert gamma.flavor == DIVIDED
    assert gamma.dims(2) == {8: 1}


def test_build_X0_refuses_a_negative_height():
    with pytest.raises(ValueError, match="height must be >= 0"):
        build_X0(-1)
    assert build_X0(0).dims(1) == {0: 1}


def test_build_Xp_trivial_below_p():
    alg = build_Xp(3, 3, 2)
    assert alg.dims(0) == {0: 1}
    assert alg.dims(1) == {}
    assert alg.dims(2) == {}


@pytest.mark.parametrize("p", [4, 6])
def test_build_Xp_rejects_a_modulus_that_is_not_prime(p):
    with pytest.raises(ValueError, match=f"modulus {p} is not a prime"):
        build_Xp(p, 2, 5)


def test_xp_homology_table_smallest_case():
    assert xp_homology_table(2, 3, 2) == {(0, 0): Z, (5, 2): Zmod(2)}
    assert xp_homology_table(3, 3, 3) == {(0, 0): Z, (7, 3): Zmod(3)}


def test_xp_table_matches_direct_homology_of_Xp():
    for p, weight_max in [(2, 4), (3, 3)]:
        alg = build_Xp(p, 3, weight_max)
        assert integral_homology_table(alg, weight_max) == xp_homology_table(
            p, 3, weight_max
        )


@pytest.mark.parametrize("n,m,weight_max", [(1, 1, 3), (1, 2, 2), (2, 1, 2)])
def test_predicted_bar_homology_matches_direct(n, m, weight_max):
    from extbar import iterate_bar

    base = FreeAlgebra(DIVIDED, [(2, 1, m)], ZZ)
    direct = integral_homology_table(iterate_bar(base, n), weight_max)
    assert predicted_bar_homology(n, m, weight_max) == direct


def test_predicted_single_bar_weight3():
    assert predicted_bar_homology(1, 1, 3) == {
        (0, 0): Z,
        (3, 1): Z,
        (5, 2): Zmod(2),
        (7, 3): Zmod(3),
        (8, 3): Zmod(2),
    }


@pytest.mark.parametrize("n", [-1, -3])
def test_predicted_bar_homology_rejects_a_negative_bar_count(n):
    with pytest.raises(ValueError, match="bar iteration count must be >= 0"):
        predicted_bar_homology(n, 1, 3)
