"""Tests for integer/mod-p homology: Smith normal form, abelian group
arithmetic, weight-slice homology, and the table combinators (Kunneth,
unitalization, universal coefficients)."""

import doctest
import itertools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import extbar.homology
from extbar import (
    DIVIDED,
    EXTERIOR,
    AbelianGroup,
    FreeAlgebra,
    KoszulSpec,
    ZZ,
    bar,
    build_koszul,
    dimensions_mod_p_from_integral,
    homology_over_Fp,
    homology_over_Z,
    homology_table,
    kunneth,
    kunneth_fold,
    p_primary_unitalize,
    regrade,
    smith_normal_form,
    tensor_signed,
)
from extbar.algebra import KEY_BITS
from extbar.extract import bar_source_algebra
from extbar.homology import (
    _eliminate,
    _pivot_rows_mod_p,
    _reduce_slice,
    boundary_matrix,
    check_boundary_squares_to_zero,
    rank_of_columns_mod_p,
    smith_normal_form_of_columns,
)
from extbar.modp import MAX_PRIME
from test_modp import check_pivot_rows, reference_rref

GAMMA = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
BAR1 = bar(GAMMA)

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


def euclid_snf(matrix):
    """Reference Smith normal form: dense Euclid-style gcd pivoting, the
    routine the package used before its sparse elimination.  Picks the
    smallest nonzero entry, clears its row and column by division with
    remainder (swapping in any smaller remainder), then absorbs any entry the
    pivot fails to divide."""
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q, r = divmod(a[i][t], a[t][t])
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if r:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q, r = divmod(a[t][j], a[t][t])
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if r:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            for j in range(t, n):
                a[t][j] += a[stray][j]
            continue
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors), len(factors)


_WITH_UNITS = tuple(range(-6, 7))
_WITHOUT_UNITS = tuple(v for v in _WITH_UNITS if abs(v) != 1)


@st.composite
def sparse_matrices(draw):
    """(n_columns, rows) of a sparse m x n integer matrix, m <= 8, n <= 10,
    entries in [-6, 6], sometimes without any +-1 entry and sometimes with a
    last row that is the sum of the first two (rank-deficient)."""
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 10))
    values = draw(st.sampled_from([_WITH_UNITS, _WITHOUT_UNITS]))
    zeros = draw(st.integers(0, 4))
    entry = st.one_of([st.just(0)] * zeros + [st.sampled_from(values)])
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return n, rows


def _columns_of(n, rows):
    columns = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                columns[j][i] = v
    return columns


@given(sparse_matrices())
@example((4, []))  # 0 x 4
@example((0, [[], [], []]))  # 3 x 0
@example((4, [[0] * 4] * 3))  # all zero
@example((3, [[2, 4, 6], [1, 2, 3], [3, 6, 9]]))  # rank 1
@example((3, [[2, 0, 4], [0, 6, 0], [4, 0, 2]]))  # no unit entry
@example((2, [[2, 0], [0, 3]]))  # diagonal that is not yet normal
# a pivot taken as the smallest of the last pivot's row meets a smaller
# entry of the same sign in its own column (a zero floor quotient)
@example((3, [[0, -3, -2], [-2, -6, -5], [3, 0, 2]]))
def test_sparse_snf_matches_euclid_reference(case):
    n, rows = case
    columns = _columns_of(n, rows)
    before = [dict(c) for c in columns]
    expected = euclid_snf(rows)
    assert smith_normal_form_of_columns(columns) == expected
    assert columns == before
    assert smith_normal_form(rows) == expected


# Each example names the path of the unit-pivot phase it takes first.
ENGINE_EXAMPLES = {
    # pivot (0, 0) turns the 2 at (1, 1) into a new unit -1
    "update creates a unit": [[1, 3], [1, 2]],
    # every entry costs 1; pivot (0, 1) fills the zero at (2, 2), which only
    # the unit phase may take (mod 5 it ends up alone as 3)
    "update fills a zero": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    # pivot (0, 0) cancels the 2 at (1, 1), and dropping row 0 empties columns
    # 0 and 1; the 3 left over goes to the smallest-entry phase
    "update cancels an entry and empties columns": [[1, 2, 0], [1, 2, 3]],
    # pivot (0, 0) cancels all of row 1
    "update empties a row": [[1, 2], [1, 2]],
    # a unit pivot turns the rest into the non-unit -2
    "all units, non-unit Schur complement": [[1, 1], [1, -1]],
    "all units, Hadamard": [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
    "all units, rank 1": [[1, -1, 1], [-1, 1, -1], [1, -1, 1]],
    "units beside non-units": [[2, 1, 0, 4], [0, 3, 1, 0], [6, 0, 2, -1], [1, 0, 0, 2]],
}


@pytest.mark.parametrize("rows", ENGINE_EXAMPLES.values(), ids=ENGINE_EXAMPLES.keys())
def test_elimination_examples_match_references(rows):
    n = len(rows[0])
    columns = _columns_of(n, rows)
    before = [dict(c) for c in columns]
    assert smith_normal_form_of_columns(columns) == euclid_snf(rows)
    for p in (2, 3, 5, MAX_PRIME):
        rank = len(reference_rref(rows, n, p)[1])
        assert rank_of_columns_mod_p(columns, p) == rank
        check_pivot_rows(rows, n, p)
    assert columns == before


def test_elimination_reports_its_largest_entry():
    # the unit pivot at (0, 0) leaves -10 at (1, 1): 4 bits
    columns = _columns_of(2, [[1, 5], [1, -5]])
    assert _eliminate(columns)[:2] == ([1, 10], 4)


def test_elimination_reports_only_unit_pivot_rows():
    columns = _columns_of(2, [[1, 5], [1, -5]])
    # the -10 left at (1, 1) is a smallest-entry pivot, so only row 0
    assert _eliminate(columns)[2] == [0]
    # over F_7 both rows are pivot rows: row 1 of column 0, then row 0 of
    # column 1 less twice column 0
    assert _pivot_rows_mod_p(columns, 7) == [1, 0]
    # the 1 that the smallest-entry phase makes from 2 and 3 is no unit pivot
    assert _eliminate([{0: 2, 1: 3}]) == ([1], 2, [])


@st.composite
def unit_heavy_matrices(draw):
    """(n_columns, rows) of an m x n integer matrix, m, n <= 9, whose entries
    are mostly +-1 beside some zeros and some entries up to 5 in absolute
    value, so that unit pivots and the smallest-entry phase both run."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    entry = st.sampled_from([1, -1, 1, -1, 0, 0, 0, 2, -2, 3, -4, 5])
    return n, [[draw(entry) for _ in range(n)] for _ in range(m)]


@given(unit_heavy_matrices())
def test_mixed_unit_matrices_match_euclid_reference(case):
    n, rows = case
    columns = _columns_of(n, rows)
    diagonal = _eliminate(columns)[0]
    factors, rank = euclid_snf(rows)
    assert smith_normal_form_of_columns(columns) == (factors, rank)
    # the gcd/lcm pass keeps the product of the diagonal
    assert len(diagonal) == rank and math.prod(diagonal) == math.prod(factors)
    for p in (2, 3):
        assert rank_of_columns_mod_p(columns, p) == len(reference_rref(rows, n, p)[1])
    # odd primes that divide some entries (3, 5) and some that divide none
    before = [dict(c) for c in columns]
    for p in (3, 5, 7, MAX_PRIME):
        check_pivot_rows(rows, n, p)
        _pivot_rows_mod_p(columns, p)
        assert columns == before


@pytest.mark.parametrize("n, weight_max", [(1, 10), (2, 9)])
def test_integral_elimination_keeps_entries_within_64_bits(n, weight_max, monkeypatch):
    """No entry of the cleared integral elimination that homology_over_Z
    runs on the n-fold bar construction grows past 64 bits (20 and 9 bits
    today)."""
    bits = []

    def recording(columns):
        out = _eliminate(columns)
        bits.append(out[1])
        return out

    monkeypatch.setattr(extbar.homology, "_eliminate", recording)
    algebra = bar_source_algebra(n, 1)
    for d in range(weight_max + 1):
        homology_over_Z(algebra, d)
    assert 0 < max(bits) <= 64


@pytest.mark.parametrize(
    "n, m, weight_max", [(1, 1, 8), (1, 2, 6), (2, 1, 7), (2, 2, 5), (3, 1, 6), (3, 2, 4)]
)
def test_cleared_reduction_matches_each_degree_alone(n, m, weight_max, full_columns):
    """Clearing keeps the rank and invariant factors of every boundary
    matrix of the bar slices, over Z and F_p."""
    algebra = bar_source_algebra(n, m)
    for d in range(weight_max + 1):
        columns = full_columns(algebra, d)
        integral = _reduce_slice(columns, 0)
        assert integral.keys() == columns.keys()
        for i, cols in columns.items():
            factors, rank = smith_normal_form_of_columns(cols)
            assert _group(integral[i]) == (AbelianGroup.from_invariant_factors(factors), rank)
        for p in (2, 3, 5, MAX_PRIME):
            cleared = _reduce_slice(columns, p)
            for i, cols in columns.items():
                assert cleared[i] == [1] * rank_of_columns_mod_p(cols, p)


def _dense_boundaries(algebra, weight):
    """``(i, rows, n)``: the boundary out of degree ``i`` of a weight slice
    as a dense ``rows`` matrix with ``n`` columns, for every degree."""
    slice_ = algebra.weight_slice(weight)
    for i, cols in algebra.slice_columns(weight)[0].items():
        n_rows = len(slice_.get(i - 1, ()))
        yield i, [[c.get(r, 0) for c in cols] for r in range(n_rows)], len(cols)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n, weight_max", [(1, 8), (2, 6), (3, 5)])
def test_pivot_rows_of_bar_slices_give_full_rank_blocks(n, weight_max, p):
    """The column reduction of every boundary matrix of the bar slices finds
    the reference rank mod p and pivot rows of a full rank block."""
    algebra = bar_source_algebra(n, 1)
    for d in range(weight_max + 1):
        for _, rows, n_cols in _dense_boundaries(algebra, d):
            check_pivot_rows(rows, n_cols, p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n, weight_max", [(1, 8), (2, 6), (3, 5)])
def test_mod_p_homology_matches_reference_ranks(n, weight_max, p):
    """homology_over_Fp, which clears slice by slice and block by block,
    agrees with rank-nullity on each boundary matrix ranked by the dense
    reference elimination."""
    algebra = bar_source_algebra(n, 1)
    for d in range(weight_max + 1):
        basis = algebra.weight_slice(d)
        ranks = {
            i: len(reference_rref(rows, k, p)[1]) for i, rows, k in _dense_boundaries(algebra, d)
        }
        expected = {i: len(basis[i]) - ranks[i] - ranks.get(i + 1, 0) for i in basis}
        assert homology_over_Fp(algebra, d, p) == {i: k for i, k in expected.items() if k}


def _group(diagonal):
    """The cokernel's torsion and the rank of a matrix that reduces to the
    given diagonal; equal pairs mean equal invariant factors."""
    return AbelianGroup.from_invariant_factors(diagonal), len(diagonal)


def _factors(diagonals):
    return {i: _group(d) for i, d in diagonals.items()}


def _multiweight(word, n):
    """The exponent of each generator in a word of the n-fold bar
    construction on divided powers, summed over its letters."""
    if n == 0:
        return word
    return tuple(map(sum, zip(*(_multiweight(letter, n - 1) for letter in word))))


@pytest.mark.parametrize(
    "n, m, weight_max",
    [(0, 2, 7), (1, 2, 7), (2, 2, 5), (3, 2, 4), (0, 3, 5), (1, 3, 5), (2, 3, 4), (1, 4, 4)],
)
def test_blocks_of_one_orbit_reduce_alike(n, m, weight_max, full_columns):
    """Every block of a slice, reduced on its own, has the block sizes and
    the invariant factors in each degree of every other block of its orbit
    under permutations of the generators, over Z, F_2 and F_3.  The blocks
    that ``_reduce_slice`` keeps, one per orbit counted by orbit size, give
    the invariant factors of the whole slice."""
    algebra = bar_source_algebra(n, m)
    mask = (1 << KEY_BITS) - 1
    sizes = set()
    for weight in range(1, weight_max + 1):
        columns = full_columns(algebra, weight)
        words = algebra.weight_slice(weight)
        keys = algebra.block_keys(weight)
        assert keys.keys() == columns.keys()
        # orbits[sorted exponents][exponents] = {degree: column indices}
        orbits = {}
        for i, ks in keys.items():
            assert len(ks) == len(columns[i])
            for j, k in enumerate(ks):
                exponents = tuple(k >> (KEY_BITS * g) & mask for g in range(m))
                assert exponents == _multiweight(words[i][j], n)
                top = tuple(sorted(exponents, reverse=True))
                orbits.setdefault(top, {}).setdefault(exponents, {}).setdefault(i, []).append(j)
        for top, orbit in orbits.items():
            key = sum(e << (KEY_BITS * g) for g, e in enumerate(top))
            assert algebra.block_multiplicity(key) == len(orbit)
            sizes.add(len(orbit))
            shapes = [{i: len(js) for i, js in block.items()} for block in orbit.values()]
            assert all(shape == shapes[0] for shape in shapes)
        for p in (0, 2, 3):
            whole = _factors(_reduce_slice(columns, p))
            kept = {i: [] for i in columns}
            for top, orbit in orbits.items():
                reduced = [_factors(_reduce_slice(columns, p, [(block, 1)])) for block in orbit.values()]
                assert all(r == reduced[0] for r in reduced)
                for i, d in _reduce_slice(columns, p, [(orbit[top], len(orbit))]).items():
                    kept[i].extend(d)
            assert _factors(kept) == whole
            held, blocks = algebra.slice_columns(weight)
            assert len(blocks) == len(orbits)
            assert _factors(_reduce_slice(columns, p, blocks)) == whole
            assert _factors(_reduce_slice(held, p, blocks)) == whole
    assert sizes == {2: {1, 2}, 3: {1, 3, 6}, 4: {1, 4, 6, 12}}[m]


@pytest.mark.parametrize(
    "generators, flavor, symmetric, weight_max",
    [
        ([(2, 1, 1), (4, 1, 1)], DIVIDED, False, 6),
        ([(2, 1, 1), (2, 2, 1)], DIVIDED, False, 6),
        ([(1, 1, 3)], EXTERIOR, True, 5),
    ],
    ids=["two-degrees", "two-weights", "exterior"],
)
def test_blocks_of_a_bar_construction_give_the_whole_slice(
    generators, flavor, symmetric, weight_max, full_columns
):
    """Blocks are reduced one per orbit only when the generators share
    degree and weight, and every block otherwise; either way the invariant
    factors are those of the whole slice.  Over Lambda a key is the
    indicator of the generators a letter holds."""
    algebra = bar(FreeAlgebra(flavor, generators, ZZ))
    for weight in range(2, weight_max + 1):
        homology_over_Z(algebra, weight)  # checks that no entry crosses a block
        columns = full_columns(algebra, weight)
        held, blocks = algebra.slice_columns(weight)
        keys = set(itertools.chain(*algebra.block_keys(weight).values()))
        assert len(keys) > 1
        assert (len(blocks) < len(keys)) == symmetric
        assert sum(multiplicity for _, multiplicity in blocks) == len(keys)
        for p in (0, 2, 3):
            whole = _factors(_reduce_slice(columns, p))
            assert _factors(_reduce_slice(columns, p, blocks)) == whole
            assert _factors(_reduce_slice(held, p, blocks)) == whole


def test_only_free_algebras_on_several_generators_and_their_bars_have_blocks():
    """A free algebra keys each monomial by its packed multi-weight (over
    Lambda the indicator of its indices) below weight ``2**KEY_BITS``, and
    its bar constructions sum their letters' keys; regraded, Koszul and
    one-generator algebras have no keys."""
    free2 = FreeAlgebra(DIVIDED, [(2, 1, 2)], ZZ)
    lambda3 = FreeAlgebra(EXTERIOR, [(1, 1, 3)], ZZ)
    x, y, z = (1 << KEY_BITS * g for g in range(3))
    assert free2.block_keys(3) == {6: [3 * y, x + 2 * y, 2 * x + y, 3 * x]}
    assert lambda3.block_keys(2) == {2: [x + y, x + z, y + z]}
    assert free2.block_keys(1 << KEY_BITS) is None
    for algebra in [free2, lambda3, bar(free2), bar_source_algebra(0, 2), bar_source_algebra(2, 2)]:
        assert algebra.block_keys(3) is not None
        assert algebra.slice_columns(3)[1] is not None
    for algebra in [
        bar_source_algebra(0, 1),
        bar_source_algebra(2, 1),
        bar(regrade(free2, 2)),
        build_koszul(KoszulSpec(((1, 1, 2),), h=2, variant="Koszul")),
        bar(build_koszul(KoszulSpec(((1, 1, 2),), h=2, variant="Koszul"))),
    ]:
        assert algebra.block_keys(0) is None
        assert algebra.block_keys(3) is None
        assert algebra.slice_columns(3)[1] is None


def test_clearing_ignores_smallest_entry_pivot_rows():
    """D_2 = the column (2, 3) and D_1 = the row (3, -2) make an exact
    complex.  The 1 that D_2 reduces to is a smallest-entry pivot in row 1,
    and dropping either column of D_1 would leave torsion."""
    columns = {2: [{0: 2, 1: 3}], 1: [{0: 3}, {0: -2}], 0: [{}]}
    assert _reduce_slice(columns, 0) == {2: [1], 1: [1], 0: []}
    assert smith_normal_form_of_columns([{0: -2}]) == ((2,), 1)
    assert smith_normal_form_of_columns([{0: 3}]) == ((3,), 1)


def _prime_powers(d):
    out = []
    q = 2
    while d > 1:
        power = 1
        while d % q == 0:
            d //= q
            power *= q
        if power > 1:
            out.append(power)
        q += 1
    return out


@st.composite
def conjugated_complexes(draw):
    """A chain complex ``{degree: columns}`` with known homology: a direct
    sum of blocks Z --d--> Z (d in 0, 1, 2, 3, 4, 6) and free summands Z,
    in the basis given by unimodular changes of basis in every degree.
    Returns the columns, the elementary blocks ``(degree, d)`` and the
    degrees of the free summands."""
    top = draw(st.integers(1, 4))
    blocks = draw(
        st.lists(st.tuples(st.integers(1, top), st.sampled_from([0, 1, 2, 3, 4, 6])), max_size=7)
    )
    free = draw(st.lists(st.integers(0, top), max_size=3))
    dims = [0] * (top + 1)
    entries = []
    for i, d in blocks:
        entries.append((i, dims[i - 1], dims[i], d))
        dims[i] += 1
        dims[i - 1] += 1
    for i in free:
        dims[i] += 1
    # dense[i] is D_i as rows, dims[i - 1] x dims[i]
    dense = {i: [[0] * dims[i] for _ in range(dims[i - 1] if i else 0)] for i in range(top + 1)}
    for i, r, c, d in entries:
        dense[i][r][c] = d
    for i in range(top + 1):
        if dims[i] < 2:
            continue
        index = st.integers(0, dims[i] - 1)
        step = st.tuples(index, index, st.sampled_from([-2, -1, 1, 2]))
        for a, b, k in draw(st.lists(step, max_size=12)):
            if a == b:
                continue
            # change of basis T = 1 + k E_ab of C_i: D_i T and T^-1 D_{i+1}
            for row in dense[i]:
                row[b] += k * row[a]
            if i < top:
                above = dense[i + 1]
                above[a] = [x - k * y for x, y in zip(above[a], above[b])]
    columns = {i: _columns_of(dims[i], rows) for i, rows in dense.items()}
    for i in range(1, top + 1):
        for column in columns[i]:
            image = {}
            for r, v in column.items():
                for s, e in columns[i - 1][r].items():
                    image[s] = image.get(s, 0) + v * e
            assert not any(image.values())
    return columns, blocks, free


@given(conjugated_complexes())
def test_cleared_reduction_finds_the_homology_of_conjugated_blocks(case):
    columns, blocks, free = case
    top = max(columns)
    integral = _reduce_slice(columns, 0)
    for i in range(top + 1):
        expected_free = free.count(i) + sum(
            1 for j, d in blocks if d == 0 and i in (j, j - 1)
        )
        expected_torsion = sorted(
            q for j, d in blocks if j == i + 1 and d > 1 for q in _prime_powers(d)
        )
        below = integral.get(i + 1, [])
        assert len(columns[i]) - len(integral[i]) - len(below) == expected_free
        assert sorted(q for d in below for q in _prime_powers(d)) == expected_torsion
    for p in (2, 3):
        cleared = _reduce_slice(columns, p)
        for i in range(top + 1):
            expected = free.count(i) + sum(
                1 for j, d in blocks if d % p == 0 and i in (j, j - 1)
            )
            dim = len(columns[i]) - len(cleared[i]) - len(cleared.get(i + 1, []))
            assert dim == expected


def test_snf_rejects_ragged_rows():
    with pytest.raises(ValueError, match="equal length"):
        smith_normal_form([[1, 2], [3]])


def test_homology_module_doctests_pass():
    failed, attempted = doctest.testmod(extbar.homology)
    assert attempted >= 2
    assert failed == 0


# ----------------------------------------------------------------------
# abelian groups
# ----------------------------------------------------------------------


def test_group_construction_and_normalization():
    assert Zmod(12).primary == ((2, (2,)), (3, (1,)))
    assert Zmod(12) == AbelianGroup.from_invariant_factors([12])
    assert Zmod(0) == Z
    assert Zmod(1) == AbelianGroup.zero()
    assert AbelianGroup.from_invariant_factors([2, 4]).primary == ((2, (2, 1)),)


def test_invariant_factor_zero_counts_as_free_rank():
    g = AbelianGroup.from_invariant_factors([0, 2, 0, 6], free_rank=1)
    assert g == AbelianGroup.sum_of([AbelianGroup.free(3), Zmod(2), Zmod(6)])
    assert AbelianGroup.from_invariant_factors([0]) == Z


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


def test_homology_table_collects_weights():
    assert homology_table(BAR1, 2) == {(0, 0): Z, (3, 1): Z, (5, 2): Zmod(2)}
    assert homology_table(BAR1, 2, 2) == {(0, 0): 1, (3, 1): 1, (5, 2): 1, (6, 2): 1}
    assert homology_table(BAR1, 2, 3) == {(0, 0): 1, (3, 1): 1}


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
    table = homology_table(BAR1, 4)
    derived = dimensions_mod_p_from_integral(table, p)
    direct = {}
    for d in range(5):
        for i, n in homology_over_Fp(BAR1, d, p).items():
            direct[(i, d)] = n
    assert derived == direct


@pytest.mark.parametrize(
    "p, expected",
    [
        (2, {(0, 0): 1, (3, 1): 1, (5, 2): 1, (6, 2): 1, (8, 3): 1, (9, 3): 1}),
        # -2[g2] is a boundary and 3 does not divide 2, so weight 2 dies
        (3, {(0, 0): 1, (3, 1): 1, (7, 3): 1, (8, 3): 1}),
        (5, {(0, 0): 1, (3, 1): 1}),
    ],
)
def test_mod_p_homology_through_weight_3(p, expected):
    got = {(i, d): k for d in range(4) for i, k in homology_over_Fp(BAR1, d, p).items()}
    assert got == expected


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n, weight_max", [(1, 10), (2, 8), (3, 7)])
def test_iterated_bar_homology_follows_universal_coefficients(n, weight_max, p):
    """The mod-p dimensions of the n-fold bar construction on divided powers
    agree with those derived from its integral homology."""
    algebra = bar_source_algebra(n, 1)
    derived = dimensions_mod_p_from_integral(homology_table(algebra, weight_max), p)
    direct = {
        (i, d): k
        for d in range(weight_max + 1)
        for i, k in homology_over_Fp(algebra, d, p).items()
    }
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
    table = homology_table(BAR1, 2)
    predicted = kunneth(table, table, 2)
    direct = homology_table(tensor_signed(BAR1, BAR1), 2)
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
