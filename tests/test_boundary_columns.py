"""Tests for the compiled boundary columns of a weight slice: equivalence with
a column-by-column evaluation of the differential, the bar construction's
letter caches and memoized shuffle against the uncached formulas, the safety
of the compiled-column cache, the d^2 = 0 check failing on differentials
that do not square to zero or that leave their multi-weight block, and that
check running once per compiled slice, on the slices homology reads only."""

import copy
import itertools
import re

import pytest
from click.testing import CliRunner

from extbar import (
    DIVIDED,
    FreeAlgebra,
    GF,
    InternalAssertionError,
    KoszulSpec,
    ZZ,
    bar,
    bar_source_algebra,
    build_koszul,
    homology_over_Fp,
    homology_over_Z,
    iterate_bar,
    regrade,
    tensor_signed,
    weight_twist,
)
from extbar.bar import KEY_BITS, BarAlgebra
from extbar.cli import main
from extbar.homology import (
    boundary_columns,
    boundary_matrix,
    check_boundary_squares_to_zero,
)
from extbar.koszul import DERHAM, KOSZUL

GAMMA = FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ)
BAR1 = bar(GAMMA)
G1, G2 = (1,), (2,)


# ----------------------------------------------------------------------
# references: the differential evaluated straight from its definition
# ----------------------------------------------------------------------


def reference_matrix(algebra, weight, degree):
    """Dense boundary matrix, one ``diff_monomial`` call per column."""
    slice_ = algebra.weight_slice(weight)
    dom = slice_.get(degree, ())
    index = {m: r for r, m in enumerate(slice_.get(degree - 1, ()))}
    rows = [[0] * len(dom) for _ in index]
    for col, mono in enumerate(dom):
        for m, c in algebra.diff_monomial(mono).items():
            rows[index[m]][col] = c
    return rows


def reference_bar_diff(algebra, word):
    """The bar differential computed from the base with no caching."""
    base = algebra.base
    prefix = [0]
    for a in word:
        prefix.append(prefix[-1] + 1 + base.bidegree(a).degree)
    out = {}
    for i in range(1, len(word)):
        sign = -1 if prefix[i] % 2 else 1
        for m, c in base.mul_monomials(word[i - 1], word[i]).items():
            algebra.add_into(out, {word[: i - 1] + (m,) + word[i + 1 :]: sign * c})
    for i in range(1, len(word) + 1):
        sign = 1 if prefix[i - 1] % 2 else -1
        for m, c in base.diff_monomial(word[i - 1]).items():
            algebra.add_into(out, {word[: i - 1] + (m,) + word[i:]: sign * c})
    return out


def reference_shuffle(algebra, x, y):
    """The signed shuffle product computed from the base with no caching."""
    base = algebra.base
    sx = [base.bidegree(a).degree + 1 for a in x]
    sy = [base.bidegree(b).degree + 1 for b in y]
    out = {}
    for xpos in itertools.combinations(range(len(x) + len(y)), len(x)):
        ypos = [k for k in range(len(x) + len(y)) if k not in xpos]
        sign_exp = sum(
            sx[i] * sy[j] for i, pa in enumerate(xpos) for j, pb in enumerate(ypos) if pb < pa
        )
        word = [None] * (len(x) + len(y))
        for i, pa in enumerate(xpos):
            word[pa] = x[i]
        for j, pb in enumerate(ypos):
            word[pb] = y[j]
        algebra.add_into(out, {tuple(word): -1 if sign_exp % 2 else 1})
    return out


def _koszul(variant):
    if variant == KOSZUL:
        return build_koszul(KoszulSpec(((3, 1, 1), (5, 2, 1)), h=2, variant=KOSZUL))
    return build_koszul(KoszulSpec(((2, 1, 1), (4, 2, 1)), h=3, variant=DERHAM))


#: (id, algebra factory, largest weight checked)
CASES = [
    *[
        (f"bar^{n} m={m}", lambda n=n, m=m: bar_source_algebra(n, m), w)
        for (n, m), w in {
            (1, 1): 9, (1, 2): 4, (1, 3): 4, (2, 1): 7, (2, 2): 3, (3, 1): 4, (3, 2): 3
        }.items()
    ],
    ("bar^2 over F3", lambda: iterate_bar(FreeAlgebra(DIVIDED, [(2, 1, 1)], GF(3)), 2), 6),
    ("Koszul", lambda: _koszul(KOSZUL), 4),
    ("DeRham", lambda: _koszul(DERHAM), 4),
    ("bar(Koszul)", lambda: bar(_koszul(KOSZUL)), 4),
    ("bar(DeRham)", lambda: bar(_koszul(DERHAM)), 4),
    ("tensor eps=1", lambda: tensor_signed(BAR1, bar(BAR1), eps=1), 4),
    ("regraded", lambda: regrade(bar(BAR1), 1), 4),
    ("weight-twisted", lambda: weight_twist(bar(BAR1)), 4),
    ("bar(weight-twisted)", lambda: bar(weight_twist(BAR1)), 4),
]


@pytest.mark.parametrize("factory, weight_max", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_compiled_columns_match_reference(factory, weight_max, full_columns):
    algebra = factory()
    for w in range(weight_max + 1):
        slice_ = algebra.weight_slice(w)
        handed_out = algebra.slice_columns(w)
        compiled = full_columns(algebra, w)
        assert sorted(compiled) == sorted(slice_)
        assert handed_out.keys() == compiled.keys()
        for i in sorted(slice_) + [max(slice_, default=0) + 1]:
            ref = reference_matrix(algebra, w, i)
            assert boundary_matrix(algebra, w, i) == ref
            ref_columns = [
                {r: row[j] for r, row in enumerate(ref) if row[j]}
                for j in range(len(slice_.get(i, ())))
            ]
            assert boundary_columns(algebra, w, i) == ref_columns
            if i in slice_:
                assert compiled[i] == ref_columns
                assert len(handed_out[i]) == len(ref_columns)
                assert all(c is None or c == r for c, r in zip(handed_out[i], ref_columns))
        check_boundary_squares_to_zero(algebra, w)


BAR_CASES = [c for c in CASES if c[0].startswith("bar")]

#: Largest weight of the words whose pairwise shuffles are checked, by case;
#: 2 if absent.  The odd letters of bar(Koszul) and bar(DeRham) make shuffle
#: terms cancel, and the memoized shuffle must drop them.
SHUFFLE_WEIGHT = {"bar(Koszul)": 4, "bar(DeRham)": 4}


@pytest.mark.parametrize("name, factory, weight_max", BAR_CASES, ids=[c[0] for c in BAR_CASES])
def test_cached_bar_operations_match_uncached_formulas(name, factory, weight_max):
    algebra = factory()
    words = [m for w in range(weight_max + 1) for b in algebra.weight_slice(w).values() for m in b]
    for word in words:
        assert algebra.diff_monomial(word) == reference_bar_diff(algebra, word)
    top = SHUFFLE_WEIGHT.get(name, 2)
    small = [m for w in range(top + 1) for b in algebra.weight_slice(w).values() for m in b]
    for x in small:
        for y in small:
            assert algebra.mul_monomials(x, y) == reference_shuffle(algebra, x, y)


def test_returned_elements_do_not_share_cached_state():
    outer = bar(bar(GAMMA))
    inner = outer.base
    x, y = (G1, G1), (G2,)
    calls = [
        lambda: outer.diff_monomial(((G1,), (G1, G1), (G1,))),
        lambda: outer.mul_monomials((x,), (y,)),
        lambda: inner.diff_monomial(x),
        lambda: inner.mul_monomials(x, y),
    ]
    expected = [dict(call()) for call in calls]
    assert all(expected)
    for call in calls:
        got = call()
        got.clear()
        got[("junk",)] = 7
    assert [call() for call in calls] == expected


# ----------------------------------------------------------------------
# the compiled-column cache of the bar construction
# ----------------------------------------------------------------------


def test_compiled_columns_are_cached_and_survive_homology_runs():
    algebra = bar_source_algebra(2, 1)
    weight_max = 5
    weights = range(weight_max + 1)
    for w in weights:
        assert algebra.slice_columns(w) is algebra.slice_columns(w)
    before = copy.deepcopy({w: algebra.slice_columns(w) for w in weights})

    def run():
        out = [homology_over_Z(algebra, w) for w in weights]
        out += [homology_over_Fp(algebra, w, p) for p in (2, 3) for w in weights]
        return out

    first = run()
    assert run() == first
    assert {w: algebra.slice_columns(w) for w in weights} == before


@pytest.mark.parametrize(
    "make, nonzero",
    [
        *[(lambda n=n, m=m: bar_source_algebra(n, m), True) for n in (2, 3) for m in (1, 2)],
        (lambda: bar(FreeAlgebra(DIVIDED, [(2, 1, 2)], ZZ)), False),
        (lambda: bar(build_koszul(KoszulSpec(((1, 1, 2),), h=2, variant=KOSZUL))), True),
    ],
    ids=[f"{n}-{m}" for n in (2, 3) for m in (1, 2)] + ["free", "koszul"],
)
def test_letter_differentials_are_read_from_the_compiled_columns(make, nonzero, monkeypatch):
    """Over every base the letters' differentials are its compiled columns:
    once those are built, no letter's ``diff_monomial`` is evaluated."""
    algebra = make()
    base = algebra.base
    letters = [a for w in range(1, 6) for b in base.weight_slice(w).values() for a in b]
    for w in range(1, 6):
        base._compiled(w)

    def evaluated(letter):
        raise AssertionError(f"diff_monomial({letter}) evaluated")

    with monkeypatch.context() as patch:
        patch.setattr(base, "diff_monomial", evaluated)
        read = {a: dict(algebra._diff_of(a)) for a in letters}
    assert read == {a: base.diff_monomial(a) for a in letters}
    assert any(read.values()) == nonzero


def _homology(algebra, weight):
    """Integral, mod-2 and mod-3 homology of a weight slice."""
    return (
        homology_over_Z(algebra, weight),
        homology_over_Fp(algebra, weight, 2),
        homology_over_Fp(algebra, weight, 3),
    )


def _orbit_of(key, m):
    """The exponents of a block key over m generators, sorted: the same
    for every block of one orbit under permutations of the generators."""
    mask = (1 << KEY_BITS) - 1
    return tuple(sorted(key >> (KEY_BITS * g) & mask for g in range(m)))


@pytest.mark.parametrize(
    "n, m, weight_max", [(1, 2, 7), (2, 2, 5), (3, 2, 4), (1, 3, 5), (2, 3, 4)]
)
def test_orbit_columns_give_the_homology_of_a_cold_full_compile(n, m, weight_max, square_checks):
    """Over symmetric generators homology compiles and checks the columns of
    one block per orbit; a heavier slice compiles the rest of a lighter one
    and keeps the column objects already built."""
    weights = range(weight_max + 1)
    algebra = bar_source_algebra(n, m)
    got = [_homology(algebra, w) for w in weights]
    assert square_checks == list(weights)
    orbit = {w: algebra.slice_columns(w) for w in weights}
    for w in weights[1:]:
        assert any(c is None for cols in orbit[w].values() for c in cols)
        assert any(c is not None for cols in orbit[w].values() for c in cols)
    for w in weights:
        # the columns held are those of the blocks, one block per orbit
        columns, blocks = algebra._checked_slice(w)
        held = {(i, j) for i, cols in columns.items() for j, c in enumerate(cols) if c is not None}
        indexed = [(i, j) for block, _ in blocks for i, js in block.items() for j in js]
        assert len(indexed) == len(set(indexed)) and set(indexed) == held
        keys = algebra.block_keys(w)
        block_orbits = []
        for block, _ in blocks:
            (key,) = {keys[i][j] for i, js in block.items() for j in js}
            block_orbits.append(_orbit_of(key, m))
        assert sorted(block_orbits) == sorted({_orbit_of(k, m) for ks in keys.values() for k in ks})
        assert sum(multiplicity for _, multiplicity in blocks) == len(set().union(*keys.values()))
    for w in weights[:-1]:
        full = algebra._compiled(w)
        assert full.keys() == orbit[w].keys()
        for i, cols in orbit[w].items():
            assert None not in full[i] and len(full[i]) == len(cols)
            assert all(c is None or c is f for c, f in zip(cols, full[i]))
    assert weight_max not in algebra._column_cache
    assert [_homology(algebra, w) for w in weights] == got
    assert square_checks == list(weights)

    square_checks.clear()
    cold = iterate_bar(FreeAlgebra(DIVIDED, [(2, 1, m)], ZZ), n)
    cold.block_keys = lambda weight: None  # one block: every column compiled and checked
    assert [_homology(cold, w) for w in weights] == got
    assert square_checks == list(weights)
    assert all(None not in cols for w in weights for cols in cold.slice_columns(w).values())

    # the top weight, compiled for its blocks only: a column is built exactly
    # where its block is reduced, and then equals the cold one entry for entry
    top, cold_top = orbit[weight_max], cold.slice_columns(weight_max)
    keys = algebra.block_keys(weight_max)
    assert top.keys() == cold_top.keys()
    for i, cols in top.items():
        assert len(cols) == len(cold_top[i]) == len(keys[i])
        for c, full, key in zip(cols, cold_top[i], keys[i]):
            assert (c is None) == (algebra.block_multiplicity(key) == 0)
            assert c is None or c == full
    # sub-runs [a | r_1 ...] none of whose columns are built, skipped whole
    runs = algebra._layout(weight_max)[0]
    skipped = 0
    for i, by_letter in runs.items():
        for a, (start, _) in by_letter.items():
            b = algebra.bidegree((a,))
            lower = algebra._layout(weight_max - b.weight)[0][i - b.degree]
            for lstart, n in lower.values():
                skipped += all(c is None for c in top[i][start + lstart : start + lstart + n])
    assert skipped


@pytest.mark.parametrize("n, weight", [(1, 7), (2, 5)])
def test_block_keys_of_a_slice_are_walked_once(n, weight, square_checks, monkeypatch):
    """Homology over Z, F_2 and F_3 walks a slice's block keys, and asks
    each distinct key's multiplicity, on its first call only; later calls
    read the blocks kept with the checked columns."""
    algebra = iterate_bar(FreeAlgebra(DIVIDED, [(2, 1, 2)], ZZ), n)
    asked = []
    multiplicity_of = algebra.block_multiplicity

    def counted(key):
        asked.append(key)
        return multiplicity_of(key)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "block_multiplicity", counted)
        got = _homology(algebra, weight)
    assert sorted(asked) == sorted(set().union(*algebra.block_keys(weight).values()))

    def walk(*args):
        raise AssertionError("block keys walked again")

    monkeypatch.setattr(algebra, "block_keys", walk)
    monkeypatch.setattr(algebra, "block_multiplicity", walk)
    assert _homology(algebra, weight) == got
    assert square_checks == [weight]


class _LetterTwice(FreeAlgebra):
    """Gamma on one generator whose weight-2 slice lists gamma_2 twice."""

    def _build_weight_slice(self, weight):
        out = super()._build_weight_slice(weight)
        return {i: ms * 2 for i, ms in out.items()} if weight == 2 else out


def test_layout_checks_that_the_letters_strictly_ascend():
    algebra = BarAlgebra(_LetterTwice(DIVIDED, [(2, 1, 1)], ZZ))
    algebra.slice_columns(1)
    twice = re.escape(f"the letters of slice (weight 2) do not strictly ascend at {G2}")
    with pytest.raises(InternalAssertionError, match=twice):
        algebra._layout(2)
    with pytest.raises(InternalAssertionError, match=twice):
        homology_over_Fp(algebra, 2, 2)


def test_bar_compile_does_not_evaluate_the_word_differential():
    # a tower of its own: the shared one must not be patched
    algebra = iterate_bar(GAMMA, 2)
    calls = []
    evaluate = algebra.diff_monomial

    def counted(word):
        calls.append(word)
        return evaluate(word)

    algebra.diff_monomial = counted
    for w in range(7):
        algebra.slice_columns(w)
    assert calls == []
    boundary_columns(algebra, 2, 6)  # the per-word reference does call it
    assert calls


# ----------------------------------------------------------------------
# the d^2 = 0 check on broken differentials
# ----------------------------------------------------------------------


def _with_entry_changed(algebra, columns, weight, change):
    """``columns`` of ``weight`` with the entry of d[g1|g1|g1] at [g2|g1]
    replaced by ``change(entry)``, in a copy."""
    word = (G1, G1, G1)
    if weight != algebra.bidegree(word).weight:
        return columns
    degree = algebra.bidegree(word).degree
    slice_ = algebra.weight_slice(weight)
    j = slice_[degree].index(word)
    r = slice_[degree - 1].index((G2, G1))
    column = dict(columns[degree][j])
    column[r] = change(column[r])
    out = dict(columns)
    out[degree] = list(columns[degree])
    out[degree][j] = column
    return out


class _SignFlipped(BarAlgebra):
    """Bar(Gamma) with the sign of one differential term flipped in the
    compiled columns: d[g1|g1|g1] = 2[g2|g1] + 2[g1|g2], whose boundary is
    -12[g3]."""

    def _compile(self, weight):
        return _with_entry_changed(self, super()._compile(weight), weight, lambda c: -c)


class _CoefficientDoubled(BarAlgebra):
    """Bar(Gamma) with one coefficient doubled in the compiled columns:
    d[g1|g1|g1] = -4[g2|g1] + 2[g1|g2], whose boundary is 6[g3]."""

    def _compile(self, weight):
        return _with_entry_changed(self, super()._compile(weight), weight, lambda c: 2 * c)


class _LeavesSlice(BarAlgebra):
    """Bar(Gamma) whose letter product g1.g1 is g1 instead of 2 g2, so the
    differential sends [g1|g1] out of weight 2."""

    def _product_of(self, a, b):
        if a == b == G1:
            return ((G1, 1),)
        return super()._product_of(a, b)


class _CrossesBlocks(BarAlgebra):
    """Bar of Gamma on two generators x = (1, 0), y = (0, 1) with the entry
    of d[x|x] at [gamma_2 x] moved, in a copy of the compiled columns, to
    the row of [xy] in the block of multi-weight (1, 1).  The rows of degree
    5 are single letters, cycles, so d^2 is still zero."""

    def _compile(self, weight, wanted=None):
        columns = super()._compile(weight, wanted)
        if weight != 2:
            return columns
        slice_ = self.weight_slice(2)
        j = slice_[6].index(((1, 0), (1, 0)))
        column = dict(columns[6][j])
        column[slice_[5].index(((1, 1),))] = column.pop(slice_[5].index(((2, 0),)))
        out = dict(columns)
        out[6] = list(columns[6])
        out[6][j] = column
        return out


class _ProductOfWrongWeight(BarAlgebra):
    """Bar of Gamma regraded by 3, where the letter g_k has degree -k, whose
    letter product g1.g1 is g1 instead of 2 g2 once ``broken`` is set.  Then
    d[g1|g1|g1] has a term [g1|g1] of weight 2, and the weight-3 slice has a
    run [g1|g2] of degree -1 for it to be misfiled in."""

    broken = False

    def _product_of(self, a, b):
        if self.broken and a == b == G1:
            return ((G1, 1),)
        return super()._product_of(a, b)


BROKEN = [_SignFlipped, _CoefficientDoubled]
SQUARE_FAILURE = re.escape(f"does not square to zero on {(G1, G1, G1)} (weight 3)")


@pytest.mark.parametrize("cls", BROKEN)
def test_square_check_names_the_failing_monomial(cls):
    algebra = cls(GAMMA)
    for w in range(3):
        check_boundary_squares_to_zero(algebra, w)
    with pytest.raises(InternalAssertionError, match=SQUARE_FAILURE):
        check_boundary_squares_to_zero(algebra, 3)
    with pytest.raises(InternalAssertionError, match=SQUARE_FAILURE):
        homology_over_Z(algebra, 3)


@pytest.mark.parametrize("cls", BROKEN)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_square_check_is_exact_over_Z_for_field_homology(cls, p):
    # Both broken boundaries (-12 and 6) vanish mod 2 and mod 3; the check
    # still sees them because it multiplies the integer columns.
    algebra = cls(GAMMA)
    with pytest.raises(InternalAssertionError, match=SQUARE_FAILURE):
        homology_over_Fp(algebra, 3, p)


def test_term_letter_of_the_wrong_bidegree_is_reported():
    algebra = _ProductOfWrongWeight(regrade(GAMMA, 3))
    for w in range(3):
        algebra.slice_columns(w)
    algebra.broken = True
    leaves = re.escape(f"differential of {(G1, G1, G1)} leaves slice (weight 3, degree 0)")
    with pytest.raises(InternalAssertionError, match=leaves):
        algebra.slice_columns(3)
    with pytest.raises(InternalAssertionError, match=leaves):
        boundary_columns(algebra, 3, 0)


class _LetterDiffOfWrongBidegree(BarAlgebra):
    """Bar of Gamma on two generators whose letter differential of x = (1, 0),
    zero in Gamma, is the letter ``term`` once that is set.  Then d[x | r]
    has a term [term | r], and no letter has the bidegree (1, 1) of dx."""

    term = None

    def _diff_of(self, letter):
        if self.term is not None and letter == (1, 0):
            return ((self.term, 1),)
        return super()._diff_of(letter)


@pytest.mark.parametrize(
    "term",
    [
        (3, 0),  # bidegree (6, 3), with a run [x^3] in degree 7 of weight 3
        (0, 1),  # bidegree (2, 1), with no run in degree 7 of weight 3
    ],
)
def test_letter_differential_of_the_wrong_bidegree_is_reported(term):
    """The check of each term letter of da names the first word of the run
    of a: here [x | y^2], of the run [x | y^2], [x | xy], [x | x^2] in
    degree 8 of weight 3."""
    algebra = _LetterDiffOfWrongBidegree(FreeAlgebra(DIVIDED, [(2, 1, 2)], ZZ))
    for w in range(3):
        algebra._compiled(w)  # every column, which weight 3 reads
    algebra.term = term
    start, n = algebra._layout(3)[0][8][(1, 0)]
    assert start > 0 and n == 3
    assert algebra.weight_slice(3)[8][start] == ((1, 0), (0, 2))
    leaves = re.escape(f"differential of {((1, 0), (0, 2))} leaves slice (weight 3, degree 8)")
    with pytest.raises(InternalAssertionError, match=leaves):
        algebra.slice_columns(3)


def test_differential_leaving_the_slice_is_reported():
    algebra = _LeavesSlice(GAMMA)
    leaves = re.escape(f"differential of {(G1, G1)} leaves slice (weight 2, degree 6)")
    with pytest.raises(InternalAssertionError, match=leaves):
        boundary_matrix(algebra, 2, 6)
    with pytest.raises(InternalAssertionError, match=leaves):
        check_boundary_squares_to_zero(algebra, 2)
    with pytest.raises(InternalAssertionError, match=leaves):
        homology_over_Z(algebra, 2)
    with pytest.raises(InternalAssertionError, match=leaves):
        homology_over_Fp(algebra, 2, 2)


def test_entry_crossing_blocks_is_reported(monkeypatch):
    algebra = _CrossesBlocks(FreeAlgebra(DIVIDED, [(2, 1, 2)], ZZ))
    crosses = f"differential of {((1, 0), (1, 0))} leaves its block (weight 2, degree 6)"
    for w in range(2):
        homology_over_Z(algebra, w)
    with pytest.raises(InternalAssertionError, match=re.escape(crosses)):
        check_boundary_squares_to_zero(algebra, 2)
    with pytest.raises(InternalAssertionError, match=re.escape(crosses)):
        homology_over_Z(algebra, 2)
    for p in (2, 3):
        with pytest.raises(InternalAssertionError, match=re.escape(crosses)):
            homology_over_Fp(algebra, 2, p)
    monkeypatch.setattr("extbar.cli.bar_source_algebra", lambda n, m: algebra)
    result = CliRunner().invoke(main, ["bar-homology", "--m", "2", "--weight", "2"])
    assert result.exit_code == 3
    assert f"internal assertion failed: {crosses}" in result.stderr


# ----------------------------------------------------------------------
# the d^2 = 0 check runs once per compiled slice
# ----------------------------------------------------------------------


def test_square_check_runs_once_per_compiled_slice(square_checks):
    weights = range(7)
    shared = bar_source_algebra(2, 1)
    tables = {p: [homology_over_Fp(shared, w, p) for w in weights] for p in (3, 5)}
    for w in weights:
        homology_over_Z(bar_source_algebra(2, 1), w)
    assert square_checks == list(weights)
    for p in (3, 5):
        cold = iterate_bar(FreeAlgebra(DIVIDED, [(2, 1, 1)], ZZ), 2)
        assert [homology_over_Fp(cold, w, p) for w in weights] == tables[p]


@pytest.mark.parametrize("n, weight, ring", [(1, 9, "Z"), (2, 6, "Fp:3")])
def test_single_weight_bar_homology_checks_that_weight_only(n, weight, ring, square_checks):
    # compile builds the slice from the unchecked slices below it
    args = ["bar-homology", "--n", str(n), "--weight", str(weight), "--ring", ring]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    assert square_checks == [weight]


BLOCKS_CROSSED = re.escape(
    f"differential of {((1, 0), (1, 0))} leaves its block (weight 2, degree 6)"
)


@pytest.mark.parametrize(
    "factory, weight, failure",
    [
        (lambda: _SignFlipped(GAMMA), 3, SQUARE_FAILURE),
        (lambda: _CoefficientDoubled(GAMMA), 3, SQUARE_FAILURE),
        (lambda: _CrossesBlocks(FreeAlgebra(DIVIDED, [(2, 1, 2)], ZZ)), 2, BLOCKS_CROSSED),
    ],
    ids=["sign-flipped", "coefficient-doubled", "crosses-blocks"],
)
def test_columns_that_have_not_passed_are_checked_on_every_call(
    factory, weight, failure, square_checks
):
    algebra = factory()
    for w in range(weight):
        homology_over_Z(algebra, w)
    square_checks.clear()
    calls = [
        lambda: check_boundary_squares_to_zero(algebra, weight),
        lambda: homology_over_Z(algebra, weight),
        lambda: homology_over_Fp(algebra, weight, 2),
        lambda: homology_over_Fp(algebra, weight, 5),
    ]
    for call in calls * 2:
        with pytest.raises(InternalAssertionError, match=failure):
            call()
    assert square_checks == [weight] * 8
    # a slice below, compiled once and cached, passed once and is not checked again
    homology_over_Z(algebra, weight - 1)
    assert square_checks == [weight] * 8
