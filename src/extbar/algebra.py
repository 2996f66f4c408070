"""Weighted differential graded algebras with exact sparse arithmetic.

Every algebra here is bigraded: each basis monomial carries a homological
degree (any integer) and a weight (a nonnegative integer).  Weights are
additive under multiplication and preserved by differentials; the weight is
the truncation axis for all computations, because each weight slice of the
algebras we build is finite dimensional.

An :class:`Element` of an algebra is represented as a sparse ``dict`` mapping
basis monomials to nonzero integer coefficients (normalized mod p over a
prime field).  Monomials are plain nested tuples of ints, hashable and
totally ordered, which keeps basis enumeration deterministic.

Concrete algebras provided here:

* free divided-power / exterior / symmetric algebras on weighted graded
  generators (:func:`make_free_algebra`), split into multi-weight blocks,
* the degree regrading ``(i, d) -> (i - alpha*d, d)`` with its sign
  corrections (:func:`regrade`),
* the weight twist, scaling products by ``(-1)**(w(x)*w(y))``
  (:func:`weight_twist`),
* the signed tensor product ``A (x)^eps B`` (:func:`tensor_signed`).
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .rings import Ring, ZZ


class Bidegree(NamedTuple):
    """A (homological degree, weight) pair.

    Cohomological degree ``i`` is stored as homological degree ``-i``.
    Weights are never negative; degrees may be (regrading produces them).
    """

    degree: int
    weight: int

    def __add__(self, other: "Bidegree") -> "Bidegree":  # type: ignore[override]
        return Bidegree(self.degree + other.degree, self.weight + other.weight)


# A monomial is a nested tuple of ints; an element is a sparse monomial->coeff map.
Monomial = tuple
Element = Dict[Monomial, int]
#: One column of a boundary matrix: codomain row index -> nonzero coefficient.
Column = Dict[int, int]
#: One block of a weight slice as homology reduces it: its column indices by
#: degree, and how many blocks with its homology it stands for.
Block = Tuple[Mapping[int, Sequence[int]], int]
#: Bits per generator in a block key: the multi-weight packed into one int,
#: the exponent of generator ``g`` in bits ``16 g .. 16 g + 15``, so that
#: keys add as multi-weights do.  A weight below ``2**16`` bounds every
#: exponent below it.
KEY_BITS = 16

#: Flavors of free algebras on weighted graded generators.
DIVIDED = "Gamma"
EXTERIOR = "Lambda"
SYMMETRIC = "S"
FLAVORS = (DIVIDED, EXTERIOR, SYMMETRIC)


class InternalAssertionError(AssertionError):
    """A structural invariant failed (e.g. a differential does not square to
    zero on some slice).  Signals a bug, never bad user input."""


def divided_power_composition_coefficient(k: int, l: int) -> int:
    """The integer ``(k*l)! / (l! * (k!)**l)``.

    This is the structure constant expressing the ``l``-th divided power of a
    ``k``-th divided power: applying gamma_l to gamma_k(x) yields this
    coefficient times gamma_{k*l}(x).  It is always an integer (a product of
    multinomial coefficients).
    """
    if k < 0 or l < 0:
        raise ValueError("divided power indices must be nonnegative")
    num = factorial(k * l)
    den = factorial(l) * factorial(k) ** l
    q, r = divmod(num, den)
    if r:
        raise InternalAssertionError("divided power coefficient is not integral")
    return q


class WdgAlgebra:
    """Base class: a basis-enumerable weighted differential graded algebra.

    Subclasses implement :meth:`weight_slice`, :meth:`bidegree`,
    :meth:`mul_monomials`, :meth:`diff_monomial` and :attr:`unit`.  The base
    class provides linear-algebra plumbing over elements and the boundary
    columns of a weight slice, compiled once by :meth:`_compile`, kept, and
    checked for d^2 = 0 before :meth:`slice_columns` hands them out.
    Instances are immutable after construction; their caches (weight
    slices, compiled columns, and the checked columns with their blocks
    here; layouts, letter products, differentials and bidegrees and shuffle
    products in :class:`~extbar.bar.BarAlgebra`) are filled idempotently,
    so sharing an instance across threads is safe.  Elements returned by
    products and differentials are never shared with a cache, so callers
    may mutate them; compiled columns are shared and must not be.
    """

    ring: Ring

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self._slice_cache: Dict[int, Dict[int, Tuple[Monomial, ...]]] = {}
        self._column_cache: Dict[int, Dict[int, List[Column]]] = {}
        self._checked_slices: Dict[
            int, Tuple[Dict[int, List[Optional[Column]]], Optional[List[Block]]]
        ] = {}

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------

    @property
    def unit(self) -> Monomial:
        raise NotImplementedError

    def bidegree(self, mono: Monomial) -> Bidegree:
        raise NotImplementedError

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        raise NotImplementedError

    def mul_monomials(self, x: Monomial, y: Monomial) -> Element:
        raise NotImplementedError

    def diff_monomial(self, x: Monomial) -> Element:
        """Differential of a basis monomial; lowers degree by 1, keeps weight."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived operations
    # ------------------------------------------------------------------

    def weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        """Ordered basis of the weight-``weight`` slice, keyed by degree.

        Degrees appear in increasing order and each basis tuple is sorted,
        so matrices and reports are reproducible run to run.
        """
        if weight < 0:
            return {}
        got = self._slice_cache.get(weight)
        if got is None:
            raw = self._build_weight_slice(weight)
            got = {i: tuple(sorted(raw[i])) for i in sorted(raw) if raw[i]}
            self._slice_cache[weight] = got
        return got

    def slice_columns(
        self, weight: int
    ) -> Tuple[Dict[int, List[Optional[Column]]], Optional[List[Block]]]:
        """The boundary columns of the weight slice, keyed by degree, and the
        blocks homology reduces them by (``None``: the whole slice as one
        block), kept per weight once :func:`_check_square` passes on the
        columns; a slice that fails is checked again on every call.  Column
        ``j`` of degree ``i`` is the differential of the ``j``-th basis
        monomial of degree ``i`` as ``{row: coefficient}``, rows indexing
        the degree-``i - 1`` basis; it must not be mutated.

        One walk of :meth:`block_keys` asks each distinct key's
        :meth:`block_multiplicity` once and makes each key of nonzero
        multiplicity a block: its indices by degree and that multiplicity.
        The other blocks' columns are ``None``, neither compiled nor checked
        here; they are picked from :meth:`_compiled`, which has them all, if
        it has the slice."""
        got = self._checked_slices.get(weight)
        if got is not None:
            return got
        keys = self.block_keys(weight)
        blocks: Optional[List[Block]] = None
        multiplicity: Dict[int, int] = {}
        wanted: Dict[int, List[bool]] = {}
        if keys is not None:
            indices: Dict[int, Dict[int, array]] = {}
            for i, ks in keys.items():
                need = wanted[i] = []
                here: Dict[int, array] = {}
                for j, k in enumerate(ks):
                    m = multiplicity.get(k)
                    if m is None:
                        m = multiplicity[k] = self.block_multiplicity(k)
                    need.append(m != 0)
                    if m:
                        block = here.get(k)
                        if block is None:
                            block = here[k] = indices.setdefault(k, {})[i] = array("l")
                        block.append(j)
            blocks = [(block, multiplicity[k]) for k, block in indices.items()]
        if all(multiplicity.values()):
            columns = self._compiled(weight)
        else:
            full = self._column_cache.get(weight)
            if full is None:
                columns = self._compile(weight, wanted)
            else:
                columns = {i: [c if w else None for c, w in zip(full[i], wanted[i])] for i in full}
        _check_square(self, weight, columns)
        got = self._checked_slices[weight] = (columns, blocks)
        return got

    def _compiled(self, weight: int) -> Dict[int, List[Column]]:
        """All the columns :meth:`_compile` builds, cached per weight and not
        checked: for building other slices from them."""
        got = self._column_cache.get(weight)
        if got is None:
            got = self._column_cache[weight] = self._compile(weight)  # type: ignore[assignment]
        return got

    def _compile(
        self, weight: int, wanted: Optional[Mapping[int, Sequence[bool]]] = None
    ) -> Dict[int, List[Optional[Column]]]:
        """The boundary columns of the weight slice, as :meth:`slice_columns`
        describes them; ``wanted``, by degree in basis order, says which
        columns must be built, all if ``None``, and a column left out may be
        ``None``.  Here :func:`boundary_columns` evaluates ``diff_monomial``
        once per basis monomial, for every column; an algebra that can do
        better overrides this."""
        return {i: boundary_columns(self, weight, i) for i in self.weight_slice(weight)}

    def block_keys(self, weight: int) -> Optional[Dict[int, List[int]]]:
        """A key for every basis monomial of the weight slice, by degree in
        basis order, such that the differential sends each *block* (the
        monomials sharing a key) into itself; ``None`` when the slice is one
        block.  Here ``None``: an algebra with a finer grading overrides
        this, and homology checks that no boundary entry crosses a block."""
        return None

    def block_multiplicity(self, key: int) -> int:
        """How many blocks of :meth:`block_keys` the block ``key`` stands
        for: the size of its orbit under automorphisms of the algebra if it
        is the one block of that orbit to reduce, 0 if another block is.
        Here every block stands for itself alone."""
        return 1

    def basis(self, bidegree: Bidegree) -> Tuple[Monomial, ...]:
        return self.weight_slice(bidegree.weight).get(bidegree.degree, ())

    def dims(self, weight: int) -> Dict[int, int]:
        return {i: len(b) for i, b in self.weight_slice(weight).items()}

    def element(self, terms: Mapping[Monomial, int]) -> Element:
        """Normalize coefficients and drop zeros."""
        out: Element = {}
        for m, c in terms.items():
            c = self.ring.normalize(c)
            if c:
                out[m] = c
        return out

    def add_into(self, acc: Element, e: Mapping[Monomial, int], scale: int = 1) -> None:
        for m, c in e.items():
            c = self.ring.normalize(acc.get(m, 0) + scale * c)
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)

    def add(self, *elements: Mapping[Monomial, int]) -> Element:
        acc: Element = {}
        for e in elements:
            self.add_into(acc, e)
        return acc

    def smul(self, c: int, e: Mapping[Monomial, int]) -> Element:
        return self.element({m: c * v for m, v in e.items()})

    def mul(self, e: Mapping[Monomial, int], f: Mapping[Monomial, int]) -> Element:
        acc: Element = {}
        for x, c in e.items():
            for y, d in f.items():
                self.add_into(acc, self.mul_monomials(x, y), scale=c * d)
        return acc

    def diff(self, e: Mapping[Monomial, int]) -> Element:
        acc: Element = {}
        for m, c in e.items():
            self.add_into(acc, self.diff_monomial(m), scale=c)
        return acc

    def augmentation(self, e: Mapping[Monomial, int]) -> int:
        """Coefficient of the unit monomial (projection onto bidegree (0,0))."""
        return e.get(self.unit, 0)

    def bidegree_of_element(self, e: Mapping[Monomial, int]) -> Optional[Bidegree]:
        """The common bidegree of a homogeneous element (None for zero).

        Raises ``ValueError`` on inhomogeneous input.
        """
        bid: Optional[Bidegree] = None
        for m in e:
            b = self.bidegree(m)
            if bid is None:
                bid = b
            elif bid != b:
                raise ValueError(f"inhomogeneous element: bidegrees {bid} and {b}")
        return bid


def boundary_columns(algebra: WdgAlgebra, weight: int, degree: int) -> List[Column]:
    """Sparse columns of the differential out of ``degree`` in the given
    weight slice.

    Column ``j`` holds the differential of the ``j``-th basis monomial of
    degree ``degree``, keyed by row index in the degree-``degree - 1`` basis.
    ``diff_monomial`` is evaluated once per basis monomial.  Raises
    :class:`InternalAssertionError` if a differential leaves the slice.
    """
    slice_ = algebra.weight_slice(weight)
    index = {m: r for r, m in enumerate(slice_.get(degree - 1, ()))}
    columns: List[Column] = []
    for mono in slice_.get(degree, ()):
        column: Column = {}
        for m, c in algebra.diff_monomial(mono).items():
            r = index.get(m)
            if r is None:
                raise InternalAssertionError(
                    f"differential of {mono} leaves slice (weight {weight}, "
                    f"degree {degree})"
                )
            column[r] = c
        columns.append(column)
    return columns


def _check_square(
    algebra: WdgAlgebra, weight: int, columns: Mapping[int, Sequence[Optional[Column]]]
) -> None:
    """Raise :class:`InternalAssertionError` unless the exact sparse product
    ``D_{i-1} D_i`` of the slice's columns is zero for every degree, checked
    column by column, i.e. on every basis monomial of the slice whose column
    is not ``None``, over the algebra's ring.  When the algebra splits the
    slice into blocks (:meth:`WdgAlgebra.block_keys`), every entry is also
    checked to lie in its column's block, in the same walk: the first failing column of a
    degree is reported, whichever check it fails, and only then looked up."""
    keys = algebra.block_keys(weight)
    char = algebra.ring.char
    for i, cols in columns.items():
        below = columns.get(i - 1, ())
        if keys is not None:
            col_keys, row_keys = keys[i], keys.get(i - 1, ())
        for j, column in enumerate(cols):
            if column is None:
                continue
            acc: Dict[int, int] = {}
            for r, c in column.items():
                if keys is not None and row_keys[r] != col_keys[j]:
                    raise InternalAssertionError(
                        f"differential of {algebra.weight_slice(weight)[i][j]} leaves "
                        f"its block (weight {weight}, degree {i})"
                    )
                for s, e in below[r].items():
                    acc[s] = acc.get(s, 0) + c * e
            residues = (v % char for v in acc.values()) if char else acc.values()
            if any(residues):
                word = algebra.weight_slice(weight)[i][j]
                raise InternalAssertionError(
                    f"differential does not square to zero on {word} (weight {weight})"
                )


def check_one_eps_commutative(
    algebra: WdgAlgebra, eps: int, weight_max: int
) -> Tuple[bool, Optional[Tuple[Monomial, Monomial]]]:
    """Check ``x*y == (-1)**(|x||y| + eps*w(x)*w(y)) * y*x`` on basis pairs.

    Exhaustive over all pairs of basis monomials whose weights sum to at most
    ``weight_max``.  Returns ``(True, None)`` or ``(False, first witness)``,
    scanning in deterministic basis order.
    """
    monos: List[Monomial] = []
    for w in range(weight_max + 1):
        for basis in algebra.weight_slice(w).values():
            monos.extend(basis)
    for idx, x in enumerate(monos):
        bx = algebra.bidegree(x)
        for y in monos[idx:]:
            by = algebra.bidegree(y)
            if bx.weight + by.weight > weight_max:
                continue
            sign = -1 if (bx.degree * by.degree + eps * bx.weight * by.weight) % 2 else 1
            lhs = algebra.mul_monomials(x, y)
            rhs = algebra.smul(sign, algebra.mul_monomials(y, x))
            if algebra.element(lhs) != rhs:
                return False, (x, y)
    return True, None


def algebras_agree(a: WdgAlgebra, b: WdgAlgebra, weight_max: int) -> bool:
    """Structural equality of two algebras on all slices up to ``weight_max``:
    same bases with the same bidegrees, same products (for weight sums within
    the cap), same differentials, same unit."""
    if a.unit != b.unit:
        return False
    monos: List[Monomial] = []
    for w in range(weight_max + 1):
        sa, sb = a.weight_slice(w), b.weight_slice(w)
        if sa != sb:
            return False
        for basis in sa.values():
            monos.extend(basis)
            for m in basis:
                if a.diff_monomial(m) != b.diff_monomial(m):
                    return False
    for x in monos:
        for y in monos:
            if a.bidegree(x).weight + a.bidegree(y).weight > weight_max:
                continue
            if a.mul_monomials(x, y) != b.mul_monomials(x, y):
                return False
    return True


# ----------------------------------------------------------------------
# free algebras on weighted graded generators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    degree: int
    weight: int

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("generator weights must be >= 1")


def _flatten_generators(
    generators: Iterable[Tuple[int, int, int]]
) -> Tuple[Generator, ...]:
    flat: List[Generator] = []
    for degree, weight, multiplicity in generators:
        if multiplicity < 0:
            raise ValueError("generator multiplicity must be >= 0")
        flat.extend(Generator(degree, weight) for _ in range(multiplicity))
    return tuple(flat)


class FreeAlgebra(WdgAlgebra):
    """Free divided-power (Gamma), exterior (Lambda) or symmetric (S) algebra
    on a finite list of weighted graded generators, with zero differential.

    Monomials: for Gamma and S an exponent vector ``(e_1, ..., e_G)`` over the
    flattened generator list; for Lambda a strictly increasing tuple of
    generator indices.  Products carry no degree signs for Gamma and S (these
    algebras are plainly commutative, with binomial structure constants in
    the divided-power case); the exterior product is signed by the parity of
    the merge permutation and kills repeated indices.
    """

    def __init__(
        self,
        flavor: str,
        generators: Iterable[Tuple[int, int, int]],
        ring: Ring = ZZ,
    ) -> None:
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
        super().__init__(ring)
        self.flavor = flavor
        self.generators = _flatten_generators(generators)

    def __repr__(self) -> str:
        gens = ",".join(f"({g.degree},{g.weight})" for g in self.generators)
        return f"{self.flavor}[{gens}]/{self.ring}"

    @property
    def unit(self) -> Monomial:
        if self.flavor == EXTERIOR:
            return ()
        return (0,) * len(self.generators)

    def bidegree(self, mono: Monomial) -> Bidegree:
        if self.flavor == EXTERIOR:
            deg = sum(self.generators[i].degree for i in mono)
            wt = sum(self.generators[i].weight for i in mono)
        else:
            deg = sum(e * g.degree for e, g in zip(mono, self.generators))
            wt = sum(e * g.weight for e, g in zip(mono, self.generators))
        return Bidegree(deg, wt)

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        out: Dict[int, List[Monomial]] = {}
        for mono in self._monomials_of_weight(weight):
            out.setdefault(self.bidegree(mono).degree, []).append(mono)
        return {i: tuple(ms) for i, ms in out.items()}

    def _monomials_of_weight(self, weight: int) -> Iterator[Monomial]:
        gens = self.generators
        if self.flavor == EXTERIOR:

            def go_ext(start: int, remaining: int, chosen: Tuple[int, ...]) -> Iterator[Monomial]:
                if remaining == 0:
                    yield chosen
                    return
                for i in range(start, len(gens)):
                    if gens[i].weight <= remaining:
                        yield from go_ext(i + 1, remaining - gens[i].weight, chosen + (i,))

            yield from go_ext(0, weight, ())
            return

        def go(i: int, remaining: int, exps: Tuple[int, ...]) -> Iterator[Monomial]:
            if i == len(gens):
                if remaining == 0:
                    yield exps
                return
            w = gens[i].weight
            for e in range(remaining // w + 1):
                yield from go(i + 1, remaining - e * w, exps + (e,))

        yield from go(0, weight, ())

    def block_keys(self, weight: int) -> Optional[Dict[int, List[int]]]:
        """The multi-weight of every monomial of the weight slice (for Lambda
        the indicator of its indices), packed as :data:`KEY_BITS` describes,
        by degree in basis order; ``None`` on fewer than two generators or
        at a weight too large to pack."""
        if len(self.generators) < 2 or weight >> KEY_BITS:
            return None

        def key(mono: Monomial) -> int:
            exponents = ((g, 1) for g in mono) if self.flavor == EXTERIOR else enumerate(mono)
            return sum(e << KEY_BITS * g for g, e in exponents)

        return {i: list(map(key, basis)) for i, basis in self.weight_slice(weight).items()}

    def block_multiplicity(self, key: int) -> int:
        """With generators of one degree and weight, permuting them is an
        automorphism: the block whose exponents do not increase stands for
        its orbit, ``m! / prod_e k_e!`` blocks where ``k_e`` of the ``m``
        generators have exponent ``e``, and every other block for none;
        otherwise each block stands for itself.  Exponents (2, 1, 1) and
        (1, 2, 1) on three identical generators:

        >>> gamma = FreeAlgebra(DIVIDED, [(2, 1, 3)])
        >>> gamma.block_multiplicity(0x0001_0001_0002), gamma.block_multiplicity(0x0001_0002_0001)
        (3, 0)
        """
        if len(set(self.generators)) != 1:
            return 1
        mask = (1 << KEY_BITS) - 1
        exponents = [key >> (KEY_BITS * g) & mask for g in range(len(self.generators))]
        if any(x < y for x, y in zip(exponents, exponents[1:])):
            return 0
        out = factorial(len(exponents))
        for k in Counter(exponents).values():
            out //= factorial(k)
        return out

    def mul_monomials(self, x: Monomial, y: Monomial) -> Element:
        if self.flavor == EXTERIOR:
            if set(x) & set(y):
                return {}
            # Parity of the permutation that merges the two increasing tuples.
            inversions = sum(1 for i in x for j in y if j < i)
            sign = -1 if inversions % 2 else 1
            return self.element({tuple(sorted(x + y)): sign})
        mono = tuple(a + b for a, b in zip(x, y))
        if self.flavor == SYMMETRIC:
            return self.element({mono: 1})
        coeff = 1
        for a, b in zip(x, y):
            if a and b:
                coeff *= comb(a + b, a)
        return self.element({mono: coeff})

    def diff_monomial(self, x: Monomial) -> Element:
        return {}


def make_free_algebra(
    flavor: str, generators: Iterable[Tuple[int, int, int]], ring: Ring = ZZ
) -> FreeAlgebra:
    """Free Gamma/Lambda/S algebra on generators given as
    ``(degree, weight, multiplicity)`` triples."""
    return FreeAlgebra(flavor, generators, ring)


# ----------------------------------------------------------------------
# regrading and weight twist
# ----------------------------------------------------------------------


class RegradedAlgebra(WdgAlgebra):
    """Shift degrees by ``-alpha`` per unit weight: the slice at
    ``(i, d)`` is the base slice at ``(i + alpha*d, d)``.

    Products acquire the sign ``(-1)**(alpha*(i+d)*e)`` where ``i, d`` grade
    the regraded left factor and ``e`` is the weight of the right factor;
    differentials acquire ``(-1)**(alpha*d)``.  With these signs, regrading
    by ``alpha`` then ``-alpha`` is the identity for even ``alpha`` and the
    weight twist for odd ``alpha``.
    """

    def __init__(self, base: WdgAlgebra, alpha: int) -> None:
        super().__init__(base.ring)
        self.base = base
        self.alpha = alpha

    def __repr__(self) -> str:
        return f"R[{self.alpha}]({self.base!r})"

    @property
    def unit(self) -> Monomial:
        return self.base.unit

    def bidegree(self, mono: Monomial) -> Bidegree:
        b = self.base.bidegree(mono)
        return Bidegree(b.degree - self.alpha * b.weight, b.weight)

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        shift = self.alpha * weight
        return {i - shift: basis for i, basis in self.base.weight_slice(weight).items()}

    def mul_monomials(self, x: Monomial, y: Monomial) -> Element:
        bx = self.bidegree(x)
        e = self.bidegree(y).weight
        sign = -1 if (self.alpha * (bx.degree + bx.weight) * e) % 2 else 1
        prod = self.base.mul_monomials(x, y)
        return prod if sign == 1 else self.smul(-1, prod)

    def diff_monomial(self, x: Monomial) -> Element:
        sign = -1 if (self.alpha * self.base.bidegree(x).weight) % 2 else 1
        d = self.base.diff_monomial(x)
        return d if sign == 1 else self.smul(-1, d)


def regrade(algebra: WdgAlgebra, alpha: int) -> WdgAlgebra:
    return RegradedAlgebra(algebra, alpha)


class WeightTwistedAlgebra(WdgAlgebra):
    """Same underlying complex, product scaled by ``(-1)**(w(x)*w(y))``."""

    def __init__(self, base: WdgAlgebra) -> None:
        super().__init__(base.ring)
        self.base = base

    def __repr__(self) -> str:
        return f"t({self.base!r})"

    @property
    def unit(self) -> Monomial:
        return self.base.unit

    def bidegree(self, mono: Monomial) -> Bidegree:
        return self.base.bidegree(mono)

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        return dict(self.base.weight_slice(weight))

    def mul_monomials(self, x: Monomial, y: Monomial) -> Element:
        sign = -1 if (self.bidegree(x).weight * self.bidegree(y).weight) % 2 else 1
        prod = self.base.mul_monomials(x, y)
        return prod if sign == 1 else self.smul(-1, prod)

    def diff_monomial(self, x: Monomial) -> Element:
        return self.base.diff_monomial(x)


def weight_twist(algebra: WdgAlgebra) -> WdgAlgebra:
    return WeightTwistedAlgebra(algebra)


# ----------------------------------------------------------------------
# signed tensor product
# ----------------------------------------------------------------------


class TensorAlgebra(WdgAlgebra):
    """``A (x)^eps B``: basis pairs, with the product twisted by

        (a (x) b) * (a' (x) b') = (-1)**(|a'||b| + eps*w(a')w(b)) (aa') (x) (bb')

    and differential ``da (x) b + (-1)**|a| a (x) db``.  With ``eps = 0``
    this is the ordinary graded tensor product; ``eps = 1`` adds weight
    signs so that a product of (1,1)-commutative factors is again
    (1,1)-commutative.
    """

    def __init__(self, left: WdgAlgebra, right: WdgAlgebra, eps: int = 0) -> None:
        if left.ring != right.ring:
            raise ValueError("tensor factors must share a coefficient ring")
        if eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        super().__init__(left.ring)
        self.left = left
        self.right = right
        self.eps = eps

    def __repr__(self) -> str:
        return f"({self.left!r})(x)^{self.eps}({self.right!r})"

    @property
    def unit(self) -> Monomial:
        return (self.left.unit, self.right.unit)

    def bidegree(self, mono: Monomial) -> Bidegree:
        ml, mr = mono
        return self.left.bidegree(ml) + self.right.bidegree(mr)

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        out: Dict[int, List[Monomial]] = {}
        for wl in range(weight + 1):
            ls = self.left.weight_slice(wl)
            rs = self.right.weight_slice(weight - wl)
            for i, lbasis in ls.items():
                for j, rbasis in rs.items():
                    out.setdefault(i + j, []).extend(
                        (ml, mr) for ml in lbasis for mr in rbasis
                    )
        return {i: tuple(ms) for i, ms in out.items()}

    def mul_monomials(self, x: Monomial, y: Monomial) -> Element:
        xl, xr = x
        yl, yr = y
        bl = self.left.bidegree(yl)  # grades a'
        br = self.right.bidegree(xr)  # grades b
        sign = -1 if (bl.degree * br.degree + self.eps * bl.weight * br.weight) % 2 else 1
        out: Element = {}
        lprod = self.left.mul_monomials(xl, yl)
        rprod = self.right.mul_monomials(xr, yr)
        for ml, cl in lprod.items():
            for mr, cr in rprod.items():
                self.add_into(out, {(ml, mr): sign * cl * cr})
        return out

    def diff_monomial(self, x: Monomial) -> Element:
        ml, mr = x
        out: Element = {}
        for m, c in self.left.diff_monomial(ml).items():
            self.add_into(out, {(m, mr): c})
        sign = -1 if self.left.bidegree(ml).degree % 2 else 1
        for m, c in self.right.diff_monomial(mr).items():
            self.add_into(out, {(ml, m): sign * c})
        return out


def tensor_signed(left: WdgAlgebra, right: WdgAlgebra, eps: int = 0) -> TensorAlgebra:
    return TensorAlgebra(left, right, eps)
