"""The (reduced, weighted) bar construction and its shuffle product.

For an augmented weighted dg-algebra ``A`` the bar construction has a basis
of words ``[a_1 | ... | a_n]`` whose letters are basis monomials of ``A`` of
positive weight.  A word has homological degree ``n + sum |a_i|`` (each
letter is suspended) and weight ``sum w(a_i)``; the empty word is the unit.
Weight slices stay finite dimensional because letters carry weight >= 1, so
a weight-``d`` word has at most ``d`` letters.

The differential combines letter-merging terms with letterwise inner
differentials, signed by the running suspended degree of the prefix; the
product is the signed shuffle.  When ``A`` is (1,1)-commutative its bar
construction is again a weighted dg-algebra of the same kind, so the
construction can be iterated (:func:`iterate_bar`).

The base is read only through the :class:`~extbar.algebra.WdgAlgebra`
interface.  When it splits its slices into blocks, as a free algebra on two
or more generators does by multi-weight, a word's key is the sum of its
letters' keys, so each weight slice splits too (:meth:`BarAlgebra.block_keys`),
and the base says which blocks stand for their orbits
(:meth:`BarAlgebra.block_multiplicity`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    Bidegree,
    Column,
    KEY_BITS,
    Element,
    InternalAssertionError,
    Monomial,
    WdgAlgebra,
)

#: A cached element: its ``(monomial, coefficient)`` pairs, immutable.
Terms = Tuple[Tuple[Monomial, int], ...]
#: The runs of one degree ``i`` of a weight slice: first letter ``a`` ->
#: ``(start, length)``, the basis words ``[a | r]``, with ``r`` running over
#: the slice of weight ``weight - w(a)`` and degree ``i - 1 - |a|`` in order.
Runs = Dict[Monomial, Tuple[int, int]]
#: A weight slice's runs and number of words by degree, degrees increasing,
#: and, when the base keys its letters, the block key of every word by degree
#: in basis order.
Layout = Tuple[Dict[int, Runs], Dict[int, int], Optional[Dict[int, List[int]]]]


class BarAlgebra(WdgAlgebra):
    """Bar construction of ``base``; monomials are tuples of base monomials.

    The differential and the shuffle product ask only three things of the
    base, all about letters: bidegrees, products of two letters and
    differentials of one.  Each answer is cached here, keyed by the
    letter(s), the first time it is asked for; the differentials of all the
    letters of one weight are read at once from the base's compiled columns
    (:meth:`_diff_of`), so each level's columns are compiled once and also
    serve the level above as letter data.
    Products and differentials are stored as tuples of ``(monomial,
    coefficient)`` pairs, so every element this algebra returns is built
    afresh and a caller may mutate it.  Shuffle products are memoized on
    pairs of word suffixes.

    A word is ``[a | r]`` with ``r`` a word of lower weight, and the basis
    lists the words that start with ``a`` as one contiguous *run*, ordered as
    ``r`` is in its own slice.  A weight slice is kept as its
    :data:`Layout` (:meth:`_layout`); its words are built only when asked
    for, as the letters of the level above or to name a word in an error.
    :meth:`_compile` builds the boundary columns of a weight slice from the
    columns of the slices below it by run-offset arithmetic, and checks
    that each letter of ``da`` (once per run ``[a | ...]``) and of ``a r_1``
    (once per sub-run ``[a | r_1 ...]`` it builds a column of) lands in a
    run of its bidegree; the base class keeps the columns for the life of
    the algebra and checks d^2 = 0 on the slices that
    :meth:`~extbar.algebra.WdgAlgebra.slice_columns` hands out, not on the
    slices below that compile reads.  It hands out, and so compiles first,
    only the blocks that homology reduces.
    :meth:`diff_monomial` evaluates the same differential one word at a
    time; it is the reference the compiled columns are tested against.
    """

    def __init__(self, base: WdgAlgebra) -> None:
        super().__init__(base.ring)
        self.base = base
        self._letter_bidegree: Dict[Monomial, Bidegree] = {}
        self._letter_product: Dict[Tuple[Monomial, Monomial], Terms] = {}
        self._letter_diff: Dict[Monomial, Terms] = {}
        self._shuffles: Dict[Tuple[Monomial, Monomial], Terms] = {}
        # the weight-0 slice, the empty word, is one run without a first letter
        self._layouts: Dict[int, Layout] = {
            0: ({0: {None: (0, 1)}}, {0: 1}, None if base.block_keys(0) is None else {0: [0]})
        }

    def __repr__(self) -> str:
        return f"Bar({self.base!r})"

    @property
    def unit(self) -> Monomial:
        return ()

    # -- letter caches ----------------------------------------------------

    def _bidegree_of(self, letter: Monomial) -> Bidegree:
        got = self._letter_bidegree.get(letter)
        if got is None:
            got = self._letter_bidegree[letter] = self.base.bidegree(letter)
        return got

    def _product_of(self, a: Monomial, b: Monomial) -> Terms:
        got = self._letter_product.get((a, b))
        if got is None:
            got = self._letter_product[(a, b)] = tuple(self.base.mul_monomials(a, b).items())
        return got

    def _diff_of(self, letter: Monomial) -> Terms:
        """The differential of a letter, read from the base's compiled
        columns (:meth:`_compiled`) of the letter's weight, for every letter
        of that weight at once, the rows named by the base's basis."""
        got = self._letter_diff.get(letter)
        if got is None:
            weight = self._bidegree_of(letter).weight
            words = self.base.weight_slice(weight)
            for i, columns in self.base._compiled(weight).items():
                rows = words.get(i - 1, ())
                for word, column in zip(words[i], columns):
                    self._letter_diff[word] = tuple((rows[r], c) for r, c in column.items())
            got = self._letter_diff[letter]
        return got

    # -- interface ----------------------------------------------------------

    def bidegree(self, word: Monomial) -> Bidegree:
        degree = len(word)
        weight = 0
        for letter in word:
            b = self._bidegree_of(letter)
            degree += b.degree
            weight += b.weight
        return Bidegree(degree, weight)

    def _layout(self, weight: int) -> Layout:
        """The weight slice's :data:`Layout`, from the letters and the layouts
        below, without building a word: one run for each letter ``a`` in
        sorted order and each degree of the slice of weight ``weight - w(a)``,
        ``key[a | r] = key(a) + key(r)`` if the base keys every weight up to
        ``weight < 2**KEY_BITS``.  :class:`InternalAssertionError` unless the
        letters strictly ascend: with the lower slices sorted, the words laid
        out run by run are then sorted, so the basis keeps the layout's order."""
        got = self._layouts.get(weight)
        if got is not None:
            return got
        base_keys = [self.base.block_keys(c) for c in range(weight + 1)]
        keyed = None not in base_keys and not weight >> KEY_BITS
        letters: List[Monomial] = []
        key_of: Dict[Monomial, int] = {}
        for c in range(1, weight + 1):
            for i, basis in self.base.weight_slice(c).items():
                letters.extend(basis)
                if keyed:
                    key_of.update(zip(basis, base_keys[c][i]))
        letters.sort()
        for x, y in zip(letters, letters[1:]):
            if not x < y:
                raise InternalAssertionError(
                    f"the letters of slice (weight {weight}) do not strictly ascend at {y}"
                )
        runs: Dict[int, Runs] = {}
        sizes: Dict[int, int] = {}
        keys: Optional[Dict[int, List[int]]] = {} if keyed else None
        for a in letters:
            b = self._bidegree_of(a)
            _, lower_sizes, lower_keys = self._layout(weight - b.weight)
            for j, n in lower_sizes.items():
                i = j + 1 + b.degree
                start = sizes.get(i, 0)
                runs.setdefault(i, {})[a] = (start, n)
                sizes[i] = start + n
                if keys is not None:
                    ka = key_of[a]
                    keys.setdefault(i, []).extend([ka + k for k in lower_keys[j]])
        got = self._layouts[weight] = (runs, dict(sorted(sizes.items())), keys)
        return got

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        """The words of the weight slice, laid out run by run
        (:meth:`_layout`), so already sorted."""
        if weight == 0:
            return {0: ((),)}
        out: Dict[int, Tuple[Monomial, ...]] = {}
        for i, runs in self._layout(weight)[0].items():
            words: List[Monomial] = []
            for a in runs:
                b = self._bidegree_of(a)
                rest = self.weight_slice(weight - b.weight)[i - 1 - b.degree]
                words.extend([(a,) + r for r in rest])
            out[i] = tuple(words)
        return out

    def dims(self, weight: int) -> Dict[int, int]:
        return dict(self._layout(weight)[1])

    def _compile(
        self, weight: int, wanted: Optional[Mapping[int, Sequence[bool]]] = None
    ) -> Dict[int, List[Optional[Column]]]:
        """Boundary columns of the weight slice from the columns of the
        slices below it, read unchecked (:meth:`_compiled`): those that
        ``wanted`` asks for, ``None`` for the others.  A column that the
        slice's checked columns
        (:meth:`~extbar.algebra.WdgAlgebra.slice_columns`) already hold is
        that same object, not built again.

        Column ``start(a) + k`` of degree ``i`` is ``d[a | r]`` for the
        ``k``-th word ``r`` of its lower slice, and with ``s = (-1)**(1 +
        |a|)``, ``d[a | r] = -[da | r] + s [a r_1 | r'] + s [a | dr]`` where
        ``r = [r_1 | r']``.  Rows, in the runs of degree ``i - 1``:

        * ``-c`` at ``start(m) + k`` for each term ``c m`` of ``da``;
        * ``s c`` at ``start(m) + k - start'(r_1)`` for each term ``c m`` of
          ``a r_1``, where ``start'(r_1)`` is the run of ``r_1`` in the lower
          slice, so ``k - start'(r_1)`` is the index of ``r'`` in its slice;
        * ``s c`` at ``start(a) + row`` for each entry of ``r``'s column.

        The work is done run by run, then sub-run by sub-run, a sub-run
        being the words ``[a | r]`` of one run whose ``r`` share ``r_1``.
        Once per run: ``a``'s bidegree, its lower columns and the rows of
        ``da``; each term letter ``m`` of ``da`` is checked to have the
        bidegree of ``da`` and a run in degree ``i - 1``.  Once per sub-run,
        and only if ``wanted`` asks for one of its columns: the rows of ``a
        r_1``, each term letter checked the same way against the bidegree of
        ``a r_1``.  A failed check raises :class:`InternalAssertionError`
        naming the first word of the run, or of the sub-run.  These checks
        run on every slice compiled, products included: nothing checked is
        kept from one slice to the next.  They make the three parts land in
        the runs of distinct letters (``m`` of ``da`` is one degree below
        ``a``, ``m`` of ``a r_1`` heavier than ``a``), so their
        coefficients, normalized over F_p, never need summing.
        """
        if weight <= 0:
            return {0: [{}]} if weight == 0 else {}  # the empty word, a cycle
        p = self.ring.char
        runs, sizes, _ = self._layout(weight)
        checked = self._checked_slices.get(weight) if wanted is None else None
        built = checked[0] if checked is not None else None
        # _layout has put every letter that has a run, of this slice or one
        # below, in _letter_bidegree, so term letters with a run are read from
        # it directly
        bidegree_of = self._letter_bidegree
        compiled, layout, product_of = self._compiled, self._layout, self._product_of
        out: Dict[int, List[Optional[Column]]] = {}
        for i in sizes:
            need = wanted[i] if wanted is not None else None
            have = built[i] if built is not None else None
            below = runs.get(i - 1, {})
            # the columns take their row keys from here, so that they share
            # one int object per row rather than each holding its own
            rows = list(range(sizes.get(i - 1, 0)))
            columns: List[Optional[Column]] = []
            for a, (start, _) in runs[i].items():
                a_degree, a_weight = bidegree_of[a]
                lw, lj = weight - a_weight, i - 1 - a_degree
                lower = compiled(lw)[lj]
                s = -1 if a_degree % 2 == 0 else 1
                da_bidegree = (a_degree - 1, a_weight)
                da = []
                for m, c in self._diff_of(a):
                    run = below.get(m)
                    if run is None or bidegree_of[m] != da_bidegree:
                        raise self._leaves_slice(weight, i, start)
                    da.append((run[0], -c % p if p else -c))
                run = below.get(a)
                # rows of [a | dr]; without a run the columns below are empty
                a_rows = rows[run[0] : run[0] + run[1]] if run else []
                for r1, (lstart, n) in layout(lw)[0][lj].items():
                    first = start + lstart
                    if need is not None and not any(need[first : first + n]):
                        columns += [None] * n
                        continue
                    if r1 is None:
                        terms = da
                    else:
                        r1_degree, r1_weight = bidegree_of[r1]
                        product_bidegree = (a_degree + r1_degree, a_weight + r1_weight)
                        terms = list(da)
                        for m, c in product_of(a, r1):
                            run = below.get(m)
                            if run is None or bidegree_of[m] != product_bidegree:
                                raise self._leaves_slice(weight, i, first)
                            terms.append((run[0] - lstart, s * c % p if p else s * c))
                    for k in range(lstart, lstart + n):
                        if need is not None and not need[start + k]:
                            columns.append(None)
                            continue
                        if have is not None and have[start + k] is not None:
                            columns.append(have[start + k])
                            continue
                        if s == 1:
                            col = {a_rows[r]: c for r, c in lower[k].items()}
                        elif p:
                            col = {a_rows[r]: p - c for r, c in lower[k].items()}
                        else:
                            col = {a_rows[r]: -c for r, c in lower[k].items()}
                        for off, c in terms:
                            col[rows[off + k]] = c
                        columns.append(col)
            out[i] = columns
        return out

    def _leaves_slice(self, weight: int, degree: int, column: int) -> InternalAssertionError:
        """The error for a differential that leaves the slice, naming the
        word of the column."""
        return InternalAssertionError(
            f"differential of {self.weight_slice(weight)[degree][column]} "
            f"leaves slice (weight {weight}, degree {degree})"
        )

    def block_keys(self, weight: int) -> Optional[Dict[int, List[int]]]:
        """The sum of its letters' keys for every word of the weight slice, by
        degree in basis order, as laid out (:meth:`_layout`); ``None`` unless
        the base keys its letters."""
        return self._layout(weight)[2]

    def block_multiplicity(self, key: int) -> int:
        """The base's: an automorphism of the base acts letter by letter on
        its bar construction, so it keeps the orbits of blocks here too."""
        return self.base.block_multiplicity(key)

    def diff_monomial(self, word: Monomial) -> Element:
        # With prefix = k + |a_1| + ... + |a_k|, the suspended degree of the
        # first k letters: the inner differential of letter k+1 is signed
        # -(-1)**prefix, and merging letters k, k+1 (k >= 1) is signed
        # (-1)**prefix.
        out: Element = {}
        prefix = 0
        last = len(word) - 1
        for k, letter in enumerate(word):
            head = word[:k]
            tail = word[k + 1 :]
            sign = 1 if prefix & 1 else -1
            for m, c in self._diff_of(letter):
                key = head + (m,) + tail
                out[key] = out.get(key, 0) + sign * c
            prefix += 1 + self._bidegree_of(letter).degree
            if k < last:
                sign = -1 if prefix & 1 else 1
                tail = word[k + 2 :]
                for m, c in self._product_of(letter, word[k + 1]):
                    key = head + (m,) + tail
                    out[key] = out.get(key, 0) + sign * c
        return self.element(out)

    def mul_monomials(self, x: Monomial, y: Monomial) -> Element:
        return dict(self._shuffle(x, y))

    def _shuffle(self, x: Monomial, y: Monomial) -> Terms:
        """The signed shuffle product ``x ⧢ y``, memoized on ``(x, y)``:
        ``x_0 (x' ⧢ y) + (-1)**(s(y_0) * sum s(x)) y_0 (x ⧢ y')`` with ``s``
        the suspended degree ``1 + |letter|``."""
        if not x or not y:
            return ((x or y, 1),)
        got = self._shuffles.get((x, y))
        if got is None:
            out: Element = {}
            a = x[0]
            for word, c in self._shuffle(x[1:], y):
                out[(a,) + word] = c
            b = y[0]
            sx = sum(1 + self._bidegree_of(letter).degree for letter in x)
            odd = (1 + self._bidegree_of(b).degree) * sx % 2
            for word, c in self._shuffle(x, y[1:]):
                key = (b,) + word
                out[key] = out.get(key, 0) + (-c if odd else c)
            got = self._shuffles[(x, y)] = tuple(self.element(out).items())
        return got


def bar(base: WdgAlgebra) -> BarAlgebra:
    """The bar construction of an augmented weighted dg-algebra."""
    return BarAlgebra(base)


def iterate_bar(base: WdgAlgebra, n: int) -> WdgAlgebra:
    """Apply the bar construction ``n`` times (``n = 0`` returns ``base``)."""
    if n < 0:
        raise ValueError("bar iteration count must be >= 0")
    out = base
    for _ in range(n):
        out = BarAlgebra(out)
    return out


def suspension_chain(bar_algebra: BarAlgebra, e: Mapping[Monomial, int]) -> Element:
    """Suspend an element of the base into one-letter words ``c -> [c]``.

    Raises ``ValueError`` if any monomial has weight zero (the unit component
    of the base has no suspension).  Raises degree by one, preserves weight,
    and anticommutes with the differentials, so cycles map to cycles.
    """
    base = bar_algebra.base
    for m in e:
        if base.bidegree(m).weight == 0:
            raise ValueError("cannot suspend a weight-zero element")
    return bar_algebra.element({(m,): c for m, c in e.items()})
