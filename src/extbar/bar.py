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
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Tuple

from .algebra import Bidegree, Element, Monomial, WdgAlgebra

#: A cached element: its ``(monomial, coefficient)`` pairs, immutable.
Terms = Tuple[Tuple[Monomial, int], ...]


class BarAlgebra(WdgAlgebra):
    """Bar construction of ``base``; monomials are tuples of base monomials.

    The differential and the shuffle product ask only three things of the
    base, all about letters: bidegrees, products of two letters and
    differentials of one.  Each answer is cached here, keyed by the
    letter(s), the first time it is asked for.  Products and differentials
    are stored as tuples of ``(monomial, coefficient)`` pairs, so every
    element this algebra returns is built afresh and a caller may mutate it.
    The word-level differential itself is not cached: a homology run
    evaluates it once per basis word (see :func:`extbar.homology.compile_slice`).
    """

    def __init__(self, base: WdgAlgebra) -> None:
        super().__init__(base.ring)
        self.base = base
        self._letter_bidegree: Dict[Monomial, Bidegree] = {}
        self._letter_product: Dict[Tuple[Monomial, Monomial], Terms] = {}
        self._letter_diff: Dict[Monomial, Terms] = {}

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
        got = self._letter_diff.get(letter)
        if got is None:
            got = self._letter_diff[letter] = tuple(self.base.diff_monomial(letter).items())
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

    def _build_weight_slice(self, weight: int) -> Dict[int, Tuple[Monomial, ...]]:
        if weight == 0:
            return {0: ((),)}
        out: Dict[int, List[Monomial]] = {}
        word: List[Monomial] = []

        def go(remaining: int, degree: int) -> None:
            if remaining == 0:
                out.setdefault(len(word) + degree, []).append(tuple(word))
                return
            for c in range(1, remaining + 1):
                for i, basis in self.base.weight_slice(c).items():
                    for letter in basis:
                        word.append(letter)
                        go(remaining - c, degree + i)
                        word.pop()

        go(weight, 0)
        return {i: tuple(ms) for i, ms in out.items()}

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
        p, q = len(x), len(y)
        sx = [self._bidegree_of(a).degree + 1 for a in x]  # suspended degrees
        sy = [self._bidegree_of(b).degree + 1 for b in y]
        out: Element = {}
        for xpos in itertools.combinations(range(p + q), p):
            in_x = set(xpos)
            ypos = [k for k in range(p + q) if k not in in_x]
            sign_exp = 0
            for i, pa in enumerate(xpos):
                for j, pb in enumerate(ypos):
                    if pb < pa:
                        sign_exp += sx[i] * sy[j]
            word: List[Monomial] = [None] * (p + q)  # type: ignore[list-item]
            for i, pa in enumerate(xpos):
                word[pa] = x[i]
            for j, pb in enumerate(ypos):
                word[pb] = y[j]
            key = tuple(word)
            out[key] = out.get(key, 0) + (-1 if sign_exp % 2 else 1)
        return self.element(out)


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
