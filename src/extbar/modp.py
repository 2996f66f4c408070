"""Linear algebra over a prime field F_p on sparse vectors with exact ints.

Vectors are ``{index: coefficient}`` dicts.  :class:`OrderedEchelon` walks
vectors in the order they are given and keeps an echelon basis of the
independent ones; for each dependent vector it reports the relation that
expresses it through the earlier independent vectors.  That one routine gives
the mod-p homology ring (:class:`extbar.homology.FpHomologyRing`) its cycles,
its representatives and the coordinates of a class.  Mod-p ranks, which need
no relations, come from the lowest-pivot column reduction in
:mod:`extbar.homology`; :func:`rank_mod_p` is its entry point for a matrix
given as dense rows.

The public entry points that take a modulus (:func:`rank_mod_p`,
:func:`extbar.homology.rank_of_columns_mod_p`,
:func:`extbar.homology.homology_over_Fp` and the mod-p homology ring) reject
with ``ValueError`` any modulus that is not a prime in 2..:data:`MAX_PRIME`
(:func:`check_prime`); :class:`OrderedEchelon` rejects one outside that
range.
"""

from __future__ import annotations

import heapq
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: The largest prime modulus extbar supports.  Exact integers would allow any
#: prime; the bound is kept so that the set of accepted moduli, and with it
#: the command line's exit codes, stays fixed.
MAX_PRIME = 3037000493

Vector = Dict[int, int]


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division: about 27,500 odd
    trial divisors at :data:`MAX_PRIME`."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Raise ``ValueError``, naming ``p``, unless it is a prime in
    2..:data:`MAX_PRIME`."""
    if not (p <= MAX_PRIME and is_prime(p)):
        raise ValueError(f"modulus {p} is not a prime in 2..{MAX_PRIME}")


def rank_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix, given as rows, over F_p."""
    from .homology import rank_of_columns_mod_p  # homology imports this module

    n = len(matrix[0]) if len(matrix) else 0
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(n)]
    return rank_of_columns_mod_p(columns, p)


class OrderedEchelon:
    """An echelon basis over F_p of the independent vectors among those
    added so far, in the order they were added.

    Each basis vector is stored under its leading (largest) index with
    coefficient 1 there, together with its expression through the added
    vectors, keyed by their position in the walk (0 for the first vector
    added).  A vector is reduced against the basis lead by lead, largest
    first; what is left is either zero, and then the expressions of the
    basis vectors it used add up to its relation, or it has a lead that no
    basis vector has.  Which vectors are independent, and their relations,
    do not depend on that order; leading with the largest index keeps the
    fill lower on boundary columns.
    """

    def __init__(self, p: int) -> None:
        if not 2 <= p <= MAX_PRIME:  # primality is the caller's check
            check_prime(p)
        self.p = p
        self.count = 0
        self._basis: Dict[int, Tuple[Vector, Vector]] = {}

    def _reduce(self, vector: Mapping[int, int]) -> Tuple[Vector, Vector, Optional[int]]:
        """``(rest, used, lead)`` with ``vector = rest + sum used[k] * (k-th
        added vector)``; ``lead`` is the leading index of ``rest``, or None
        if ``rest`` is zero."""
        p = self.p
        rest = {i: c % p for i, c in vector.items() if c % p}
        used: Vector = {}
        heap = [-i for i in rest]
        heapq.heapify(heap)
        while heap:
            i = -heapq.heappop(heap)
            f = rest.get(i)
            if f is None:
                continue
            row = self._basis.get(i)
            if row is None:
                return rest, used, i
            entries, expression = row
            for k, e in entries.items():
                x = (rest.get(k, 0) - f * e) % p
                if not x:
                    del rest[k]
                else:
                    if k not in rest:
                        heapq.heappush(heap, -k)
                    rest[k] = x
            for k, e in expression.items():
                x = (used.get(k, 0) + f * e) % p
                if x:
                    used[k] = x
                else:
                    del used[k]
        return rest, used, None

    def relation(self, vector: Mapping[int, int]) -> Optional[Vector]:
        """The coefficients, by position, of the vectors added so far that
        sum to ``vector``, or None if it is independent of them.  Nothing is
        added."""
        _, used, lead = self._reduce(vector)
        return used if lead is None else None

    def add(self, vector: Mapping[int, int]) -> Optional[Vector]:
        """Add ``vector`` as the next position of the walk: None if it is
        independent of the vectors before it (it joins the basis), otherwise
        its :meth:`relation` to them."""
        rest, used, lead = self._reduce(vector)
        position = self.count
        self.count += 1
        if lead is None:
            return used
        p = self.p
        inverse = pow(rest[lead], -1, p)
        expression = {k: -c * inverse % p for k, c in used.items()}
        expression[position] = inverse
        self._basis[lead] = ({k: c * inverse % p for k, c in rest.items()}, expression)
        return None
