"""Prime moduli for F_p linear algebra, and the rank of a dense matrix.

Mod-p ranks come from the one F_p reduction, the lowest-pivot column
reduction in :mod:`extbar.homology`; :func:`rank_mod_p` is its entry point
for a matrix given as dense rows.

The public entry points that take a modulus (:func:`rank_mod_p`,
:func:`extbar.homology.rank_of_columns_mod_p`,
:func:`extbar.homology.homology_over_Fp`, the predictors of
:mod:`extbar.predict`, the word enumerators of :mod:`extbar.words`,
:func:`extbar.koszul.build_Xp`, :func:`extbar.verify.run_suite` and
:class:`extbar.rings.Ring`) reject with ``ValueError`` any modulus that is
not a prime in 2..:data:`MAX_PRIME` (:func:`check_prime`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

#: The largest prime modulus extbar supports.  Exact integers would allow any
#: prime; the bound is kept so that the set of accepted moduli, and with it
#: the command line's exit codes, stays fixed.
MAX_PRIME = 3037000493


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division: about 27,500 odd
    trial divisors at :data:`MAX_PRIME`, run once per ``n`` in a process."""
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
    """Raise ``ValueError``, naming ``p``, unless it is a prime at most
    :data:`MAX_PRIME`; past the bound without testing primality."""
    if not (p <= MAX_PRIME and is_prime(p)):
        raise ValueError(f"modulus {p} is not a prime at most {MAX_PRIME}")


def rank_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix, given as rows, over F_p."""
    from .homology import rank_of_columns_mod_p  # homology imports this module

    n = len(matrix[0]) if len(matrix) else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix rows must have equal length")
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(n)]
    return rank_of_columns_mod_p(columns, p)
