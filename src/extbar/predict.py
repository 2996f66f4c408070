"""Closed-form generator descriptions of the derived-functor tables.

A :class:`FreeAlgebraSpec` names a free bigraded algebra: an ordered list of
factors (divided-power, exterior or symmetric, optionally weight-twisted)
on families of generators, joined by plain or weight-signed tensor products.
Each generator carries a cohomological degree, a weight ``p**twist``, its
twist, and a multiplicity.

The exported builders produce, for any prime and any pair of the three
classical functor flavors (symmetric ``S``, exterior ``Lambda``, divided
power ``Gamma``), the generator description of the graded maps-algebra
between their twisted versions.  In :func:`ext_twisted_predict` each closed
form is one degree formula, and one enumerator owns the weight cut shared by
all of them.  :func:`poincare_dims` turns any spec into
exact bigraded dimension tables.  A table is the product of one factor per
generator family, ``(1+y)^m`` for an exterior family and ``1/(1-y)^m`` for a
symmetric or divided-power one, with ``y = x^(degree, weight)`` and ``m`` the
multiplicity; each factor is applied in place by a recurrence over the
table's weight rows, each row one int with a fixed-width digit per degree,
descending for ``(1+y)^m`` and ascending for ``1/(1-y)^m``, so nothing past
the weight cap is ever formed.

Two transforms implement the reduction of twisted pairs to untwisted ones:
:func:`twist_shift` trades a source twist for a degree regrading of the
target, and :func:`expand_by_even_offsets` spreads each generator into a
family along even degree offsets.  Both, like :meth:`FreeAlgebraSpec.truncate`
and :meth:`FreeAlgebraSpec.scaled_multiplicity`, map each generator in turn
through one private map, keeping factors and order.  Composing them from the
untwisted tables must match the direct closed forms of
:func:`ext_twisted_predict` — that equality is this module's central
self-consistency property, exercised by the verification suites.

Integral tables for the symmetric source are assembled separately in
:func:`ext_integral_predict` from the Koszul closed forms.  Both they and
the bar route (:func:`extbar.extract.ext_table_via_bar`) read a table off
the homology of the n-fold bar construction the same way:
:func:`bar_iterations` gives n for the target, and
:func:`regrade_bar_table` sends a class of degree j and weight d to
cohomological degree ``(n + 2) * d - j``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, replace
from itertools import chain, compress, count, product, repeat
from math import comb, gcd
from operator import lshift, or_
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, TypeVar

from .algebra import (
    DIVIDED,
    EXTERIOR,
    SYMMETRIC,
    FreeAlgebra,
    InternalAssertionError,
    WdgAlgebra,
    tensor_signed,
    weight_twist,
)
from .homology import AbelianGroup, TableKey
from .koszul import predicted_bar_homology
from .modp import check_prime
from .rings import GF, Ring

#: Functor names as used throughout the CLI and the table builders.
FUNCTORS = (SYMMETRIC, EXTERIOR, DIVIDED)  # "S", "Lambda", "Gamma"

_DUAL = {SYMMETRIC: DIVIDED, DIVIDED: SYMMETRIC, EXTERIOR: EXTERIOR}

V = TypeVar("V")


def _check_functors(*names: str) -> None:
    if not set(names) <= set(FUNCTORS):
        raise ValueError(f"functors must be in {FUNCTORS}")


def duality_flip(source: str, target: str) -> Tuple[str, str]:
    """The dual pair ``(Y*, X*)`` with S* = Gamma, Gamma* = S, Lambda* = Lambda;
    its table coincides with the table of ``(X, Y)``.  Raises ``ValueError``
    on a name outside :data:`FUNCTORS`."""
    _check_functors(source, target)
    return _DUAL[target], _DUAL[source]


@dataclass(frozen=True)
class GeneratorFamily:
    """One generator: cohomological degree, weight (= p**twist), twist,
    multiplicity."""

    degree: int
    weight: int
    twist: int
    multiplicity: int = 1


@dataclass(frozen=True)
class AlgebraFactor:
    """A free factor on a generator list, optionally weight-twisted."""

    flavor: str
    generators: Tuple[GeneratorFamily, ...]
    weight_twisted: bool = False


@dataclass(frozen=True)
class FreeAlgebraSpec:
    """An ordered tensor product of free factors over F_p.

    ``junction_eps[i]`` is the sign parameter of the tensor product joining
    factor ``i`` to factor ``i+1`` (0 = plain, 1 = weight-signed).
    """

    p: int
    factors: Tuple[AlgebraFactor, ...]
    junction_eps: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        expected = max(len(self.factors) - 1, 0)
        if len(self.junction_eps) != expected:
            raise ValueError(
                f"need {expected} junction signs for {len(self.factors)} factors"
            )

    def truncate(self, weight_max: int) -> "FreeAlgebraSpec":
        """Drop generators too heavy to touch any slice within the cap."""
        return _map_generators(self, lambda g: (g,) if g.weight <= weight_max else ())

    def scaled_multiplicity(self, m: int) -> "FreeAlgebraSpec":
        return _map_generators(self, lambda g: (replace(g, multiplicity=g.multiplicity * m),))

    def all_generators(self) -> List[Tuple[str, GeneratorFamily]]:
        return [(f.flavor, g) for f in self.factors for g in f.generators]


def _spec(p: int, *factors: AlgebraFactor, eps: Tuple[int, ...] = ()) -> FreeAlgebraSpec:
    return FreeAlgebraSpec(p, factors, eps or (0,) * max(len(factors) - 1, 0))


def _map_generators(
    spec: FreeAlgebraSpec, fn: Callable[[GeneratorFamily], Iterable[GeneratorFamily]]
) -> FreeAlgebraSpec:
    """``spec`` with each generator ``g`` replaced, in order, by the
    generators ``fn(g)``; factors and junction signs are kept."""
    factors = tuple(
        replace(f, generators=tuple(chain.from_iterable(map(fn, f.generators))))
        for f in spec.factors
    )
    return replace(spec, factors=factors)


# ----------------------------------------------------------------------
# dimension tables
# ----------------------------------------------------------------------


def poincare_dims(spec: FreeAlgebraSpec, weight_max: int) -> Dict[TableKey, int]:
    """Exact dimensions per (cohomological degree, weight) up to weight
    ``weight_max``, zeros omitted, keys sorted.

    The table is the product of one factor per generator family, with
    ``y = x^(degree, weight)`` and ``m`` the multiplicity: ``(1+y)^m`` for an
    exterior family and ``1/(1-y)^m`` for a symmetric or divided-power one.
    Weight twists and junction signs change products, never dimensions.

    * **Lattice.** Families past the cap or of multiplicity 0 are dropped.
      Every monomial of the rest has a weight divisible by the gcd ``g`` of
      their weights, so the table keeps one row per multiple ``d * g`` of
      ``g`` up to the cap, and a family of weight ``w`` steps ``w // g``
      rows.
    * **Order.** The factors commute, so the families are applied heaviest
      first (a stable sort): a heavy family multiplies a table that is still
      sparse, and the light families, which fill the rows, come last.
    * **Rows.** Each row is one int, the row's polynomial in the degree
      evaluated at ``2**B``: the count of degree ``i`` is the ``B``-bit digit
      ``i`` (Kronecker substitution).  Multiplying a row by ``y^j`` is then
      a shift by ``j * a * B`` bits, for a family of degree ``a``.
    * **Recurrence.** Each family is applied in place, in a single pass over
      the rows, with ``w`` its step in rows and ``a`` its degree:

      - exterior, rows in descending weight:
        ``row[d] += sum_{j=1..m} C(m, j) * (row[d-j*w] << j*a*B)``;
      - symmetric or divided power, rows in ascending weight, so the rows
        read already carry the family (this divides by ``(1-y)^m``):
        ``row[d] += sum_j (-1)^(j+1) C(m, j) * (row[d-j*w] << j*a*B)``,
        over the same ``j``;

      both sums stop at the first row, so nothing past the cap is formed;
      at ``m = 1`` a family costs one shift-add per row.
    * **Width.** The same recurrence with ``B = 0`` gives each row's total
      count (the table at ``x = 1``), and ``B`` is the bit length of the
      largest total, rounded up to whole machine words.  Counts are
      nonnegative, so each is at most its row's total; so is every count of
      a partial product, since each factor has nonnegative coefficients and
      constant term 1.  Python ints are exact, so a signed sum that passes
      through negative values still ends on the row's polynomial at
      ``2**B``, and with every count below ``2**B`` no digit carries into
      the next.
    * **Assembly.** The rows' bytes are joined into one array of machine
      words, behind the OR of all rows, whose nonzero digits are the degree
      columns that hold any count.  Only those columns are read, each by
      one strided slice over the rows (digits wider than one word are
      recombined from their 64-bit limbs, column by column), in degree
      order and then weight order, so the keys come out sorted without
      comparing any key tuples.

    One exterior family of multiplicity 2 on a generator of degree 1 and
    weight 1, times one divided-power family on a generator of degree 2 and
    weight 1, is ``(1 + 2e + e^2)(1 + g + g^[2] + ...)``:

    >>> spec = FreeAlgebraSpec(
    ...     2,
    ...     (
    ...         AlgebraFactor(EXTERIOR, (GeneratorFamily(1, 1, 0, 2),)),
    ...         AlgebraFactor(DIVIDED, (GeneratorFamily(2, 1, 0),)),
    ...     ),
    ...     (0,),
    ... )
    >>> poincare_dims(spec, 2)
    {(0, 0): 1, (1, 1): 2, (2, 1): 1, (2, 2): 1, (3, 2): 2, (4, 2): 1}

    Raises ``ValueError`` on a negative ``weight_max``, a generator of weight
    below 1 or of negative degree (even one past the cap) or a negative
    multiplicity.
    """
    if weight_max < 0:
        raise ValueError("weight_max must be >= 0")
    families: List[Tuple[str, GeneratorFamily]] = []
    for flavor, fam in spec.all_generators():
        if fam.weight < 1:
            raise ValueError("generator weights must be >= 1")
        if fam.degree < 0:
            raise ValueError("generator degrees must be >= 0")
        if fam.multiplicity < 0:
            raise ValueError("generator multiplicities must be >= 0")
        if fam.weight <= weight_max and fam.multiplicity > 0:
            families.append((flavor, fam))
    g = gcd(*(fam.weight for _, fam in families)) or 1
    top = weight_max // g
    families.sort(key=lambda flavor_fam: -flavor_fam[1].weight)
    steps = [(flavor, fam.degree, fam.weight // g, fam.multiplicity) for flavor, fam in families]
    # A digit is one machine word of 1, 2, 4 or 8 bytes, or whole 64-bit
    # limbs, wide enough for the largest row total.
    nbytes = -(-max(_packed_rows(steps, top, 0)).bit_length() // 8)
    digit_bytes = 1 << (nbytes - 1).bit_length() if nbytes <= 8 else -(-nbytes // 8) * 8
    return _unpack_rows(_packed_rows(steps, top, 8 * digit_bytes), g, digit_bytes)


def _packed_rows(steps: List[Tuple[str, int, int, int]], top: int, width: int) -> List[int]:
    """The rows ``0..top`` of the product of the families ``steps``, each as
    ``(flavor, degree, step in rows, multiplicity)``, with the count of
    degree ``i`` as the ``width``-bit digit ``i`` of its row's int; width 0
    gives each row's total count."""
    rows = [0] * (top + 1)
    rows[0] = 1
    for flavor, a, w, m in steps:
        shift = a * width
        if flavor == EXTERIOR:
            order = range(top, w - 1, -1)
            sign = 1
        else:
            order = range(w, top + 1)
            sign = -1
        if m == 1:
            for d in order:
                rows[d] += rows[d - w] << shift
            continue
        js = range(1, min(m, top // w) + 1)
        terms = [(j * w, j * shift, sign ** (j + 1) * comb(m, j)) for j in js]
        for d in order:
            row = rows[d]
            for dw, sh, c in terms:
                if dw > d:
                    break
                row += c * (rows[d - dw] << sh)
            rows[d] = row
    return rows


#: Array typecodes by item size in bytes: the machine words digits are read as.
_WORD_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _unpack_rows(rows: List[int], g: int, digit_bytes: int) -> Dict[TableKey, int]:
    """The table of :func:`poincare_dims` from its packed rows (row ``d``
    at weight ``d * g``, ``digit_bytes`` bytes per digit), zeros omitted,
    keys sorted by degree, then weight."""
    mask = 0
    for row in rows:
        mask |= row
    limbs = -(-digit_bytes // 8)
    columns = -(-mask.bit_length() // (8 * digit_bytes))
    stride = columns * limbs  # words per row
    words = array(_WORD_CODES[digit_bytes // limbs])
    row_bytes = columns * digit_bytes
    # The OR of the rows goes first: its nonzero digits are the degree
    # columns that hold any count, and only those are read.
    words.frombytes(b"".join(row.to_bytes(row_bytes, "little") for row in [mask, *rows]))
    if sys.byteorder == "big":
        words.byteswap()

    def digits(starts: List[int], stop: Optional[int], step: int) -> List[int]:
        """The digits whose low limbs are ``words[start:stop:step]``, for
        each start in turn."""
        out: List[int] = []
        for limb in range(limbs):
            slices = [slice(start + limb, stop, step) for start in starts]
            part = chain.from_iterable(map(words.__getitem__, slices))
            out = list(map(or_, out, map(lshift, part, repeat(64 * limb)))) if limb else list(part)
        return out

    occupied = list(compress(count(), digits([0], stride, limbs)))
    counts = digits([stride + i * limbs for i in occupied], None, stride)
    keys = product(occupied, range(0, len(rows) * g, g))
    return dict(compress(zip(keys, counts), counts))


def build_spec_algebra(spec: FreeAlgebraSpec, ring: Optional[Ring] = None) -> WdgAlgebra:
    """Realize a spec as an explicit algebra (zero differential), for
    structural checks such as (1,eps)-commutativity."""
    ring = ring if ring is not None else GF(spec.p)

    def one(factor: AlgebraFactor) -> WdgAlgebra:
        alg: WdgAlgebra = FreeAlgebra(
            factor.flavor,
            [(g.degree, g.weight, g.multiplicity) for g in factor.generators],
            ring,
        )
        return weight_twist(alg) if factor.weight_twisted else alg

    if not spec.factors:
        return FreeAlgebra(SYMMETRIC, [], ring)
    out = one(spec.factors[0])
    for eps, factor in zip(spec.junction_eps, spec.factors[1:]):
        out = tensor_signed(out, one(factor), eps)
    return out


# ----------------------------------------------------------------------
# generator lists for the computed theories
# ----------------------------------------------------------------------


def cartan_field_generators(
    p: int, n: int, weight_max: int, m: int = 1
) -> FreeAlgebraSpec:
    """Generator description of the mod-p homology of the n-fold bar
    construction of divided powers on m weight-1 generators in degree 2.

    One family per admissible word of height ``n + 2``: degree the word
    degree, weight ``p**twisting``.  For odd primes, odd-degree words span
    an exterior factor and even-degree words a divided-power factor; at
    p = 2 everything is divided-power.  Words heavier than the cap are cut.
    Raises ``ValueError`` unless ``p`` is a supported prime, or on a
    negative ``n``.
    """
    check_prime(p)
    if n < 0:
        raise ValueError("bar iteration count must be >= 0")
    from .words import enumerate_words, word_degree, word_degree_bound, word_twisting

    height = n + 2
    ext: List[GeneratorFamily] = []
    div: List[GeneratorFamily] = []
    for w in enumerate_words(p, height, word_degree_bound(p, height, weight_max)):
        t = word_twisting(w)
        if p**t > weight_max:
            continue
        fam = GeneratorFamily(word_degree(w, p), p**t, t, m)
        if p != 2 and fam.degree % 2:
            ext.append(fam)
        else:
            div.append(fam)
    factors: List[AlgebraFactor] = []
    if ext:
        factors.append(AlgebraFactor(EXTERIOR, tuple(ext)))
    factors.append(AlgebraFactor(DIVIDED, tuple(div)))
    return _spec(p, *factors)


def ext_twisted_predict(
    source: str,
    target: str,
    p: int,
    s: int,
    t: int,
    weight_max: int,
    m: int = 1,
) -> FreeAlgebraSpec:
    """Closed-form generator description of the graded maps-algebra from the
    (s+t)-twisted source to the s-twisted target, truncated by weight.

    All nine flavor pairs are covered.  ``m`` is the rank of the evaluation
    variable (each family repeats m times).  Each closed form is one degree
    formula in ``(i, k, l)`` handed to a single enumerator, which owns the
    weight cut: a family of twist ``r`` exists iff ``p**r <= weight_max``.
    At p = 3 the symmetric-to-exterior table is an exterior factor on the
    degrees ``3**k - 1`` tensor a twisted divided-power one on ``3**(k+1) - 2``:

    >>> [[(g.degree, g.weight) for g in f.generators]
    ...  for f in ext_twisted_predict(SYMMETRIC, EXTERIOR, 3, 0, 0, 9).factors]
    [[(0, 1), (2, 3), (8, 9)], [(1, 3), (7, 9)]]

    Raises ``ValueError`` unless ``p`` is a supported prime and both names
    are in :data:`FUNCTORS`, or on a negative twist.
    """
    check_prime(p)
    _check_functors(source, target)
    if s < 0 or t < 0:
        raise ValueError("twists must be >= 0")
    twists = 0  # the twists r with p**r <= weight_max are 0 .. twists - 1
    while p**twists <= weight_max:
        twists += 1

    def families(
        degree: Callable[[int, int, int], int], lead: int = 0, depth: int = 1
    ) -> Tuple[GeneratorFamily, ...]:
        """The families of degree ``degree(i, k, l)``, weight ``p**r`` and
        twist ``r = k + l + lead + t + s``, for every ``i < p**s`` and every
        ``k`` (``k = 0`` only at depth 0) and ``l`` (``l = 0`` only below
        depth 2) with ``p**r <= weight_max``; ordered by k, then l, then i."""
        room = twists - lead - t - s  # k + l < room
        return tuple(
            GeneratorFamily(degree(i, k, l), p**r, r, m)
            for k in range(room if depth else min(room, 1))
            for l in range(room - k if depth == 2 else 1)
            for r in [k + l + lead + t + s]
            for i in range(p**s)
        )

    def single(flavor: str, fams: Tuple[GeneratorFamily, ...]) -> FreeAlgebraSpec:
        return _spec(p, AlgebraFactor(flavor, fams))

    # Pairs with symmetric target: the dual flavor of the source on one
    # parametrized family at even degrees.
    if target == SYMMETRIC:
        return single(_DUAL[source], families(lambda i, k, l: 2 * i * p**t, depth=0))

    # Pairs with source Gamma or the exterior-exterior pair: a single family.
    if target == EXTERIOR and source != SYMMETRIC:
        flavor = EXTERIOR if source == DIVIDED else DIVIDED
        return single(flavor, families(lambda i, k, l: (2 * i + 1) * p**t - 1, depth=0))
    if source == DIVIDED:  # target Gamma
        return single(DIVIDED, families(lambda i, k, l: (2 * i + 2) * p**t - 2, depth=0))

    if source == SYMMETRIC and target == DIVIDED:
        if p == 2:
            return single(
                DIVIDED,
                families(lambda i, k, l: (2 * i + 2) * 2 ** (k + l + t) - 2**k - 1, depth=2),
            )
        first = families(lambda i, k, l: (2 * i + 2) * p ** (k + t) - 2)
        second = families(
            lambda i, k, l: (2 * i + 2) * p ** (k + l + 1 + t) - 2 * p**k - 1, lead=1, depth=2
        )
        third = families(
            lambda i, k, l: (2 * i + 2) * p ** (k + l + 2 + t) - 2 * p ** (k + 1) - 2,
            lead=2,
            depth=2,
        )
        return _spec(
            p,
            AlgebraFactor(DIVIDED, first),
            AlgebraFactor(EXTERIOR, second),
            AlgebraFactor(DIVIDED, third),
            eps=(0, 0),
        )

    # (S, Lambda) and (Lambda, Gamma): at p = 2 the left list alone,
    # divided-power; at odd p, Lambda(left) tensor_1 twisted Gamma(right).
    if target == EXTERIOR:  # source S
        left, right = (
            lambda i, k, l: (2 * i + 1) * p ** (k + t) - 1,
            lambda i, k, l: (2 * i + 1) * p ** (k + 1 + t) - 2,
        )
    else:  # (Lambda, Gamma)
        left, right = (
            lambda i, k, l: (2 * i + 2) * p ** (k + t) - p**k - 1,
            lambda i, k, l: (2 * i + 2) * p ** (k + 1 + t) - p ** (k + 1) - 2,
        )
    if p == 2:
        return single(DIVIDED, families(left))
    return _spec(
        p,
        AlgebraFactor(EXTERIOR, families(left)),
        AlgebraFactor(DIVIDED, families(right, lead=1), True),
        eps=(1,),
    )


def ext_field_predict(
    source: str, target: str, p: int, weight_max: int, m: int = 1
) -> FreeAlgebraSpec:
    """Untwisted field tables: :func:`ext_twisted_predict` at s = t = 0."""
    return ext_twisted_predict(source, target, p, 0, 0, weight_max, m)


# ----------------------------------------------------------------------
# the two reduction transforms
# ----------------------------------------------------------------------

_REGRADE_PER_WEIGHT = {
    SYMMETRIC: lambda p, t: 0,
    EXTERIOR: lambda p, t: p**t - 1,
    DIVIDED: lambda p, t: 2 * (p**t - 1),
}


def twist_shift(spec: FreeAlgebraSpec, t: int, target: str) -> FreeAlgebraSpec:
    """Trade a source twist by ``t`` for a target-dependent regrading:
    each generator (a, w, r) becomes (a + w*alpha, w*p**t, r + t) with
    alpha = 0 / p**t - 1 / 2(p**t - 1) for target S / Lambda / Gamma.
    Raises ``ValueError`` on a negative ``t`` or a target outside
    :data:`FUNCTORS`."""
    if t < 0:
        raise ValueError("twist must be >= 0")
    _check_functors(target)
    alpha = _REGRADE_PER_WEIGHT[target](spec.p, t)
    scale = spec.p**t
    return _map_generators(
        spec,
        lambda g: (
            GeneratorFamily(
                g.degree + g.weight * alpha, g.weight * scale, g.twist + t, g.multiplicity
            ),
        ),
    )


def expand_by_even_offsets(spec: FreeAlgebraSpec, s: int) -> FreeAlgebraSpec:
    """Spread each generator (a, w, r) into the p**s generators
    (a + 2i*p**r, w*p**s, r + s) for 0 <= i < p**s.

    This is the generator-level shadow of raising both twists by s: the
    offsets run over even multiples of p to the generator's own twist.
    """
    if s < 0:
        raise ValueError("parameter must be >= 0")
    p = spec.p
    copies = p**s
    return _map_generators(
        spec,
        lambda g: (
            GeneratorFamily(
                g.degree + 2 * i * p**g.twist, g.weight * copies, g.twist + s, g.multiplicity
            )
            for i in range(copies)
        ),
    )


# ----------------------------------------------------------------------
# integral tables
# ----------------------------------------------------------------------


def bar_iterations(target: str) -> int:
    """How many bar constructions of divided powers give the table with the
    symmetric source and this target: 1 for ``Lambda``, 2 for ``Gamma``."""
    if target == EXTERIOR:
        return 1
    if target == DIVIDED:
        return 2
    raise ValueError("target must be Lambda or Gamma")


def regrade_bar_table(homology: Mapping[TableKey, V], n: int) -> Dict[TableKey, V]:
    """The Ext table of n-fold bar homology keyed by (degree j, weight d):
    each class goes to cohomological degree ``(n + 2) * d - j``, with the
    keys sorted.  A class regraded below degree 0 raises
    :class:`InternalAssertionError`."""
    out: Dict[TableKey, V] = {}
    for (j, d), value in homology.items():
        i = (n + 2) * d - j
        if i < 0:
            raise InternalAssertionError(f"homology class at ({j}, {d}) regrades below degree 0")
        out[(i, d)] = value
    return dict(sorted(out.items()))


def ext_integral_predict(
    source: str, target: str, m: int, weight_max: int
) -> Dict[TableKey, AbelianGroup]:
    """Integral tables for the symmetric source, assembled from the Koszul
    closed forms: keys are (cohomological degree, weight), sorted.

    Only ``source = "S"`` with target exterior or divided-power is defined
    integrally here; other sources reduce to field/duality cases.
    """
    if source != SYMMETRIC:
        raise ValueError("integral tables are computed for the symmetric source")
    n = bar_iterations(target)
    return regrade_bar_table(predicted_bar_homology(n, m, weight_max), n)
