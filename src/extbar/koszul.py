"""Small parametrized Koszul-type complexes with exactly computable homology.

Two dual variants are built over any coefficient ring, both on a finite list
of weighted generators and an integer parameter ``h``:

* the *Koszul* variant on odd-degree generators: divided powers on the
  suspended generators tensored with an exterior part, differential sending
  ``gamma_e (x) omega  ->  h * sum_i gamma_(e - delta_i) (x) (v_i ^ omega)``;
* the *De Rham* variant on even-degree generators: divided powers on the
  generators tensored with an exterior part on their suspensions,
  differential contracting an exterior factor into the divided-power part.

For a single generator the homology has a closed form: the unit line plus
one cyclic group per positive weight, of order ``h`` (Koszul, odd side) or
``d*h`` in weight ``d`` (De Rham, even side).  Tensoring these closed forms
along Kunneth and keeping p-primary parts reproduces, weight by weight, the
integral homology of iterated bar constructions of divided-power algebras;
:func:`predicted_bar_homology` packages that assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .algebra import (
    DIVIDED,
    EXTERIOR,
    Element,
    FreeAlgebra,
    Monomial,
    TensorAlgebra,
)
from .homology import (
    AbelianGroup,
    TableKey,
    _reduce_slice,
    kunneth_fold,
    p_primary_unitalize,
)
from .rings import GF, Ring, ZZ, is_prime
from .words import enumerate_p_pairs, word_degree_bound

GeneratorTriple = Tuple[int, int, int]  # (degree, weight, multiplicity)

KOSZUL = "Koszul"
DERHAM = "DeRham"


@dataclass(frozen=True)
class KoszulSpec:
    """Input data for :func:`build_koszul`.

    ``variant`` selects the parity convention: ``"Koszul"`` requires all
    generator degrees odd, ``"DeRham"`` all even.
    """

    generators: Tuple[GeneratorTriple, ...]
    h: int
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in (KOSZUL, DERHAM):
            raise ValueError(f"unknown variant {self.variant!r}")
        want_odd = self.variant == KOSZUL
        for a, w, mult in self.generators:
            if a % 2 != (1 if want_odd else 0):
                raise ValueError(
                    f"{self.variant} variant needs generator degrees "
                    f"{'odd' if want_odd else 'even'}, got {a}"
                )


class KoszulAlgebra(TensorAlgebra):
    """Divided-power part tensor exterior part, with the contracting
    differential scaled by ``h``.

    Both tensor factors sit in the parities that make the plain (unsigned)
    componentwise product correct, so this subclasses the eps=0 tensor
    algebra and only supplies the differential.
    """

    def __init__(self, spec: KoszulSpec, ring: Ring = ZZ) -> None:
        flat = [(a, w) for a, w, mult in spec.generators for _ in range(mult)]
        if spec.variant == KOSZUL:
            gamma_gens = [(a + 1, w, 1) for a, w in flat]
            lambda_gens = [(a, w, 1) for a, w in flat]
        else:
            gamma_gens = [(a, w, 1) for a, w in flat]
            lambda_gens = [(a + 1, w, 1) for a, w in flat]
        super().__init__(
            FreeAlgebra(DIVIDED, gamma_gens, ring),
            FreeAlgebra(EXTERIOR, lambda_gens, ring),
            eps=0,
        )
        self.spec = spec

    def __repr__(self) -> str:
        return f"{self.spec.variant}[h={self.spec.h}]({list(self.spec.generators)})"

    def diff_monomial(self, mono: Monomial) -> Element:
        exps, indices = mono
        h = self.spec.h
        out: Element = {}
        if self.spec.variant == KOSZUL:
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                wedge = self.right.mul_monomials((i,), indices)
                for j, c in wedge.items():
                    self.add_into(out, {(lowered, j): h * c})
        else:
            for pos, i in enumerate(indices):
                sign = -1 if pos % 2 else 1
                raised = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                coeff = exps[i] + 1
                rest = indices[:pos] + indices[pos + 1 :]
                self.add_into(out, {(raised, rest): sign * h * coeff})
        return out


def build_koszul(spec: KoszulSpec, ring: Ring = ZZ) -> KoszulAlgebra:
    return KoszulAlgebra(spec, ring)


def koszul_homology_closed_form(
    degree: int, h: int, weight_max: int, weight: int = 1
) -> Dict[TableKey, AbelianGroup]:
    """Homology table of the single-generator complex with parameter ``h``.

    For an odd generator degree ``2i-1`` (Koszul variant): Z at (0,0) and
    Z/h at ``(2i*d - 1, d*weight)`` for every d >= 1 within the weight cap.
    For an even degree ``2i`` (De Rham variant): Z at (0,0) and Z/(d*h) at
    ``(2i*d, d*weight)``.  It holds only for h != 0; h = 0 raises ``ValueError``.
    """
    if weight < 1:
        raise ValueError("generator weight must be >= 1")
    if h == 0:
        raise ValueError("the closed form needs h != 0")
    out: Dict[TableKey, AbelianGroup] = {(0, 0): AbelianGroup.free(1)}
    d = 1
    while d * weight <= weight_max:
        if degree % 2:
            group = AbelianGroup.cyclic(h)
            key = ((degree + 1) * d - 1, d * weight)
        else:
            group = AbelianGroup.cyclic(d * h)
            key = (degree * d, d * weight)
        if not group.is_trivial:
            out[key] = group
        d += 1
    return out


def koszul_kernels_dims(
    generators: Sequence[GeneratorTriple],
    p: int,
    weight_max: int,
    max_degree: int,
) -> Dict[TableKey, int]:
    """Dimensions of the cycle spaces of the h=1 Koszul complex over F_p.

    The complex is exact in positive degrees, so the cycle dimension at
    degree ``i`` equals the rank of the differential out of degree ``i+1``;
    degree 0 carries the unit line.  The ranks are read off the checked
    slice like any other slice homology.
    """
    algebra = build_koszul(KoszulSpec(tuple(generators), h=1, variant=KOSZUL), GF(p))
    out: Dict[TableKey, int] = {(0, 0): 1}
    for d in range(1, weight_max + 1):
        diagonals = _reduce_slice(algebra.slice_columns(d), p)
        for i in sorted(diagonals):
            r = len(diagonals.get(i + 1, ()))
            if r and 1 <= i <= max_degree:
                out[(i, d)] = r
    return out


# ----------------------------------------------------------------------
# assembly of the bar-homology predictors
# ----------------------------------------------------------------------


def build_Xp(p: int, height: int, weight_max: int, m: int = 1) -> KoszulAlgebra | TensorAlgebra:
    """The product of parameter-p complexes attached to the pairs of the
    given height: Koszul variant over the odd-degree pairs tensor De Rham
    variant over the even-degree pairs, each pair taken with multiplicity
    ``m`` at weight ``p**twisting``.  Pairs heavier than ``weight_max`` are
    dropped (they cannot touch the computed slices)."""
    bound = word_degree_bound(p, height, weight_max)
    odd: List[GeneratorTriple] = []
    even: List[GeneratorTriple] = []
    for pair in enumerate_p_pairs(p, height, bound):
        if pair.weight > weight_max:
            continue
        target = odd if pair.degree % 2 else even
        target.append((pair.degree, pair.weight, m))
    koszul_part = build_koszul(KoszulSpec(tuple(odd), h=p, variant=KOSZUL))
    derham_part = build_koszul(KoszulSpec(tuple(even), h=p, variant=DERHAM))
    return TensorAlgebra(koszul_part, derham_part, eps=0)


def build_X0(height: int, m: int = 1) -> FreeAlgebra:
    """The torsion-free factor: an exterior algebra on m weight-1 generators
    in degree ``height`` when that is odd, divided powers when even.
    Raises ``ValueError`` on a negative height."""
    if height < 0:
        raise ValueError("height must be >= 0")
    flavor = EXTERIOR if height % 2 else DIVIDED
    return FreeAlgebra(flavor, [(height, 1, m)])


def xp_homology_table(
    p: int, height: int, weight_max: int, m: int = 1
) -> Dict[TableKey, AbelianGroup]:
    """Homology of :func:`build_Xp` assembled from the single-generator
    closed forms by Kunneth (exact: the factors are complexes of free
    finitely generated Z-modules)."""
    bound = word_degree_bound(p, height, weight_max)
    tables = []
    for pair in enumerate_p_pairs(p, height, bound):
        if pair.weight > weight_max:
            continue
        t = koszul_homology_closed_form(pair.degree, p, weight_max, weight=pair.weight)
        tables.extend([t] * m)
    return kunneth_fold(tables, weight_max)


def predicted_bar_homology(
    n: int, m: int, weight_max: int
) -> Dict[TableKey, AbelianGroup]:
    """Additive prediction for the homology of the n-fold bar construction
    of divided powers on m weight-1 generators in degree 2.

    The free part comes from :func:`build_X0` at height ``n + 2``; each
    prime ``p <= weight_max`` contributes the p-primary unitalization of its
    :func:`xp_homology_table`.  Cross-prime torsion products vanish, so the
    final fold is a plain Kunneth product.  Raises ``ValueError`` on a
    negative ``n``.
    """
    if n < 0:
        raise ValueError("bar iteration count must be >= 0")
    height = n + 2
    x0 = build_X0(height, m)
    x0_table: Dict[TableKey, AbelianGroup] = {}
    for d in range(weight_max + 1):
        for i, dim in x0.dims(d).items():
            x0_table[(i, d)] = AbelianGroup.free(dim)
    tables = [x0_table]
    for p in range(2, weight_max + 1):
        if is_prime(p):
            tables.append(
                p_primary_unitalize(xp_homology_table(p, height, weight_max, m), p)
            )
    return kunneth_fold(tables, weight_max)
