"""Cross-check suites: every closed-form answer in the package against the
matching direct computation, plus the embedded golden tables.

Each suite compares two independently produced tables and reports the first
mismatching bidegree, so a failure pinpoints where the two routes diverge.
The CLI maps these results onto exit codes (0 pass / 1 fail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from .extract import bar_source_algebra
from .homology import (
    AbelianGroup,
    TableKey,
    homology_over_Fp,
    homology_over_Z,
    integral_homology_table,
)
from .koszul import (
    DERHAM,
    KOSZUL,
    KoszulSpec,
    build_koszul,
    koszul_homology_closed_form,
    predicted_bar_homology,
)
from .modp import check_prime
from .predict import (
    FUNCTORS,
    cartan_field_generators,
    expand_by_even_offsets,
    ext_field_predict,
    ext_twisted_predict,
    poincare_dims,
    twist_shift,
)

#: The two integral homology tables of weight 4 published for the single- and
#: double-bar constructions of divided powers on one degree-2 generator.
GOLDEN_WEIGHT4_SINGLE: Dict[int, AbelianGroup] = {
    9: AbelianGroup.cyclic(2),
    10: AbelianGroup.cyclic(3),
    11: AbelianGroup.cyclic(2),
}
GOLDEN_WEIGHT4_DOUBLE: Dict[int, AbelianGroup] = {
    10: AbelianGroup.cyclic(2),
    12: AbelianGroup.cyclic(12),
    13: AbelianGroup.cyclic(2),
    14: AbelianGroup.cyclic(2),
    16: AbelianGroup.free(1),
}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    checks: int
    mismatch: Optional[str] = None

    def summary(self) -> str:
        if self.passed:
            return f"{self.suite}: PASS ({self.checks} checks)"
        return f"{self.suite}: FAIL ({self.mismatch})"


def _compare_tables(
    computed: Mapping[TableKey, object],
    predicted: Mapping[TableKey, object],
    label: str = "",
) -> Optional[str]:
    """First mismatch between two tables, or None."""
    for key in sorted(set(computed) | set(predicted)):
        a = computed.get(key)
        b = predicted.get(key)
        if a != b:
            where = f" [{label}]" if label else ""
            return f"at {key}{where}: computed {a!r}, predicted {b!r}"
    return None


def verify_cartan_field(
    p: int, n: int, weight_max: int, m: int = 1
) -> SuiteResult:
    """Mod-p bar homology dimensions against the admissible-word prediction."""
    algebra = bar_source_algebra(n, m)
    predicted = poincare_dims(cartan_field_generators(p, n, weight_max, m), weight_max)
    checks = 0
    for d in range(weight_max + 1):
        computed = {
            (i, d): dim for i, dim in homology_over_Fp(algebra, d, p).items()
        }
        column = {key: v for key, v in predicted.items() if key[1] == d}
        bad = _compare_tables(computed, column, f"p={p} n={n} m={m}")
        if bad:
            return SuiteResult("cartan-field", False, checks, bad)
        checks += max(len(computed), 1)
    return SuiteResult("cartan-field", True, checks)


def verify_cartan_integral(n: int, weight_max: int, m: int = 1) -> SuiteResult:
    """Integral bar homology against the Koszul-assembled prediction."""
    computed = integral_homology_table(bar_source_algebra(n, m), weight_max)
    predicted = predicted_bar_homology(n, m, weight_max)
    bad = _compare_tables(computed, predicted, f"n={n} m={m}")
    if bad:
        return SuiteResult("cartan-integral", False, len(computed), bad)
    return SuiteResult("cartan-integral", True, max(len(computed), 1))


def verify_koszul(weight_max: int = 5) -> SuiteResult:
    """Single-generator complexes with parameter h = 2, 3, 5: direct
    Smith-normal-form homology of both variants against the closed-form
    tables."""
    checks = 0
    for h in (2, 3, 5):
        for variant, degree in ((KOSZUL, 3), (DERHAM, 2)):
            algebra = build_koszul(KoszulSpec(((degree, 1, 1),), h, variant))
            closed = koszul_homology_closed_form(degree, h, weight_max)
            computed = integral_homology_table(algebra, weight_max)
            bad = _compare_tables(computed, closed, f"variant={variant} h={h}")
            if bad:
                return SuiteResult("koszul", False, checks, bad)
            checks += max(len(closed), 1)
    return SuiteResult("koszul", True, checks)


def verify_twist_consistency(p: int, max_s: int = 2, max_t: int = 2) -> SuiteResult:
    """The central predictor identity: the direct twisted closed forms equal
    the twist-shift plus even-offset-expansion composite, as dimension
    tables, for all nine functor pairs, through weight ``3 p**(s + t)`` but
    at most 27."""
    checks = 0
    for s in range(max_s + 1):
        for t in range(max_t + 1):
            weight_max = min(3 * p ** (s + t), 27)
            for source in FUNCTORS:
                for target in FUNCTORS:
                    direct = poincare_dims(
                        ext_twisted_predict(source, target, p, s, t, weight_max),
                        weight_max,
                    )
                    base = ext_field_predict(source, target, p, weight_max)
                    # Expansion multiplies weights by p**s and makes p**s
                    # copies, so cut what would land past the cap first.
                    shifted = twist_shift(base, t, target).truncate(weight_max // p**s)
                    composite = poincare_dims(
                        expand_by_even_offsets(shifted, s), weight_max
                    )
                    bad = _compare_tables(
                        composite,
                        direct,
                        f"{source}->{target} p={p} s={s} t={t}",
                    )
                    if bad:
                        return SuiteResult("twist-consistency", False, checks, bad)
                    checks += max(len(direct), 1)
    return SuiteResult("twist-consistency", True, checks)


def verify_exponential(p: int, n: int, weight_max: int) -> SuiteResult:
    """Rank-2 bar homology dimensions must be the bidegree convolution of the
    rank-1 dimensions (the algebras are exponential in the evaluation
    variable)."""
    single: Dict[TableKey, int] = {}
    double: Dict[TableKey, int] = {}
    alg1 = bar_source_algebra(n, 1)
    alg2 = bar_source_algebra(n, 2)
    for d in range(weight_max + 1):
        for i, dim in homology_over_Fp(alg1, d, p).items():
            single[(i, d)] = dim
        for i, dim in homology_over_Fp(alg2, d, p).items():
            double[(i, d)] = dim
    convolved: Dict[TableKey, int] = {}
    for (i1, d1), c1 in single.items():
        for (i2, d2), c2 in single.items():
            if d1 + d2 > weight_max:
                continue
            key = (i1 + i2, d1 + d2)
            convolved[key] = convolved.get(key, 0) + c1 * c2
    bad = _compare_tables(double, convolved, f"p={p} n={n}")
    if bad:
        return SuiteResult("exponential", False, len(single), bad)
    return SuiteResult("exponential", True, max(len(double), 1))


def verify_tables() -> SuiteResult:
    """Weight-4 integral homology of the single and double bar constructions
    against the embedded golden tables."""
    checks = 0
    for n, golden in ((1, GOLDEN_WEIGHT4_SINGLE), (2, GOLDEN_WEIGHT4_DOUBLE)):
        computed = homology_over_Z(bar_source_algebra(n, 1), 4)
        bad = _compare_tables(
            {(i, 4): g for i, g in computed.items()},
            {(i, 4): g for i, g in golden.items()},
            f"n={n}",
        )
        if bad:
            return SuiteResult("tables", False, checks, bad)
        checks += len(golden)
    return SuiteResult("tables", True, checks)


#: Each suite's runner by name, in the order the CLI lists them; a runner
#: takes the keyword arguments of :func:`run_suite` and uses its own.
SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "cartan-field": lambda p, n, m, weight_max, **_: verify_cartan_field(p, n, weight_max, m),
    "cartan-integral": lambda n, m, weight_max, **_: verify_cartan_integral(n, weight_max, m),
    "koszul": lambda weight_max, **_: verify_koszul(max(weight_max, 1)),
    "twist-consistency": lambda p, max_s, max_t, **_: verify_twist_consistency(p, max_s, max_t),
    "exponential": lambda p, n, weight_max, **_: verify_exponential(p, n, weight_max),
    "tables": lambda **_: verify_tables(),
}

#: The suites that take a generator rank ``m``; every other suite runs at m = 1.
SUITES_WITH_M = ("cartan-field", "cartan-integral")


def run_suite(
    suite: str,
    p: int = 2,
    n: int = 1,
    m: int = 1,
    weight_max: int = 4,
    max_s: int = 1,
    max_t: int = 1,
) -> SuiteResult:
    """Dispatch a named suite of :data:`SUITES` with bounded parameters.

    Raises ``ValueError`` unless ``p`` is a supported prime, on a suite not
    in :data:`SUITES`, and for ``m != 1`` on a suite outside
    :data:`SUITES_WITH_M`, which would otherwise ignore it.
    """
    check_prime(p)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if m != 1 and suite not in SUITES_WITH_M:
        raise ValueError(f"suite {suite!r} runs at m = 1 only, got m = {m}")
    return SUITES[suite](p=p, n=n, m=m, weight_max=weight_max, max_s=max_s, max_t=max_t)
