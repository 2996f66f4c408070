"""The four benchmark workloads.

Each workload is a list of items.  An item runs two ways:

* ``run``: the untraced path, through the ``extbar`` command line exactly as
  a user calls it, plus a cross-check against a second route.  Returns the
  rendered output text.
* ``trace``: the same result rebuilt from the public functions of each layer
  under a :class:`tracing.Tracer`.  Returns text that must be byte-identical
  to ``run``'s, which is how the traced run proves it computed the same
  homology as the untraced one.

Both raise :class:`Mismatch` when two routes disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from click.testing import CliRunner

from extbar import (
    SuiteResult,
    bar_source_algebra,
    cartan_field_generators,
    expand_by_even_offsets,
    ext_field_predict,
    ext_integral_predict,
    ext_twisted_predict,
    poincare_dims,
    twist_shift,
)
from extbar.cli import main as cli_main
from extbar.predict import FUNCTORS

import tracing
from tracing import Tracer

Item = Tuple


class Mismatch(Exception):
    """Two routes, or the CLI and its expected exit status, disagree."""


def cli(*args: object) -> str:
    """Run one ``extbar`` command in process; its stdout on exit code 0."""
    result = CliRunner().invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
    if result.exit_code != 0:
        raise Mismatch(f"extbar {' '.join(map(str, args))} exited {result.exit_code}: {result.output}")
    return result.stdout


def compare(tr: Tracer, computed: Mapping, predicted: Mapping, label: str) -> None:
    with tr.span("verify.compare", label=label):
        keys = sorted(set(computed) | set(predicted))
        for key in keys:
            if computed.get(key) != predicted.get(key):
                raise Mismatch(
                    f"{label} at {key}: computed {computed.get(key)!r}, "
                    f"predicted {predicted.get(key)!r}"
                )
    tr.counts["verify.checks"] += len(keys)


def render_groups(groups: Mapping) -> str:
    """Integral table lines as ``extbar ext-table`` prints them."""
    return "".join(f"Ext^{i} (weight {d}) = {g}\n" for (i, d), g in sorted(groups.items()))


def render_dims(dims: Mapping) -> str:
    """Field table lines as ``extbar ext-table`` prints them."""
    return "".join(f"Ext^{i} (weight {d}) = dim {v}\n" for (i, d), v in sorted(dims.items()))


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[bool], List[Item]]
    #: (n, m) of each bar source algebra the workload's bar route builds.
    algebras: Tuple[Tuple[int, int], ...]
    run: Callable[[Item], str]
    trace: Callable[[Tracer, Item], str]


# ----------------------------------------------------------------------
# integral_snf: S -> Lambda and S -> Gamma over Z, bar route vs. predict
# ----------------------------------------------------------------------


#: (target, generator rank m, max weight).  The items of rank m > 1 are
#: few large integer matrices: 70-93% of their time is Smith normal form.
_INTEGRAL = [("Lambda", 1, 9), ("Gamma", 1, 7), ("Lambda", 3, 4), ("Lambda", 6, 3), ("Gamma", 4, 3)]


def _integral_items(smoke: bool) -> List[Item]:
    if smoke:
        return [(target, m, 4 if m == 1 else 2) for target, m, _ in _INTEGRAL]
    return list(_INTEGRAL)


def _integral_run(item: Item) -> str:
    target, m, weight = item
    args = ("ext-table", "--source", "S", "--target", target, "--ring", "Z", "--m", m, "--max-weight", weight)
    via_bar = cli(*args)
    via_predict = cli(*args, "--method", "predict")
    if via_bar != via_predict:
        raise Mismatch(f"S->{target} m={m} over Z: bar and predict routes print different tables")
    return via_bar


def _integral_trace(tr: Tracer, item: Item) -> str:
    target, m, weight = item
    n = 1 if target == "Lambda" else 2
    algebra = bar_source_algebra(n, m)
    tr.count_calls(algebra)
    groups = {}
    for d in range(weight + 1):
        for j, g in tracing.homology_over_Z(tr, algebra, d).items():
            groups[((n + 2) * d - j, d)] = g
    with tr.span("predict.spec", target=target):
        predicted = ext_integral_predict("S", target, m, weight)
    tr.counts["predict.entries"] += len(predicted)
    compare(tr, groups, predicted, f"S->{target} m={m} over Z")
    return render_groups(groups)


# ----------------------------------------------------------------------
# field_crosscheck: verify --suite cartan-field, p in {3, 5}, n in {2, 3}
# ----------------------------------------------------------------------


def _field_items(smoke: bool) -> List[Item]:
    """(p, n, max weight)."""
    return [(3, 2, 4 if smoke else 7), (5, 2, 4 if smoke else 7), (3, 3, 3 if smoke else 5)]


def _field_run(item: Item) -> str:
    p, n, weight = item
    out = cli("verify", "--suite", "cartan-field", "--p", p, "--n", n, "--max-weight", weight)
    if ": PASS (" not in out:
        raise Mismatch(f"cartan-field suite did not pass: {out!r}")
    return out


def _field_trace(tr: Tracer, item: Item) -> str:
    p, n, weight = item
    algebra = bar_source_algebra(n, 1)
    tr.count_calls(algebra)
    with tr.span("predict.spec"):
        spec = cartan_field_generators(p, n, weight, 1)
    with tr.span("predict.poincare"):
        predicted = poincare_dims(spec, weight)
    tr.counts["predict.entries"] += len(predicted)
    checks = 0
    for d in range(weight + 1):
        computed = {(i, d): v for i, v in tracing.homology_over_Fp(tr, algebra, d, p).items()}
        column = {k: v for k, v in predicted.items() if k[1] == d}
        compare(tr, computed, column, f"cartan-field p={p} n={n} weight {d}")
        checks += max(len(computed), 1)
    return SuiteResult("cartan-field", True, checks).summary() + "\n"


# ----------------------------------------------------------------------
# wide_rank2: verify --suite exponential (rank-2 generators)
# ----------------------------------------------------------------------


def _wide_items(smoke: bool) -> List[Item]:
    """(p, n, max weight).  The one-fold bar through weight 7 builds the
    largest matrices; its peak memory is well above the import baseline."""
    if smoke:
        return [(2, 1, 3), (2, 2, 3), (2, 3, 3)]
    return [(2, 1, 7), (2, 2, 4), (2, 3, 4)]


def _wide_run(item: Item) -> str:
    p, n, weight = item
    out = cli("verify", "--suite", "exponential", "--p", p, "--n", n, "--max-weight", weight)
    if ": PASS (" not in out:
        raise Mismatch(f"exponential suite did not pass: {out!r}")
    return out


def _wide_trace(tr: Tracer, item: Item) -> str:
    p, n, weight = item
    rank1, rank2 = bar_source_algebra(n, 1), bar_source_algebra(n, 2)
    tr.count_calls(rank1)
    tr.count_calls(rank2)
    single: Dict = {}
    double: Dict = {}
    for d in range(weight + 1):
        for i, v in tracing.homology_over_Fp(tr, rank1, d, p).items():
            single[(i, d)] = v
        for i, v in tracing.homology_over_Fp(tr, rank2, d, p).items():
            double[(i, d)] = v
    convolved: Dict = {}
    for (i1, d1), c1 in single.items():
        for (i2, d2), c2 in single.items():
            if d1 + d2 <= weight:
                key = (i1 + i2, d1 + d2)
                convolved[key] = convolved.get(key, 0) + c1 * c2
    compare(tr, double, convolved, f"exponential p={p} n={n}")
    return SuiteResult("exponential", True, max(len(double), 1)).summary() + "\n"


# ----------------------------------------------------------------------
# predict_twisted: ext-table --ring Fp:p for every functor pair and twist
# ----------------------------------------------------------------------


def _twisted_items(smoke: bool) -> List[Item]:
    """(p, s, t, max weight); each item runs all nine functor pairs."""
    weight = 4 if smoke else 70
    return [(p, s, t, weight) for p in (2, 3, 5) for s in range(3) for t in range(3)]


PAIRS = [(source, target) for source in FUNCTORS for target in FUNCTORS]


def _composite_spec(p: int, s: int, t: int, source: str, target: str, weight: int):
    return expand_by_even_offsets(twist_shift(ext_field_predict(source, target, p, weight), t, target), s)


def _twisted_run(item: Item) -> str:
    p, s, t, weight = item
    text = ""
    for source, target in PAIRS:
        out = cli(
            "ext-table", "--source", source, "--target", target, "--ring", f"Fp:{p}",
            "--s", s, "--t", t, "--max-weight", weight,
        )
        if render_dims(poincare_dims(_composite_spec(p, s, t, source, target, weight), weight)) != out:
            raise Mismatch(f"{source}->{target} p={p} s={s} t={t}: direct and composite tables differ")
        text += f"{source}->{target}\n{out}"
    return text


def _twisted_trace(tr: Tracer, item: Item) -> str:
    p, s, t, weight = item
    text = ""
    for source, target in PAIRS:
        with tr.span("predict.spec", route="direct"):
            direct = ext_twisted_predict(source, target, p, s, t, weight)
        with tr.span("predict.poincare", route="direct"):
            dims = poincare_dims(direct, weight)
        with tr.span("predict.spec", route="composite"):
            composite = _composite_spec(p, s, t, source, target, weight)
        with tr.span("predict.poincare", route="composite"):
            composite_dims = poincare_dims(composite, weight)
        tr.counts["predict.entries"] += len(dims)
        compare(tr, dims, composite_dims, f"{source}->{target} p={p} s={s} t={t}")
        text += f"{source}->{target}\n{render_dims(dims)}"
    return text


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "integral_snf",
            _integral_items, ((1, 1), (2, 1), (1, 3), (1, 6), (2, 4)), _integral_run, _integral_trace,
        ),
        Workload(
            "field_crosscheck",
            _field_items, ((2, 1), (3, 1)), _field_run, _field_trace,
        ),
        Workload(
            "wide_rank2",
            _wide_items, ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)), _wide_run, _wide_trace,
        ),
        Workload(
            "predict_twisted",
            _twisted_items, (), _twisted_run, _twisted_trace,
        ),
    )
}


def build_algebras(workload: Workload) -> Sequence:
    """The bar source algebras of a workload, built but not yet enumerated."""
    return [bar_source_algebra(n, m) for n, m in workload.algebras]
