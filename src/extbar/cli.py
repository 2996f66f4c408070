"""Command-line interface: word enumeration, bar homology, derived tables
and the verification suites.

All commands are deterministic (identical invocations produce identical
bytes) and exit with 0 on success, 1 on a verification mismatch, 2 on bad
usage, and 3 if an internal structural assertion fires.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Callable, Dict, List, Optional

import click

from .algebra import InternalAssertionError
from .extract import bar_source_algebra, ext_table_via_bar
from .homology import AbelianGroup, TableKey, homology_over_Fp, homology_over_Z
from .modp import MAX_PRIME
from .predict import ext_integral_predict, ext_twisted_predict, poincare_dims
from .rings import Ring, parse_ring
from .verify import run_suite
from .words import enumerate_p_pairs, enumerate_words, word_degree, word_twisting
from .rings import is_prime

SUITES = (
    "cartan-field",
    "cartan-integral",
    "koszul",
    "twist-consistency",
    "exponential",
    "tables",
)
FUNCTOR_CHOICES = click.Choice(["S", "Lambda", "Gamma"])


def _internal_guard(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InternalAssertionError as exc:
            click.echo(f"internal assertion failed: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _ring_of(text: str) -> Ring:
    try:
        return parse_ring(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _ring_label(ring: Ring) -> str:
    return "Z" if ring.char == 0 else f"Fp:{ring.char}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


@click.group()
def main() -> None:
    """Exact tables for derived maps between twisted exponential functors."""


# ----------------------------------------------------------------------
# words
# ----------------------------------------------------------------------


@main.command()
@click.option("--p", type=int, required=True, help="prime")
@click.option("--height", type=int, required=True)
@click.option("--max-degree", type=int, required=True)
@click.option("--pairs", is_flag=True, help="list word pairs instead of words")
@_internal_guard
def words(p: int, height: int, max_degree: int, pairs: bool) -> None:
    """Enumerate admissible words (or their pairs) of one height."""
    _require(is_prime(p), f"--p must be prime, got {p}")
    _require(height >= 0, "--height must be >= 0")
    _require(max_degree >= 0, "--max-degree must be >= 0")
    if pairs:
        click.echo("# gamma_word\tphi_word\tdegree\ttwisting\tweight")
        for pair in enumerate_p_pairs(p, height, max_degree):
            click.echo(
                f"{pair.gamma_word}\t{pair.phi_word}\t{pair.degree}"
                f"\t{pair.twisting}\t{pair.weight}"
            )
        return
    click.echo("# word\tdegree\ttwisting\tweight")
    for w in enumerate_words(p, height, max_degree):
        t = word_twisting(w)
        click.echo(f"{w}\t{word_degree(w, p)}\t{t}\t{p ** t}")


# ----------------------------------------------------------------------
# bar-homology
# ----------------------------------------------------------------------


def _group_entry(degree: int, group: AbelianGroup, weight: Optional[int] = None) -> Dict:
    entry: Dict = {"degree": degree}
    if weight is not None:
        entry["weight"] = weight
    entry["free_rank"] = group.free_rank
    entry["torsion"] = list(group.invariant_factors())
    return entry


def _echo_json(payload: Dict) -> None:
    click.echo(json.dumps(payload))


def _echo_csv(header: List[str], rows: List[List]) -> None:
    click.echo(",".join(header))
    for row in rows:
        click.echo(",".join(str(v) for v in row))


@main.command("bar-homology")
@click.option("--ring", "ring_text", default="Z", show_default=True, help="Z or Fp:<prime>")
@click.option("--n", type=int, default=1, show_default=True, help="bar iterations")
@click.option("--weight", type=int, required=True)
@click.option("--m", type=int, default=1, show_default=True, help="generator rank")
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
@_internal_guard
def bar_homology(
    ring_text: str, n: int, weight: int, m: int, as_json: bool, as_csv: bool
) -> None:
    """Homology of one weight slice of the iterated bar construction."""
    ring = _ring_of(ring_text)
    _require(n >= 0, "--n must be >= 0")
    _require(weight >= 0, "--weight must be >= 0")
    _require(m >= 1, "--m must be >= 1")
    _require(not (as_json and as_csv), "choose at most one of --json/--csv")
    algebra = bar_source_algebra(n, m)
    params = {"ring": _ring_label(ring), "n": n, "weight": weight, "m": m}
    if ring.is_field:
        dims = homology_over_Fp(algebra, weight, ring.char)
        groups = [{"degree": i, "dimension": dims[i]} for i in sorted(dims)]
        if as_json:
            _echo_json({"schema": 1, **params, "groups": groups})
        elif as_csv:
            _echo_csv(["degree", "dimension"], [[g["degree"], g["dimension"]] for g in groups])
        else:
            for g in groups:
                click.echo(f"H_{g['degree']} (weight {weight}) = dim {g['dimension']}")
            if not groups:
                click.echo(f"weight {weight}: trivial")
        return
    column = homology_over_Z(algebra, weight)
    groups = [_group_entry(i, column[i]) for i in sorted(column)]
    if as_json:
        _echo_json({"schema": 1, **params, "groups": groups})
    elif as_csv:
        rows = [
            [g["degree"], g["free_rank"], ";".join(str(d) for d in g["torsion"])]
            for g in groups
        ]
        _echo_csv(["degree", "free_rank", "torsion"], rows)
    else:
        for i in sorted(column):
            click.echo(f"H_{i} (weight {weight}) = {column[i]}")
        if not column:
            click.echo(f"weight {weight}: trivial")


# ----------------------------------------------------------------------
# ext-table
# ----------------------------------------------------------------------


@main.command("ext-table")
@click.option("--source", type=FUNCTOR_CHOICES, required=True)
@click.option("--target", type=FUNCTOR_CHOICES, required=True)
@click.option("--ring", "ring_text", default="Fp:2", show_default=True)
@click.option("--s", type=int, default=0, show_default=True, help="target twist")
@click.option("--t", type=int, default=0, show_default=True, help="extra source twist")
@click.option("--max-weight", type=int, default=4, show_default=True)
@click.option("--max-codegree", type=int, default=None)
@click.option("--m", type=int, default=1, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["auto", "bar", "predict"]),
    default="auto",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True)
@_internal_guard
def ext_table(
    source: str,
    target: str,
    ring_text: str,
    s: int,
    t: int,
    max_weight: int,
    max_codegree: Optional[int],
    m: int,
    method: str,
    as_json: bool,
    as_csv: bool,
) -> None:
    """Bigraded table of derived maps between (twisted) functors."""
    ring = _ring_of(ring_text)
    _require(s >= 0 and t >= 0, "--s/--t must be >= 0")
    _require(max_weight >= 0, "--max-weight must be >= 0")
    _require(m >= 1, "--m must be >= 1")
    _require(not (as_json and as_csv), "choose at most one of --json/--csv")

    def keep(key: TableKey) -> bool:
        return max_codegree is None or key[0] <= max_codegree

    params = {
        "source": source,
        "target": target,
        "ring": _ring_label(ring),
        "s": s,
        "t": t,
        "m": m,
        "max_weight": max_weight,
    }
    if not ring.is_field:
        _require(s == 0 and t == 0, "twisted tables over Z are not supported")
        _require(
            source == "S" and target in ("Lambda", "Gamma"),
            "integral tables are computed for source S and target Lambda/Gamma",
        )
        if method in ("auto", "bar"):
            table = ext_table_via_bar(source, target, ring, max_weight, m)
            entries_groups = {k: v for k, v in table.groups.items() if keep(k)}
        else:
            entries_groups = {
                k: v
                for k, v in ext_integral_predict(source, target, m, max_weight).items()
                if keep(k)
            }
        entries = [
            _group_entry(i, g, weight=d) for (i, d), g in sorted(entries_groups.items())
        ]
        if as_json:
            _echo_json({"schema": 1, **params, "entries": entries})
        elif as_csv:
            rows = [
                [e["degree"], e["weight"], e["free_rank"], ";".join(map(str, e["torsion"]))]
                for e in entries
            ]
            _echo_csv(["degree", "weight", "free_rank", "torsion"], rows)
        else:
            for (i, d), g in sorted(entries_groups.items()):
                click.echo(f"Ext^{i} (weight {d}) = {g}")
        return

    p = ring.char
    if method == "bar":
        _require(
            s == 0 and t == 0 and source == "S" and target in ("Lambda", "Gamma"),
            "the bar route computes untwisted symmetric-source tables",
        )
        dims = ext_table_via_bar(source, target, ring, max_weight, m).dims
    else:
        dims = poincare_dims(
            ext_twisted_predict(source, target, p, s, t, max_weight, m), max_weight
        )
    dims = {k: v for k, v in sorted(dims.items()) if keep(k)}
    if as_json:
        entries = [
            {"degree": i, "weight": d, "dimension": v} for (i, d), v in dims.items()
        ]
        _echo_json({"schema": 1, **params, "entries": entries})
    elif as_csv:
        _echo_csv(
            ["degree", "weight", "dimension"],
            [[i, d, v] for (i, d), v in dims.items()],
        )
    else:
        for (i, d), v in dims.items():
            click.echo(f"Ext^{i} (weight {d}) = dim {v}")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


@main.command()
@click.option("--suite", type=click.Choice(SUITES), required=True)
@click.option("--p", type=int, default=2, show_default=True)
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--max-weight", type=int, default=4, show_default=True)
@click.option("--max-s", type=int, default=1, show_default=True)
@click.option("--max-t", type=int, default=1, show_default=True)
@_internal_guard
def verify(
    suite: str, p: int, n: int, m: int, max_weight: int, max_s: int, max_t: int
) -> None:
    """Run a named cross-check suite; exit 1 on the first mismatch."""
    _require(p <= MAX_PRIME, f"--p must be at most {MAX_PRIME}, got {p}")
    _require(is_prime(p), f"--p must be prime, got {p}")
    _require(n >= 0 and m >= 1 and max_weight >= 0, "bounds must be nonnegative")
    _require(max_s >= 0 and max_t >= 0, "--max-s/--max-t must be >= 0")
    result = run_suite(
        suite, p=p, n=n, m=m, weight_max=max_weight, max_s=max_s, max_t=max_t
    )
    click.echo(result.summary())
    if not result.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
