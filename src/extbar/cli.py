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
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import click

from .algebra import InternalAssertionError
from .extract import bar_source_algebra, ext_table_via_bar
from .homology import homology_over_Fp, homology_over_Z
from .modp import MAX_PRIME
from .predict import ext_integral_predict, ext_twisted_predict, poincare_dims
from .rings import Ring, is_prime, parse_ring
from .verify import SUITES, SUITES_WITH_M, run_suite
from .words import enumerate_p_pairs, enumerate_words, word_degree, word_twisting

FUNCTOR_CHOICES = click.Choice(["S", "Lambda", "Gamma"])


def _internal_guard(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InternalAssertionError as exc:
            click.echo(f"internal assertion failed: {exc}", err=True)
            sys.exit(3)
        except RecursionError:
            click.echo("request too deep to recurse: lower --n or --height", err=True)
            sys.exit(2)

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


def _require_prime(p: int) -> None:
    """Reject a ``--p`` that is not a supported prime, the bound first."""
    _require(p <= MAX_PRIME, f"--p must be at most {MAX_PRIME}, got {p}")
    _require(is_prime(p), f"--p must be prime, got {p}")


def _echo_lines(lines: List[str]) -> None:
    """Print the lines in one write; print nothing for no lines."""
    if lines:
        click.echo("\n".join(lines))


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
    _require_prime(p)
    _require(height >= 0, "--height must be >= 0")
    _require(max_degree >= 0, "--max-degree must be >= 0")
    if pairs:
        _echo_lines(
            ["# gamma_word\tphi_word\tdegree\ttwisting\tweight"]
            + [
                f"{pair.gamma_word}\t{pair.phi_word}\t{pair.degree}"
                f"\t{pair.twisting}\t{pair.weight}"
                for pair in enumerate_p_pairs(p, height, max_degree)
            ]
        )
        return
    lines = ["# word\tdegree\ttwisting\tweight"]
    for w in enumerate_words(p, height, max_degree):
        t = word_twisting(w)
        lines.append(f"{w}\t{word_degree(w, p)}\t{t}\t{p ** t}")
    _echo_lines(lines)


# ----------------------------------------------------------------------
# bar-homology
# ----------------------------------------------------------------------


def _echo_table(
    table: Mapping, ring: Ring, keys: Tuple[str, ...], list_key: str, params: Dict, as_csv: bool
) -> None:
    """Print a table keyed by degree, or by (degree, weight), as CSV or as
    one JSON object: ``params`` and, under ``list_key``, the list of its
    entries.  ``keys`` names the key columns; the value is a field's
    dimension, or a group's free rank and torsion over Z."""
    names = keys + (("dimension",) if ring.is_field else ("free_rank", "torsion"))
    entries = []
    for key, value in table.items():
        entry = list(key) if isinstance(key, tuple) else [key]
        if ring.is_field:
            entry.append(value)
        else:
            entry += [value.free_rank, list(value.invariant_factors())]
        entries.append(entry)
    if as_csv:
        _echo_lines(
            [",".join(names)]
            + [
                ",".join(";".join(map(str, v)) if isinstance(v, list) else str(v) for v in entry)
                for entry in entries
            ]
        )
    else:
        click.echo(json.dumps({"schema": 1, **params, list_key: [dict(zip(names, e)) for e in entries]}))


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
    if ring.is_field:
        table = homology_over_Fp(algebra, weight, ring.char)
    else:
        table = homology_over_Z(algebra, weight)
    if as_json or as_csv:
        params = {"ring": _ring_label(ring), "n": n, "weight": weight, "m": m}
        _echo_table(table, ring, ("degree",), "groups", params, as_csv)
    else:
        dim = "dim " if ring.is_field else ""
        _echo_lines(
            [f"H_{i} (weight {weight}) = {dim}{v}" for i, v in table.items()]
            or [f"weight {weight}: trivial"]
        )


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
    # Every route returns its table with the keys sorted.
    if not ring.is_field:
        _require(s == 0 and t == 0, "twisted tables over Z are not supported")
        _require(
            source == "S" and target in ("Lambda", "Gamma"),
            "integral tables are computed for source S and target Lambda/Gamma",
        )
        if method == "predict":
            table: Mapping = ext_integral_predict(source, target, m, max_weight)
        else:
            table = ext_table_via_bar(source, target, ring, max_weight, m).groups
    elif method == "bar":
        _require(
            s == 0 and t == 0 and source == "S" and target in ("Lambda", "Gamma"),
            "the bar route computes untwisted symmetric-source tables",
        )
        table = ext_table_via_bar(source, target, ring, max_weight, m).dims
    else:
        table = poincare_dims(
            ext_twisted_predict(source, target, ring.char, s, t, max_weight, m), max_weight
        )
    if max_codegree is not None:
        table = {k: v for k, v in table.items() if k[0] <= max_codegree}
    if as_json or as_csv:
        params = {
            "source": source,
            "target": target,
            "ring": _ring_label(ring),
            "s": s,
            "t": t,
            "m": m,
            "max_weight": max_weight,
        }
        _echo_table(table, ring, ("degree", "weight"), "entries", params, as_csv)
    else:
        dim = "dim " if ring.is_field else ""
        _echo_lines([f"Ext^{i} (weight {d}) = {dim}{v}" for (i, d), v in table.items()])


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


@main.command()
@click.option("--suite", type=click.Choice(list(SUITES)), required=True)
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
    _require_prime(p)
    _require(n >= 0, "--n must be >= 0")
    _require(m >= 1, "--m must be >= 1")
    _require(max_weight >= 0, "--max-weight must be >= 0")
    _require(max_s >= 0 and max_t >= 0, "--max-s/--max-t must be >= 0")
    _require(
        m == 1 or suite in SUITES_WITH_M,
        f"--m is taken only by the {' and '.join(SUITES_WITH_M)} suites, "
        f"got --m {m} with --suite {suite}",
    )
    result = run_suite(
        suite, p=p, n=n, m=m, weight_max=max_weight, max_s=max_s, max_t=max_t
    )
    click.echo(result.summary())
    if not result.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
