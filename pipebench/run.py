#!/usr/bin/env python3
"""Pipeline benchmark for extbar: the bar route and the predict route, end to
end and per layer.

Run from the repository root::

    python3 pipebench/run.py --workload integral_snf --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``peak_rss_mb``,
``setup_s``); ``--trace 1`` prints the per-layer metrics of a traced run.

A repetition runs each of the workload's items once, and no item takes more
than about a second, so a run makes many repetitions.  On a shared machine
the speed of a core changes within a second, by a third and more, as other
programs come and go.  So the child times a fixed reference loop before
and after its set-up and after every item, and scales its item times by
the loop's nominal time over its mean time in that child.  ``wall_s`` is
such a scaled time: seconds at the speed at which the reference loop takes
``REFERENCE_S``.  The raw times are printed and recorded beside it.
``setup_s`` is not scaled: most of it is loading numpy's shared libraries,
whose speed does not follow the loop's.
``--smoke`` cuts every workload to weights <= 4 for the benchmark's own
tests.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every repetition runs in a fresh child interpreter, one at a time, so that
its peak resident memory is its own and no cache outlives it.  Each child
times its own set-up (importing ``extbar`` and building the workload's
algebras) before it starts the workload.  The seed only permutes the order
of a workload's items; the mathematical inputs are fixed.  A repetition
fails on a wrong table, a failed suite, an exception, or output
bytes whose digest differs from the other repetitions'.  Records of each run
(environment, repetitions, result) and the spans of traced runs are written
under ``pipebench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("integral_snf", "field_crosscheck", "wide_rank2", "predict_twisted")
#: Repetitions every untraced run makes; a traced run makes one untraced and
#: this many traced ones, so that exact counts can be compared between them.
MIN_REPS = 3
#: Nominal time of ``reference_s``.  Times are scaled to the speed at which
#: the reference loop takes this long.
REFERENCE_S = 0.02
#: A run stops starting repetitions once this much time has gone, so that it
#: ends well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0

#: Per-layer metrics of a traced run.  A ``_s`` metric is the summed duration
#: of the spans of that name; every other one is an exact count, except the
#: two ratios derived below.
LAYER_METRICS = {
    "bar.weight_slice_s": "s",
    "bar.basis_dim": "count",
    "bar.diff_evals": "count",
    "bar.diff_evals_per_basis": "ratio",
    "bar.inner_calls": "count",
    "homology.d2_check_s": "s",
    "homology.boundary_matrix_s": "s",
    "homology.boundary_cells": "count",
    "homology.boundary_nnz": "count",
    "homology.boundary_density": "ratio",
    "homology.max_matrix_cells": "count",
    "homology.snf_s": "s",
    "homology.snf_calls": "count",
    "homology.snf_max_factor_bits": "bits",
    "modp.rank_s": "s",
    "modp.rank_calls": "count",
    "predict.spec_s": "s",
    "predict.poincare_s": "s",
    "predict.entries": "count",
    "verify.checks": "count",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# child side: one repetition
# ----------------------------------------------------------------------


def reference_s() -> float:
    """Time a fixed loop of the operations the bar route is made of: tuple
    keys, dict updates, integer arithmetic and a sort.  It takes about
    ``REFERENCE_S`` on a quiet 2.1 GHz Xeon core."""
    start = time.perf_counter()
    table: Dict = {}
    acc = 0
    for i in range(20000):
        key = (i % 97, i % 89, i & 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
    sorted(table.items())
    return time.perf_counter() - start


def child(mode: str, workload_name: str, seed: int, smoke: bool) -> Dict:
    reference_s()  # warm-up
    ref_s = [reference_s()]
    start = time.perf_counter()
    import extbar
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    workloads.build_algebras(workload)
    setup_s = time.perf_counter() - start
    ref_s.append(reference_s())
    where = Path(extbar.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"extbar was imported from {where}, not from {SRC}")
    record: Dict = {"setup_s": setup_s}
    items = workload.items(smoke)
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    tracer = workloads.Tracer() if mode == "traced" else None
    outputs: Dict[int, str] = {}
    item_s: Dict[int, float] = {}
    for k in order:
        begin = time.perf_counter()
        if tracer is None:
            outputs[k] = workload.run(items[k])
        else:
            with tracer.span("item", item=repr(items[k])):
                outputs[k] = workload.trace(tracer, items[k])
        item_s[k] = time.perf_counter() - begin
        ref_s.append(reference_s())
    record["wall_s"] = sum(item_s.values())
    record["item_s"] = [item_s[k] for k in range(len(items))]
    record["ref_s"] = ref_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Digest over items in their canonical order, so it does not depend on
    # the seed; every repetition of a workload must reproduce it.
    digest = hashlib.sha256()
    for k in range(len(items)):
        digest.update(f"{items[k]!r}\n{outputs[k]}".encode())
    record["digest"] = digest.hexdigest()
    if tracer is not None:
        record["counts"] = dict(tracer.counts)
        record["seconds"] = tracer.seconds()
        record["spans"] = tracer.spans
    return record


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def environment() -> Dict:
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("EXTBAR_THREADS", "1")
    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    try:
        oversubscribed = int(threads) > nproc
    except ValueError:
        oversubscribed = False
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": numba_ok,
        "EXTBAR_THREADS": os.environ.get("EXTBAR_THREADS"),
        "EXTBAR_NO_JIT": os.environ.get("EXTBAR_NO_JIT"),
        "oversubscribed": oversubscribed,
    }


def spawn(mode: str, args: argparse.Namespace, timeout: float) -> Dict:
    """Run one child interpreter; its JSON record, or a failed record if it
    exits non-zero (a mismatch between routes raises, so it lands here)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    begin = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"kind": mode, "ok": False, "error": f"timed out after {timeout:.0f} s",
                "process_s": time.perf_counter() - begin}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"kind": mode, "ok": False, "error": f"exit {proc.returncode}: {tail[0]}",
                "process_s": time.perf_counter() - begin}
    record = json.loads(lines[-1])
    record.update(kind=mode, ok=True, process_s=time.perf_counter() - begin)
    return record


def check_reps(reps: List[Dict]) -> None:
    """Mark failed every repetition whose digest or exact counts differ from
    the first good repetition's."""
    good = [r for r in reps if r["ok"]]
    if not good:
        return
    digest = good[0]["digest"]
    traced = [r for r in good if r["kind"] == "traced"]
    for r in good:
        if r["digest"] != digest:
            r.update(ok=False, error="output digest differs from the first repetition's")
        elif r["kind"] == "traced":
            first = traced[0]["counts"]
            changed = sorted(c for c in set(first) | set(r["counts"])
                             if first.get(c) != r["counts"].get(c))
            if changed:
                r.update(ok=False, error=f"exact counts changed between repetitions: {changed}")


def scaled(reps: List[Dict], key: str) -> float:
    """Median over the repetitions of ``key`` at the reference speed: each
    repetition's time times ``REFERENCE_S`` over the mean time of the
    reference loops that ran in the same child."""
    if not reps:
        return 0.0
    return statistics.median(r[key] * REFERENCE_S / statistics.mean(r["ref_s"]) for r in reps)


def median_of(reps: List[Dict], key: str) -> float:
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: List[Dict], untraced: List[Dict]) -> Dict[str, Dict]:
    counts = traced[0]["counts"] if traced else {}
    values: Dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith("_s"):
            span = name[: -len("_s")]
            values[name] = statistics.median(r["seconds"].get(span, 0.0) for r in traced) if traced else 0.0
        else:
            values[name] = counts.get(name, 0)
    basis, cells = values["bar.basis_dim"], values["homology.boundary_cells"]
    values["bar.diff_evals_per_basis"] = values["bar.diff_evals"] / basis if basis else 0.0
    values["homology.boundary_density"] = values["homology.boundary_nnz"] / cells if cells else 0.0
    values["trace.overhead_s"] = scaled(traced, "wall_s") - scaled(untraced, "wall_s")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def run(args: argparse.Namespace) -> int:
    if not (SRC / "extbar" / "__init__.py").is_file():
        print(f"pipebench: no extbar sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    if env["oversubscribed"]:
        print(f"pipebench: warning: EXTBAR_THREADS={env['EXTBAR_THREADS']} exceeds "
              f"{env['nproc']} cores", file=sys.stderr)
    t0 = time.perf_counter()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - t0)

    reps: List[Dict] = []
    measuring = time.perf_counter()
    while remaining() > 0:
        kind = "traced" if args.trace and reps else "untraced"
        reps.append(spawn(kind, args, remaining()))
        needed = MIN_REPS + 1 if args.trace else MIN_REPS
        last = reps[-1]["process_s"]
        elapsed = time.perf_counter() - measuring
        if len(reps) >= needed and (elapsed + last > args.seconds or last > remaining()):
            break
    check_reps(reps)

    untraced = [r for r in reps if r["kind"] == "untraced" and r["ok"]]
    traced = [r for r in reps if r["kind"] == "traced" and r["ok"]]
    failed = sum(1 for r in reps if not r["ok"])
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": {"value": scaled(untraced, "wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": median_of(untraced, "peak_rss_mb"), "unit": "MiB"},
            "setup_s": {"value": median_of(untraced, "setup_s"), "unit": "s"},
        }
    result = {"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{'-smoke' if args.smoke else ''}"
    if args.trace:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for rep_id, r in enumerate(reps):
                for span in r.get("spans", ()):
                    fh.write(json.dumps({"trace": rep_id, **span}) + "\n")
    summary = {k: v for k, v in vars(args).items() if k != "child"}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({
            **summary, "env": env,
            "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
            "result": result,
        }) + "\n")

    print(f"pipebench {tag}: env {json.dumps(env)}")
    for r in reps:
        status = "ok" if r["ok"] else f"FAILED ({r['error']})"
        scaled_s = scaled([r], "wall_s") if r["ok"] else float("nan")
        print(f"  {r['kind']:8s} wall {r.get('wall_s', float('nan')):.3f} s  scaled {scaled_s:.3f} s  "
              f"peak {r.get('peak_rss_mb', float('nan')):.1f} MiB  {r.get('digest', '')[:12]}  {status}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name} = {value} {m['unit']}")
    print(f"  failed_frac = {failed}/{len(reps)} = {failed / len(reps):.3g}")
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="weights <= 4, for the benchmark's own tests")
    ap.add_argument("--child", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        record = child(args.child, args.workload, args.seed, args.smoke)
        print(json.dumps(record))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
