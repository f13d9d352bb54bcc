#!/usr/bin/env python3
"""Benchmark of cloneregion, measured from outside through its public calls.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout: the library is imported from ./src.
Items run one at a time, each in a child forked from this process after it has
imported ``cloneregion.cli`` and nothing else, so every item sees the cold
caches of a fresh CLI invocation. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced items and prints the per-layer
metrics. The last line of standard output is the JSON result; a full record
with provenance and the spans of one traced item goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(environ=os.environ):
    """Cap BLAS threads at nproc; must run before NumPy is imported."""
    for var in BLAS_ENV:
        value = environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else NPROC
        environ[var] = str(min(n, NPROC))


if __name__ == "__main__":
    cap_blas_threads()

import numpy as np  # noqa: E402  (imported after the thread cap)

from harness import median, run_forked, tail, timed  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, instrument  # noqa: E402

SETUP_REPEATS = 7
ITEM_TIMEOUT_S = 45.0
RESULTS_DIR = os.path.join(HERE, "results")

END_TO_END = {
    "setup_s": "s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "item_cpu_s_p50": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: medians per traced item. "computed" marks exact work
# counts derived from arguments and array sizes; they repeat exactly for a seed.
PER_LAYER = {
    "symgroup.young_orthogonal_rep.calls": "count",
    "symgroup.young_orthogonal_rep.self_s": "s",
    "symgroup.young_orthogonal_rep.hit_ratio": "ratio",
    "symgroup.rep_matrix.calls": "count",
    "symgroup.rep_matrix.self_s": "s",
    "symgroup.self_s": "s",
    "algebra.build_Q.calls": "count",
    "algebra.build_Q.self_s": "s",
    "algebra.build_block.self_s": "s",
    "algebra.decompose.self_s": "s",
    "algebra.eigh_work": "count",
    "algebra.self_s": "s",
    "oracle.pt_transposition.calls": "count",
    "oracle.pt_transposition.self_s": "s",
    "oracle.perm_operator.self_s": "s",
    "oracle.full_vs_block_spectrum.calls": "count",
    "oracle.full_vs_block_spectrum.self_s": "s",
    "oracle.special_states.self_s": "s",
    "oracle.dense_bytes": "B",
    "oracle.haar_isometry.self_s": "s",
    "oracle.choi_state.self_s": "s",
    "oracle.singlet_fractions.self_s": "s",
    "oracle.self_s": "s",
    "regions.build_hull.calls": "count",
    "regions.build_hull.self_s": "s",
    "regions.sample_block_region.self_s": "s",
    "regions.support.calls": "count",
    "regions.support.self_s": "s",
    "regions.MembershipOracle.init.self_s": "s",
    "regions.MembershipOracle.classify.calls": "count",
    "regions.MembershipOracle.classify.self_s": "s",
    "regions.verdict.inside": "count",
    "regions.verdict.boundary": "count",
    "regions.verdict.outside": "count",
    "regions.symmetric_max.self_s": "s",
    "regions.self_s": "s",
    "cli.main.self_s": "s",
    "cli.run_checks.self_s": "s",
    "cli.output_bytes": "B",
    "cli.self_s": "s",
    "trace.item_s_p50": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("regions.support.calls", "oracle.dense_bytes", "algebra.eigh_work",
            "symgroup.rep_matrix.calls")
LAYERS = ("symgroup", "algebra", "oracle", "regions", "cli")


def load_library():
    """Import cloneregion from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import cloneregion
    from cloneregion import algebra, cli, oracle, regions, symgroup

    if not os.path.abspath(cloneregion.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cloneregion imported from {cloneregion.__file__}, not {SRC}")
    return types.SimpleNamespace(cloneregion=cloneregion, symgroup=symgroup, algebra=algebra,
                                 oracle=oracle, regions=regions, cli=cli)


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import cloneregion.cli."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cloneregion.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def item_body(wl, lib, item, traced: bool, keep_spans: bool):
    """The child's work: time the item, trace it if asked, then check its output."""

    def body():
        tracer = Tracer() if traced else None
        yor = instrument(tracer, lib) if traced else None
        try:
            output, wall, cpu, peak_kb = timed(lambda: wl.call(lib, item))
        finally:
            if tracer is not None:
                tracer.restore()
        rec = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0}
        if traced:
            layer = summarize(tracer.spans)
            layer.update(tracer.counters)
            info = yor.cache_info()
            lookups = info.hits + info.misses
            layer["symgroup.young_orthogonal_rep.hit_ratio"] = info.hits / lookups if lookups else 0.0
            if isinstance(output, dict):
                layer["cli.output_bytes"] = len(output["stdout"].encode())
            rec["layer"] = layer
            if keep_spans:
                rec["spans"] = tracer.spans
        rec.update(wl.check(lib, item, output))
        return rec

    return body


def account(records, wl) -> tuple[int, int]:
    """Check units attempted and failed; an item that failed outright charges all its units."""
    attempted = failed = 0
    for rec in records:
        if "units" in rec:
            attempted += rec["units"]
            failed += rec["failed"]
        else:  # raised, died or timed out before its output could be checked
            attempted += wl.units_per_item
            failed += wl.units_per_item
    return attempted, failed


def end_to_end(done, setup_times) -> dict:
    tail_s, _ = tail([r["wall_s"] for r in done])
    return {
        "setup_s": median(setup_times),
        "item_s_p50": median([r["wall_s"] for r in done]),
        "item_s_tail": tail_s,
        "item_cpu_s_p50": median([r["cpu_s"] for r in done]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in done]),
    }


def per_layer(done_traced, done_plain) -> dict:
    out = {name: median([r["layer"].get(name, 0.0) for r in done_traced])
           for name in PER_LAYER if not name.startswith("trace.")}
    traced_p50 = median([r["wall_s"] for r in done_traced])
    out["trace.item_s_p50"] = traced_p50
    out["trace.overhead_s"] = traced_p50 - median([r["wall_s"] for r in done_plain])
    return out


def share(done_traced, layers) -> float:
    """Median over traced items of the layers' summed self time as a share of the item."""
    return median([sum(r["layer"].get(f"{layer}.self_s", 0.0) for layer in layers) / r["wall_s"]
                   for r in done_traced])


def git_commit():
    """HEAD of the checkout's git metadata, read without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                paths.add(path)
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(lib, args, n_items) -> dict:
    import scipy

    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": n_items,
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cloneregion": lib.cloneregion.__version__,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("need --seconds > 0 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"error: cannot import cloneregion from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    # One discarded item first: it warms the machine's file cache, which a
    # user's second invocation finds warm too; library state never carries over.
    run_forked(item_body(wl, lib, wl.item(args.seed, 0), False, False), ITEM_TIMEOUT_S)

    plain, traced, setup_times = [], [], []
    setup_goal = 0 if args.trace else SETUP_REPEATS
    start = time.perf_counter()
    index = 0
    while (elapsed := time.perf_counter() - start) < args.seconds:
        # Set-up runs are spread over the run, at most one per item, so that
        # the slow phases of a shared machine weigh on set-up and items alike.
        if len(setup_times) < min(setup_goal * elapsed / args.seconds, index + 1):
            setup_times.append(measure_setup())
            continue
        item = wl.item(args.seed, index)
        plain.append(run_forked(item_body(wl, lib, item, False, False), ITEM_TIMEOUT_S))
        if args.trace:
            keep = not traced
            traced.append(run_forked(item_body(wl, lib, item, True, keep), ITEM_TIMEOUT_S))
        index += 1
    while len(setup_times) < setup_goal:
        setup_times.append(measure_setup())
    records = plain + traced
    run_check = run_forked(lambda: wl.run_check(lib), ITEM_TIMEOUT_S)
    if run_check is not None:
        run_check.setdefault("units", 1)
        run_check.setdefault("failed", 1)
        records.append(run_check)

    attempted, failed = account(records, wl)
    done = [r for r in plain if "wall_s" in r]
    done_traced = [r for r in traced if "wall_s" in r]
    failures = [r["reason"] for r in records if r["reason"] is not None]
    correct = (all(r.get("verified") for r in records) and bool(done)
               and (not args.trace or bool(done_traced)))
    if args.trace:
        ok = bool(done_traced and done)
        metrics, units = (per_layer(done_traced, done) if ok else {}), PER_LAYER
    else:
        metrics, units = (end_to_end(done, setup_times) if done else {}), END_TO_END

    prov = provenance(lib, args, len(plain))
    tail_s, tail_pct = tail([r["wall_s"] for r in done]) if done else (None, None)
    report = {
        "provenance": prov,
        "fail_ratio": failed / attempted if attempted else None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "item_s_tail_percentile": tail_pct,
        "items_timed": len(done),
        "setup_s_samples": setup_times,
        "run_check": run_check,
        "metrics": metrics,
        "computed": list(COMPUTED),
        "layer_shares": {layer: share(done_traced, (layer,)) for layer in LAYERS} if done_traced else None,
        "named_layers": list(wl.layers),
        "named_layers_share": share(done_traced, wl.layers) if done_traced else None,
        "items": [{k: v for k, v in r.items() if k not in ("spans", "layer")} for r in records],
        "spans_of_first_traced_item": next((r["spans"] for r in traced if "spans" in r), None),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {json.dumps(prov)}")
    for name, value in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        if name == "item_s_tail" and tail_pct is not None:
            note = f" (p{tail_pct:.1f} of {len(done)} items)"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    if done_traced:
        print(f"share of traced item time in {'+'.join(wl.layers)} = {report['named_layers_share']:.3f}")
    print(f"fail_ratio = {report['fail_ratio']} ({failed}/{attempted} check units failed)")
    for reason in failures[:5]:
        print(f"failed: {reason}")
    if not metrics:
        print("error: no item completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
