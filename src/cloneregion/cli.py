"""Command-line front end: build decompositions, certify, export region data.

Subcommands
-----------
irreps     emit the block decomposition as JSON
region     emit sampled per-block fidelity points plus the ideal N's origin
hull       emit the certified convex hull (vertices, facets, their support, gap)
check      run the algebra-relation and spectrum-oracle suite
channels   sample Haar cloning channels, emit fidelity vectors + verdicts
symmetric  print the symmetric fidelity optimum and the Werner reference
convert    convert between singlet fraction and clone fidelity

Each command takes only the flags it uses.  `hull` takes none beyond --n, --d
and --out: it refines exact extreme points until its gap is at rounding level
or it reaches regions.HULL_FACETS facets.  SciPy's qmc and ndtri serve
`region` only, for the sampled points of blocks of dimension >= 4.  All
outputs are deterministic given the flags and streamed; files are written
atomically, and JSON outputs carry a schema version, the package versions and
the generating config.
"""

from __future__ import annotations

import argparse
import csv
import json
import locale  # noqa: F401  argparse's gettext imports it on the first parse
import os
import sys
import tempfile
from typing import Iterable

import numpy as np

from . import __version__
from .algebra import decompose, decomposition_to_dict, require_json_memory
from .oracle import (
    InconsistencyError,
    _sector,
    charge_orbits,
    clone_fidelity_from_singlet,
    full_vs_block_spectrum,
    haar_isometry,
    singlet_from_clone_fidelity,
    vector_singlet_fractions,
)
from .regions import (
    MembershipOracle,
    _chunks,
    _hull_dimension,
    build_hull,
    extreme_points,
    sample_region,
    support,
    symmetric_max,
)

SCHEMA_VERSION = "1.0.0"


def _atomic_write(path: str, write):
    """Call write(fh) on a temporary file beside path, then move it into place.

    An OSError names path, the file the caller asked for, not the temporary one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cloneregion-")
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args, payload: dict | str | Iterable[list]):
    """Write a dict as JSON, a str as is, or CSV rows; streamed, the whole text is never held."""
    def write(fh):
        if isinstance(payload, dict):
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        elif isinstance(payload, str):
            fh.write(payload)
        else:
            csv.writer(fh, lineterminator="\n").writerows(payload)

    if args.out:
        _atomic_write(args.out, write)
    else:
        write(sys.stdout)


def _envelope(args, body: dict) -> dict:
    import scipy

    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    }
    versions = {"cloneregion": __version__, "numpy": np.__version__, "scipy": scipy.__version__}
    return {"schema": SCHEMA_VERSION, "versions": versions, "config": config, **body}


def cmd_irreps(args) -> int:
    require_json_memory(args.n, args.d)  # priced from the labels, before any block is built
    dec = decompose(args.n, args.d)
    _emit(args, _envelope(args, decomposition_to_dict(dec)))
    return 0


def cmd_region(args) -> int:
    dec = decompose(args.n, args.d)
    samples = sample_region(dec, args.samples)
    npt = np.zeros(args.n - 1)  # the semi-trivial ideal's point
    if args.format == "csv":
        max_dim = max(b.dim for b in dec.blocks)

        def rows():
            yield ["source"] + [f"a_{i+1}" for i in range(max_dim)] + [
                f"F_1{k}" for k in range(2, args.n + 1)
            ]
            for s in samples:
                for state, point in zip(s.states, s.points):
                    pad = [""] * (max_dim - len(state))
                    yield [s.source] + [repr(float(x)) for x in state] + pad + [
                        repr(float(x)) for x in point
                    ]
            yield ["N"] + [""] * max_dim + [repr(float(x)) for x in npt]

        _emit(args, rows())
    else:
        body = {
            "n": args.n,
            "d": args.d,
            "blocks": [
                {"alpha": s.source, "points": s.points.tolist()} for s in samples
            ],
            "n_point": npt.tolist(),
        }
        _emit(args, _envelope(args, body))
    return 0


def cmd_hull(args) -> int:
    _hull_dimension(args.n - 1)  # refused before any block is built
    dec = decompose(args.n, args.d)
    hull = build_hull(dec)
    body = {
        "n": args.n,
        "d": args.d,
        "hull": {
            "vertices": hull.vertices.tolist(),
            "sources": list(hull.sources),
            "facets": [
                {"normal": nrm.tolist(), "offset": float(off), "support": float(h)}
                for nrm, off, h in zip(hull.facet_normals, hull.facet_offsets, hull.facet_support)
            ],
            "gap": hull.gap,
            "volume": hull.volume,
        },
    }
    _emit(args, _envelope(args, body))
    return 0


def run_checks(n: int, d: int, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Full certification suite for one (n, d); returns (name, ok, detail) rows.

    The oracle's memory prediction (charge_orbits) comes first, so a refused
    size builds no block; full_vs_block_spectrum makes it again with the
    generator store beside each sector, since the generator rows form every
    block's generators first.  Those rows read each block's generators
    directly, in regions._chunks, the chunks that prediction prices.  One
    full_vs_block_spectrum call and one support call certify five random
    directions, one (5, n - 1) draw: the numbers of five draws of size n - 1.
    The classical-clone row reads the X_k of the charge sector of type (n - 2).
    """
    results = []

    def add(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    charge_orbits(n, d)  # refuse before any block is built, as the oracle would
    dec = decompose(n, d)
    for block in dec.blocks:
        tag = f"alpha={block.alpha.parts}"

        def deviations(C):  # max |B^2 - d B|, |B - B^T| and |tr B - d dim_phi| over the B in C
            return [np.max(np.abs(C @ C - d * C)), np.max(np.abs(C - C.transpose(0, 2, 1))),
                    np.max(np.abs(np.trace(C, axis1=1, axis2=2) - d * block.dim_phi))]

        devs = np.max([deviations(block.generators[c]) for c in _chunks(block, n - 1)], axis=0)
        worst_rel, worst_sym, worst_tr = map(float, devs)
        add(f"{tag}: B^2 = d B", worst_rel < 1e-10, f"max dev {worst_rel:.2e}")
        add(f"{tag}: B symmetric", worst_sym < 1e-10, f"max dev {worst_sym:.2e}")
        add(f"{tag}: tr B = d dim_phi", worst_tr < 1e-10, f"max dev {worst_tr:.2e}")
        total = block.combine(np.ones(n - 1))
        sdev = float(np.max(np.abs(total - np.diag(block.eigenvalues_full()))))
        add(f"{tag}: sum_a B_a = diag(d + c(nu/alpha))", sdev <= 1e-10 * d, f"max dev {sdev:.2e}")
        gdev = block.gram_residual * d
        add(f"{tag}: Q(alpha) = Y Y^T", gdev <= 1e-10 * d, f"max dev {gdev:.2e}")

    W = np.random.Generator(np.random.PCG64(seed)).normal(size=(5, n - 1))
    reps = []
    try:
        reps = full_vs_block_spectrum(dec, W)
        gap = max(rep.max_abs_gap for rep in reps)
        ok, detail = gap <= 1e-8, "max gap {:.2e}; {} sectors for {}".format(gap, *reps[0].sectors)
    except InconsistencyError as exc:
        ok, detail = False, str(exc)
    add("full vs block spectra (5 random directions)", ok, detail)

    # the skipped charge sectors are zero, so the full spectrum always holds 0
    worst = 0.0
    if reps:
        top = np.maximum([rep.full[0][-1] for rep in reps], 0.0) / d
        worst = float(np.max(np.abs(support(dec, W) - top) / np.maximum(1.0, np.abs(top))))
    add("support equals full-space lambda_max/d (5 random directions)",
        len(reps) == 5 and worst < 1e-8, f"max dev {worst:.2e}")

    # (1/d) sum_i (|i><i|)^{x n}: |0..0> is state 0 of the sector of type (n - 2),
    # and a colour permutation, which commutes with every X_k, maps it to each |i..i>
    sector = _sector((n - 2,), n, d)
    F = sector.fidelities(np.eye(1, sector.dim))
    dev = float(np.max(np.abs(F - 1.0 / d)))
    add("classical-clone point equals (1/d, ..., 1/d)", dev < 1e-12, f"max dev {dev:.2e}")

    if n == 3:  # the optimal asymmetric 1->2 cloners (Cerf, J. Mod. Opt. 47, 187 (2000))
        t = np.linspace(0.0, np.pi / 2, 52)[1:-1]
        F1, F2 = extreme_points(dec, np.column_stack([np.cos(t), np.sin(t)]))[0].T
        dev = float(np.max(np.abs(F1 + F2 - (2 / d) * np.sqrt(F1 * F2) - (1 - 1 / d**2))))
        add("1->2 extreme points on F1 + F2 - (2/d) sqrt(F1 F2) = 1 - 1/d^2", dev <= 1e-12,
            f"max dev {dev:.2e} over 50 directions")

    return results


def cmd_check(args) -> int:
    results = run_checks(args.n, args.d, args.seed)
    failed = 0
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"[{status}] {name}{suffix}")
    summary = f"{len(results) - failed}/{len(results)} checks passed"
    lines.append(summary)
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_channels(args) -> int:
    dec = decompose(args.n, args.d)
    # every channel is drawn first, so an isometry past the memory budget is
    # refused before the oracle's eigensolves
    seeds = range(args.seed, args.seed + args.samples)
    isometries = (haar_isometry(args.d, args.n - 1, seed).isometry for seed in seeds)
    fidelities = [vector_singlet_fractions(W.T / np.sqrt(args.d), args.n, args.d)
                  for W in isometries]
    oracle = MembershipOracle(dec)
    verdicts = [oracle.classify(F, args.tol) for F in fidelities]

    def rows():
        yield ["seed"] + [f"F_1{k}" for k in range(2, args.n + 1)] + ["verdict"]
        for seed, F, verdict in zip(seeds, fidelities, verdicts):
            yield [seed] + [repr(float(x)) for x in F] + [verdict]

    _emit(args, rows())
    return 0


def cmd_symmetric(args) -> int:
    dec = decompose(args.n, args.d)
    F = symmetric_max(dec)
    f = clone_fidelity_from_singlet(F, args.d)
    N, d = args.n - 1, args.d
    werner_F = (N + d - 1) / (N * d)
    _emit(
        args,
        f"F = {F:.6f}, f = {f:.6f} (Werner reference F = {werner_F:.6f}, "
        f"f = {clone_fidelity_from_singlet(werner_F, d):.6f})\n",
    )
    return 0


def cmd_convert(args) -> int:
    if args.singlet is not None:
        f = clone_fidelity_from_singlet(args.singlet, args.d)
        _emit(args, f"f = {f:.9f}\n")
    else:
        F = singlet_from_clone_fidelity(args.clone_fidelity, args.d)
        _emit(args, f"F = {F:.9f}\n")
    return 0


# flags beyond --n --d --out, added only to the commands that use them
_OWN_FLAGS = {
    "tol": dict(type=float, default=1e-9, help="membership tolerance, 0 < tol < 1"),
    "samples": dict(type=int, default=10**4,
                    help="sample count k (region: a 3-dim block gets na*max(1, k//na) points, "
                         "na = max(2, round(sqrt(k/2))))"),
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "format": dict(choices=("json", "csv"), default="json", help="output format"),
}


def _add_common(p: argparse.ArgumentParser, own: tuple[str, ...]):
    p.add_argument("--n", type=int, default=3, help="total systems, >= 3, within the memory budget")
    p.add_argument("--d", type=int, default=2, help="local dimension, >= 2")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    for flag in own:
        p.add_argument(f"--{flag}", **_OWN_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneregion",
        description="Admissible fidelity regions of 1->N universal quantum cloners",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("irreps", cmd_irreps, "emit the block decomposition as JSON", ()),
        ("region", cmd_region, "emit sampled fidelity points", ("samples", "format")),
        ("hull", cmd_hull, "emit the certified convex hull of the region", ()),
        ("check", cmd_check, "run the certification suite", ("seed",)),
        ("channels", cmd_channels, "sample Haar channels and classify them", ("samples", "seed", "tol")),
        ("symmetric", cmd_symmetric, "symmetric optimum and Werner reference", ()),
    ]
    for name, func, help_, own in specs:
        p = sub.add_parser(name, help=help_)
        _add_common(p, own)
        p.set_defaults(func=func)

    p = sub.add_parser("convert", help="singlet fraction <-> clone fidelity")
    p.add_argument("--d", type=int, default=2)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--singlet", type=float, help="singlet fraction F")
    given.add_argument("--clone-fidelity", dest="clone_fidelity", type=float,
                       help="clone fidelity f")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "n", 3) < 3 or getattr(args, "d", 2) < 2:
            raise ValueError("need n >= 3 and d >= 2")
        # the gauge g is >= 0, so no point is inside once 1 - tol <= 0; NaN fails both
        if getattr(args, "samples", 1) < 1 or not 0 < getattr(args, "tol", 0.5) < 1:
            raise ValueError("need samples >= 1 and 0 < tol < 1")
        if getattr(args, "seed", 0) < 0:  # PCG64's own refusal names no flag
            raise ValueError(f"need --seed >= 0, got {args.seed}")
        return args.func(args)
    except SystemExit as exc:  # argparse's exit status
        return exc.code
    except (ValueError, InconsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
