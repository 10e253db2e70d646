"""Command-line front end: verify, solve, wavefunction, dwbc."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dwbc as dwbc_mod
from .config import RunConfig, load_config
from .errors import ConfigError, ProvenanceError, SizeCapError
from .verify import run_solve, run_verify, run_wavefunction, write_report


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="path to a run configuration file")
    parser.add_argument("--tolerance", type=float, help="override every check tolerance")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--output-dir", type=Path, help="override the output directory")


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return cfg.with_overrides(
        tolerance=args.tolerance, seed=args.seed, output_dir=args.output_dir
    )


def _cmd_verify(args) -> int:
    config = _load(args)
    report = run_verify(config)
    json_path, txt_path = write_report(report, config.output_dir)
    sys.stdout.write(report.table())
    print(f"report written to {json_path} and {txt_path}")
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    config = _load(args)
    out = args.out or (config.output_dir / "roots.txt")
    roots = run_solve(config, out)
    print(f"solved M={roots.magnons} roots on L={roots.length}: residual {roots.residual:.3e}")
    print(f"roots written to {out}")
    return 0


def _cmd_wavefunction(args) -> int:
    config = _load(args)
    out = args.out or (config.output_dir / "wavefunction.txt")
    stat = run_wavefunction(config, args.roots, out)
    print(
        f"wave table written to {out}; ratio constant {stat.constant!r}, "
        f"spread {stat.spread:.3e} over {stat.n_used}/{stat.n_total} configurations"
    )
    return 0


def _cmd_dwbc(args) -> int:
    config = _load(args)
    regime = config.regime()
    m = args.m if args.m is not None else max(config.magnons, 1)
    if m < 0:
        raise ConfigError(f"M={m} must satisfy 0 <= M")
    rng = np.random.default_rng(config.seed)
    inp = dwbc_mod.random_input(m, regime, rng)

    t0 = time.perf_counter()
    total = dwbc_mod.dwbc_sum(inp)
    t_sum = time.perf_counter() - t0
    t0 = time.perf_counter()
    rec = dwbc_mod.dwbc_recurrence(inp)
    t_rec = time.perf_counter() - t0

    rel = abs(total - rec) / abs(total)
    print(f"M={m} {regime.family} partition function")
    print(f"  permutation sum : {total!r}  ({t_sum * 1e3:.2f} ms, {math.factorial(m)} terms)")
    print(f"  recurrence      : {rec!r}  ({t_rec * 1e3:.2f} ms, {2 ** m} subsets)")
    print(f"  relative diff   : {rel:.3e}")

    # row-parameter symmetry is measured and reported, never asserted
    perm = rng.permutation(m)
    shuffled = dwbc_mod.DwbcInput(tuple(inp.mu[p] for p in perm), inp.q, regime)
    sym = abs(dwbc_mod.dwbc_sum(shuffled) - total) / abs(total)
    print(f"  row-permutation symmetry defect (measured): {sym:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixvertex",
        description="Exact verification lab for the inhomogeneous six-vertex model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="solve Bethe roots and write them to a file")
    _add_common(p_solve)
    p_solve.add_argument("--out", type=Path, help="roots output path")
    p_solve.set_defaults(func=_cmd_solve)

    p_wf = sub.add_parser("wavefunction", help="export wave tables for stored roots")
    _add_common(p_wf)
    p_wf.add_argument("--roots", type=Path, required=True, help="path to a roots document")
    p_wf.add_argument("--out", type=Path, help="wave table output path")
    p_wf.set_defaults(func=_cmd_wavefunction)

    p_dwbc = sub.add_parser("dwbc", help="evaluate and benchmark the partition function")
    _add_common(p_dwbc)
    p_dwbc.add_argument("--m", type=int, help="number of rows/columns (default: config M)")
    p_dwbc.set_defaults(func=_cmd_dwbc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ConfigError, ProvenanceError, SizeCapError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed early (`| head`).  Point stdout at devnull so the
        # interpreter's own flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
