"""Command-line harness: evolve | compare | spectrum | gs-scan | cache.

Exit codes: 0 success, 1 usage/config error or an OS error such as
unwritable output (a closed stdout pipe included) or a cache file that
cannot be removed, 2 numerical failure (no acceptable dt, series not
converged, propagator not unitary, non-finite amplitudes, eigensolver
checks refused), 3 method comparison above tolerance.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .cache import CacheCorruptError, PropagatorCache, atomic_write, propagator_fingerprint
from .config import ConfigError, RunConfig, load_run_config, parse_p_values
from .model import TransferMatrix, build_transfer_matrix
from .propagator import (
    PropagatorConfig,
    StepPropagator,
    build_step_propagator,
    certify,
    evolve,
    suggest_step,
)
from .spectral import diagonalize, gs_scan, lowest_energies, teee_evolve
from .trajectory import csv_lines, csv_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

COMPARE_TOL = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse insists on exiting with code 2; route usage problems through
    # the normal error path so they come back as exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sbprop",
                     description="Spin-boson dynamics via a certified "
                                 "Taylor-series step propagator.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_flags = _Parser(add_help=False)
    run_flags.add_argument("--config", metavar="PATH",
                           help="flat key=value config file")
    run_flags.add_argument("--set", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="override one config key (repeatable)")
    run_flags.add_argument("--out", metavar="PATH",
                           help="write CSV here instead of stdout")
    run_flags.add_argument("--normalize", action="store_true",
                           help="compare normalized instead of raw observables")

    p = sub.add_parser("evolve", parents=[run_flags],
                       help="step a state forward, emit the trajectory CSV")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", parents=[run_flags],
                       help="Taylor vs eigendecomposition on one time grid")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spectrum", parents=[run_flags],
                       help="eigenvalues and level differences as CSV")
    p.add_argument("--levels", type=int, default=None,
                   help="how many excitation energies to list")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gs-scan", parents=[run_flags],
                       help="ground-state energy vs Fock cutoff")
    p.add_argument("--p-values", dest="p_values_flag", metavar="A:B[:STEP]",
                   help="cutoff scan, overrides the p_values config key")
    p.set_defaults(func=cmd_gs_scan)

    p = sub.add_parser("cache", help="inspect or clear the propagator store")
    p.add_argument("action", choices=["list", "info", "clear"])
    p.set_defaults(func=cmd_cache)
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config, args.set)
    if args.out:
        cfg.out = args.out
    if args.normalize:
        cfg.normalize = True
    return cfg


def _steps_for(t_max: float, dt: float) -> int:
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ConfigError(f"t_max must be non-negative, got {t_max}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    steps = t_max / dt - 1e-9
    if not math.isfinite(steps):
        raise ConfigError(f"dt={dt} is too small for t_max={t_max}: "
                          "the step count overflows")
    return max(math.ceil(steps), 0)


def _prepare(cfg: RunConfig) -> tuple[TransferMatrix, PropagatorConfig]:
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    dt = cfg.dt if cfg.dt is not None else suggest_step(q, cfg.N, cfg.tol)
    steps = _steps_for(cfg.t_max, dt)
    return q, PropagatorConfig(dt=dt, steps=steps, N=cfg.N, tol=cfg.tol)


def _load_cached(store: PropagatorCache, fp: int, q: TransferMatrix,
                 pcfg: PropagatorConfig) -> StepPropagator | None:
    """The stored propagator for fp; None on a miss, CacheCorruptError if
    unusable, NotConverged/NotUnitary if its stored certificates are
    refused at pcfg.tol (see certify)."""
    entry = store.get(fp)
    if entry is None or (entry.dim, entry.N, entry.dt) != (q.dim, pcfg.N, pcfg.dt):
        return None
    certify(entry, q, pcfg)
    return StepPropagator(band=entry.band, fingerprint=fp, dt=entry.dt, N=entry.N,
                          last_term_norm=entry.last_term_norm,
                          unitarity_defect=entry.unitarity_defect)


def _obtain_propagator(q: TransferMatrix, pcfg: PropagatorConfig) -> StepPropagator:
    """Cache-backed build: hit -> load, miss/corrupt -> build and store."""
    store = PropagatorCache()
    fp = propagator_fingerprint(q.params, q.trunc.P, pcfg.N, pcfg.dt)
    try:
        prop = _load_cached(store, fp, q, pcfg)
    except CacheCorruptError as err:
        print(f"warning: rebuilding corrupt cache entry ({err})", file=sys.stderr)
        prop = None
    except OSError as err:
        print(f"warning: could not read propagator cache: {err}", file=sys.stderr)
        prop = None
    if prop is not None:
        return prop
    prop = build_step_propagator(q, pcfg)
    try:
        store.put(prop)
    except OSError as err:
        print(f"warning: could not store propagator: {err}", file=sys.stderr)
    return prop


def _write_lines(lines, out_path: str) -> None:
    if not out_path:
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    path = Path(out_path)
    try:
        _write_file(lines, path)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None
    print(f"wrote {path}")


def _write_file(lines, path: Path) -> None:
    if path.exists() and not path.is_file():
        # a FIFO or a device node: write through it, since replacing it
        # would swap the node for a regular file
        target = open(path, "w")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        target = atomic_write(path, "w")
    with target as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _load(args)
    q, pcfg = _prepare(cfg)
    prop = _obtain_propagator(q, pcfg)
    state = cfg.build_initial_state()
    traj = evolve(state, prop, pcfg, q)
    _write_lines(csv_lines(traj), cfg.out)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if not cfg.to_params().is_hermitian():
        raise ConfigError("dissipative parameters: the eigendecomposition "
                          "reference cannot be built, compare needs beta=gamma=0")
    q, pcfg = _prepare(cfg)
    prop = _obtain_propagator(q, pcfg)
    state = cfg.build_initial_state()
    traj = evolve(state, prop, pcfg, q)
    ref = teee_evolve(state, diagonalize(q), traj.times)

    if cfg.normalize:
        dn = np.abs(traj.n_norm - ref.n_norm)
        dsz = np.abs(traj.sz_norm - ref.sz_norm)
    else:
        dn = np.abs(traj.n_raw - ref.n_raw)
        dsz = np.abs(traj.sz_raw - ref.sz_raw)

    _write_lines(["t,dn_abs,dsz_abs", *csv_rows(traj.times, dn, dsz)], cfg.out)
    max_dn, max_dsz = float(dn.max()), float(dsz.max())
    print(f"max_dn={max_dn!r}")
    print(f"max_dsz={max_dsz!r}")
    return EXIT_OK if max(max_dn, max_dsz) < COMPARE_TOL else EXIT_MISMATCH


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load(args)
    # the spectrum takes no time step: no dt search, no step count
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    levels = args.levels if args.levels is not None else cfg.levels
    energies = lowest_energies(q, min(int(levels), q.dim - 1))
    deltas = energies - energies[0]
    lines = ["j,energy,delta_e", f"0,{float(energies[0])!r},0.0"]
    lines += [f"{j},{float(energies[j])!r},{float(deltas[j])!r}"
              for j in range(1, energies.size)]
    _write_lines(lines, cfg.out)
    return EXIT_OK


def cmd_gs_scan(args: argparse.Namespace) -> int:
    cfg = _load(args)
    text = args.p_values_flag or cfg.p_values
    result = gs_scan(cfg.to_params(), parse_p_values(text))
    lines = ["P,E0"]
    lines += [f"{int(p)},{float(e)!r}"
              for p, e in zip(result.p_values, result.e0)]
    _write_lines(lines, cfg.out)
    print(f"plateau_P={result.plateau_P}")
    print(f"slope={result.slope!r}")
    print(f"classification={result.classification}")
    return EXIT_OK


def _certificate(value: float | None) -> str:
    return "-" if value is None else f"{value:.3e}"


def cmd_cache(args: argparse.Namespace) -> int:
    store = PropagatorCache()
    if args.action == "list":
        for path, item in store.entries():
            if isinstance(item, CacheCorruptError):
                print(f"corrupt {path.name}: {item.reason}")
            else:
                stamp = time.strftime("%Y-%m-%dT%H:%M:%S",
                                      time.localtime(item.created_at))
                print(f"{item.fingerprint:016x} dim={item.dim} N={item.N} "
                      f"dt={item.dt!r} created={stamp} "
                      f"last_term={_certificate(item.last_term_norm)} "
                      f"defect={_certificate(item.unitarity_defect)}")
    elif args.action == "info":
        entries = store.entries()
        total = sum(p.stat().st_size for p, _ in entries)
        corrupt = sum(isinstance(e, CacheCorruptError) for _, e in entries)
        print(f"dir={store.root}")
        print(f"entries={len(entries)} corrupt={corrupt} bytes={total}")
    else:
        print(f"removed={store.clear()}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point it at devnull so
        # the interpreter's final flush of what is left stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        # ConfigError, TailMassTooLarge and NonHermitianInput among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as err:
        # NotConverged, NotUnitary, NonFiniteState, and the refusals of
        # suggest_step, of the eigensolves' shared gate (Q or its energies
        # not finite), of diagonalize's residual and orthonormality checks,
        # of lowest_energies' Sturm certificate and of gs_scan
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
