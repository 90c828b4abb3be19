"""Command-line harness: evolve | compare | spectrum | gs-scan | cache.

Exit codes: 0 success, 1 usage/config error (a run with too many steps
to record among them), an OS error such as unwritable output (a closed
stdout pipe included) or a cache file that cannot be removed, or an
allocation that fails (MemoryError), 2 numerical failure (no acceptable
dt, series not converged, propagator not unitary, non-finite amplitudes,
eigensolver checks refused, an excitation energy past the float range),
3 method comparison above tolerance.

`evolve` and `compare` set a run up through one route, _setup: Q and
dt, the initial state, then the record and the certified propagator,
from the cache or built, with one retry at a smaller dt when the
automatic one is refused.  _config is the one place a run's
PropagatorConfig is made and its step count checked.

`main` may be called any number of times in one process.  It builds its
parser on the first call and reuses it; nothing else is kept between calls.

CSV output goes out CSV_BLOCK_ROWS lines per write call, never the whole
text in one: written in one call, fig2's 329 KB CSV into a pipe whose
reader closed after the header returned normally, and the run exited 0
instead of 1.  A block stays under the 64 KB a pipe buffers, so the write
after the reader has gone fails with BrokenPipeError.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
    MAX_STEP,
    NotConverged,
    PropagatorConfig,
    StepPropagator,
    build_step_propagator,
    certify,
    evolve,
    suggest_step,
)
from .spectral import diagonalize, gs_scan, lowest_energies, teee_evolve
from .states import SpinorFockState
from .trajectory import CSV_BLOCK_ROWS, TrajectoryBuilder, csv_lines, csv_rows

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
    # default None, not a list: the parser main reuses shares its defaults
    # with every Namespace it returns
    run_flags.add_argument("--set", action="append", default=None,
                           metavar="KEY=VALUE",
                           help="override one config key (repeatable)")
    # every command flag is a --set of one key under another name: it appends
    # "key=VALUE" to args.set, so load_run_config applies the file first, then
    # each flag and --set in command-line order, and the later one wins
    run_flags.add_argument("--out", dest="set", action="append", type="out={}".format,
                           metavar="PATH", help="write CSV here instead of stdout")

    p = sub.add_parser("evolve", parents=[run_flags],
                       help="step a state forward, emit the trajectory CSV")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", parents=[run_flags],
                       help="Taylor vs eigendecomposition on one time grid")
    p.add_argument("--normalize", dest="set", action="append_const",
                   const="normalize=true",
                   help="compare normalized instead of raw observables")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spectrum", parents=[run_flags],
                       help="eigenvalues and level differences as CSV")
    p.add_argument("--levels", dest="set", action="append", type="levels={}".format,
                   metavar="LEVELS", help="how many excitation energies to list")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gs-scan", parents=[run_flags],
                       help="ground-state energy vs Fock cutoff")
    p.add_argument("--p-values", dest="set", action="append",
                   type="p_values={}".format, metavar="A:B[:STEP]",
                   help="cutoff scan (the p_values config key)")
    p.set_defaults(func=cmd_gs_scan)

    p = sub.add_parser("cache", help="inspect or clear the propagator store")
    p.add_argument("action", choices=["list", "info", "clear"])
    p.set_defaults(func=cmd_cache)
    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), built on the first main call and reused by every
    later one: parsing leaves the parser as it was, and no default is a
    mutable object, so one call's arguments cannot reach the next."""
    return build_parser()


def _config(cfg: RunConfig, dt: float) -> PropagatorConfig:
    """The run's PropagatorConfig at dt: cfg's N and tol, and the steps
    that reach cfg.t_max.  A negative or non-finite t_max, a dt that is
    not positive and finite, and a step count whose record numpy cannot
    make (a float64 column of steps + 1 past np.intp bytes, an infinite
    count included) are ConfigErrors."""
    if not (math.isfinite(cfg.t_max) and cfg.t_max >= 0.0):
        raise ConfigError(f"t_max must be non-negative, got {cfg.t_max}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    steps = cfg.t_max / dt - 1e-9
    if not 8 * (steps + 1) <= np.iinfo(np.intp).max:
        raise ConfigError(f"t_max={cfg.t_max} at dt={dt} is {steps:g} steps, "
                          "too many to record")
    return PropagatorConfig(dt=dt, steps=max(math.ceil(steps), 0), N=cfg.N, tol=cfg.tol)


def _prepare(cfg: RunConfig) -> tuple[TransferMatrix, PropagatorConfig]:
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    dt = cfg.dt if cfg.dt is not None else suggest_step(q, cfg.N, cfg.tol)
    return q, _config(cfg, dt)


def _obtain_propagator(q: TransferMatrix, pcfg: PropagatorConfig) -> StepPropagator:
    """Cache-backed build: a hit for the same (dim, N, dt) is the stored
    record, certified at pcfg.tol (NotConverged/NotUnitary if its stored
    certificates are refused, see certify); a miss, a corrupt entry or
    one for other (dim, N, dt) is built and stored."""
    store = PropagatorCache()
    fp = propagator_fingerprint(q.params, q.trunc.P, pcfg.N, pcfg.dt)
    try:
        prop = store.get(fp)
    except CacheCorruptError as err:
        print(f"warning: rebuilding corrupt cache entry ({err})", file=sys.stderr)
        prop = None
    except OSError as err:
        print(f"warning: could not read propagator cache: {err}", file=sys.stderr)
        prop = None
    if prop is not None and (prop.dim, prop.N, prop.dt) == (q.dim, pcfg.N, pcfg.dt):
        certify(prop, q, pcfg)
        return prop
    prop = build_step_propagator(q, pcfg)
    try:
        store.put(prop)
    except OSError as err:
        print(f"warning: could not store propagator: {err}", file=sys.stderr)
    return prop


def _setup(cfg: RunConfig) -> tuple[TransferMatrix, SpinorFockState, PropagatorConfig,
                                    StepPropagator, TrajectoryBuilder]:
    """The one set-up of an evolve or compare run: Q, the initial state,
    the final PropagatorConfig, the certified propagator M and the empty
    record that evolve fills.

    In order: Q and dt (_prepare, which refuses a step count too large to
    record), the initial state, then per config the record and M
    (_obtain_propagator), so a refused state or a record that cannot be
    allocated costs no build of M and leaves no cache entry.

    suggest_step bounds term N+1 while certify checks term N, so the dt it
    picks can leave the last term just above tol.  When cfg leaves dt to
    suggest_step and the last term (not the tail bound) refuses it, M is
    obtained once more at the largest MAX_STEP / 2^k at most dt times the
    refusal's dt_reduction, with the step count recomputed; a second
    refusal stands.  An explicit dt is refused as it is.
    """
    q, pcfg = _prepare(cfg)
    state = cfg.build_initial_state()
    for retry in (False, True):
        try:
            record = TrajectoryBuilder(q, pcfg.steps + 1)
        except MemoryError as err:
            raise ConfigError(f"t_max={cfg.t_max} at dt={pcfg.dt} is {pcfg.steps} "
                              f"steps, too many to record: {err}") from None
        try:
            return q, state, pcfg, _obtain_propagator(q, pcfg), record
        except NotConverged as err:
            # dt_reduction is None for a tail-bound or diverging refusal,
            # and 0.0 when tol / last underflowed
            if retry or cfg.dt is not None or not err.dt_reduction:
                raise
            dt = MAX_STEP
            while dt > pcfg.dt * err.dt_reduction:
                dt /= 2.0
        del record  # freed before the retry allocates its own
        pcfg = _config(cfg, dt)


def _write_blocks(lines, write) -> None:
    """Write each line with its newline, CSV_BLOCK_ROWS lines per call."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, CSV_BLOCK_ROWS)):
        write("\n".join(block) + "\n")


def _write_lines(lines, out_path: str) -> None:
    if not out_path:
        _write_blocks(lines, sys.stdout.write)
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
        _write_blocks(lines, fh.write)


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    q, state, pcfg, prop, record = _setup(cfg)
    traj = evolve(state, prop, pcfg, q, builder=record)
    _write_lines(csv_lines(traj), cfg.out)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    if not cfg.to_params().is_hermitian():
        raise ConfigError("dissipative parameters: the eigendecomposition "
                          "reference cannot be built, compare needs beta=gamma=0")
    q, state, pcfg, prop, record = _setup(cfg)
    traj = evolve(state, prop, pcfg, q, builder=record)
    ref = teee_evolve(state, diagonalize(q), traj.times)

    if cfg.normalize:
        dn = np.abs(traj.n_norm - ref.n_norm)
        dsz = np.abs(traj.sz_norm - ref.sz_norm)
    else:
        dn = np.abs(traj.n_raw - ref.n_raw)
        dsz = np.abs(traj.sz_raw - ref.sz_raw)

    _write_lines(itertools.chain(["t,dn_abs,dsz_abs"], csv_rows(traj.times, dn, dsz)),
                 cfg.out)
    max_dn, max_dsz = float(dn.max()), float(dsz.max())
    print(f"max_dn={max_dn!r}")
    print(f"max_dsz={max_dsz!r}")
    return EXIT_OK if max(max_dn, max_dsz) < COMPARE_TOL else EXIT_MISMATCH


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    # the spectrum takes no time step: no dt search, no step count
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    energies = lowest_energies(q, min(cfg.levels, q.dim - 1))
    # finite energies of opposite signs can lie more than a double apart
    with np.errstate(over="ignore"):
        delta_e = energies - energies[0]
    if not np.isfinite(delta_e).all():
        raise RuntimeError("excitation energy overflows a double")
    rows = csv_rows(energies, delta_e)
    _write_lines(itertools.chain(["j,energy,delta_e"],
                                 (f"{j},{row}" for j, row in enumerate(rows))), cfg.out)
    return EXIT_OK


def cmd_gs_scan(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args.set)
    result = gs_scan(cfg.to_params(), parse_p_values(cfg.p_values))
    rows = zip(result.p_values.tolist(), csv_rows(result.e0))
    _write_lines(itertools.chain(["P,E0"], (f"{p},{row}" for p, row in rows)), cfg.out)
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
                      f"w={item.w} dropped={_certificate(item.dropped_norm)} "
                      f"last_term={_certificate(item.last_term_norm)} "
                      f"defect={_certificate(item.unitarity_defect)}")
    elif args.action == "info":
        entries = [(p, isinstance(e, CacheCorruptError)) for p, e in store.entries()]
        total = sum(p.stat().st_size for p, _ in entries)
        corrupt = sum(bad for _, bad in entries)
        print(f"dir={store.root}")
        print(f"entries={len(entries)} corrupt={corrupt} bytes={total}")
    else:
        print(f"removed={store.clear()}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _parser()
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
    except MemoryError as err:
        # numpy's names the array it could not allocate; a bare one is empty
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as err:
        # NotConverged, NotUnitary, NonFiniteState, and the refusals of
        # suggest_step, of diagonalize, lowest_energies and gs_scan (Q or
        # its energies not finite), of diagonalize's residual and
        # orthonormality checks and of cmd_spectrum's excitation energies
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
