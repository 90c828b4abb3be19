"""One benchmark run: set-up, cold reference pass, timed rounds, checks, report.

1. Set-up: fill a fresh propagator cache (config -> Q -> suggest_step ->
   build_step_propagator -> PropagatorCache.put), timed; it stays warm for
   the timed phase.
2. Reference pass: every operation once against an empty cache, checked
   on content by gates.check_reference.
3. Timed phase: rounds of all operations against the warm cache until
   `--seconds` have passed.  Each run of an operation must reproduce its
   reference byte for byte.  With `--trace 1`, untraced and traced rounds
   alternate.  The workload's remaining `setup_reps - 1` set-ups, each into
   a throwaway cache, run between rounds.

Every time reported is `fastest_sum()`: per operation (or per fill) the
fastest of its repeats, summed.

All scratch files, caches included, live in a temporary directory under
`.bench_work/` in the checkout and are removed at the end.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import sbprop
import sbprop.cli

import gates
import spans
import workloads

CACHE_ENV = "SBPROP_CACHE_DIR"
STEPPING = ("evolve", "compare")  # operations that run the Taylor step loop


@dataclass
class Result:
    code: int | None  # None when cli.main raised
    seconds: float
    out: bytes
    stdout: str


def run_op(op, out: Path, tracer=None) -> Result:
    """One `sbprop.cli.main` call, timed; only the call itself is timed."""
    out.unlink(missing_ok=True)
    argv = op.argv(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = perf_counter()
        try:
            with tracer.span("cli.main") if tracer else nullcontext():
                code = sbprop.cli.main(argv)
        except Exception:
            traceback.print_exc()
        seconds = perf_counter() - start
    if code != 0:
        sys.stderr.write(f"sbprop {' '.join(argv)}\n{stderr.getvalue()}")
    data = out.read_bytes() if out.exists() else b""
    return Result(code, seconds, data, stdout.getvalue())


def fill_cache(api, root: Path, fills) -> list[float]:
    """Build and store every propagator the workload needs, as the CLI would.

    Returns the time each fill took.
    """
    store = api.PropagatorCache(root)
    times = []
    for fill in fills:
        start = perf_counter()
        cfg = api.load_run_config(fill.config, list(fill.sets))
        q = api.build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
        dt = cfg.dt if cfg.dt is not None else api.suggest_step(q, cfg.N, cfg.tol)
        pcfg = sbprop.PropagatorConfig(dt=dt, steps=0, N=cfg.N, tol=cfg.tol)
        prop = api.build_step_propagator(q, pcfg)
        store.put(sbprop.CacheEntry(fingerprint=prop.fingerprint, dim=q.dim,
                                    N=cfg.N, dt=dt, matrix=prop.matrix))
        times.append(perf_counter() - start)
    return times


def fastest_sum(samples: list[list[float]]) -> float:
    """Sum over items of each item's fastest time over repeats.

    samples[r][i] is the time of item i in repeat r.  On a shared machine,
    load from neighbours slows stretches of seconds to minutes by up to
    1.9x; the fastest repeat of a short item is the time it needs when it
    is least slowed, and varies far less from run to run than the median.
    """
    return sum(min(column) for column in zip(*samples))


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(root: Path, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "platform": platform.platform(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
        "commit": git_commit(root),
    }


class Run:
    def __init__(self, workload, tmp: Path, tracer):
        self.workload = workload
        self.tmp = tmp
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.refs: list[Result] = []
        self.ref_ok: list[bool] = []
        self.setup_times: list[list[float]] = []
        self.setup_layers: list[dict] = []

    def _judge(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems or not self.ref_ok[i]:
            self.failed += 1
        for problem in problems:
            print(f"check failed: {self.workload.ops[i].command} "
                  f"{self.workload.ops[i].config.name} {' '.join(self.workload.ops[i].sets)}: "
                  f"{problem}", file=sys.stderr)

    def fill(self, cache: Path) -> None:
        """One timed set-up into `cache`."""
        api = self.tracer.api if self.tracer else sbprop
        self.setup_times.append(fill_cache(api, cache, self.workload.fills))
        if self.tracer:
            self.setup_layers.append(self.tracer.take())

    def references(self) -> None:
        for i, op in enumerate(self.workload.ops):
            cold = self.tmp / f"cold-{i}"
            os.environ[CACHE_ENV] = str(cold)
            result = run_op(op, self.tmp / f"op{i}.csv")
            shutil.rmtree(cold, ignore_errors=True)
            self.refs.append(result)
            problems = gates.check_reference(sbprop, op, result)
            self.ref_ok.append(not problems)
            self._judge(i, problems)

    def round(self, traced: bool) -> tuple[list[float], int]:
        """Time of each operation, and the Taylor steps the round ran."""
        tracer = self.tracer if traced else None
        times, steps = [], 0
        with tracer.installed() if tracer else nullcontext():
            for i, op in enumerate(self.workload.ops):
                result = run_op(op, self.tmp / f"op{i}.csv", tracer)
                times.append(result.seconds)
                if op.command in STEPPING:
                    steps += result.out.count(b"\n") - 2  # header and t = 0 rows
                self._judge(i, gates.same_as_reference(result, self.refs[i]))
        return times, steps


def run(root: Path, args) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = make(root / "configs", args.seed, args.smoke)
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        metrics, run_ = _measure(workload, tmp, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it

    declared = bench["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared}
    print("facts " + json.dumps(machine_facts(root, args), sort_keys=True))
    for name, item in report.items():
        print(f"{name} = {item['value']!r} {item['unit']}")
    print(f"failure_rate = {run_.failed / run_.attempted!r} ratio "
          f"({run_.failed} of {run_.attempted} operations)")
    print(json.dumps({"correct": run_.failed == 0, "attempted": run_.attempted,
                      "failed": run_.failed, "metrics": report}))
    return 0 if run_.failed == 0 else 1


def _measure(workload, tmp: Path, args) -> tuple[dict, Run]:
    tracer = spans.Tracer(sbprop) if args.trace else None
    run_ = Run(workload, tmp, tracer)
    warm = tmp / "cache"
    run_.fill(warm)
    run_.references()

    # The other set-ups are spread over the timed phase, between rounds, so
    # that setup_s samples the machine over as long a stretch as wall_s.
    os.environ[CACHE_ENV] = str(warm)
    start = perf_counter()
    deadline = start + args.seconds
    fills_due = [start + args.seconds * k / workload.setup_reps
                 for k in range(1, workload.setup_reps)]
    plain, traced, round_layers = [], [], []
    while True:
        times, steps = run_.round(traced=False)
        plain.append(times)
        if tracer:
            traced.append(run_.round(traced=True)[0])
            round_layers.append(tracer.take())
        now = perf_counter()
        while fills_due and (fills_due[0] <= now or now >= deadline):
            fills_due.pop(0)
            run_.fill(tmp / "scratch-cache")
            shutil.rmtree(tmp / "scratch-cache")
        if now >= deadline:
            break

    if tracer:
        metrics = spans.per_layer(run_.setup_layers, round_layers)
        metrics["trace.overhead_s"] = fastest_sum(traced) - fastest_sum(plain)
        return metrics, run_
    stepping = [i for i, op in enumerate(workload.ops) if op.command in STEPPING]
    metrics = {
        "wall_s": fastest_sum(plain),
        "setup_s": fastest_sum(run_.setup_times),
        "steps_per_s": steps / fastest_sum([[t[i] for i in stepping] for t in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, run_
