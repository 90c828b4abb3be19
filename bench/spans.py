"""Spans around the calls into sbprop's layers, made from outside the program.

`Tracer.api` holds the public functions the benchmark's set-up calls,
wrapped in spans; `Tracer.installed()` puts the same wrappers under the
names `sbprop.cli` and `sbprop.spectral` look up at call time, plus
`RunConfig.build_initial_state`.  Nothing inside sbprop is edited, so the
per-step split inside `evolve` stays invisible from here.

A span's self time is its duration minus the time of the spans it caused.
Self times and counters are summed per name in memory; `take()` hands
them over and starts afresh.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

# public function -> span name, for those that need no counter besides
PLAIN_SPANS = {
    "load_run_config": "config.load",
    "build_transfer_matrix": "model.build_transfer_matrix",
    "suggest_step": "propagator.suggest_step",
    "diagonalize": "spectral.diagonalize",
    "teee_evolve": "spectral.teee_evolve",
}

# per-layer time metric (self time) -> span name
TIMES = {
    "cli.self_s": "cli.main",
    "config.load_s": "config.load",
    "model.build_transfer_matrix_s": "model.build_transfer_matrix",
    "propagator.suggest_step_s": "propagator.suggest_step",
    "propagator.build_s": "propagator.build",
    "propagator.evolve_s": "propagator.evolve",
    "states.initial_state_s": "states.initial_state",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "trajectory.csv_format_s": "trajectory.csv_format",
    "spectral.gs_scan_s": "spectral.gs_scan",
    "spectral.diagonalize_s": "spectral.diagonalize",
    "spectral.teee_evolve_s": "spectral.teee_evolve",
}
COUNTS = ("propagator.builds", "propagator.build_refused", "propagator.steps",
          "cache.hits", "cache.misses", "cache.corrupt", "cache.bytes_read",
          "cache.bytes_written", "trajectory.rows", "trajectory.csv_bytes",
          "spectral.scan_points")


class Tracer:
    def __init__(self, sb):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []  # time of finished child spans, per open span
        self.api = self._wrap_api(sb)

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._add_time(name, perf_counter() - start, self._children.pop())

    def _add_time(self, name: str, duration: float, children: float = 0.0) -> None:
        self.self_s[name] += duration - children
        if self._children:
            self._children[-1] += duration

    def take(self) -> dict[str, float]:
        """This phase's per-layer values, keyed by metric name; then reset."""
        out = {metric: self.self_s.get(span, 0.0) for metric, span in TIMES.items()}
        out.update({name: float(self.counts[name]) for name in COUNTS})
        self.self_s.clear()
        self.counts.clear()
        return out

    def _timed(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return traced

    def _wrap_api(self, sb) -> SimpleNamespace:
        counts = self.counts
        wrapped = {name: self._timed(getattr(sb, name), span)
                   for name, span in PLAIN_SPANS.items()}

        def build(*args, **kwargs):
            counts["propagator.builds"] += 1
            try:
                with self.span("propagator.build"):
                    return sb.build_step_propagator(*args, **kwargs)
            except sb.NotConverged:
                counts["propagator.build_refused"] += 1
                raise

        def count_steps(traj):
            counts["propagator.steps"] += len(traj) - 1

        def count_points(result):
            counts["spectral.scan_points"] += len(result.p_values)

        def csv_lines(traj):
            # Only the time spent inside the generator counts; the caller
            # writes each line between two steps of it.
            counts["trajectory.rows"] += len(traj)
            lines = sb.csv_lines(traj)
            while True:
                start = perf_counter()
                line = next(lines, None)
                self._add_time("trajectory.csv_format", perf_counter() - start)
                if line is None:
                    return
                counts["trajectory.csv_bytes"] += len(line) + 1
                yield line

        tracer = self

        class PropagatorCache(sb.PropagatorCache):
            def get(self, fingerprint):
                try:
                    with tracer.span("cache.get"):
                        entry = super().get(fingerprint)
                except sb.CacheCorruptError:
                    counts["cache.corrupt"] += 1
                    raise
                if entry is None:
                    counts["cache.misses"] += 1
                else:
                    counts["cache.hits"] += 1
                    counts["cache.bytes_read"] += self.path_for(fingerprint).stat().st_size
                return entry

            def put(self, entry):
                with tracer.span("cache.put"):
                    path = super().put(entry)
                counts["cache.bytes_written"] += path.stat().st_size
                return path

        wrapped.update(
            build_step_propagator=functools.wraps(sb.build_step_propagator)(build),
            evolve=self._timed(sb.evolve, "propagator.evolve", count_steps),
            gs_scan=self._timed(sb.gs_scan, "spectral.gs_scan", count_points),
            csv_lines=functools.wraps(sb.csv_lines)(csv_lines),
            PropagatorCache=PropagatorCache,
        )
        return SimpleNamespace(**wrapped)

    @contextmanager
    def installed(self):
        """Route the program's own calls through the wrappers, then restore."""
        import sbprop.cli
        import sbprop.spectral
        from sbprop.config import RunConfig

        saved = []
        for module in (sbprop.cli, sbprop.spectral):
            for name, wrapper in vars(self.api).items():
                if hasattr(module, name):
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, wrapper)
        saved.append((RunConfig, "build_initial_state", RunConfig.build_initial_state))
        RunConfig.build_initial_state = self._timed(
            RunConfig.build_initial_state, "states.initial_state")
        try:
            yield
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)


def per_layer(setup: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics for one cache fill plus one round of operations.

    Each value is the smallest over the traced fills plus the smallest over
    the traced rounds (counts repeat exactly); ratios are formed from those
    sums.
    """
    out = {name: min(s[name] for s in setup) + min(r[name] for r in rounds)
           for name in setup[0]}
    lookups = out["cache.hits"] + out["cache.misses"] + out["cache.corrupt"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    steps = out["propagator.steps"]
    out["propagator.us_per_step"] = 1e6 * out["propagator.evolve_s"] / steps if steps else 0.0
    return out
