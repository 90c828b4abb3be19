"""The benchmark's workloads: which CLI operations run and which caches they fill.

Every workload is a list of CLI operations (one *round*), repeated for the
timed phase against a warm propagator cache, plus the list of propagators
that the set-up phase stores in that cache beforehand.  Inputs depend only
on the seed; the program itself sees nothing but config files and the
generated `--set` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Fill:
    """One propagator the set-up phase builds and stores."""

    config: Path
    sets: tuple[str, ...] = ()


@dataclass(frozen=True)
class Op:
    """One CLI operation; `expect` is the gs-scan classification it must print."""

    command: str
    config: Path
    sets: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()
    expect: str | None = None

    def argv(self, out: Path) -> list[str]:
        args = [self.command, "--config", str(self.config)]
        for item in self.sets:
            args += ["--set", item]
        return args + list(self.extra) + ["--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    fills: tuple[Fill, ...]
    ops: tuple[Op, ...]
    setup_reps: int  # cache fills timed in one run


def deep_strong_p400(configs: Path, seed: int, smoke: bool) -> Workload:
    # Dim 802, N = 30, auto dt (0.1/64).  t_max is cut from 40 to 1 (640
    # steps) so that one run repeats the evolve many times; the work per
    # step is unchanged.
    cfg = configs / "fig3_P400.cfg"
    sets = ("P=40", "t_max=0.5") if smoke else ("t_max=1",)
    return Workload("deep_strong_p400", (Fill(cfg, sets),),
                    (Op("evolve", cfg, sets),), setup_reps=2 if smoke else 3)


SWEEP_SETS = 24


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 6))


def coupling_sweep(configs: Path, seed: int, smoke: bool) -> Workload:
    # Bounded regime at P = 50, cycling over three templates so every seed
    # has the same mix.  Couplings stay in [0.1, 0.5]*omega_f: no build is
    # refused, and the auto dt (hence the step count) is the same for every
    # draw of one template.  t_max = 20 keeps each operation short (400 or
    # 800 steps), so per-operation costs weigh as much as the step loop.
    rng = random.Random(seed)
    count = 3 if smoke else SWEEP_SETS
    ops = []
    for i in range(count):
        template = ("fig2", "fig1", "fig6")[i % 3]
        sets = [f"omega_0={_draw(rng, 0.5, 1.5)}",
                f"g_minus={_draw(rng, 0.1, 0.5)}"]
        if template != "fig1":  # fig1 is the rotating-wave model
            sets.append(f"g_plus={_draw(rng, 0.1, 0.5)}")
        if template == "fig6":
            sets += [f"beta={_draw(rng, 0.005, 0.02)}",
                     f"gamma={_draw(rng, 0.005, 0.02)}"]
        sets.append("t_max=5" if smoke else "t_max=20")
        ops.append(Op("evolve", configs / f"{template}.cfg", tuple(sets)))
    fills = tuple(Fill(op.config, op.sets) for op in ops)
    return Workload("coupling_sweep", fills, tuple(ops),
                    setup_reps=2 if smoke else 9)


def spectral_scan(configs: Path, seed: int, smoke: bool) -> Workload:
    # Fixed inputs: the seed is recorded but draws nothing here.
    fig2 = configs / "fig2.cfg"
    if smoke:
        scans = (("fig5b.cfg", "10:60:10", "Unbounded"),
                 ("fig5a.cfg", "2:30", "Converged"))
        spectrum_sets, compare_sets = ("P=40",), ("t_max=5",)
    else:
        scans = (("fig5b.cfg", None, "Unbounded"),
                 ("fig5a.cfg", None, "Converged"))
        spectrum_sets, compare_sets = (), ()
    ops = [Op("gs-scan", configs / name,
              extra=("--p-values", p_values) if p_values else (), expect=expect)
           for name, p_values, expect in scans]
    ops.append(Op("spectrum", configs / "fig3_P400.cfg", spectrum_sets))
    ops.append(Op("compare", fig2, compare_sets))
    return Workload("spectral_scan", (Fill(fig2, compare_sets),), tuple(ops),
                    setup_reps=2 if smoke else 15)


WORKLOADS = {
    "deep_strong_p400": deep_strong_p400,
    "coupling_sweep": coupling_sweep,
    "spectral_scan": spectral_scan,
}
