"""Acceptance suite: one test per advertised capability, pinned tolerances.

Each test emits a single [ACCEPTANCE] line (visible with -s or on failure)
and then asserts, so `pytest -v` reads as the scorecard.  Heavy propagator
builds are shared through a module-scoped workshop.
"""

import math

import numpy as np
import pytest

from sbprop import (
    CacheEntry,
    PropagatorCache,
    PropagatorConfig,
    StepPropagator,
    build_step_propagator,
    build_transfer_matrix,
    diagonalize,
    evolve,
    fock_state,
    gs_scan,
    load_run_config,
    propagator_fingerprint,
    suggest_step,
    teee_evolve,
)

ALL_CONFIGS = ["fig1", "fig2", "fig3_P200", "fig3_P400", "fig5a", "fig5b", "fig6"]


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[ACCEPTANCE] {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


class Workshop:
    """Builds (config, Q, step config, propagator) once per parameter set."""

    def __init__(self, config_dir):
        self.config_dir = config_dir
        self._built = {}

    def prepared(self, name: str, *overrides: str):
        key = (name,) + overrides
        if key not in self._built:
            cfg = load_run_config(self.config_dir / f"{name}.cfg", list(overrides))
            q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
            dt = cfg.dt if cfg.dt is not None else suggest_step(q, cfg.N, cfg.tol)
            steps = max(int(math.ceil(cfg.t_max / dt - 1e-9)), 0)
            pcfg = PropagatorConfig(dt=dt, steps=steps, N=cfg.N, tol=cfg.tol)
            self._built[key] = (cfg, q, pcfg, build_step_propagator(q, pcfg))
        return self._built[key]


@pytest.fixture(scope="module")
def shop(config_dir):
    return Workshop(config_dir)


def test_criterion_1_vacuum_rabi_cosine(shop):
    """Resonant photon-conserving vacuum dynamics: sz(t) = cos(2 g t)."""
    cfg, q, _, _ = shop.prepared("fig1", "state=fock", "p0=0", "spin=e",
                                 "P=5", "dt=0.1", "N=30")
    pcfg = PropagatorConfig(dt=0.1, steps=1000, N=30)
    prop = build_step_propagator(q, pcfg)
    traj = evolve(fock_state(0, "e", 5), prop, pcfg, q)
    err = float(np.abs(traj.sz_raw - np.cos(0.2 * traj.times)).max())
    assert report(1, "vacuum_rabi_cosine", err < 1e-8, f"max_err={err:.3e}")


def test_criterion_2_coherent_revival_period(shop):
    """Photon-conserving coherent dynamics repeat with period pi/g exactly."""
    cfg, q, _, _ = shop.prepared("fig1", "P=60", "tail_tol=1e-8")
    dt = (math.pi / cfg.g_minus) / 640.0          # one period = 640 rows
    pcfg = PropagatorConfig(dt=dt, steps=2560, N=30)
    prop = build_step_propagator(q, pcfg)
    traj = evolve(cfg.build_initial_state(), prop, pcfg, q)
    dn = float(np.abs(traj.n_raw[640:] - traj.n_raw[:-640]).max())
    dsz = float(np.abs(traj.sz_raw[640:] - traj.sz_raw[:-640]).max())
    ok = dn < 1e-6 and dsz < 1e-6
    assert report(2, "coherent_revival_period", ok,
                  f"dn={dn:.3e}, dsz={dsz:.3e}, period={math.pi / cfg.g_minus:.6f}")


def test_criterion_3_taylor_vs_eigendecomposition(shop):
    """The two independent evolvers agree to 1e-6 on raw <n> and <sz>."""
    worst = 0.0
    for name, overrides in [("fig1", ("P=60", "tail_tol=1e-8", "t_max=60.0")),
                            ("fig2", ("P=60", "t_max=60.0"))]:
        cfg, q, pcfg, prop = shop.prepared(name, *overrides)
        state = cfg.build_initial_state()
        taylor = evolve(state, prop, pcfg, q)
        ref = teee_evolve(state, diagonalize(q), taylor.times)
        worst = max(worst,
                    float(np.abs(taylor.n_raw - ref.n_raw).max()),
                    float(np.abs(taylor.sz_raw - ref.sz_raw).max()))
    assert report(3, "taylor_vs_eigendecomposition", worst < 1e-6,
                  f"max_discrepancy={worst:.3e}")


def test_criterion_4_long_run_conservation(shop):
    """Norm, energy, parity (and excitation where applicable) hold to 600."""
    def drifts(traj):
        return {
            "norm": float(np.abs(traj.norm2 - traj.norm2[0]).max()),
            "energy": float(np.abs(traj.energy_re - traj.energy_re[0]).max()),
            "excitation": float(np.abs(traj.c_exp - traj.c_exp[0]).max()),
            "parity": float(np.abs(traj.parity - traj.parity[0]).max()),
        }

    cfg, q, pcfg, prop = shop.prepared("fig1", "P=60", "tail_tol=1e-8",
                                       "t_max=600.0")
    d1 = drifts(evolve(cfg.build_initial_state(), prop, pcfg, q))
    ok1 = (d1["norm"] < 1e-9 and d1["energy"] < 1e-8
           and d1["excitation"] < 1e-8 and d1["parity"] < 1e-8)

    cfg, q, pcfg, prop = shop.prepared("fig2", "t_max=600.0")
    d2 = drifts(evolve(cfg.build_initial_state(), prop, pcfg, q))
    ok2 = d2["norm"] < 1e-9 and d2["energy"] < 1e-8 and d2["parity"] < 1e-8

    detail = (f"conserving: norm={d1['norm']:.1e} energy={d1['energy']:.1e} "
              f"C={d1['excitation']:.1e} parity={d1['parity']:.1e}; "
              f"counter-rotating: norm={d2['norm']:.1e} "
              f"energy={d2['energy']:.1e} parity={d2['parity']:.1e}")
    assert report(4, "long_run_conservation", ok1 and ok2, detail)


def test_criterion_5_ground_state_converges(shop, config_dir):
    """Moderate coupling: E0(P) settles with a short plateau."""
    cfg = load_run_config(config_dir / "fig5a.cfg")
    result = gs_scan(cfg.to_params(), range(2, 61))
    ps = list(result.p_values)
    gap = abs(result.e0[ps.index(20)] - result.e0[-1])
    ok = (result.classification == "Converged"
          and result.plateau_P is not None and result.plateau_P <= 10
          and gap < 1e-6)
    assert report(5, "ground_state_converges", ok,
                  f"classification={result.classification}, "
                  f"plateau_P={result.plateau_P}, |E0(20)-E0(60)|={gap:.3e}")


def test_criterion_6_ground_state_unbounded(shop, config_dir):
    """Deep strong coupling: E0(P) falls without a plateau."""
    cfg = load_run_config(config_dir / "fig5b.cfg")
    result = gs_scan(cfg.to_params(), range(10, 201))
    ok = result.classification == "Unbounded" and result.plateau_P is None
    assert report(6, "ground_state_unbounded", ok,
                  f"classification={result.classification}, "
                  f"slope={result.slope:.3f}")


def test_criterion_7_truncation_sensitivity(shop):
    """Cutoff doubling must expose the unbounded regime and clear the
    bounded one: fig3 parameters diverge visibly, fig2 parameters agree."""
    def paired_max_dn(name_small, name_big, over_small=(), over_big=()):
        cfg_s, q_s, pcfg_s, prop_s = shop.prepared(name_small, *over_small)
        cfg_b, q_b, pcfg_b, prop_b = shop.prepared(name_big, *over_big)
        t_s = evolve(cfg_s.build_initial_state(), prop_s, pcfg_s, q_s)
        t_b = evolve(cfg_b.build_initial_state(), prop_b, pcfg_b, q_b)
        ratio = round(pcfg_s.dt / pcfg_b.dt)
        assert ratio >= 1 and pcfg_s.dt == pytest.approx(ratio * pcfg_b.dt,
                                                         rel=1e-12)
        n_b = t_b.n_raw[::ratio]
        rows = min(t_s.n_raw.size, n_b.size)
        assert rows > 1000
        return float(np.abs(t_s.n_raw[:rows] - n_b[:rows]).max())

    diverge = paired_max_dn("fig3_P200", "fig3_P400")
    agree = paired_max_dn("fig2", "fig2",
                          ("P=200", "t_max=40.0"), ("P=400", "t_max=40.0"))
    ok = diverge > 0.1 and agree < 1e-6
    assert report(7, "truncation_sensitivity", ok,
                  f"deep-strong max_dn={diverge:.4g}, bounded max_dn={agree:.3e}")


def test_criterion_8_dissipative_damping(shop):
    """Open-system run: norm must decay monotonically AND late-time swings
    of the normalized observables must shrink below half the early ones.

    The second clause is implemented exactly as stated and is expected to
    fail at these parameters: over t in [0,100] with beta=gamma=0.01 the
    normalized photon spread only reaches ~0.50 of its early value (and the
    inversion ~0.60), cross-checked with the eigendecomposition-free route
    and an independent dense exponential.  The envelope does pass the 0.5
    mark by t~160.  Reported honestly rather than loosened.
    """
    cfg, q, pcfg, prop = shop.prepared("fig6")
    traj = evolve(cfg.build_initial_state(), prop, pcfg, q)

    monotone = bool(np.all(np.diff(traj.norm2) <= 1e-15))

    def spread(col, lo, hi):
        k = (traj.times >= lo) & (traj.times <= hi)
        return float(col[k].max() - col[k].min())

    ratio_n = spread(traj.n_norm, 80.0, 100.0) / spread(traj.n_norm, 0.0, 20.0)
    ratio_sz = spread(traj.sz_norm, 80.0, 100.0) / spread(traj.sz_norm, 0.0, 20.0)
    damped = ratio_n < 0.5 and ratio_sz < 0.5

    assert report(8, "dissipative_damping", monotone and damped,
                  f"norm_monotone={monotone}, spread_ratio_n={ratio_n:.4f}, "
                  f"spread_ratio_sz={ratio_sz:.4f}, threshold=0.5")


def test_criterion_9_cache_round_trip_determinism(shop):
    """Every shipped parameter set: certified build, bitwise cache round
    trip, and identical short trajectories from built vs loaded M."""
    store = PropagatorCache()
    worst_defect = 0.0
    for name in ALL_CONFIGS:
        cfg, q, pcfg, prop = shop.prepared(name)
        if q.hermitian:
            worst_defect = max(worst_defect, prop.unitarity_defect)

        fp = propagator_fingerprint(q.params, q.trunc.P, pcfg.N, pcfg.dt)
        assert fp == prop.fingerprint
        store.put(CacheEntry(fingerprint=fp, dim=q.dim, N=pcfg.N,
                             dt=pcfg.dt, matrix=prop.matrix))
        loaded = store.get(fp)
        assert loaded is not None
        assert np.array_equal(loaded.matrix, prop.matrix)

        relaunched = StepPropagator(matrix=loaded.matrix, fingerprint=fp,
                                    dim=q.dim, dt=pcfg.dt, N=pcfg.N,
                                    last_term_norm=None, unitarity_defect=None)
        short = PropagatorConfig(dt=pcfg.dt, steps=64, N=pcfg.N, tol=pcfg.tol)
        state = (cfg.build_initial_state() if not cfg.p_values
                 else fock_state(0, "e", cfg.P))
        t_built = evolve(state, prop, short, q)
        t_loaded = evolve(state, relaunched, short, q)
        for col in ("norm2", "n_raw", "sz_raw", "energy_re", "c_exp", "parity"):
            assert np.array_equal(getattr(t_built, col), getattr(t_loaded, col))

    assert report(9, "cache_round_trip_determinism", worst_defect < 1e-9,
                  f"worst_unitarity_defect={worst_defect:.3e} over "
                  f"{len(ALL_CONFIGS)} parameter sets")
