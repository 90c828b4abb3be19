"""Memory guards: the cutoff scan and a run over a retired cache file stay
off dense matrices, the build of M and its unitarity defect stay within a
few copies of its band, a cache hit holds one copy of the step band,
diagonalize's checks reuse two chain-sized buffers, advance holds one
block of states however many steps it takes, and teee_evolve one block
of states however many time points it records.

Each routine works on chain-sized pieces, so its traced peak stays below
the size of one dense matrix of the kind it used to build.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sbprop import (
    CacheCorruptError,
    CoherentSpec,
    ModelParams,
    PropagatorCache,
    PropagatorConfig,
    Truncation,
    advance,
    build_step_propagator,
    build_transfer_matrix,
    coherent_state,
    diagonalize,
    fock_state,
    gs_scan,
    load_run_config,
    suggest_step,
    teee_evolve,
)
from sbprop.cli import _obtain_propagator, _prepare, main
from sbprop.propagator import BLOCK_ROWS, _unitarity_defect

FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
DEEP = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gs_scan_peak_is_below_one_dense_chain_block():
    # one float64 block of the largest chain is 401 x 401
    assert traced_peak(gs_scan, DEEP, range(10, 401)) < 401 ** 2 * 8


def test_build_peak_stays_below_five_bands():
    # P = 2000 in deep strong coupling: the band is 4002 x 61 complex, 3.9 MB.
    # The Taylor loop holds term, M and two buffers of that size; the
    # full-width loop with a new array per product peaked at 6.1 bands.
    q = build_transfer_matrix(DEEP, Truncation(P=2000))
    cfg = PropagatorConfig(dt=suggest_step(q), steps=1)
    band_bytes = q.dim * (2 * cfg.N + 1) * 16
    assert traced_peak(build_step_propagator, q, cfg) < 5 * band_bytes


def test_hermitian_build_peak_stays_below_three_and_a_half_bands():
    # the same build: Hermitian Q runs the Taylor loop over the reals, so
    # term and its two buffers take half a band each, and M one band as
    # its real and imaginary parts.  Traced: 3.03 bands, where the complex
    # loop peaked at 4.55.
    q = build_transfer_matrix(DEEP, Truncation(P=2000))
    cfg = PropagatorConfig(dt=suggest_step(q), steps=1)
    band_bytes = q.dim * (2 * cfg.N + 1) * 16
    assert traced_peak(build_step_propagator, q, cfg) < 3.5 * band_bytes


def test_defect_peak_stays_below_three_and_a_half_bands():
    # P = 2000 in deep strong coupling: the measurement holds M's columns
    # zero-padded, their conjugates and one product buffer, each about a
    # band, and one row sum at a time
    q = build_transfer_matrix(DEEP, Truncation(P=2000))
    prop = build_step_propagator(q, PropagatorConfig(dt=suggest_step(q), steps=1))
    assert traced_peak(_unitarity_defect, prop.band) < 3.5 * prop.band.nbytes


def test_advance_holds_one_block_however_many_steps():
    # P = 100: BLOCK_ROWS states take 0.2 MB, 20,000 states 65 MB and
    # evolve's record of 20,000 rows 1.1 MB
    q = build_transfer_matrix(FIG2, Truncation(P=100))
    dt = suggest_step(q)
    prop = build_step_propagator(q, PropagatorConfig(dt=dt, steps=1))
    block_bytes = BLOCK_ROWS * q.dim * 16
    s0 = fock_state(0, "e", 100)
    short, long = (traced_peak(advance, s0, prop, PropagatorConfig(dt=dt, steps=k), q)
                   for k in (200, 20000))
    assert long - short < block_bytes


@pytest.mark.parametrize("state", [
    fock_state(0, "e", 100),
    coherent_state(CoherentSpec(3.0, math.pi / 4), 100),
], ids=["fock", "coherent"])
def test_teee_holds_one_block_however_many_times(state):
    # P = 100: 19,800 more rows grow the 9-column record by 1.43 MB, and
    # BLOCK_ROWS states take 0.2 MB; 20,000 states would take 65 MB
    dec = diagonalize(build_transfer_matrix(FIG2, Truncation(P=100)))
    record_bytes = 9 * (20000 - 200) * 8
    block_bytes = BLOCK_ROWS * dec.dim * 16
    short, long = (traced_peak(teee_evolve, state, dec, np.linspace(0.0, 100.0, k))
                   for k in (200, 20000))
    assert long - short < record_bytes + block_bytes


def test_diagonalize_checks_reuse_two_chain_blocks():
    # P = 400 in deep strong coupling: a chain block is 401 x 401 float64,
    # 1.29 MB.  The eigenpairs hold two, and the residual and the
    # orthonormality defect are formed in two more; one new block per
    # product of the checks peaked at 5.1 blocks.
    q = build_transfer_matrix(DEEP, Truncation(P=400))
    assert traced_peak(diagonalize, q) < 4.5 * 401 ** 2 * 8


def test_evolve_over_a_version_1_file_reads_no_dense_payload(config_dir, tmp_path,
                                                              monkeypatch, capsys,
                                                              write_v1_entry,
                                                              write_v2_entry):
    # dim 802: the v1 payload is the dense M, 10.3 MB, and the v2 payload
    # all 61 diagonals of M, 0.78 MB; each is refused from its header,
    # and the rebuild works on the band alone
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path))
    config = str(config_dir / "fig3_P400.cfg")
    q, pcfg = _prepare(load_run_config(config, ["t_max=1"]))
    prop = build_step_propagator(q, pcfg)
    store = PropagatorCache()
    path = store.path_for(prop.fingerprint)
    for version in (1, 2):
        if version == 1:
            write_v1_entry(path, prop.fingerprint, q.dim, pcfg.N, pcfg.dt, prop.matrix)
        else:
            write_v2_entry(path, prop.fingerprint, q.dim, pcfg.N, pcfg.dt, prop.band)
        # the refusal reads the 64-byte header and no payload
        tracemalloc.start()
        try:
            with pytest.raises(CacheCorruptError, match=f"format version {version} "):
                store.get(prop.fingerprint)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
        finally:
            tracemalloc.stop()

        peak = traced_peak(main, ["evolve", "--config", config, "--set", "t_max=1"])
        assert peak < q.dim ** 2 * 16
        assert capsys.readouterr().err.startswith("warning: rebuilding corrupt cache entry")


def test_cache_hit_holds_one_step_band(config_dir, tmp_path, monkeypatch):
    # fig3_P400, dim 802: the stored band is its 39 step diagonals, 0.50 MB,
    # not all 61 of M (0.78 MB), and a hit reads it into one buffer
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path))
    q, pcfg = _prepare(load_run_config(str(config_dir / "fig3_P400.cfg"), []))
    prop = _obtain_propagator(q, pcfg)
    band_bytes = 802 * 39 * 16
    assert prop.band.shape == (802, 39)
    store = PropagatorCache()
    assert store.path_for(prop.fingerprint).stat().st_size == 64 + band_bytes + 8
    assert traced_peak(store.get, prop.fingerprint) < 1.2 * band_bytes
