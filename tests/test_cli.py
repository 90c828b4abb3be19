"""Harness behavior end to end, via in-process main() calls."""

import errno
import hashlib
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sbprop.cli
import sbprop.propagator
from sbprop import CacheEntry, PropagatorCache, load_run_config
from sbprop.cli import _obtain_propagator, _prepare, main

HEADER = "t,norm2,n_raw,n_norm,sz_raw,sz_norm,energy_re,C_exp,parity"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfg(config_dir, name):
    return str(config_dir / name)


def must_not_build(*args):
    raise AssertionError("the stored entry must be read, not rebuilt")


def test_evolve_csv_contract(config_dir, capsys):
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "t_max=1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    # |0,e> at t=0: unit norm, no photons, inverted, E = omega_0/2, one
    # excitation, odd parity
    assert lines[1] == "0.0,1.0,0.0,0.0,1.0,1.0,0.375,1.0,-1.0"
    assert len(lines) == 22  # 20 steps of the suggested dt=0.05, plus t=0


def test_reruns_are_byte_identical(config_dir, capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                      "--set", "t_max=3.0", "--out", str(a))
    code2, _, _ = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                      "--set", "t_max=3.0", "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("t_max", [2.0, 5.0])
def test_short_run_is_a_bitwise_prefix_of_a_longer_one(config_dir, capsys, t_max):
    # 2.0 fits one block of rows, 5.0 spans several; rows must not depend
    # on where in a block they were measured
    _, short, _ = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                      "--set", f"t_max={t_max}")
    _, long, _ = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                     "--set", f"t_max={2 * t_max}")
    assert len(short.splitlines()) == 20 * t_max + 2
    assert long.startswith(short)


def test_zero_length_run_prints_the_pinned_first_row(config_dir, capsys):
    code, out, _ = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=0")
    assert code == 0
    assert out == HEADER + "\n0.0,1.0,0.0,0.0,1.0,1.0,0.375,1.0,-1.0\n"


def test_out_key_in_config_file(config_dir, capsys, tmp_path):
    target = tmp_path / "via-key.csv"
    code, out, _ = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=0.5", "--set", f"out={target}")
    assert code == 0
    assert f"wrote {target}" in out
    assert target.read_text().startswith(HEADER)


def test_exit_code_1_for_config_problems(config_dir, capsys, tmp_path):
    # coherent tail above tolerance
    code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig1.cfg"),
                       "--set", "tail_tol=1e-12")
    assert code == 1 and "tail mass" in err
    # negative run length
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "t_max=-1")
    assert code == 1 and out == ""
    assert err == "error: t_max must be non-negative, got -1.0\n"
    # unknown key
    code, _, err = run(capsys, "evolve", "--set", "omega=1")
    assert code == 1 and "unknown config key" in err
    # snapshots are a library keyword only: no command writes them
    code, _, err = run(capsys, "evolve", "--set", "snapshot_stride=1")
    assert code == 1 and err.startswith("error: unknown config key 'snapshot_stride'")
    # missing file
    code, _, err = run(capsys, "evolve", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1 and "not found" in err
    # unknown subcommand / no subcommand
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys)
    assert code == 1


@pytest.mark.parametrize("alpha", ["1e6", "1e200"])
def test_huge_coherent_amplitude_is_refused_in_one_line(config_dir, capsys, alpha):
    # alpha^2 overflows a double at 1e200; at 1e6 a walk to a sufficient
    # cutoff would take about 1e12 levels
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig1.cfg"),
                         "--set", f"alpha={alpha}")
    assert code == 1 and out == ""
    assert err.startswith(f"error: coherent state alpha={float(alpha)} keeps tail mass "
                          "1.000e+00 above P=50") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["evolve", "compare"])
@pytest.mark.parametrize("sets, reason", [
    (["dt=0"], "dt must be positive and finite, got 0.0"),
    (["dt=nan"], "dt must be positive and finite, got nan"),
    (["dt=1e-300", "t_max=1e300"], "dt=1e-300 is too small for t_max=1e+300"),
])
def test_unusable_dt_is_a_config_error(config_dir, capsys, command, sets, reason):
    argv = [command, "--config", cfg(config_dir, "fig2.cfg")]
    for item in sets:
        argv += ["--set", item]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["evolve", "compare"])
@pytest.mark.parametrize("dt", ["auto", "0.05"])
def test_taylor_order_below_one_is_a_config_error(config_dir, capsys, command, dt):
    # N is read from PropagatorConfig alone, checked by suggest_step
    # (auto dt) or by PropagatorConfig itself (explicit dt)
    code, out, err = run(capsys, command, "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "N=0", "--set", f"dt={dt}")
    assert code == 1 and out == ""
    assert err == "error: N must be a positive integer, got 0\n"


@pytest.mark.parametrize("command", ["evolve", "compare"])
def test_no_acceptable_dt_is_a_numerical_failure(config_dir, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--config", cfg(config_dir, "fig2.cfg"),
                             "--set", "g_minus=1e200")
    assert code == 2 and out == ""
    assert err == "numerical failure: no acceptable dt found (parameters out of range)\n"


@pytest.mark.parametrize("sets, reference", [
    (["dt=0"], []),
    (["dt=nan"], []),
    (["dt=1e-300", "t_max=1e300"], []),
    (["N=0", "dt=auto"], []),
    (["N=0", "dt=0.05"], []),
    # no dt is acceptable here, and an explicit one skips the search
    (["g_minus=1e200"], ["g_minus=1e200", "dt=0.01"]),
], ids=["dt=0", "dt=nan", "dt=1e-300-t_max=1e300", "N=0-dt=auto", "N=0-dt=0.05",
        "g_minus=1e200"])
def test_spectrum_reads_no_taylor_setting(config_dir, capsys, sets, reference):
    # spectrum builds Q alone: the time step, its search and the Taylor
    # order belong to evolve and compare
    def spectrum(items):
        argv = ["spectrum", "--config", cfg(config_dir, "fig2.cfg")]
        for item in items:
            argv += ["--set", item]
        return run(capsys, *argv)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = spectrum(sets)
    assert code == 0 and err == ""
    assert (code, out, err) == spectrum(reference)


@pytest.mark.parametrize("g_minus, reason", [
    ("1e307", "eigensolver returned non-finite energies"),  # couplings overflow
])
def test_refused_eigensolve_is_a_numerical_failure(config_dir, capsys, g_minus, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spectrum", "--config", cfg(config_dir, "fig2.cfg"),
                             "--set", f"g_minus={g_minus}", "--set", "dt=0.01")
    assert code == 2 and out == ""
    assert err == f"numerical failure: {reason}\n"


def test_energies_near_the_float_limit_are_printed(config_dir, capsys):
    # the energies lie near -5e306; squared, the entries of Q overflow,
    # those of Q / 2^e do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spectrum", "--config", cfg(config_dir, "fig2.cfg"),
                             "--set", "g_minus=1e305", "--set", "dt=0.01")
    assert code == 0 and err == ""
    energies = np.array([float(line.split(",")[1]) for line in out.splitlines()[1:]])
    q, _ = _prepare(load_run_config(cfg(config_dir, "fig2.cfg"),
                                    ["g_minus=1e305", "dt=0.01"]))
    e = int(np.frexp(np.abs(q.matrix).sum(axis=1).max())[1])
    exact = np.ldexp(np.linalg.eigvalsh(np.ldexp(q.matrix.real, -e)), e)
    assert energies[0] == pytest.approx(-5e306, rel=1e-3)
    assert np.abs(energies - exact[:energies.size]).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("command, name, reason", [
    ("gs-scan", "fig5a.cfg",
     "transfer matrix entries overflow; no finite ground-state energy"),
    ("evolve", "fig2.cfg", "last Taylor term has max-norm nan at dt=0.01 N=30: the "
                           "series diverges; reduce dt or the couplings"),
], ids=["gs-scan", "evolve"])
def test_overflowing_couplings_are_a_numerical_failure(config_dir, capsys, command,
                                                       name, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--config", cfg(config_dir, name),
                             "--set", "g_minus=1e307", "--set", "dt=0.01")
    assert code == 2 and out == ""
    assert err == f"numerical failure: {reason}\n"


def test_slope_of_energies_near_the_float_limit_is_finite(config_dir, capsys):
    # every E0 is finite (down to about -6e307), and so must the fitted slope be
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "gs-scan", "--config", cfg(config_dir, "fig5a.cfg"),
                             "--set", "g_minus=1e306")
    assert code == 0 and err == ""
    lines = out.splitlines()
    slope = float(next(l for l in lines if l.startswith("slope="))[len("slope="):])
    assert slope == pytest.approx(-1e306, rel=1e-3)
    assert lines[-1] == "classification=Unbounded"


def test_ground_energy_past_the_float_limit_is_a_numerical_failure(config_dir, capsys):
    # the entries of Q are finite, but E0 lies below -1.8e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "gs-scan", "--config", cfg(config_dir, "fig5a.cfg"),
                             "--set", "g_minus=2e306", "--set", "g_plus=2e306")
    assert code == 2 and out == ""
    assert err == "numerical failure: ground-state energy overflows a double\n"


def test_exit_code_2_for_numerical_failures(config_dir, capsys):
    code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "dt=0.1")
    assert code == 2 and "last Taylor term" in err

    code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "dt=0.25", "--set", "tol=1e9")
    assert code == 2 and "non-finite amplitudes" in err


def test_compare_agrees_on_sane_settings(config_dir, capsys, tmp_path):
    out_path = tmp_path / "cmp.csv"
    code, out, _ = run(capsys, "compare", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=2.0", "--out", str(out_path))
    assert code == 0
    stats = dict(line.split("=") for line in out.strip().splitlines()
                 if "=" in line and not line.startswith("wrote"))
    assert float(stats["max_dn"]) < 1e-6
    assert float(stats["max_dsz"]) < 1e-6
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,dn_abs,dsz_abs"
    assert len(lines) == 42


def test_compare_normalize_flag(config_dir, capsys):
    code, out, _ = run(capsys, "compare", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=1.0", "--normalize")
    assert code == 0


def test_compare_exit_3_when_methods_disagree(config_dir, capsys):
    # order 3 stays stable here but drifts measurably from the exact phases
    code, out, _ = run(capsys, "compare", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "dt=0.02", "--set", "N=3", "--set", "tol=1",
                       "--set", "t_max=10")
    assert code == 3
    stats = dict(line.split("=") for line in out.strip().splitlines()
                 if "=" in line and not line.startswith("wrote"))
    assert float(stats["max_dn"]) > 1e-6


def test_compare_refuses_dissipative_parameters(config_dir, capsys):
    code, _, err = run(capsys, "compare", "--config", cfg(config_dir, "fig6.cfg"))
    assert code == 1 and "eigendecomposition" in err


def test_spectrum_output(config_dir, capsys):
    code, out, _ = run(capsys, "spectrum", "--config", cfg(config_dir, "fig2.cfg"),
                       "--levels", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,energy,delta_e"
    assert len(lines) == 7
    j0 = lines[1].split(",")
    assert j0[0] == "0" and float(j0[1]) == pytest.approx(-0.4839371, abs=1e-6)
    assert float(lines[2].split(",")[2]) == pytest.approx(0.3939738, abs=1e-6)
    deltas = [float(l.split(",")[2]) for l in lines[2:]]
    assert deltas == sorted(deltas)


def test_spectrum_levels_clamped_to_dimension(config_dir, capsys):
    code, out, _ = run(capsys, "spectrum", "--set", "P=1", "--set", "g_minus=0.1",
                       "--levels", "999")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4  # header + dim rows


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_spectrum_refuses_fewer_than_one_level(config_dir, capsys, levels):
    code, out, err = run(capsys, "spectrum", "--config", cfg(config_dir, "fig2.cfg"),
                         "--levels", levels)
    assert code == 1 and out == ""
    assert err == f"error: count must be a positive integer, got {levels}\n"


@pytest.mark.parametrize("fault", ["drop", "shift"])
@pytest.mark.parametrize("chain", [0, 1])
def test_spectrum_refuses_levels_that_fail_their_sturm_count(config_dir, capsys,
                                                             monkeypatch, fault, chain):
    # "drop" loses level 2 of one chain, "shift" moves it between levels
    # 3 and 4; either way a midpoint counts one eigenvalue too many
    true_eigvalsh = np.linalg.eigvalsh
    calls = []

    def faulty(block):
        w = true_eigvalsh(block)
        calls.append(None)
        if len(calls) - 1 != chain:
            return w
        if fault == "drop":
            return np.delete(w, 2)
        return np.sort(np.concatenate([np.delete(w, 2), [(w[3] + w[4]) / 2]]))

    monkeypatch.setattr(np.linalg, "eigvalsh", faulty)
    code, out, err = run(capsys, "spectrum", "--config", cfg(config_dir, "fig2.cfg"))
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert f"chain {'AB'[chain]}" in err


@pytest.mark.parametrize("argv, name", [
    (["gs-scan", "--config", "fig5a.cfg"], "gs_scan_fig5a.txt"),
    (["gs-scan", "--config", "fig5b.cfg"], "gs_scan_fig5b.txt"),
    (["spectrum", "--config", "fig3_P400.cfg", "--levels", "40"],
     "spectrum_fig3_P400_levels40.txt"),
])
def test_stdout_matches_the_committed_bytes(config_dir, capsys, argv, name):
    # the files hold the stdout of the one-shift bisection that gs-scan
    # used before its multisection; energies must keep every bit
    argv[2] = cfg(config_dir, argv[2])
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == (Path(__file__).parent / "data" / name).read_bytes()


def test_spectrum_reruns_are_byte_identical(config_dir, capsys):
    argv = ("spectrum", "--config", cfg(config_dir, "fig3_P400.cfg"), "--levels", "40")
    first = run(capsys, *argv)
    assert first[0] == 0 and first == run(capsys, *argv)


def test_gs_scan_stdout_contract(config_dir, capsys, tmp_path):
    out_path = tmp_path / "gs.csv"
    code, out, _ = run(capsys, "gs-scan", "--config", cfg(config_dir, "fig5a.cfg"),
                       "--out", str(out_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "classification=Converged"
    assert "plateau_P=9" in lines
    assert any(l.startswith("slope=") for l in lines)
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "P,E0"
    assert len(rows) == 60  # cutoffs 2..60 inclusive
    last = rows[-1].split(",")
    assert last[0] == "60"
    assert float(last[1]) == pytest.approx(-0.48393711262414285, abs=1e-13)


def test_gs_scan_flag_overrides_the_config(config_dir, capsys):
    # a scan cut off at P=20 can neither certify convergence nor descent
    code, out, _ = run(capsys, "gs-scan", "--config", cfg(config_dir, "fig5a.cfg"),
                       "--p-values", "2:20")
    assert code == 0
    assert out.strip().splitlines()[-1] == "classification=Undetermined"


def test_gs_scan_without_p_values(capsys):
    code, _, err = run(capsys, "gs-scan")
    assert code == 1 and "p_values" in err


def test_cache_subcommands_and_corruption_recovery(config_dir, capsys,
                                                   tmp_path, monkeypatch):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))

    code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=0.5", "--out", str(tmp_path / "x.csv"))
    assert code == 0 and "warning" not in err

    store = PropagatorCache()
    files = sorted(store.root.glob("*.sbp"))
    assert len(files) == 1

    code, out, _ = run(capsys, "cache", "list")
    assert code == 0 and "dim=102" in out
    code, out, _ = run(capsys, "cache", "info")
    assert code == 0 and "entries=1 corrupt=0" in out

    # damage the payload: the next run must warn, rebuild, and overwrite
    blob = bytearray(files[0].read_bytes())
    blob[200] ^= 0xFF
    files[0].write_bytes(bytes(blob))
    code, out, _ = run(capsys, "cache", "list")
    assert "corrupt" in out

    code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=0.5", "--out", str(tmp_path / "y.csv"))
    assert code == 0
    assert "rebuilding corrupt cache entry" in err
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    # healthy again: a third run is silent and the store parses
    code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                       "--set", "t_max=0.5", "--out", str(tmp_path / "z.csv"))
    assert code == 0 and "warning" not in err

    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0 and "removed=1" in out
    code, out, _ = run(capsys, "cache", "list")
    assert out.strip() == ""


def test_cache_reuse_preserves_results_bitwise(config_dir, capsys,
                                               tmp_path, monkeypatch):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
        "--set", "t_max=2.0", "--out", str(a))
    assert len(list((tmp_path / "store").glob("*.sbp"))) == 1
    # second run must hit the store (same fingerprint) and reproduce bytes
    run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
        "--set", "t_max=2.0", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert len(list((tmp_path / "store").glob("*.sbp"))) == 1


def test_entry_renamed_to_another_fingerprint_is_rebuilt(config_dir, capsys,
                                                         tmp_path, monkeypatch):
    fig2 = cfg(config_dir, "fig2.cfg")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "clean"))
    code, _, _ = run(capsys, "evolve", "--config", fig2, "--set", "omega_0=0.8",
                     "--set", "t_max=2.0", "--out", str(tmp_path / "want.csv"))
    assert code == 0

    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    code, _, _ = run(capsys, "evolve", "--config", fig2, "--set", "t_max=2.0",
                     "--out", str(tmp_path / "fig2.csv"))
    assert code == 0
    store = PropagatorCache()
    (built,) = store.root.glob("*.sbp")
    (wanted,) = (tmp_path / "clean").glob("*.sbp")  # the omega_0=0.8 entry
    built.rename(store.root / wanted.name)

    code, _, err = run(capsys, "evolve", "--config", fig2, "--set", "omega_0=0.8",
                       "--set", "t_max=2.0", "--out", str(tmp_path / "got.csv"))
    assert code == 0
    assert "rebuilding corrupt cache entry" in err and "fingerprint" in err
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() != (tmp_path / "fig2.csv").read_bytes()


def test_dense_matrix_outside_the_band_is_not_stored(config_dir, capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    argv = ["evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=1.0"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "a.csv"))
    assert code == 0

    store = PropagatorCache()
    (path,) = store.root.glob("*.sbp")
    stored = path.read_bytes()
    entry = store.get(int(path.stem, 16))
    bad = entry.matrix.copy()
    bad[0, 1] = 1e-3  # e0 -> e1: a cross-chain entry
    with pytest.raises(ValueError, match="parity-chain band"):
        store.put(CacheEntry(fingerprint=entry.fingerprint, dim=entry.dim,
                             N=entry.N, dt=entry.dt, matrix=bad))
    # the refused put left the stored entry as it was, and it still serves
    assert path.read_bytes() == stored
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "b.csv"))
    assert code == 0 and err == ""
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_v2_band_cell_outside_the_chains_is_rebuilt(config_dir, capsys,
                                                    tmp_path, monkeypatch):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    argv = ["evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=1.0"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "a.csv"))
    assert code == 0

    (path,) = (tmp_path / "store").glob("*.sbp")
    blob = bytearray(path.read_bytes())
    dim, h = 102, 30
    # row n - 1 (the last slot of chain A), offset +1: chain B's first slot
    cell = 64 + ((dim // 2 - 1) * (2 * h + 1) + h + 1) * 16
    assert blob[cell:cell + 16] == bytes(16)
    blob[cell:cell + 8] = np.float64(1e-3).tobytes()
    blob[-8:] = hashlib.blake2b(bytes(blob[:-8]), digest_size=8).digest()
    path.write_bytes(bytes(blob))

    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert "rebuilding corrupt cache entry" in err and "parity-chain band" in err
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "c.csv"))
    assert code == 0 and "warning" not in err


def test_v2_hit_v1_rebuild_and_miss_step_alike(config_dir, capsys, tmp_path,
                                              monkeypatch, write_v1_entry):
    argv = ["evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=5"]
    q, pcfg = _prepare(load_run_config(cfg(config_dir, "fig2.cfg"), ["t_max=5"]))
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "cold"))
    _, miss_out, _ = run(capsys, *argv)

    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    miss = _obtain_propagator(q, pcfg)
    v2_hit = _obtain_propagator(q, pcfg)
    _, v2_out, err = run(capsys, *argv)
    assert err == ""
    path = PropagatorCache().path_for(miss.fingerprint)
    v2_file = path.read_bytes()
    assert int.from_bytes(v2_file[8:12], "little") == 2

    # a version-1 file is refused from its header, rebuilt and overwritten
    write_v1_entry(path, miss.fingerprint, q.dim, pcfg.N, pcfg.dt, miss.matrix)
    _, rebuilt_out, err = run(capsys, *argv)
    assert err == (f"warning: rebuilding corrupt cache entry ({path}: "
                   "unsupported format version 1 (expected 2))\n")
    assert path.read_bytes() == v2_file
    _, rerun_out, err = run(capsys, *argv)
    assert err == ""
    assert rebuilt_out == rerun_out == v2_out == miss_out

    assert miss.step_band.shape[1] < miss.band.shape[1]
    assert v2_hit.band.tobytes() == miss.band.tobytes()
    assert v2_hit.step_band.tobytes() == miss.step_band.tobytes()
    assert v2_hit.dropped_norm == miss.dropped_norm

    # certificates survive a v2 hit
    assert miss.last_term_norm is not None and miss.unitarity_defect is not None
    assert (v2_hit.last_term_norm, v2_hit.unitarity_defect) == (
        miss.last_term_norm, miss.unitarity_defect)


@pytest.mark.parametrize("damage, reason", [
    (lambda blob: blob[:40], "file shorter than header"),
    (lambda blob: blob[:12] + (101).to_bytes(4, "little") + blob[16:],
     "odd or zero dimension 101"),
    (lambda blob: blob[:12] + bytes(4) + blob[16:], "odd or zero dimension 0"),
], ids=["short", "odd", "zero"])
def test_damaged_header_is_rebuilt(config_dir, capsys, tmp_path, monkeypatch,
                                   damage, reason):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    argv = ["evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=1"]
    _, cold_out, err = run(capsys, *argv)
    assert err == ""
    (path,) = PropagatorCache().root.glob("*.sbp")
    good = path.read_bytes()

    path.write_bytes(damage(good))
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == cold_out
    assert err == f"warning: rebuilding corrupt cache entry ({path}: {reason})\n"
    assert path.read_bytes() == good
    _, out, err = run(capsys, *argv)
    assert err == "" and out == cold_out


def test_cache_list_shows_the_certificates(config_dir, capsys, tmp_path,
                                           monkeypatch, write_v1_entry):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    shown = {}
    for name in ("fig2.cfg", "fig6.cfg"):
        q, pcfg = _prepare(load_run_config(cfg(config_dir, name), []))
        prop = _obtain_propagator(q, pcfg)
        shown[name] = prop
    code, out, _ = run(capsys, "cache", "list")
    assert code == 0
    fig2, fig6 = shown["fig2.cfg"], shown["fig6.cfg"]
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert lines[f"{fig2.fingerprint:016x}"].endswith(
        f" last_term={fig2.last_term_norm:.3e} defect={fig2.unitarity_defect:.3e}")
    assert "dim=102" in lines[f"{fig2.fingerprint:016x}"]
    assert lines[f"{fig6.fingerprint:016x}"].endswith(
        f" last_term={fig6.last_term_norm:.3e} defect=-")

    # a version-1 file is listed as corrupt, with the version as its reason
    store = PropagatorCache()
    path = store.path_for(fig2.fingerprint)
    write_v1_entry(path, fig2.fingerprint, fig2.dim, fig2.N, fig2.dt, fig2.matrix)
    _, out, _ = run(capsys, "cache", "list")
    assert f"corrupt {path.name}: unsupported format version 1 (expected 2)" in out.splitlines()
    assert f"{fig6.fingerprint:016x} dim=" in out
    _, out, _ = run(capsys, "cache", "info")
    assert "entries=2 corrupt=1 " in out


def test_out_onto_a_fifo_writes_through_it(config_dir, capsys, tmp_path):
    argv = ["evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=2.0"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "file.csv"))
    assert code == 0

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code, out, _ = run(capsys, *argv, "--out", str(fifo))
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 0 and f"wrote {fifo}" in out
    assert got == [(tmp_path / "file.csv").read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.csv", "pipe"]


def test_evolve_allocates_no_dense_matrix(config_dir, capsys, tmp_path, monkeypatch):
    # dim 802: a dense M alone would take 10.3 MB, the band 0.78 MB
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    dense = 802 * 802 * 16
    for outcome in ("miss", "hit"):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig3_P400.cfg"),
                               "--set", "t_max=0.05")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == ""
        assert peak < dense, outcome


def test_spectrum_traces_fewer_than_four_chain_blocks(config_dir, capsys):
    # dim 802: eigvalsh sees one 401 x 401 chain block at a time, and no
    # eigenvectors are formed
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "spectrum", "--config", cfg(config_dir, "fig3_P400.cfg"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert peak < 4 * 401 ** 2 * 8


def test_spectrum_and_compare_allocate_no_dense_matrix(config_dir, capsys, tmp_path,
                                                       monkeypatch):
    # dim 802: the eigenpairs are kept per chain, two 401 x 401 blocks
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    dense = 802 * 802 * 16
    for argv in (["spectrum"], ["compare", "--set", "t_max=0.05"]):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv, "--config", cfg(config_dir, "fig3_P400.cfg"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == ""
        assert peak < dense, argv[0]


def test_unwritable_out_is_an_error_not_a_traceback(config_dir, capsys, tmp_path):
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "t_max=0.1", "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and str(tmp_path) in err
    assert out == ""


def test_failed_cache_store_stays_a_warning(config_dir, capsys, tmp_path, monkeypatch):
    def refuse(self, entry):
        raise PermissionError("store is read-only")

    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setattr(PropagatorCache, "put", refuse)
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "t_max=0.1")
    assert code == 0
    assert err == "warning: could not store propagator: store is read-only\n"
    assert out.startswith(HEADER + "\n")


@pytest.mark.parametrize("dt, N, defect", [("0.5", "150", "8.166e+01"),
                                           ("0.3", "100", "4.741e-07")])
def test_build_with_a_unitarity_defect_above_the_bound_is_refused(
        config_dir, capsys, tmp_path, monkeypatch, dt, N, defect):
    # the last Taylor term passes (about 1e-21 and 1e-19) while cancellation
    # in the sum has already cost unitarity
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "omega_0=1.0", "--set", f"dt={dt}", "--set", f"N={N}",
                         "--set", "t_max=1.0")
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: unitarity defect")
    assert defect in err
    assert not list((tmp_path / "store").glob("*.sbp"))


def test_stored_unitarity_defect_above_the_bound_is_refused_on_a_hit(
        config_dir, capsys, tmp_path, monkeypatch):
    # an entry stored before builds were gated: its header carries 4.7e-7
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    sets = ["--set", "omega_0=1.0", "--set", "dt=0.3", "--set", "N=100"]
    run_cfg = load_run_config(cfg(config_dir, "fig2.cfg"), [s for s in sets if s != "--set"])
    q, pcfg = _prepare(run_cfg)
    with monkeypatch.context() as m:
        m.setattr(sbprop.propagator, "UNITARITY_TOL", np.inf)
        _obtain_propagator(q, pcfg)
    [stored] = PropagatorCache().entries()
    assert 1e-9 < stored[1].unitarity_defect < 1e-6

    def no_build(*args):
        raise AssertionError("the stored entry must be read, not rebuilt")

    monkeypatch.setattr(sbprop.cli, "build_step_propagator", no_build)
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         *sets, "--set", "t_max=1.0")
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: unitarity defect")
    assert f"{stored[1].unitarity_defect:.3e}" in err


@pytest.mark.parametrize("dt, tol, tail, last", [
    ("0.05", "10", "4.959e+01", "4.916e+00"),
    ("0.0625", "1e12", "inf", "9.601e+00"),    # ||Q dt||_1 / (N+2) = 1.11
])
def test_build_whose_tail_bound_is_above_tol_is_refused(config_dir, capsys, tmp_path,
                                                        monkeypatch, dt, tol, tail, last):
    # order 3: the last term passes tol, the bound on the terms after it
    # does not
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                         "--set", "N=3", "--set", f"dt={dt}", "--set", f"tol={tol}",
                         "--set", "t_max=0")
    assert code == 2 and out == ""
    assert err == (f"numerical failure: Taylor tail bound {tail} > tol {float(tol):.1e} "
                   f"at dt={dt} N=3 (last term {last}, term ratio "
                   f"~{88.975 * float(dt) / 4:.3g}); reduce dt or raise N\n")
    assert not list((tmp_path / "store").glob("*.sbp"))


def test_hit_whose_tail_bound_is_above_tol_is_refused_as_a_rebuild_would_be(
        config_dir, capsys, tmp_path, monkeypatch):
    # the entry stored at tol=100 (tail bound 49.6) is found at tol=10
    argv = ("evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "N=3",
            "--set", "dt=0.05", "--set", "t_max=0")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "cold"))
    cold = run(capsys, *argv, "--set", "tol=10")
    assert cold[0] == 2 and cold[2].startswith("numerical failure: Taylor tail bound")

    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "warm"))
    assert run(capsys, *argv, "--set", "tol=100")[0] == 0
    monkeypatch.setattr(sbprop.cli, "build_step_propagator", must_not_build)
    assert run(capsys, *argv, "--set", "tol=10") == cold


@pytest.mark.parametrize("name, last", [("fig6.cfg", "3.729e-06"),
                                        ("fig2.cfg", "3.727e-06")])
def test_hit_built_at_a_looser_tol_is_refused_as_a_rebuild_would_be(
        config_dir, capsys, tmp_path, monkeypatch, name, last):
    # tol is not part of the fingerprint: the entry stored at tol=1e-5 is
    # found at the default 1e-12, and its stored last term must refuse it
    # with the cold run's exit code and stderr, before its defect (fig2)
    argv = ("evolve", "--config", cfg(config_dir, name), "--set", "dt=0.1")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "cold"))
    cold = run(capsys, *argv)
    assert cold[0] == 2 and cold[1] == ""
    assert cold[2] == (f"numerical failure: last Taylor term has max-norm {last} > tol "
                       "1.0e-12 at dt=0.1 N=30 (term ratio ~0.287); reduce dt by a "
                       "factor <= 0.604 or raise N\n")

    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "warm"))
    assert run(capsys, *argv, "--set", "tol=1e-5", "--set", "t_max=0")[0] == 0
    monkeypatch.setattr(sbprop.cli, "build_step_propagator", must_not_build)
    assert run(capsys, *argv) == cold


def test_hit_built_at_a_stricter_tol_is_served(config_dir, capsys, tmp_path,
                                               monkeypatch):
    argv = ("evolve", "--config", cfg(config_dir, "fig6.cfg"), "--set", "dt=0.05",
            "--set", "t_max=2.0")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "cold"))
    cold = run(capsys, *argv, "--set", "tol=1e-8")
    assert cold[0] == 0

    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "warm"))
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(sbprop.cli, "build_step_propagator", must_not_build)
    assert run(capsys, *argv, "--set", "tol=1e-8") == cold


@pytest.mark.parametrize("dt", ["1e5", "1e10"])
def test_diverging_build_reports_one_line(config_dir, capsys, dt):
    # 1e5 overflows the squares of the defect measurement, 1e10 the Taylor
    # terms themselves (to nan); the refusal is the only thing reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "evolve", "--config", cfg(config_dir, "fig2.cfg"),
                             "--set", f"dt={dt}", "--set", "t_max=0")
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: last Taylor term has max-norm ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("action", ["list", "info", "clear"])
def test_cache_entry_that_cannot_be_read_is_reported(capsys, tmp_path, monkeypatch,
                                                     action):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path))
    (tmp_path / "abc.sbp").mkdir()
    code, out, err = run(capsys, "cache", action)
    if action == "clear":
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    if action == "list":
        assert out == f"corrupt abc.sbp: {os.strerror(errno.EISDIR)}\n"
    else:
        assert "entries=1 corrupt=1 " in out


def test_unreadable_cache_store_is_a_miss_with_a_warning(config_dir, capsys, tmp_path,
                                                         monkeypatch):
    argv = ("evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=2.0")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "cold"))
    _, cold, _ = run(capsys, *argv)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(not_a_dir))
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == cold
    assert err.startswith("warning: could not read propagator cache:")
    assert "Traceback" not in err


def test_closed_stdout_pipe_exits_1_quietly(config_dir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(sbprop.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sbprop.cli", "evolve", "--config", cfg(config_dir, "fig2.cfg")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().decode() == HEADER + "\n"
    proc.stdout.close()  # about 2000 rows are still to come
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""
