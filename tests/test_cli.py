"""Harness behavior end to end, via in-process main() calls."""

import pytest

from sbprop import CacheEntry, PropagatorCache
from sbprop.cli import main

HEADER = "t,norm2,n_raw,n_norm,sz_raw,sz_norm,energy_re,C_exp,parity"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfg(config_dir, name):
    return str(config_dir / name)


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
                      "--set", "t_max=3.0", "--out", str(b), "--serial")
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


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
    # unknown key
    code, _, err = run(capsys, "evolve", "--set", "omega=1")
    assert code == 1 and "unknown config key" in err
    # missing file
    code, _, err = run(capsys, "evolve", "--config", str(tmp_path / "nope.cfg"))
    assert code == 1 and "not found" in err
    # unknown subcommand / no subcommand
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys)
    assert code == 1


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


def test_stored_matrix_outside_the_band_is_rebuilt(config_dir, capsys,
                                                   tmp_path, monkeypatch):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "store"))
    argv = ["evolve", "--config", cfg(config_dir, "fig2.cfg"), "--set", "t_max=1.0"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "a.csv"))
    assert code == 0

    store = PropagatorCache()
    (path,) = store.root.glob("*.sbp")
    entry = store.get(int(path.stem, 16))
    bad = entry.matrix.copy()
    bad[0, 1] = 1e-3  # e0 -> e1: a cross-chain entry, checksummed as valid
    store.put(CacheEntry(fingerprint=entry.fingerprint, dim=entry.dim,
                         N=entry.N, dt=entry.dt, matrix=bad))

    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert "rebuilding corrupt cache entry" in err and "parity-chain band" in err
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "c.csv"))
    assert code == 0 and "warning" not in err
