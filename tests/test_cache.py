"""On-disk propagator store: format, checksums, fingerprint discrimination."""

import hashlib
import itertools
import math
import os
import struct

import numpy as np
import pytest

from sbprop import (
    CacheCorruptError,
    CacheEntry,
    ModelParams,
    PropagatorCache,
    PropagatorConfig,
    Truncation,
    build_step_propagator,
    build_transfer_matrix,
    canonical_blob,
    load_run_config,
    propagator_fingerprint,
)
from sbprop.cli import _prepare, main
from sbprop.model import band_inside

FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)


def make_entry(P=8, dt=0.05, N=30):
    q = build_transfer_matrix(FIG2, Truncation(P=P))
    prop = build_step_propagator(q, PropagatorConfig(dt=dt, steps=1, N=N))
    fp = propagator_fingerprint(FIG2, P, N, dt)
    return CacheEntry(fingerprint=fp, dim=q.dim, N=N, dt=dt, matrix=prop.matrix)


def test_round_trip_is_bitwise(tmp_path):
    store = PropagatorCache(tmp_path)
    entry = make_entry()
    store.put(entry)
    loaded = store.get(entry.fingerprint)
    assert loaded is not None
    assert np.array_equal(loaded.matrix, entry.matrix)
    assert (loaded.dim, loaded.N, loaded.dt) == (entry.dim, entry.N, entry.dt)
    assert loaded.fingerprint == entry.fingerprint
    assert loaded.created_at is not None and loaded.created_at > 0


def test_miss_is_none_not_an_error(tmp_path):
    assert PropagatorCache(tmp_path).get(0x1234) is None


def test_flipped_payload_byte_is_reported_as_corrupt(tmp_path):
    store = PropagatorCache(tmp_path)
    entry = make_entry()
    store.put(entry)
    path = store.path_for(entry.fingerprint)
    blob = bytearray(path.read_bytes())
    blob[64 + 5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheCorruptError) as exc:
        store.get(entry.fingerprint)
    assert exc.value.path == path


@pytest.mark.parametrize("mutate", ["magic", "version", "version=1", "version=2",
                                    "truncate"])
def test_header_damage_is_reported_as_corrupt(tmp_path, mutate):
    store = PropagatorCache(tmp_path)
    entry = make_entry(P=3)
    store.put(entry)
    path = store.path_for(entry.fingerprint)
    blob = bytearray(path.read_bytes())
    if mutate == "magic":
        blob[0] ^= 0x01
    elif mutate == "version":
        blob[8] ^= 0x02
    elif mutate in ("version=1", "version=2"):
        # re-signed, so only the version is wrong
        blob[8:12] = struct.pack("<I", int(mutate[-1]))
        blob = bytearray(resign(blob))
    else:
        blob = blob[: len(blob) // 2]
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheCorruptError) as exc:
        store.get(entry.fingerprint)
    if mutate.startswith("version"):
        assert "unsupported format version" in exc.value.reason
    if mutate in ("version=1", "version=2"):
        assert exc.value.reason == f"unsupported format version {mutate[-1]} (expected 3)"


def test_header_layout_is_frozen(tmp_path, write_v1_entry, write_v2_entry, config_dir,
                                 capsys, monkeypatch):
    # Formats 1 and 2 are retired: a hand-written v1 or v2 file keeps its
    # frozen layout, is refused from its header alone, and the CLI rebuilds
    # it as a v3 file.
    store = PropagatorCache(tmp_path / "store")
    prop, entry = built_entry(P=2, dt=0.025, N=12)
    path = store.path_for(entry.fingerprint)
    argv = ["evolve", "--config", str(config_dir / "fig2.cfg"), "--set", "P=2",
            "--set", "dt=0.025", "--set", "N=12", "--set", "t_max=5"]
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "cold"))
    assert main(argv) == 0
    cold = capsys.readouterr()
    (cold_file,) = (tmp_path / "cold").glob("*.sbp")
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(store.root))

    for version in (1, 2):
        if version == 1:
            write_v1_entry(path, entry.fingerprint, entry.dim, entry.N, entry.dt,
                           entry.matrix)
        else:
            write_v2_entry(path, entry.fingerprint, entry.dim, entry.N, entry.dt,
                           entry.band, prop.last_term_norm, prop.unitarity_defect)
        raw = path.read_bytes()

        magic, got, dim, n, reserved, dt, fp = struct.unpack_from("<8sIIIIdQ", raw, 0)
        assert magic == b"SBPROP01"
        assert got == version
        assert dim == 6 and n == 12 and reserved == 0
        assert dt == 0.025
        assert fp == entry.fingerprint
        payload = raw[64:-8]
        if version == 1:
            assert raw[40:64] == bytes(24)                   # header zero padding
            assert len(payload) == dim * dim * 16            # row-major complex128
            assert raw[-8:] == hashlib.blake2b(payload, digest_size=8).digest()
            flat = np.frombuffer(payload, dtype="<c16").reshape(dim, dim)
            assert np.array_equal(flat, entry.matrix)
        else:
            assert struct.unpack_from("<dd", raw, 40) == (prop.last_term_norm,
                                                          prop.unitarity_defect)
            assert raw[56:64] == bytes(8)                    # header zero padding
            h = min(12, dim // 2 - 1)
            assert len(payload) == dim * (2 * h + 1) * 16    # all of M's diagonals
            assert raw[-8:] == hashlib.blake2b(raw[:-8], digest_size=8).digest()

        with pytest.raises(CacheCorruptError) as exc:
            store.get(entry.fingerprint)
        reason = f"unsupported format version {version} (expected 3)"
        assert exc.value.reason == reason

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert warm.err == f"warning: rebuilding corrupt cache entry ({path}: {reason})\n"
        # overwritten by the file a cold run stores, certificates and all
        assert path.read_bytes() == cold_file.read_bytes()
        rebuilt = store.get(entry.fingerprint)
        assert rebuilt.last_term_norm > 0.0 and rebuilt.unitarity_defect is not None
        assert main(argv) == 0
        assert capsys.readouterr() == cold


def built_entry(P=2, dt=0.025, N=12, params=FIG2):
    q = build_transfer_matrix(params, Truncation(P=P))
    prop = build_step_propagator(q, PropagatorConfig(dt=dt, steps=1, N=N))
    entry = CacheEntry(prop.fingerprint, q.dim, N, dt, band=prop.band,
                       last_term_norm=prop.last_term_norm,
                       unitarity_defect=prop.unitarity_defect,
                       dropped_norm=prop.dropped_norm)
    return prop, entry


def test_v3_layout(tmp_path):
    store = PropagatorCache(tmp_path)
    prop, entry = built_entry(P=40, dt=0.05, N=30)
    store.put(entry)
    raw = store.path_for(entry.fingerprint).read_bytes()

    (magic, version, dim, n, w, dt, fp,
     last, defect, dropped) = struct.unpack_from("<8sIIIIdQddd", raw, 0)
    assert magic == b"SBPROP01"
    assert version == 3
    assert dim == 82 and n == 30
    assert w == prop.band.shape[1] // 2 < min(30, dim // 2 - 1)
    assert dt == 0.05
    assert fp == entry.fingerprint
    assert last == prop.last_term_norm > 0.0
    assert defect == prop.unitarity_defect
    assert dropped == prop.dropped_norm > 0.0

    payload = raw[64:-8]
    assert len(payload) == dim * (2 * w + 1) * 16        # chain-order band
    assert raw[-8:] == hashlib.blake2b(raw[:-8], digest_size=8).digest()
    band = np.frombuffer(payload, dtype="<c16").reshape(dim, 2 * w + 1)
    assert band.tobytes() == prop.band.tobytes()

    loaded = store.get(entry.fingerprint)
    assert loaded.w == w
    assert loaded.last_term_norm == prop.last_term_norm
    assert loaded.unitarity_defect == prop.unitarity_defect
    assert loaded.dropped_norm == prop.dropped_norm

    # unknown certificates (a dissipative defect, a bare matrix) are NaN
    damped = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                         beta=0.01)
    prop, entry = built_entry(params=damped)
    assert prop.unitarity_defect is None
    store.put(entry)
    raw = store.path_for(entry.fingerprint).read_bytes()
    assert struct.unpack_from("<d", raw, 40)[0] == prop.last_term_norm
    assert math.isnan(struct.unpack_from("<d", raw, 48)[0])
    assert struct.unpack_from("<d", raw, 56)[0] == prop.dropped_norm
    assert store.get(entry.fingerprint).unitarity_defect is None
    bare = make_entry(P=2, dt=0.025, N=12)
    store.put(bare)
    raw = store.path_for(bare.fingerprint).read_bytes()
    assert all(math.isnan(v) for v in struct.unpack_from("<ddd", raw, 40))
    assert store.get(bare.fingerprint).dropped_norm is None


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3_P400", "fig5a", "fig6"])
def test_entry_stored_from_its_dense_matrix_holds_the_built_payload(tmp_path, config_dir,
                                                                    name):
    # the way a caller with only the dense matrix stores M: the band is
    # gathered out to the matrix's own outermost nonzero diagonal, so the
    # payload is the built one and a hit steps with the same 2w+1 diagonals
    q, pcfg = _prepare(load_run_config(config_dir / f"{name}.cfg", []))
    prop = build_step_propagator(q, pcfg)
    built, dense = PropagatorCache(tmp_path / "built"), PropagatorCache(tmp_path / "dense")
    built.put(prop)
    dense.put(CacheEntry(fingerprint=prop.fingerprint, dim=q.dim, N=pcfg.N, dt=pcfg.dt,
                         matrix=prop.matrix))
    want = built.path_for(prop.fingerprint).read_bytes()
    got = dense.path_for(prop.fingerprint).read_bytes()
    assert got[64:-8] == want[64:-8]
    assert got[:40] == want[:40]                # w in bytes 20..23 included
    hit = dense.get(prop.fingerprint)
    assert hit.band.shape == prop.band.shape == (q.dim, 2 * hit.w + 1)
    assert hit.dropped_norm is hit.last_term_norm is hit.unitarity_defect is None


@pytest.mark.parametrize("offset", [24, 44, 52, 60])  # dt, the three certificates
def test_flipped_v2_header_byte_is_reported_as_corrupt(tmp_path, offset):
    store = PropagatorCache(tmp_path)
    _, entry = built_entry()
    store.put(entry)
    path = store.path_for(entry.fingerprint)
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheCorruptError, match="checksum"):
        store.get(entry.fingerprint)


def resign(blob: bytearray) -> bytes:
    blob[-8:] = hashlib.blake2b(bytes(blob[:-8]), digest_size=8).digest()
    return bytes(blob)


def test_v3_payload_must_fit_the_band(tmp_path):
    store = PropagatorCache(tmp_path)
    _, entry = built_entry(P=4, N=12)
    assert entry.band.shape == (10, 9)
    store.put(entry)
    path = store.path_for(entry.fingerprint)
    good = path.read_bytes()

    # a header claiming N = 1: its band half-width 4 is above min(N, P),
    # refused from the header alone
    blob = bytearray(good)
    blob[16:20] = struct.pack("<I", 1)
    path.write_bytes(resign(blob))
    with pytest.raises(CacheCorruptError) as exc:
        store.get(entry.fingerprint)
    assert exc.value.reason == "band half-width 4 above min(N, P) = 1"

    # a header claiming w = 3: the payload is too long for its band
    blob = bytearray(good)
    blob[20:24] = struct.pack("<I", 3)
    path.write_bytes(resign(blob))
    with pytest.raises(CacheCorruptError, match="does not match dim"):
        store.get(entry.fingerprint)

    # band cell (0, 0) lies before the first slot of chain A
    blob = bytearray(good)
    blob[64:72] = struct.pack("<d", 1e-300)
    path.write_bytes(resign(blob))
    with pytest.raises(CacheCorruptError, match="parity-chain band"):
        store.get(entry.fingerprint)
    with pytest.raises(ValueError, match="parity-chain band"):
        store.put(CacheEntry(entry.fingerprint, entry.dim, entry.N, entry.dt,
                             band=np.frombuffer(blob[64:-8], dtype="<c16")
                             .reshape(entry.band.shape)))


@pytest.mark.parametrize("P, w", [(0, 0), (1, 1), (3, 1), (3, 3), (8, 5), (8, 8)])
def test_every_band_cell_outside_the_chains_is_refused(tmp_path, P, w):
    # the record reads only the two corners of each chain's rows; each cell
    # the band_inside mask leaves out is refused on its own
    dim = 2 * (P + 1)
    inside = band_inside(dim, w)
    band = np.where(inside, 1.0 + 0j, 0j)
    store = PropagatorCache(tmp_path)
    store.put(CacheEntry(1, dim, 30, 0.05, band=band))
    for i, k in np.argwhere(~inside):
        bad = band.copy()
        bad[i, k] = 1e-300j
        with pytest.raises(ValueError, match="parity-chain band"):
            store.put(CacheEntry(1, dim, 30, 0.05, band=bad))


def test_fingerprint_separates_every_input():
    base = dict(params=FIG2, P=8, N=30, dt=0.05)
    fps = {propagator_fingerprint(base["params"], base["P"], base["N"], base["dt"]): "base"}

    variants = {
        "omega_f": ModelParams(omega_f=1.5, omega_0=0.75, g_minus=0.4, g_plus=0.4),
        "omega_0": ModelParams(omega_f=1.0, omega_0=0.5, g_minus=0.4, g_plus=0.4),
        "swap_g": ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.3),
        "beta": ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                            beta=0.01),
        "gamma": ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                             gamma=0.01),
    }
    for name, params in variants.items():
        fps[propagator_fingerprint(params, 8, 30, 0.05)] = name
    fps[propagator_fingerprint(FIG2, 9, 30, 0.05)] = "P"
    fps[propagator_fingerprint(FIG2, 8, 31, 0.05)] = "N"
    fps[propagator_fingerprint(FIG2, 8, 30, 0.025)] = "dt"
    assert len(fps) == 9  # all distinct

    # mirror-symmetric couplings must not collide either
    a = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.1)
    b = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.1, g_plus=0.4)
    assert (propagator_fingerprint(a, 8, 30, 0.05)
            != propagator_fingerprint(b, 8, 30, 0.05))


def test_fingerprints_are_injective_over_a_parameter_grid():
    omegas_f = [0.5, 1.0, 2.0, 3.0]
    omegas_0 = [0.0, 0.75, 1.0]
    gms = [0.0, 0.1, 0.4]
    gps = [0.0, 0.4, 2.0]
    betas = [0.0, 0.01]
    gammas = [0.0, 0.01]
    ps = [5, 50, 400]
    ns = [20, 30]
    dts = [0.05, 0.025, 0.1]

    blobs = {}
    for of, o0, gm, gp, b, g, p, n, dt in itertools.product(
            omegas_f, omegas_0, gms, gps, betas, gammas, ps, ns, dts):
        params = ModelParams(omega_f=of, omega_0=o0, g_minus=gm, g_plus=gp,
                             beta=b, gamma=g)
        blob = canonical_blob(params, p, n, dt)
        fp = propagator_fingerprint(params, p, n, dt)
        if fp in blobs:
            assert blobs[fp] == blob, "fingerprint collision with distinct inputs"
        blobs[fp] = blob
    assert len(blobs) == 4 * 3 * 3 * 3 * 2 * 2 * 3 * 2 * 3


def test_env_variable_selects_the_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path / "via-env"))
    store = PropagatorCache()
    assert store.root == tmp_path / "via-env"
    explicit = PropagatorCache(tmp_path / "explicit")
    assert explicit.root == tmp_path / "explicit"


def test_entries_listing_and_clear(tmp_path):
    store = PropagatorCache(tmp_path)
    e1 = make_entry(P=2, dt=0.05)
    e2 = make_entry(P=3, dt=0.025)
    store.put(e1)
    store.put(e2)
    bad = store.path_for(e1.fingerprint)
    blob = bytearray(bad.read_bytes())
    blob[70] ^= 0xFF
    bad.write_bytes(bytes(blob))

    listed = list(store.entries())
    assert len(listed) == 2
    kinds = {type(item).__name__ for _, item in listed}
    assert kinds == {"CacheEntry", "CacheCorruptError"}
    # a listed entry is whole: the band get() hands back
    [good] = [item for _, item in listed if isinstance(item, CacheEntry)]
    assert np.array_equal(good.band, store.get(e2.fingerprint).band)

    assert store.clear() == 2
    assert list(store.entries()) == []
    assert store.clear() == 0


def test_no_temp_files_left_behind(tmp_path):
    store = PropagatorCache(tmp_path)
    store.put(make_entry(P=2))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".sbp"]
    assert leftovers == []


def test_put_validation(tmp_path):
    store = PropagatorCache(tmp_path)
    entry = make_entry(P=2)
    with pytest.raises(ValueError):
        store.put(CacheEntry(fingerprint=entry.fingerprint, dim=entry.dim,
                             N=entry.N, dt=entry.dt, matrix=None))
    with pytest.raises(ValueError):
        store.put(CacheEntry(fingerprint=entry.fingerprint, dim=99,
                             N=entry.N, dt=entry.dt, matrix=entry.matrix))


def test_band_whose_row_count_is_not_dim_is_refused_at_construction():
    prop, _ = built_entry()
    for dim in (prop.dim - 2, prop.dim + 2):
        with pytest.raises(ValueError, match=f"does not match dim {dim}"):
            CacheEntry(prop.fingerprint, dim, prop.N, prop.dt, band=prop.band)


def test_entry_under_another_fingerprint_is_corrupt(tmp_path):
    store = PropagatorCache(tmp_path)
    entry = make_entry()
    store.put(entry)
    other = propagator_fingerprint(
        ModelParams(omega_f=1.0, omega_0=0.8, g_minus=0.4, g_plus=0.4), 8, 30, 0.05)
    store.path_for(entry.fingerprint).rename(store.path_for(other))
    with pytest.raises(CacheCorruptError, match="header fingerprint"):
        store.get(other)


def test_clear_removes_orphaned_temp_files(tmp_path):
    store = PropagatorCache(tmp_path)
    store.put(make_entry(P=2))
    (tmp_path / "tmpab12cd.sbp.tmp").write_bytes(b"half a write")
    (tmp_path / "notes.txt").write_text("not ours")
    assert store.clear() == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]


def test_failed_put_leaves_neither_entry_nor_temp_file(tmp_path, monkeypatch):
    store = PropagatorCache(tmp_path)
    renamed = []

    def full_disk(src, dst):
        renamed.append(os.path.basename(src))
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="no space"):
        store.put(make_entry(P=2))
    # the temp name is one clear() would remove
    [name] = renamed
    assert name.endswith(".sbp.tmp")
    assert list(tmp_path.iterdir()) == []
