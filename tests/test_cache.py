"""On-disk propagator store: format, checksums, fingerprint discrimination."""

import hashlib
import itertools
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
    propagator_fingerprint,
)

FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)


def make_entry(P=8, dt=0.05, N=30):
    q = build_transfer_matrix(FIG2, Truncation(P=P, N=N))
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


def test_invalidate(tmp_path):
    store = PropagatorCache(tmp_path)
    entry = make_entry()
    store.put(entry)
    assert store.invalidate(entry.fingerprint) is True
    assert store.invalidate(entry.fingerprint) is False
    assert store.get(entry.fingerprint) is None


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


@pytest.mark.parametrize("mutate", ["magic", "version", "truncate"])
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
    else:
        blob = blob[: len(blob) // 2]
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheCorruptError):
        store.get(entry.fingerprint)


def test_header_layout_is_frozen(tmp_path):
    store = PropagatorCache(tmp_path)
    entry = make_entry(P=2, dt=0.025, N=12)
    store.put(entry)
    raw = store.path_for(entry.fingerprint).read_bytes()

    magic, version, dim, n, reserved, dt, fp = struct.unpack_from("<8sIIIIdQ", raw, 0)
    assert magic == b"SBPROP01"
    assert version == 1
    assert dim == 6 and n == 12 and reserved == 0
    assert dt == 0.025
    assert fp == entry.fingerprint
    assert raw[40:64] == bytes(24)                       # header zero padding

    payload = raw[64:-8]
    assert len(payload) == dim * dim * 16                # row-major complex128
    assert raw[-8:] == hashlib.blake2b(payload, digest_size=8).digest()
    flat = np.frombuffer(payload, dtype="<c16").reshape(dim, dim)
    assert np.array_equal(flat, entry.matrix)


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

    listed = store.entries()
    assert len(listed) == 2
    kinds = {type(item).__name__ for _, item in listed}
    assert kinds == {"CacheEntry", "CacheCorruptError"}
    # header-only listing never materializes matrices
    good = [item for _, item in listed if isinstance(item, CacheEntry)]
    assert good[0].matrix is None

    assert store.clear() == 2
    assert store.entries() == []
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
