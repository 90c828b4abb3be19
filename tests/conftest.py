"""Session-wide fixtures.

Every test session gets a throwaway propagator cache directory so tests
never read or pollute the user's real store, and repeated runs inside one
session still exercise the hit path.  `write_v1_entry` and
`write_v2_entry` write a cache file in the retired formats 1 and 2 by
hand, which the store refuses.
`caller_bufsize` sets a ufunc buffer size of the test's own, for tests
that check the package gives it back.
"""

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("propagator-cache")
    old = os.environ.get("SBPROP_CACHE_DIR")
    os.environ["SBPROP_CACHE_DIR"] = str(root)
    yield root
    if old is None:
        os.environ.pop("SBPROP_CACHE_DIR", None)
    else:
        os.environ["SBPROP_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def config_dir() -> Path:
    assert CONFIG_DIR.is_dir(), f"missing {CONFIG_DIR}"
    return CONFIG_DIR


def _write_v1_entry(path: Path, fingerprint: int, dim: int, N: int, dt: float,
                    matrix: np.ndarray) -> None:
    """Format 1: 64-byte header, dense row-major payload, checksum of the payload."""
    header = struct.pack("<8sIIIIdQ", b"SBPROP01", 1, dim, N, 0, dt, fingerprint)
    payload = np.ascontiguousarray(matrix, dtype="<c16").tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header.ljust(64, b"\0") + payload
                     + hashlib.blake2b(payload, digest_size=8).digest())


@pytest.fixture
def write_v1_entry():
    return _write_v1_entry


def _write_v2_entry(path: Path, fingerprint: int, dim: int, N: int, dt: float,
                    band: np.ndarray, last_term_norm: float = math.nan,
                    unitarity_defect: float = math.nan) -> None:
    """Format 2: 64-byte header, bytes 20..23 and 56..63 zero, the band of
    all 2h+1 diagonals of M, h = min(N, P), checksum of header and payload.
    band is padded with zero diagonals out to h."""
    pad = min(N, dim // 2 - 1) - band.shape[1] // 2
    payload = np.ascontiguousarray(np.pad(band, ((0, 0), (pad, pad))),
                                   dtype="<c16").tobytes()
    header = struct.pack("<8sIIIIdQdd", b"SBPROP01", 2, dim, N, 0, dt, fingerprint,
                         last_term_norm, unitarity_defect).ljust(64, b"\0")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload
                     + hashlib.blake2b(header + payload, digest_size=8).digest())


@pytest.fixture
def write_v2_entry():
    return _write_v2_entry


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size that is neither numpy's default nor the one
    model.small_ufunc_buffer sets; numpy's own is restored afterwards."""
    old = np.setbufsize(4096)
    yield 4096
    np.setbufsize(old)
