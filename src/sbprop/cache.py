"""On-disk store for step propagators, keyed by a parameter fingerprint.

File layout (little-endian throughout):

    bytes 0..7    magic "SBPROP01"
    bytes 8..11   format version (u32, currently 1)
    bytes 12..15  matrix dimension (u32)
    bytes 16..19  Taylor order N (u32)
    bytes 20..23  reserved (zero)
    bytes 24..31  step size dt (f64)
    bytes 32..39  fingerprint (u64)
    bytes 40..63  zero padding
    then dim*dim complex doubles, row-major, re/im interleaved
    then an 8-byte blake2b checksum of the payload

Fingerprints hash the IEEE-754 bit patterns of the parameters (plus the
coupling-convention tag), never their decimal text, so 0.1 read from a
config and 0.1 typed in code collide exactly as they should.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ModelParams

__all__ = [
    "CacheCorruptError",
    "CacheEntry",
    "PropagatorCache",
    "propagator_fingerprint",
    "canonical_blob",
    "default_cache_dir",
]

MAGIC = b"SBPROP01"
VERSION = 1
HEADER_SIZE = 64
CHECKSUM_SIZE = 8
_HEADER = struct.Struct("<8sIIIIdQ")  # 40 bytes used, zero-padded to 64

# Tags which lowering/raising coupling convention the matrices were built
# with; bump if the assignment in model.build_transfer_matrix ever changes.
CONVENTION_TAG = b"sbprop-coupling-v1"

ENV_VAR = "SBPROP_CACHE_DIR"


class CacheCorruptError(RuntimeError):
    """A present-but-unreadable cache file; distinct from a plain miss."""

    def __init__(self, path: Path, reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def canonical_blob(params: ModelParams, P: int, N: int, dt: float) -> bytes:
    """Canonical byte serialization of everything the propagator depends on."""
    return (
        CONVENTION_TAG
        + struct.pack("<6d", params.omega_f, params.omega_0, params.g_minus,
                      params.g_plus, params.beta, params.gamma)
        + struct.pack("<qq", int(P), int(N))
        + struct.pack("<d", float(dt))
    )


def propagator_fingerprint(params: ModelParams, P: int, N: int, dt: float) -> int:
    digest = hashlib.blake2b(canonical_blob(params, P, N, dt),
                             digest_size=CHECKSUM_SIZE).digest()
    return int.from_bytes(digest, "little")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "sbprop"


@dataclass
class CacheEntry:
    """One stored propagator; matrix is None for header-only listings."""

    fingerprint: int
    dim: int
    N: int
    dt: float
    matrix: np.ndarray | None = field(repr=False, default=None)
    created_at: float | None = None


def _checksum(payload: bytes | memoryview) -> bytes:
    return hashlib.blake2b(payload, digest_size=CHECKSUM_SIZE).digest()


class PropagatorCache:
    """Directory of .sbp files named by fingerprint hex."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, fingerprint: int) -> Path:
        return self.root / f"{fingerprint:016x}.sbp"

    def put(self, entry: CacheEntry) -> Path:
        """Atomically write one entry (temp file + rename); returns the path."""
        m = entry.matrix
        if m is None:
            raise ValueError("cannot store an entry without its matrix")
        m = np.asarray(m, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != entry.dim:
            raise ValueError(
                f"entry.dim={entry.dim} does not match matrix dim {m.shape[0]}")

        header = _HEADER.pack(MAGIC, VERSION, entry.dim, entry.N, 0,
                              float(entry.dt), entry.fingerprint)
        header = header.ljust(HEADER_SIZE, b"\0")
        # a byte view of the matrix: no second copy of a large payload
        payload = memoryview(np.ascontiguousarray(m, dtype="<c16")).cast("B")

        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(entry.fingerprint)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".sbp.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(payload)
                fh.write(_checksum(payload))
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return final

    def get(self, fingerprint: int) -> CacheEntry | None:
        """Full entry on hit, None on miss, CacheCorruptError on damage."""
        path = self.path_for(fingerprint)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        entry = self._parse(path, raw, with_matrix=True)
        if entry.fingerprint != fingerprint:
            raise CacheCorruptError(
                path, f"header fingerprint {entry.fingerprint:016x} does not "
                      f"match the requested {fingerprint:016x}")
        entry.created_at = path.stat().st_mtime
        return entry

    def _parse(self, path: Path, raw: bytes, with_matrix: bool) -> CacheEntry:
        if len(raw) < HEADER_SIZE + CHECKSUM_SIZE:
            raise CacheCorruptError(path, "file shorter than header")
        magic, version, dim, order, _, dt, fp = _HEADER.unpack(
            raw[:_HEADER.size])
        if magic != MAGIC:
            raise CacheCorruptError(path, f"bad magic {magic!r}")
        if version != VERSION:
            raise CacheCorruptError(path, f"unsupported version {version}")
        expect = HEADER_SIZE + dim * dim * 16 + CHECKSUM_SIZE
        if len(raw) != expect:
            raise CacheCorruptError(
                path, f"size {len(raw)} does not match dim {dim} ({expect})")
        payload = memoryview(raw)[HEADER_SIZE:-CHECKSUM_SIZE]
        if _checksum(payload) != raw[-CHECKSUM_SIZE:]:
            raise CacheCorruptError(path, "payload checksum mismatch")
        matrix = None
        if with_matrix:
            # a read-only view of `raw`, copied only on big-endian hosts
            matrix = np.frombuffer(payload, dtype="<c16").astype(
                np.complex128, copy=False).reshape(dim, dim)
        return CacheEntry(fingerprint=fp, dim=dim, N=order, dt=dt,
                          matrix=matrix)

    def invalidate(self, fingerprint: int) -> bool:
        """Remove one entry; True if something was deleted."""
        try:
            self.path_for(fingerprint).unlink()
            return True
        except FileNotFoundError:
            return False

    def entries(self) -> list[tuple[Path, CacheEntry | CacheCorruptError]]:
        """Header-only scan of the cache directory, sorted by name."""
        if not self.root.is_dir():
            return []
        out: list[tuple[Path, CacheEntry | CacheCorruptError]] = []
        for path in sorted(self.root.glob("*.sbp")):
            try:
                entry = self._parse(path, path.read_bytes(), with_matrix=False)
                entry.created_at = path.stat().st_mtime
                out.append((path, entry))
            except CacheCorruptError as err:
                out.append((path, err))
        return out

    def clear(self) -> int:
        """Delete every entry and every temp file a crashed writer left behind.

        Returns how many files were removed.  A write in progress loses its
        temp file and fails with OSError, which the CLI reports as a store
        failure.
        """
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.sbp", "*.sbp.tmp"):
                for path in self.root.glob(pattern):
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed
