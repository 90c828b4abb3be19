"""On-disk store for step propagators, keyed by a parameter fingerprint.

File layout, format version 2 (little-endian throughout):

    bytes 0..7    magic "SBPROP01"
    bytes 8..11   format version (u32, 2)
    bytes 12..15  matrix dimension dim (u32)
    bytes 16..19  Taylor order N (u32)
    bytes 20..23  reserved (zero)
    bytes 24..31  step size dt (f64)
    bytes 32..39  fingerprint (u64)
    bytes 40..47  last_term_norm (f64, NaN when not known)
    bytes 48..55  unitarity_defect (f64, NaN for dissipative builds)
    bytes 56..63  zero padding
    then the chain-order band of M (see model), dim*(2h+1) complex
         doubles, row-major, re/im interleaved, h = min(N, dim/2 - 1)
    then an 8-byte blake2b checksum of header and payload

A file of any other version, version 1 (a dense dim*dim payload) included,
is refused from its header alone as corrupt; the CLI then rebuilds it and
overwrites it with version 2, the only version put() writes.

Fingerprints hash the IEEE-754 bit patterns of the parameters (plus the
coupling-convention tag), never their decimal text, so 0.1 read from a
config and 0.1 typed in code collide exactly as they should.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .model import ModelParams, band_from_dense, band_half_width, band_inside, band_to_dense

__all__ = [
    "CacheCorruptError",
    "CacheEntry",
    "PropagatorCache",
    "propagator_fingerprint",
    "canonical_blob",
    "default_cache_dir",
]

MAGIC = b"SBPROP01"
VERSION = 2
HEADER_SIZE = 64
CHECKSUM_SIZE = 8
_HEADER = struct.Struct("<8sIIIIdQdd")  # 56 bytes used, zero-padded to 64

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


class CacheEntry:
    """One stored propagator: the chain-order band of M and its certificates.

    `matrix=` may be given in place of `band=`; its band is gathered at
    once (ValueError if it has nonzeros outside the band).  `.matrix` is
    the dense block-layout view, built on every access.  Header-only
    listings carry no band, and `.matrix` is then None.  The certificates
    are None when unknown: for entries stored without them, and where no
    unitarity defect was measured (dissipative builds).
    propagator.StepPropagator is a CacheEntry, so a built propagator is
    stored as it is.
    """

    def __init__(self, fingerprint: int, dim: int, N: int, dt: float,
                 matrix: np.ndarray | None = None,
                 created_at: float | None = None, *,
                 band: np.ndarray | None = None,
                 last_term_norm: float | None = None,
                 unitarity_defect: float | None = None):
        if matrix is not None:
            if band is not None:
                raise ValueError("give at most one of matrix and band")
            band = band_from_dense(np.asarray(matrix, dtype=np.complex128), N)
        self.fingerprint = fingerprint
        self.dim = dim
        self.N = N
        self.dt = dt
        self.band = band
        self.created_at = created_at
        self.last_term_norm = last_term_norm
        self.unitarity_defect = unitarity_defect

    @property
    def matrix(self) -> np.ndarray | None:
        return None if self.band is None else band_to_dense(self.band)


def _check_band(band: np.ndarray, dim: int, N: int) -> None:
    """ValueError unless band is a (dim, 2h+1) band with nothing outside the chains."""
    if dim < 2 or dim % 2:
        raise ValueError(f"dimension must be even and positive, got {dim}")
    h = band_half_width(dim, N)
    if band.shape != (dim, 2 * h + 1):
        raise ValueError(f"band shape {band.shape} does not match dim {dim} "
                         f"and N {N} ({dim}, {2 * h + 1})")
    if band[~band_inside(dim, h)].any():
        raise ValueError("nonzero entries in band cells outside the parity-chain band")


@contextmanager
def atomic_write(path: Path, mode: str = "wb"):
    """Yield a temp file beside path, opened in mode, that replaces path
    once the block completes; on any error it is removed instead.

    The temp name ends in path's suffix + ".tmp", so clear() finds what a
    crashed cache writer left behind.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _checksum(*parts: bytes | memoryview) -> bytes:
    digest = hashlib.blake2b(digest_size=CHECKSUM_SIZE)
    for part in parts:
        digest.update(part)
    return digest.digest()


def _stored(value: float | None) -> float:
    return math.nan if value is None else float(value)


def _loaded(value: float) -> float | None:
    return None if math.isnan(value) else value


class PropagatorCache:
    """Directory of .sbp files named by fingerprint hex."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, fingerprint: int) -> Path:
        return self.root / f"{fingerprint:016x}.sbp"

    def put(self, entry: CacheEntry) -> Path:
        """Atomically write one version-2 entry (temp file + rename); returns the path."""
        if entry.band is None:
            raise ValueError("cannot store an entry without its band")
        band = np.asarray(entry.band, dtype=np.complex128)
        _check_band(band, entry.dim, entry.N)

        header = _HEADER.pack(MAGIC, VERSION, entry.dim, entry.N, 0,
                              float(entry.dt), entry.fingerprint,
                              _stored(entry.last_term_norm),
                              _stored(entry.unitarity_defect))
        header = header.ljust(HEADER_SIZE, b"\0")
        # a byte view of the band: no second copy of the payload
        payload = memoryview(np.ascontiguousarray(band, dtype="<c16")).cast("B")

        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(entry.fingerprint)
        with atomic_write(final) as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(_checksum(header, payload))
        return final

    def get(self, fingerprint: int) -> CacheEntry | None:
        """Full entry on hit, None on miss, CacheCorruptError on damage."""
        path = self.path_for(fingerprint)
        try:
            entry = self._read(path, with_band=True)
        except FileNotFoundError:
            return None
        if entry.fingerprint != fingerprint:
            raise CacheCorruptError(
                path, f"header fingerprint {entry.fingerprint:016x} does not "
                      f"match the requested {fingerprint:016x}")
        return entry

    def _read(self, path: Path, with_band: bool) -> CacheEntry:
        """Check the header, then read and verify the rest of the file.

        A bad magic, version or size is refused after the 64-byte header,
        before any of the payload is read.
        """
        # unbuffered, so the payload is read straight into one bytes object
        with open(path, "rb", buffering=0) as fh:
            header = fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise CacheCorruptError(path, "file shorter than header")
            magic, version, dim, order, _, dt, fp, last, defect = _HEADER.unpack_from(header)
            if magic != MAGIC:
                raise CacheCorruptError(path, f"bad magic {magic!r}")
            if version != VERSION:
                raise CacheCorruptError(
                    path, f"unsupported format version {version} (expected {VERSION})")
            if dim < 2 or dim % 2:
                raise CacheCorruptError(path, f"odd or zero dimension {dim}")
            shape = (dim, 2 * band_half_width(dim, order) + 1)
            expect = HEADER_SIZE + shape[0] * shape[1] * 16 + CHECKSUM_SIZE
            stat = os.fstat(fh.fileno())
            if stat.st_size != expect:
                raise CacheCorruptError(
                    path, f"size {stat.st_size} does not match dim {dim} ({expect})")
            rest = fh.read()
        payload = memoryview(rest)[:-CHECKSUM_SIZE]
        if _checksum(header, payload) != rest[-CHECKSUM_SIZE:]:
            raise CacheCorruptError(path, "checksum mismatch")
        band = None
        if with_band:
            # a read-only view of `rest`, copied only on big-endian hosts
            band = np.frombuffer(payload, dtype="<c16").astype(
                np.complex128, copy=False).reshape(shape)
            try:
                _check_band(band, dim, order)
            except ValueError as err:
                raise CacheCorruptError(path, str(err)) from None
        return CacheEntry(fingerprint=fp, dim=dim, N=order, dt=dt, band=band,
                          created_at=stat.st_mtime, last_term_norm=_loaded(last),
                          unitarity_defect=_loaded(defect))

    def invalidate(self, fingerprint: int) -> bool:
        """Remove one entry; True if something was deleted."""
        try:
            self.path_for(fingerprint).unlink()
            return True
        except FileNotFoundError:
            return False

    def entries(self) -> list[tuple[Path, CacheEntry | CacheCorruptError]]:
        """Every entry of the cache directory, sorted by name, without its band.

        Each file is read in full and its checksum verified, so damage
        anywhere in it lists the file as corrupt.  A file that cannot be
        read (a directory named *.sbp, no read permission) is listed as a
        CacheCorruptError with the OS reason.
        """
        if not self.root.is_dir():
            return []
        out: list[tuple[Path, CacheEntry | CacheCorruptError]] = []
        for path in sorted(self.root.glob("*.sbp")):
            try:
                out.append((path, self._read(path, with_band=False)))
            except CacheCorruptError as err:
                out.append((path, err))
            except OSError as err:
                out.append((path, CacheCorruptError(path, err.strerror or str(err))))
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
