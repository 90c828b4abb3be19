"""The step propagator record and its on-disk store, keyed by a parameter
fingerprint.

CacheEntry is the one propagator record: the build returns it, put()
stores it, get() hands it back, and evolve steps it.  It is valid by
construction: its band has been checked against dim and N and made
read-only, so put() writes it as it is and get() builds it from the file.

File layout, format version 3 (little-endian throughout):

    bytes 0..7    magic "SBPROP01"
    bytes 8..11   format version (u32, 3)
    bytes 12..15  matrix dimension dim (u32)
    bytes 16..19  Taylor order N (u32)
    bytes 20..23  band half-width w (u32), at most h = min(N, dim/2 - 1)
    bytes 24..31  step size dt (f64)
    bytes 32..39  fingerprint (u64)
    bytes 40..47  last_term_norm (f64, NaN when not known)
    bytes 48..55  unitarity_defect of the band (f64, NaN for dissipative
                  builds)
    bytes 56..63  dropped_norm, the largest row 1-norm of the diagonals
                  of M beyond w (f64, NaN when not known)
    then the chain-order band of the step propagator (see model and
         propagator), dim*(2w+1) complex doubles, row-major, re/im
         interleaved: 0.50 MB at P = 400 (w = 19), about 2.6 MB at
         P = 2000 (w = 20)
    then an 8-byte blake2b checksum of header and payload

A file of any other version is refused from its header alone as corrupt:
version 1 (a dense dim*dim payload) and version 2 (all 2h+1 diagonals of
M, bytes 20..23 and 56..63 zero).  The CLI then rebuilds it and
overwrites it with version 3, the only version put() writes.

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

from .model import ModelParams, band_from_dense, band_half_width, band_to_dense

__all__ = [
    "CacheCorruptError",
    "CacheEntry",
    "PropagatorCache",
    "propagator_fingerprint",
    "canonical_blob",
    "default_cache_dir",
]

MAGIC = b"SBPROP01"
VERSION = 3
HEADER_SIZE = 64
CHECKSUM_SIZE = 8
_HEADER = struct.Struct("<8sIIIIdQddd")  # all 64 bytes

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
    """The step propagator: its chain-order band, provenance and build
    certificates.  propagator.StepPropagator is a second name for this
    class.

    band is the (dim, 2w+1) central slice of the Taylor sum M that
    build_step_propagator keeps: w, at most min(N, P), is the outermost
    diagonal of M holding any entry above eps * max|M|.  It is the only
    band the propagator holds, read-only.  dropped_norm certifies what the
    slice leaves out of M: the largest row sum of |entries| beyond w, so
    no step moves any amplitude by more than dropped_norm * max|y|.
    `matrix=` may be given in place of `band=` (tests, bench); its band
    is gathered at once, out to its outermost nonzero diagonal.  A band
    whose shape does not fit dim and N, or with a nonzero outside the
    parity chains (see _check_band), is refused with ValueError, and so
    is a dense matrix with any nonzero outside the band of half-width
    min(N, P).  Exactly one of band and matrix is given.  `.matrix` is the
    dense block-layout view, built on every access.  The certificates are
    None when unknown: for entries stored without them, such as one
    stored from its dense matrix, and where no unitarity defect was
    measured (dissipative builds).
    """

    def __init__(self, fingerprint: int, dim: int, N: int, dt: float,
                 matrix: np.ndarray | None = None,
                 created_at: float | None = None, *,
                 band: np.ndarray | None = None,
                 last_term_norm: float | None = None,
                 unitarity_defect: float | None = None,
                 dropped_norm: float | None = None):
        if (matrix is None) == (band is None):
            raise ValueError("give one of band and matrix")
        if matrix is not None:
            band = band_from_dense(np.asarray(matrix, dtype=np.complex128), N)
        _check_band(band, dim, N)
        band.setflags(write=False)
        self.fingerprint = fingerprint
        self.dim = dim
        self.N = N
        self.dt = dt
        self.band = band
        self.w = band.shape[1] // 2
        self.created_at = created_at
        self.last_term_norm = last_term_norm
        self.unitarity_defect = unitarity_defect
        self.dropped_norm = dropped_norm

    @property
    def matrix(self) -> np.ndarray:
        return band_to_dense(self.band)


def _check_band(band: np.ndarray, dim: int, N: int) -> None:
    """ValueError unless band is a (dim, 2w+1) band, w <= min(N, P), with
    nothing outside the chains.

    The cells outside a chain are two w x w corners of its rows: cell
    (i, k) of chain-local row i lies before the chain's first slot when
    i + k < w, and past its last when the same holds counted from the
    chain's last row and the band's last column.  Only those corners are
    read, so the check allocates no array the size of the band.
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"dimension must be even and positive, got {dim}")
    h = band_half_width(dim, N)
    if band.ndim != 2 or band.shape[0] != dim or band.shape[1] % 2 == 0 \
            or band.shape[1] > 2 * h + 1:
        raise ValueError(f"band shape {band.shape} does not match dim {dim} "
                         f"and N {N} ({dim}, odd width up to {2 * h + 1})")
    n, w = dim // 2, band.shape[1] // 2
    rows = band.reshape(2, n, 2 * w + 1)
    before = np.add.outer(np.arange(w), np.arange(w)) < w
    if (rows[:, :w, :w][:, before].any()
            or rows[:, n - w:, w + 1:][:, before[::-1, ::-1]].any()):
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
        """Atomically write one version-3 entry (temp file + rename); returns the path."""
        header = _HEADER.pack(MAGIC, VERSION, entry.dim, entry.N, entry.w,
                              float(entry.dt), entry.fingerprint,
                              _stored(entry.last_term_norm),
                              _stored(entry.unitarity_defect),
                              _stored(entry.dropped_norm))
        # a byte view of the band: no second copy of the payload
        payload = memoryview(np.ascontiguousarray(entry.band, dtype="<c16")).cast("B")

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
            entry = self._read(path)
        except FileNotFoundError:
            return None
        if entry.fingerprint != fingerprint:
            raise CacheCorruptError(
                path, f"header fingerprint {entry.fingerprint:016x} does not "
                      f"match the requested {fingerprint:016x}")
        return entry

    def _read(self, path: Path) -> CacheEntry:
        """Check the header, then read and verify the rest of the file.

        A bad magic, version, dimension, band half-width or size is
        refused after the 64-byte header, before any of the payload is
        read; a band with a nonzero outside the chains, after its checksum.
        """
        # unbuffered, so the payload is read straight into one bytes object
        with open(path, "rb", buffering=0) as fh:
            header = fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise CacheCorruptError(path, "file shorter than header")
            (magic, version, dim, order, w, dt, fp,
             last, defect, dropped) = _HEADER.unpack_from(header)
            if magic != MAGIC:
                raise CacheCorruptError(path, f"bad magic {magic!r}")
            if version != VERSION:
                raise CacheCorruptError(
                    path, f"unsupported format version {version} (expected {VERSION})")
            if dim < 2 or dim % 2:
                raise CacheCorruptError(path, f"odd or zero dimension {dim}")
            h = band_half_width(dim, order)
            if w > h:
                raise CacheCorruptError(
                    path, f"band half-width {w} above min(N, P) = {h}")
            shape = (dim, 2 * w + 1)
            expect = HEADER_SIZE + shape[0] * shape[1] * 16 + CHECKSUM_SIZE
            stat = os.fstat(fh.fileno())
            if stat.st_size != expect:
                raise CacheCorruptError(
                    path, f"size {stat.st_size} does not match dim {dim} ({expect})")
            rest = fh.read()
        payload = memoryview(rest)[:-CHECKSUM_SIZE]
        if _checksum(header, payload) != rest[-CHECKSUM_SIZE:]:
            raise CacheCorruptError(path, "checksum mismatch")
        # a read-only view of `rest`, copied only on big-endian hosts
        band = np.frombuffer(payload, dtype="<c16").astype(
            np.complex128, copy=False).reshape(shape)
        try:
            return CacheEntry(fingerprint=fp, dim=dim, N=order, dt=dt, band=band,
                              created_at=stat.st_mtime, last_term_norm=_loaded(last),
                              unitarity_defect=_loaded(defect),
                              dropped_norm=_loaded(dropped))
        except ValueError as err:
            raise CacheCorruptError(path, str(err)) from None

    def entries(self):
        """Yield (path, entry) for every file of the cache directory, sorted
        by name, each as it is read.

        Each file is read in full and checked as get() checks it (checksum,
        then the band's cells outside the chains), so damage anywhere in it
        lists the file as corrupt; an entry is whole, band included, as
        get() returns it.  Nothing is kept from one file to the next, so a
        caller that keeps only what it reports holds no list of bands.  A
        file that cannot be read (a directory named *.sbp, no read
        permission) is listed as a CacheCorruptError with the OS reason.
        """
        for path in sorted(self.root.glob("*.sbp")):
            try:
                item = self._read(path)
            except CacheCorruptError as err:
                item = err
            except OSError as err:
                item = CacheCorruptError(path, err.strerror or str(err))
            yield path, item

    def clear(self) -> int:
        """Delete every entry and every temp file a crashed writer left behind.

        Returns how many files were removed: 0 for a root that is missing
        or not a directory, where glob finds nothing.  A write in progress
        loses its temp file and fails with OSError, which the CLI reports
        as a store failure.
        """
        removed = 0
        for pattern in ("*.sbp", "*.sbp.tmp"):
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
