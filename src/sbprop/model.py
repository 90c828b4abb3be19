"""Transfer matrix of the intensity-dependent spin-boson model.

The two-level atom couples to a single field mode through ladder operators
dressed by the photon number, a*sqrt(a+a) and sqrt(a+a)*a+.  In the
spinor-Fock basis the Hamiltonian acts on coefficient vectors
[f_0^1 .. f_P^1, f_0^2 .. f_P^2] (excited block first, then ground block)
as a sparse matrix Q.

Both couplings flip the spin and move the photon number by one, so the
basis splits into two parity chains that Q never connects,

    A = (e0, g1, e2, g3, ...)    B = (g0, e1, g2, e3, ...),

and within each chain Q is tridiagonal (Braak, PRL 107, 100401, 2011).
TransferMatrix stores exactly that: the diagonal and the off-diagonal of
the two chains laid end to end ("chain order").  The dense block-layout
matrix is rebuilt on demand for tests.

An operator that never couples the chains and reaches at most h slots
along each chain is held in band storage: band[i, k] = M[i, i + k - h] in
chain slots.  Q is such a band with h = 1 (TransferMatrix.band), the
Taylor sum M is one with h = min(N, P), and the step propagator keeps M
out to its last significant diagonal, w <= h.  chain_block writes the dense
block of a chain from its band rows; it is how every dense chain block in
the package is formed (diagonalize's eigensolves of Q).  M is only ever
applied through its band, never as dense blocks.  The other band helpers
map band storage to and from the dense block layout.  small_ufunc_buffer
is the one place the package sets numpy's ufunc buffer size.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "Truncation",
    "TransferMatrix",
    "band_from_dense",
    "band_half_width",
    "band_inside",
    "band_to_dense",
    "build_transfer_matrix",
    "chain_block",
    "chain_order",
    "chain_slots",
    "occupied_chains",
    "small_ufunc_buffer",
]

# The ufunc buffer, in elements, inside small_ufunc_buffer.  numpy sets up
# operand buffers of this size for a call over strided operands (the Taylor
# build's sliding-window rows, a Sturm sweep's ring block); at its default
# of 8192 that is up to 192 kB per call, which can cost more than the
# call's arithmetic.  Buffers do not change a result.
UFUNC_BUFSIZE = 1024


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of one model instance.

    Parameters
    ----------
    omega_f : float
        Field mode frequency, must be positive.  Everything else is
        naturally quoted in units of omega_f.
    omega_0 : float
        Atomic transition frequency.
    g_minus : float
        Coupling of the photon-conserving (co-rotating) terms.
    g_plus : float
        Coupling of the counter-rotating terms; 0 gives the RWA model.
    beta : float
        Photon leakage rate (enters as -i*beta*p on every diagonal).
    gamma : float
        Atomic decay rate (enters as -i*gamma on the excited block).
    """

    omega_f: float
    omega_0: float
    g_minus: float = 0.0
    g_plus: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.omega_f, self.omega_0, self.g_minus,
                self.g_plus, self.beta, self.gamma)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite model parameter in {vals}")
        if self.omega_f <= 0.0:
            raise ValueError(f"omega_f must be positive, got {self.omega_f}")
        if self.beta < 0.0 or self.gamma < 0.0:
            raise ValueError("decay rates beta/gamma must be non-negative")

    def is_hermitian(self) -> bool:
        """True when no dissipation is present."""
        return self.beta == 0.0 and self.gamma == 0.0


@dataclass(frozen=True)
class Truncation:
    """Fock cutoff P: levels 0..P are retained.

    The Taylor order N of the step propagator is a separate approximation
    and is set on propagator.PropagatorConfig alone.
    """

    P: int

    def __post_init__(self) -> None:
        if int(self.P) != self.P or self.P < 0:
            raise ValueError(f"P must be a non-negative integer, got {self.P}")

    @property
    def dim(self) -> int:
        return 2 * (self.P + 1)


def chain_slots(P: int) -> tuple[np.ndarray, np.ndarray]:
    """(level, excited) of every chain-order slot: chain A, then chain B.

    Slot p of chain A holds level p with spin e for even p and g for odd p;
    chain B holds the opposite spins.
    """
    p = np.arange(P + 1)
    even = p % 2 == 0
    return np.concatenate([p, p]), np.concatenate([even, ~even])


def chain_order(P: int) -> np.ndarray:
    """Block-layout index of every chain-order slot (see chain_slots):
    level p with spin e at index p, with spin g at index P + 1 + p."""
    level, excited = chain_slots(P)
    return np.where(excited, level, P + 1 + level)


def occupied_chains(y: np.ndarray) -> slice:
    """The chains, from the first to the last, in which the chain-order
    vector y has a nonzero amplitude: slice(0, 1) for chain A alone,
    slice(1, 2) for chain B alone, slice(0, 2) otherwise (also for y = 0).

    An operator that never couples the chains keeps a chain that starts at
    exactly zero at exactly zero, so only these chains need its products.
    """
    occupied = np.asarray(y).reshape(2, -1).any(axis=1)
    return slice(int(occupied.argmax()), 2 - int(occupied[::-1].argmax()))


def band_half_width(dim: int, N: int) -> int:
    """Half-width of the band of a Taylor order-N propagator: min(N, P)."""
    return min(N, dim // 2 - 1)


def band_inside(dim: int, h: int) -> np.ndarray:
    """inside[i, k]: band cell (i, k) of half-width h lies in row i's chain.

    The mask depends only on the chain-local slot of row i, so it is built
    for one chain and repeated for the other.
    """
    n = dim // 2
    j = np.arange(n)[:, None] + np.arange(-h, h + 1)  # chain-local slot i + k - h
    return np.tile((j >= 0) & (j < n), (2, 1))


def chain_block(rows: np.ndarray) -> np.ndarray:
    """The dense block of one chain from its n band rows: rows[..., i, k]
    is the block's entry (i, i + k - h).  Leading axes are kept, so the
    (2, n, width) rows of both chains give both (2, n, n) blocks.

    Band column k is diagonal k - h of the block; it is written through a
    strided view of that diagonal in the flattened block.
    """
    *lead, n, width = rows.shape
    h = width // 2
    block = np.zeros((*lead, n, n), dtype=rows.dtype)
    flat = block.reshape(*lead, n * n)
    for k in range(width):
        o = k - h
        lo, hi = max(0, -o), min(n, n - o)
        flat[..., lo * (n + 1) + o::n + 1][..., :hi - lo] = rows[..., lo:hi, k]
    return block


def _band_index(dim: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where band storage of half-width h sits in the dense block layout.

    Returns (inside, rows, cols): inside is band_inside(dim, h); rows/cols
    are the block-layout positions of those cells, in band[inside] order.
    """
    inside = band_inside(dim, h)
    i, k = np.nonzero(inside)
    order = chain_order(dim // 2 - 1)
    return inside, order[i], order[i + k - h]


def band_from_dense(m: np.ndarray, N: int) -> np.ndarray:
    """The band of a dense block-layout propagator of Taylor order N, out
    to m's outermost nonzero diagonal in chain order.

    Raises ValueError when m has any nonzero outside the band of
    half-width min(N, P) (across the chains, or farther than that from
    the diagonal in chain order).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"expected a square matrix of even dimension, got {m.shape}")
    dim = m.shape[0]
    h = band_half_width(dim, N)
    inside, rows, cols = _band_index(dim, h)
    band = np.zeros(inside.shape, dtype=np.complex128)
    band[inside] = m[rows, cols]
    # the gathered cells are distinct entries of m, so equal counts mean
    # every entry left out is exactly zero
    if np.count_nonzero(band) != np.count_nonzero(m):
        raise ValueError("matrix has nonzero entries outside the parity-chain band")
    offsets = np.nonzero(band.any(axis=0))[0] - h
    w = int(np.abs(offsets).max(initial=0))
    return np.ascontiguousarray(band[:, h - w:h + w + 1])


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The dense block-layout matrix of a band, read-only."""
    dim, width = band.shape
    inside, rows, cols = _band_index(dim, width // 2)
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[rows, cols] = band[inside]
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class TransferMatrix:
    """Q as two tridiagonal parity chains in chain order, immutable once built.

    diag[i] is Q at chain slot i (complex: damping makes it non-real);
    off[i] couples slots i and i+1 (real and symmetric), with a 0.0 where
    chain A ends and chain B begins.  order[i] is the block-layout index
    of slot i (see chain_order).
    """

    diag: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    params: ModelParams
    trunc: Truncation
    hermitian: bool

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def band(self) -> np.ndarray:
        """Q in band storage of half-width 1, built on every access:
        columns Q[i, i-1], Q[i, i] and Q[i, i+1] in chain slots."""
        band = np.zeros((self.dim, 3), dtype=np.complex128)
        band[1:, 0] = self.off
        band[:, 1] = self.diag
        band[:-1, 2] = self.off
        band.setflags(write=False)
        return band

    @property
    def matrix(self) -> np.ndarray:
        """Dense Q in the block layout, built on every access."""
        return band_to_dense(self.band)

    def one_norm(self) -> float:
        """Largest absolute column sum of Q, equal to that of the dense matrix.

        Each column is summed in the dense row order (for an excited column
        the diagonal comes first, for a ground column last), so the value
        is the same float the dense reduction gives and suggest_step picks
        the same dt from either storage.
        """
        lower, a, upper = np.abs(self.band).T
        _, excited = chain_slots(self.trunc.P)
        return float(np.where(excited, (a + lower) + upper,
                              (lower + upper) + a).max())


def build_transfer_matrix(params: ModelParams, trunc: Truncation) -> TransferMatrix:
    """Assemble Q for the truncated model.

    Diagonals carry omega_f*p +/- omega_0/2 (minus i*(beta*p + gamma) with
    dissipation on).  Couplings, with k the higher of the two Fock levels
    involved so both symmetric entries share the identical float product:

        excited row p -> ground col p+1 : g_minus*(p+1)
        excited row p -> ground col p-1 : g_plus*p

    and transposed partners.  Couplings that would reference level P+1 are
    dropped (hard truncation).  In chain order the slot after e_p is
    g_{p+1} (g_minus) and the slot after g_p is e_{p+1} (g_plus), so the
    off-diagonal at slot p is g_minus*(p+1) or g_plus*(p+1).
    """
    n = trunc.P + 1
    p = np.arange(n)
    hermitian = params.is_hermitian()
    order = chain_order(trunc.P)
    level, excited = chain_slots(trunc.P)
    # an entry past the float range becomes inf here; suggest_step, certify
    # and the spectral routines refuse what it leads to, so the warnings
    # are only noise
    with np.errstate(over="ignore", invalid="ignore"):
        diag_e = params.omega_0 / 2 + params.omega_f * p
        diag_g = -params.omega_0 / 2 + params.omega_f * p
        off = np.where(excited[:-1], params.g_minus, params.g_plus) * (level[:-1] + 1)
        diag = np.where(excited, diag_e[level], diag_g[level]).astype(np.complex128)
        if not hermitian:
            # the rates go into the imaginary parts alone, so a rate past
            # the float range leaves the real parts as they are
            rate = params.beta * p
            diag.imag -= np.where(excited, (rate + params.gamma)[level], rate[level])
    off[n - 1] = 0.0  # chain A ends here

    for a in (diag, off, order):
        a.setflags(write=False)
    return TransferMatrix(diag=diag, off=off, order=order, params=params,
                          trunc=trunc, hermitian=hermitian)


@contextmanager
def small_ufunc_buffer():
    """Run the block with numpy's ufunc buffer at UFUNC_BUFSIZE elements,
    and give the caller's size back on the way out, on error as well."""
    old = np.setbufsize(UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)
