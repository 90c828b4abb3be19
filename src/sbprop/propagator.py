"""Taylor-series step propagator and the per-step evolution loop.

M(dt) = sum_{n=0}^{N} (-i dt)^n / n! Q^n, accumulated with the running-term
recurrence term_{n+1} = term_n (-i dt/(n+1)) Q.  The max-norm of the last
included term and, for Hermitian Q, the unitarity defect are the build
certificates; `certify` refuses a propagator whose certificates exceed the
bounds for the requested tolerance rather than silently degrading, on a
fresh build and on a cache hit alike.  One M is reused across every
initial state and every step of a run.

Q is tridiagonal in chain order (see model), so Q^n has half-bandwidth n
and M has half-bandwidth h = min(N, P) there: it is held in band storage
band[i, k] = M[i, i + k - h] (chain slots), which makes the build
O(N^2 P) and each step O(N P).  The outer diagonals of M fall below
double precision long before h, so evolve steps with the narrower band
that holds every entry above eps * max|M|.  The dense block-layout M is
only built for callers that ask for `.matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cache import CacheEntry, propagator_fingerprint
from .model import (TransferMatrix, band_half_width, chain_block, chain_order,
                    occupied_chains)
from .states import SpinorFockState
from .trajectory import Trajectory, TrajectoryBuilder

__all__ = [
    "NotConverged",
    "NotUnitary",
    "NonFiniteState",
    "PropagatorConfig",
    "StepPropagator",
    "build_step_propagator",
    "certify",
    "suggest_step",
    "evolve",
    "evolve_reusing",
    "checkpoint_powers",
    "jump",
]

MAX_STEP = 0.1  # largest dt suggest_step will ever return
# Largest unitarity defect max|M+M - 1| a Hermitian propagator may carry
# at the default last-term tolerance (see certify).
UNITARITY_TOL = 1e-9
# States evolve() holds at once.  Checking and measuring them together
# amortises the per-call overhead; a larger block only adds memory.
BLOCK_ROWS = 64


class NotConverged(RuntimeError):
    """Taylor series not converged at order N for this dt.

    Raised when the last term is above tol, or when it is not but the
    bound on the terms after it (tail, see certify) is.  dt_reduction is
    the factor that brings the last term to ~tol, or None when the last
    term is not finite (the series diverged) or was not the reason."""

    def __init__(self, last_term_norm: float, tol: float, dt: float, N: int,
                 ratio: float, tail: float | None = None):
        self.last_term_norm = last_term_norm
        self.tol = tol
        self.dt = dt
        self.N = N
        self.tail = tail
        self.dt_reduction = None
        if tail is not None:
            text = (f"Taylor tail bound {tail:.3e} > tol {tol:.1e} at dt={dt} N={N} "
                    f"(last term {last_term_norm:.3e}, term ratio ~{ratio:.3g}); "
                    "reduce dt or raise N")
        elif math.isfinite(last_term_norm):
            # shrink dt by this factor and the last term lands at ~tol
            self.dt_reduction = (tol / last_term_norm) ** (1.0 / N)
            text = (f"last Taylor term has max-norm {last_term_norm:.3e}"
                    f" > tol {tol:.1e} at dt={dt} N={N} (term ratio ~{ratio:.3g}); "
                    f"reduce dt by a factor <= {self.dt_reduction:.3g} or raise N")
        else:
            # a term that overflowed gives no such factor
            text = (f"last Taylor term has max-norm {last_term_norm:.3e} at dt={dt} "
                    f"N={N}: the series diverges; reduce dt or the couplings")
        super().__init__(text)


class NotUnitary(RuntimeError):
    """A Hermitian propagator whose M+M is too far from the identity."""

    def __init__(self, defect: float, bound: float, dt: float, N: int):
        self.defect = defect
        self.bound = bound
        super().__init__(
            f"unitarity defect max|M+M - 1| = {defect:.3e} > {bound:.1e} "
            f"at dt={dt} N={N}; reduce dt")


class NonFiniteState(RuntimeError):
    """Evolution produced NaN/Inf amplitudes (runaway growth)."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite amplitudes at step {step}")


@dataclass(frozen=True)
class PropagatorConfig:
    """Step size dt, step count, Taylor order N, certificate tolerance."""

    dt: float
    steps: int
    N: int = 30
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if int(self.steps) != self.steps or self.steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {self.steps}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")


class StepPropagator(CacheEntry):
    """M(dt) as its chain-order band, plus provenance and build certificates.

    A CacheEntry (band, dim, fingerprint, dt, N, the certificates, the
    `matrix=` gather and the dense `.matrix` view) built from exactly one
    of the band (build_step_propagator, cache hits) or the dense
    block-layout matrix (tests); a dense matrix with any nonzero outside
    the band is refused with ValueError.

    step_band is the contiguous central (dim, 2w+1) slice of band that
    evolve steps with: w is the outermost diagonal holding any entry above
    eps * max|band|, derived from the band alone, so the same band always
    steps the same way.  dropped_norm certifies what the slice leaves out:
    the largest row sum of |entries| beyond w, so no step moves any
    amplitude by more than dropped_norm * max|y|.
    """

    def __init__(self, matrix: np.ndarray | None = None, *, fingerprint: int,
                 dt: float, N: int, last_term_norm: float | None = None,
                 unitarity_defect: float | None = None,
                 band: np.ndarray | None = None):
        if (matrix is None) == (band is None):
            raise ValueError("give exactly one of matrix and band")
        super().__init__(fingerprint, None, N, dt, matrix, band=band,
                         last_term_norm=last_term_norm,
                         unitarity_defect=unitarity_defect)
        self.band.setflags(write=False)
        self.dim = self.band.shape[0]
        self.step_band, self.dropped_norm = _trim(self.band)


def _trim(band: np.ndarray) -> tuple[np.ndarray, float]:
    """The central slice of band out to its last significant diagonal,
    and the largest row 1-norm of what it leaves out."""
    h = band.shape[1] // 2
    mag = np.abs(band)
    significant = np.nonzero(mag.max(axis=0) > np.finfo(float).eps * mag.max())[0]
    w = int(np.abs(significant - h).max()) if significant.size else 0
    dropped = mag[:, :h - w].sum(axis=1) + mag[:, h + w + 1:].sum(axis=1)
    step_band = np.ascontiguousarray(band[:, h - w:h + w + 1])
    step_band.setflags(write=False)
    return step_band, float(dropped.max(initial=0.0))


def build_step_propagator(q: TransferMatrix, cfg: PropagatorConfig) -> StepPropagator:
    """Accumulate M to order N in band storage and certify the truncation.

    term_n Q is formed in band storage: its column j mixes columns j-1, j
    and j+1 of term_n, weighted by Q[j-1, j], Q[j, j] and Q[j+1, j].  For
    Hermitian Q the unitarity defect max|M+M - 1| is measured once at build
    time (one banded product) and carried on the result; both certificates
    are enforced (certify).
    """
    dim = q.dim
    h = band_half_width(dim, cfg.N)
    width = 2 * h + 1
    term = np.zeros((dim, width), dtype=np.complex128)
    term[:, h] = 1.0
    m = term.copy()
    # A diverging series, or a Q whose entries overflowed, overflows on its
    # way; certify reports it once, as a last term that is not finite, so
    # the numpy warnings are only noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # [lo, d, up][i, k] = -i dt times Q[j-1, j], Q[j, j] and Q[j+1, j]
        # at slot j = i + k - h, zero outside Q (Q is symmetric off its
        # diagonal); rows made contiguous, so each window has unit stride
        scaled = np.pad((q.band * (-1j * cfg.dt)).T.copy(), ((0, 0), (h, h)))
        lo, d, up = sliding_window_view(scaled, width, axis=1)
        for n in range(1, cfg.N + 1):
            nxt = term * d
            nxt[:, 1:] += term[:, :-1] * lo[:, 1:]
            nxt[:, :-1] += term[:, 1:] * up[:, :-1]
            term = nxt / n
            m += term
        last = float(np.abs(term).max())
        defect = _unitarity_defect(m) if q.hermitian else None
    fp = propagator_fingerprint(q.params, q.trunc.P, cfg.N, cfg.dt)
    prop = StepPropagator(band=m, fingerprint=fp, dt=cfg.dt, N=cfg.N,
                          last_term_norm=last, unitarity_defect=defect)
    certify(prop, q, cfg)
    return prop


def certify(prop: CacheEntry, q: TransferMatrix, cfg: PropagatorConfig) -> None:
    """Refuse prop if a build certificate is above its bound for cfg.tol.

    The last Taylor term must be at most cfg.tol, and so must the bound
    on the terms left out (NotConverged).  With a = ||Q dt||_1 and
    r = a/(N+2), term N+j is term N times (Q dt)^j N!/(N+j)!, and
    ||T A||_max <= ||T||_max ||A||_1, so the tail sum_{k>N} (Q dt)^k/k!
    has max-norm at most last * (a/(N+1)) / (1 - r); for r >= 1 there is
    no bound, and prop is refused (Al-Mohy & Higham, SIAM J. Sci. Comput.
    33(2), 2011).  The unitarity defect must be at most UNITARITY_TOL, or
    cfg.tol when that is looser: accepting a truncation error of tol per
    step accepts about as much loss of unitarity (NotUnitary).  A tol of 1
    or more accepts a last term as large as the entries of a unitary M, so
    it certifies no defect, which is then only recorded.  The last term
    can be tiny while the defect is not: at large dt*|Q| the terms grow by
    many orders of magnitude before they shrink, and their cancellation
    loses the digits unitarity needs.  A certificate is a pure function of
    the fingerprint's inputs, so a cache hit is refused exactly when a
    rebuild would be.  An unknown certificate (None) passes.
    """
    last = prop.last_term_norm
    if last is not None:
        a = q.one_norm() * cfg.dt
        ratio = a / (cfg.N + 1)
        if not last <= cfg.tol:
            raise NotConverged(last, cfg.tol, cfg.dt, cfg.N, ratio)
        r = a / (cfg.N + 2)
        tail = last * ratio / (1.0 - r) if r < 1.0 else math.inf
        if not tail <= cfg.tol:
            raise NotConverged(last, cfg.tol, cfg.dt, cfg.N, ratio, tail)
    bound = math.inf if cfg.tol >= 1.0 else max(UNITARITY_TOL, cfg.tol)
    defect = prop.unitarity_defect
    if defect is not None and not defect <= bound:
        raise NotUnitary(defect, bound, cfg.dt, cfg.N)


def _unitarity_defect(band: np.ndarray) -> float:
    """max|M+M - 1| from the band of M, one diagonal of M+M at a time."""
    dim, width = band.shape
    h = width // 2
    # col[j, t] = M[j + t - h, j]: column j of M, top to bottom
    t = np.arange(width)
    padded = np.pad(band, ((h, h), (0, 0)))
    col = padded[np.arange(dim)[:, None] + t, width - 1 - t]
    worst = 0.0
    # (M+M)[j, j+o] = sum over rows r of conj(M[r, j]) M[r, j+o]; the
    # entries below the diagonal mirror these
    for o in range(min(width, dim)):
        g = (col[:dim - o, o:].conj() * col[o:, :width - o]).sum(axis=1)
        if o == 0:
            g -= 1.0
        worst = max(worst, float(np.abs(g).max()))
    return worst


def suggest_step(q: TransferMatrix, N: int = 30, tol: float = 1e-12) -> float:
    """Largest dt of the form 0.1/2^k whose remainder bound beats tol.

    The bound is the scalar ratio test on the 1-norm,
    (|Q|_1 dt)^(N+1) / (N+1)!, evaluated in log space.
    """
    if int(N) != N or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    a = q.one_norm()
    dt = MAX_STEP
    if a == 0.0:
        return dt
    log_tol = math.log(tol)
    for _ in range(200):
        bound = (N + 1) * math.log(a * dt) - math.lgamma(N + 2)
        if bound < log_tol:
            return dt
        dt /= 2.0
    raise RuntimeError("no acceptable dt found (parameters out of range)")


def _check_compatible(state_dim: int, prop: StepPropagator,
                      cfg: PropagatorConfig, q: TransferMatrix) -> None:
    if prop.dim != q.dim or state_dim != q.dim:
        raise ValueError(
            f"dimension mismatch: state {state_dim}, M {prop.dim}, Q {q.dim}")
    expected = propagator_fingerprint(q.params, q.trunc.P, cfg.N, cfg.dt)
    if prop.fingerprint != expected:
        raise ValueError(
            "propagator fingerprint does not match (Q, dt, N); it was built "
            "for different parameters")


def evolve(state: SpinorFockState, prop: StepPropagator, cfg: PropagatorConfig,
           q: TransferMatrix, *, snapshot_stride: int = 0) -> Trajectory:
    """Apply M step by step, recording every observable row including t=0.

    Steps use prop.step_band, M without its negligible outer diagonals
    (see StepPropagator).  The state is carried in chain order through a
    zero-padded block of BLOCK_ROWS states.  Each step is one banded
    matrix-vector product from one row of the block into the next: a
    sliding window over a row lines up the entries that each band row
    multiplies.  Only the band rows of the chains the initial state
    occupies are stepped (model.occupied_chains): M never couples the
    chains, so a chain that starts at exactly zero stays exactly zero, and
    a Fock state, which lies in one chain, costs half a two-chain state's
    products.  When the block is full its rows are measured together in
    one pass (TrajectoryBuilder.record: the observables and the energy,
    from |y|^2 formed once), and its last state is carried into row 0 of
    the next block.  Raises NonFiniteState with the first offending step
    index if amplitudes blow up; a block is scanned for them only when its
    norm2 column is not finite.
    """
    _check_compatible(state.vector.size, prop, cfg, q)
    if snapshot_stride < 0:
        raise ValueError("snapshot_stride must be >= 0")

    dim, width = prop.step_band.shape
    h, n = width // 2, dim // 2
    steps = int(cfg.steps)
    block = np.zeros((min(steps + 1, BLOCK_ROWS), dim + 2 * h), dtype=np.complex128)
    ys = block[:, h:h + dim]
    ys[0] = state.vector[q.order]
    chains = occupied_chains(ys[0])
    stepped = slice(chains.start * n, chains.stop * n)
    rows = prop.step_band[stepped, None, :]
    windows = list(sliding_window_view(block, width, axis=1)[:, stepped, :, None])
    outs = list(ys[:, stepped, None, None])

    times = np.arange(steps + 1) * cfg.dt
    builder = TrajectoryBuilder(state.P, steps + 1, snapshot_stride=snapshot_stride,
                                q=q)
    k0 = lo = 0  # step held in row 0; first row not yet recorded
    # Overflow on the way to a blow-up is reported once, via NonFiniteState;
    # the numpy warnings that precede it are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            n = min(len(outs), steps + 1 - k0)
            for j in range(1, n):
                np.matmul(rows, windows[j - 1], out=outs[j])
            y = ys[lo:n]
            norm2 = builder.record(k0 + lo, times[k0 + lo:k0 + n], y)
            # norm2 is finite unless an amplitude is not, or |y|^2 overflowed;
            # only then are the amplitudes themselves scanned
            if not np.isfinite(norm2).all():
                finite = np.isfinite(y).all(axis=1)
                if not finite.all():
                    raise NonFiniteState(k0 + lo + int(finite.argmin()))
            if k0 + n > steps:
                return builder.build()
            ys[0] = ys[n - 1]
            k0, lo = k0 + n - 1, 1


def evolve_reusing(states: list[SpinorFockState], prop: StepPropagator,
                   cfg: PropagatorConfig, q: TransferMatrix, *,
                   snapshot_stride: int = 0) -> list[Trajectory]:
    """Evolve several initial states with the one prebuilt M."""
    return [evolve(s, prop, cfg, q, snapshot_stride=snapshot_stride)
            for s in states]


def checkpoint_powers(prop: StepPropagator, count: int) -> list[np.ndarray]:
    """[M, M^2, M^4, ...] up to M^(2^(count-1)), by repeated squaring.

    M never couples the parity chains, so each power is kept as its two
    chain blocks: an array of shape (2, n, n), n = dim / 2, holding chain
    A's and chain B's block in chain order (see model.chain_order).  M's
    blocks are written straight from the band (model.chain_block); each
    squaring is one stacked product of both blocks.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    powers = [chain_block(prop.band.reshape(2, prop.dim // 2, -1))]
    for _ in range(count - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def jump(state: SpinorFockState, powers: list[np.ndarray], steps: int) -> SpinorFockState:
    """Advance by `steps` applications of M using the squared checkpoints.

    The state is carried in chain order through the chain blocks of
    checkpoint_powers and returned in the block layout.  A chain whose
    amplitudes are all exactly zero stays zero, so its block products are
    skipped.
    """
    if steps < 0 or steps >= 2 ** len(powers):
        raise ValueError(f"steps must lie in 0..{2 ** len(powers) - 1}")
    order = chain_order(state.P)
    y = state.vector[order].reshape(2, -1, 1)
    chains = occupied_chains(y)
    j = 0
    while steps:
        if steps & 1:
            y[chains] = powers[j][chains] @ y[chains]
        steps >>= 1
        j += 1
    out = np.empty(order.size, dtype=np.complex128)
    out[order] = y.ravel()
    return SpinorFockState.from_vector(out)
