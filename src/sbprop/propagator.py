"""Taylor-series step propagator and the per-step evolution loop.

M(dt) = sum_{n=0}^{N} (-i dt)^n / n! Q^n, accumulated with the running-term
recurrence term_{n+1} = term_n (-i dt/(n+1)) Q.  The max-norm of the last
included term is the convergence certificate; a build whose certificate
exceeds the tolerance is refused rather than silently degraded.  One M is
reused across every initial state and every step of a run.

Q is tridiagonal in chain order (see model), so Q^n has half-bandwidth n
and M has half-bandwidth h = min(N, P) there: it is held in band storage
band[i, k] = M[i, i + k - h] (chain slots), which makes the build
O(N^2 P) and each step O(N P).  The dense block-layout M is only built
for the cache payload and for callers that ask for `.matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cache import propagator_fingerprint
from .model import TransferMatrix, chain_order
from .states import SpinorFockState
from .trajectory import Trajectory, TrajectoryBuilder

__all__ = [
    "NotConverged",
    "NonFiniteState",
    "PropagatorConfig",
    "StepPropagator",
    "build_step_propagator",
    "suggest_step",
    "evolve",
    "evolve_reusing",
    "checkpoint_powers",
    "jump",
]

MAX_STEP = 0.1  # largest dt suggest_step will ever return


class NotConverged(RuntimeError):
    """Taylor series not converged at order N for this dt."""

    def __init__(self, last_term_norm: float, tol: float, dt: float, N: int,
                 ratio: float):
        self.last_term_norm = last_term_norm
        self.tol = tol
        self.dt = dt
        self.N = N
        # shrink dt by this factor and the last term lands at ~tol
        self.dt_reduction = (tol / last_term_norm) ** (1.0 / N)
        super().__init__(
            f"last Taylor term has max-norm {last_term_norm:.3e} > tol "
            f"{tol:.1e} at dt={dt} N={N} (term ratio ~{ratio:.3g}); "
            f"reduce dt by a factor <= {self.dt_reduction:.3g} or raise N"
        )


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


def _band_index(dim: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where band storage of half-width h sits in the dense block layout.

    Returns (inside, rows, cols): inside[i, k] marks the band cells that
    lie in the matrix and in the same chain as row i; rows/cols are the
    block-layout positions of those cells, in band[inside] order.
    """
    n = dim // 2
    i = np.arange(dim)[:, None]
    j = i + np.arange(-h, h + 1)
    inside = (j >= 0) & (j < dim) & ((i < n) == (j < n))
    order = chain_order(n - 1)
    return inside, np.broadcast_to(order[i], j.shape)[inside], order[j[inside]]


class StepPropagator:
    """M(dt) as its chain-order band, plus provenance and build certificates.

    Built either from the band (build_step_propagator) or from the dense
    block-layout matrix, as stored in the cache.  A dense matrix with any
    nonzero outside the band (across chains, or farther than N from the
    diagonal in chain order) is not a step propagator of this model and is
    refused with ValueError.

    last_term_norm / unitarity_defect are None when M was loaded from the
    cache (the certificate is a build-time statement; the payload itself is
    checksummed).
    """

    def __init__(self, matrix: np.ndarray | None = None, *, fingerprint: int,
                 dt: float, N: int, last_term_norm: float | None = None,
                 unitarity_defect: float | None = None,
                 band: np.ndarray | None = None):
        if (matrix is None) == (band is None):
            raise ValueError("give exactly one of matrix and band")
        if band is None:
            band = _band_from_dense(np.asarray(matrix), N)
        band.setflags(write=False)
        self.band = band
        self.fingerprint = fingerprint
        self.dt = dt
        self.N = N
        self.last_term_norm = last_term_norm
        self.unitarity_defect = unitarity_defect

    @property
    def dim(self) -> int:
        return self.band.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense M in the block layout, built on every access."""
        inside, rows, cols = _band_index(self.dim, self.band.shape[1] // 2)
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        m[rows, cols] = self.band[inside]
        m.setflags(write=False)
        return m


def _band_from_dense(m: np.ndarray, N: int) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"expected a square matrix of even dimension, got {m.shape}")
    dim = m.shape[0]
    h = min(N, dim // 2 - 1)
    inside, rows, cols = _band_index(dim, h)
    band = np.zeros(inside.shape, dtype=np.complex128)
    band[inside] = m[rows, cols]
    # the gathered cells are distinct entries of m, so equal counts mean
    # every entry left out is exactly zero
    if np.count_nonzero(band) != np.count_nonzero(m):
        raise ValueError("matrix has nonzero entries outside the parity-chain band")
    return band


def build_step_propagator(q: TransferMatrix, cfg: PropagatorConfig) -> StepPropagator:
    """Accumulate M to order N in band storage and certify the truncation.

    term_n Q is formed in band storage: its column j mixes columns j-1, j
    and j+1 of term_n, weighted by Q[j-1, j], Q[j, j] and Q[j+1, j].  For
    Hermitian Q the unitarity defect max|M+M - 1| is measured once at build
    time (one banded product) and carried on the result.
    """
    dim = q.dim
    h = min(cfg.N, q.trunc.P)
    width = 2 * h + 1

    def windows(values: np.ndarray, shift: int) -> np.ndarray:
        # out[i, k] = values[i + k - h - shift], zero outside values
        padded = np.zeros(dim + 2 * h, dtype=np.complex128)
        padded[h + shift:h + shift + values.size] = values
        return sliding_window_view(padded, width)

    scale = -1j * cfg.dt
    d = windows(q.diag * scale, 0)      # Q[j, j]
    lo = windows(q.off * scale, 1)      # Q[j-1, j]
    up = windows(q.off * scale, 0)      # Q[j+1, j]

    term = np.zeros((dim, width), dtype=np.complex128)
    term[:, h] = 1.0
    m = term.copy()
    for n in range(1, cfg.N + 1):
        nxt = term * d
        nxt[:, 1:] += term[:, :-1] * lo[:, 1:]
        nxt[:, :-1] += term[:, 1:] * up[:, :-1]
        term = nxt / n
        m += term
    last = float(np.abs(term).max())
    if not math.isfinite(last) or last > cfg.tol:
        ratio = q.one_norm() * cfg.dt / (cfg.N + 1)
        raise NotConverged(last, cfg.tol, cfg.dt, cfg.N, ratio)

    defect = _unitarity_defect(m) if q.hermitian else None
    fp = propagator_fingerprint(q.params, q.trunc.P, cfg.N, cfg.dt)
    return StepPropagator(band=m, fingerprint=fp, dt=cfg.dt, N=cfg.N,
                          last_term_norm=last, unitarity_defect=defect)


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

    The state is carried in chain order.  Each step is one banded
    matrix-vector product: two zero-padded buffers take turns holding the
    state, and a sliding window over one lines up the entries that each
    band row multiplies.  The energy column is the tridiagonal quadratic
    form of Q.  Raises NonFiniteState with the offending step index if
    amplitudes blow up.
    """
    _check_compatible(state.vector.size, prop, cfg, q)
    if snapshot_stride < 0:
        raise ValueError("snapshot_stride must be >= 0")

    dim, width = prop.band.shape
    h = width // 2
    rows = prop.band[:, None, :]
    bufs = [np.zeros(dim + 2 * h, dtype=np.complex128) for _ in range(2)]
    windows = [sliding_window_view(b, width)[:, :, None] for b in bufs]
    ys = [b[h:h + dim] for b in bufs]
    outs = [y.reshape(dim, 1, 1) for y in ys]
    ys[0][:] = state.vector[q.order]

    steps = int(cfg.steps)
    builder = TrajectoryBuilder(state.P, steps + 1,
                                snapshot_stride=snapshot_stride, order=q.order)
    # Overflow on the way to a blow-up is reported once, via NonFiniteState;
    # the numpy warnings that precede it are just noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            y = ys[k % 2]
            if not np.isfinite(y).all():
                raise NonFiniteState(k)
            builder.record(k, k * cfg.dt, y, q.energy(y))
            if k < steps:
                np.matmul(rows, windows[k % 2], out=outs[1 - k % 2])
    return builder.build()


def evolve_reusing(states: list[SpinorFockState], prop: StepPropagator,
                   cfg: PropagatorConfig, q: TransferMatrix, *,
                   snapshot_stride: int = 0) -> list[Trajectory]:
    """Evolve several initial states with the one prebuilt M."""
    return [evolve(s, prop, cfg, q, snapshot_stride=snapshot_stride)
            for s in states]


def checkpoint_powers(prop: StepPropagator, count: int) -> list[np.ndarray]:
    """[M, M^2, M^4, ...] up to M^(2^(count-1)), by repeated squaring."""
    if count < 1:
        raise ValueError("count must be >= 1")
    powers = [prop.matrix]
    for _ in range(count - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def jump(state: SpinorFockState, powers: list[np.ndarray], steps: int) -> SpinorFockState:
    """Advance by `steps` applications of M using the squared checkpoints."""
    if steps < 0 or steps >= 2 ** len(powers):
        raise ValueError(f"steps must lie in 0..{2 ** len(powers) - 1}")
    y = state.vector
    j = 0
    while steps:
        if steps & 1:
            y = powers[j] @ y
        steps >>= 1
        j += 1
    return SpinorFockState.from_vector(y)
