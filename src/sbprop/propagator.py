"""Taylor-series step propagator and the per-step evolution loop.

M(dt) = sum_{n=0}^{N} (-i dt)^n / n! Q^n, accumulated with the running-term
recurrence term_{n+1} = term_n (-i dt/(n+1)) Q.  For Hermitian Q, whose
entries are real, term n is i^n times a real band, and the build runs
the recurrence over the reals, with the bits of the complex one; for
dissipative Q it runs it over the complex numbers.  The max-norm of the last
included term and, for Hermitian Q, the unitarity defect of the band
evolve steps with are the build certificates; `certify` refuses a
propagator whose certificates exceed the bounds for the requested
tolerance rather than silently degrading, on a fresh build and on a cache
hit alike.  One propagator is built once, stored once and reused across
every initial state and every step of a run, as one record:
cache.CacheEntry, named StepPropagator here, which build_step_propagator
returns, the cache stores and hands back, and evolve and advance step.

Q is tridiagonal in chain order (see model), so Q^n has half-bandwidth n
and M has half-bandwidth h = min(N, P) there: the build holds it in band
storage band[i, k] = M[i, i + k - h] (chain slots), which makes the build
O(N^2 P).  The build works diagonal-major, one contiguous row per
diagonal, and term n only on its own diagonals h-n..h+n.  The outer
diagonals of M fall below double precision long before h, so the build
keeps only the narrower band, half-width w, that holds every entry above
eps * max|M|, and drops the rest at once.  That band is the propagator:
evolve steps with it, O(w P) per step, as dense panels gathered from it
once per run (_panels), the cache stores it, and the unitarity defect is
measured over it, in long contiguous passes over its columns: O(w) array
operations, each over O(w P) entries.  The dense block-layout form is
only built for callers that ask for `.matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cache import CacheEntry, propagator_fingerprint
from .model import TransferMatrix, band_half_width, occupied_chains, small_ufunc_buffer
from .states import SpinorFockState
from .trajectory import BLOCK_ROWS, Trajectory

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
    "advance",
]

MAX_STEP = 0.1  # largest dt suggest_step will ever return
# Largest unitarity defect max|M+M - 1| a Hermitian propagator may carry
# at the default last-term tolerance (see certify).
UNITARITY_TOL = 1e-9
# Consecutive band rows of one chain that evolve applies as one dense
# panel (see _panels): one BLAS call per TILE_ROWS rows, at
# (TILE_ROWS + 2w) / (2w + 1) times the flops of one call per row.
TILE_ROWS = 8
# While a chain fills, the step kernel sets its float parts below this to
# zero (see _stepped_blocks): the smallest magnitude whose square is a
# normal double.
FLUSH_BELOW = 2.0 ** -511


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
    """A Hermitian propagator too far from unitary: S+S - 1 is above the
    bound in max-norm, S the band of M that evolve steps with."""

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


# the propagator record: one class under two names (see cache.CacheEntry)
StepPropagator = CacheEntry


def _panels(band: np.ndarray, chains: slice = slice(0, 2)) -> np.ndarray:
    """The given chains' band rows as (chains, tiles, T, T + 2w) dense
    panels, T = TILE_ROWS.

    Panel t of chain c holds the chain's band rows tT .. tT + T - 1, row i
    shifted right by i, so that its columns meet the chain-local slots
    tT - w .. tT + T - 1 + w.  Each chain's rows are padded with zero rows
    to tiles * T, so no panel straddles the two chains and the corners and
    the padding rows are exact zeros.  Only the chains asked for are
    gathered.
    """
    dim, width = band.shape
    n = dim // 2
    tiles = -(-n // TILE_ROWS)
    chain_rows = band.reshape(2, n, width)[chains]
    rows = np.zeros((len(chain_rows), tiles * TILE_ROWS, width), dtype=np.complex128)
    rows[:, :n] = chain_rows
    panels = np.zeros((len(chain_rows), tiles, TILE_ROWS, TILE_ROWS + width - 1),
                      dtype=np.complex128)
    for i in range(TILE_ROWS):
        panels[:, :, i, i:i + width] = rows[:, i::TILE_ROWS]
    return panels


def _trim(band: np.ndarray) -> tuple[np.ndarray, float]:
    """The central slice of band out to its last significant diagonal,
    and the largest row 1-norm of what it leaves out."""
    h = band.shape[1] // 2
    mag = np.abs(band)
    significant = np.nonzero(mag.max(axis=0) > np.finfo(float).eps * mag.max())[0]
    w = int(np.abs(significant - h).max()) if significant.size else 0
    dropped = mag[:, :h - w].sum(axis=1) + mag[:, h + w + 1:].sum(axis=1)
    kept = np.ascontiguousarray(band[:, h - w:h + w + 1])
    kept.setflags(write=False)
    return kept, float(dropped.max(initial=0.0))


def build_step_propagator(q: TransferMatrix, cfg: PropagatorConfig) -> StepPropagator:
    """Accumulate M to order N in band storage and certify the truncation.

    The terms and M are held diagonal-major, one contiguous row per
    diagonal: term[k, i] = term_n[i, i + k - h].  Row k of term_n Q mixes
    rows k-1, k and k+1 of term_n, weighted by Q[j-1, j], Q[j, j] and
    Q[j+1, j] at slot j = i + k - h.  term_n is zero outside diagonals
    h-n..h+n, so order n works on those rows alone; the others stay zero.

    The field is chosen once, from q.hermitian, and one loop body serves
    both.  Dissipative Q runs it over the complex numbers, with the factor
    rows -i dt Q.  Hermitian Q runs it over the reals, with the factor
    rows -dt Q: term n is i^n times a real band, and the loop holds the
    one part of it that is not zero, the real part for even n and the
    imaginary part for odd n, with the sign of i^n, and adds it to that
    part of M, held as its real and imaginary parts; from an odd order to
    an even one the factor i * i = -1 rides on the scale, -1/n.  These are
    the complex loop's bits: there a phase-pure term times a purely
    imaginary factor row, or times the complex 1/n + 0j, reduces in each
    part to one real product plus or minus a * 0, which is an exact zero
    (numpy's fused complex multiply included), and the sums go part by
    part, so every entry that is not zero, the band, the last term and
    the certificates are the same floats, and the terms take half the
    bytes.  Only a term that has overflowed parts them: the complex loop
    meets 0 * inf = nan where the real one keeps +-inf, which turns to
    nan too once it meets a zero factor or an infinity of the other sign.
    At P = 0 the band is one diagonal and no term meets either, so a
    diverging series there reports a last term of inf, not nan.
    The division by n is a multiplication by 1/n (the complex 1/n + 0j
    for dissipative Q), which numpy's division by n + 0j also forms, so
    every nonzero entry has the bits a division gives; only the sign of a
    zero can differ, and M never holds a -0.

    M is assembled into the complex row-major band once, at the end,
    and cut to the step band S that evolve applies (_trim); the result
    holds S alone, and the rest of M is freed.  For Hermitian Q the
    unitarity defect max|S+S - 1| is then measured once
    (_unitarity_defect) and carried on the result; both certificates are
    enforced (certify).  The loop and the defect run under
    model.small_ufunc_buffer: their operands are strided windows, and
    numpy's default buffers for them cost more than they save.
    """
    dim = q.dim
    h = band_half_width(dim, cfg.N)
    width = 2 * h + 1
    real = q.hermitian
    term = np.zeros((width, dim), dtype=float if real else np.complex128)
    term[h] = 1.0
    nxt = np.empty_like(term)
    tmp = np.empty_like(term)
    # M, held as its real and imaginary parts for Hermitian Q; term n adds
    # to parts[n % 2], and its scale carries signs[n % 2]
    m = np.zeros((2, width, dim)) if real else np.zeros_like(term)
    parts, signs = ((m[0], m[1]), (-1.0, 1.0)) if real else ((m, m), (1.0, 1.0))
    parts[0][h] = 1.0
    # A diverging series, or a Q whose entries overflowed, overflows on its
    # way; certify reports it once, as a last term that is not finite, so
    # the numpy warnings are only noise.
    with small_ufunc_buffer(), np.errstate(over="ignore", invalid="ignore"):
        # [lo, d, up][k, i] = -dt (Hermitian Q) or -i dt times Q[j-1, j],
        # Q[j, j] and Q[j+1, j] at slot j = i + k - h, zero outside Q (Q is
        # symmetric off its diagonal): views of the padded rows, each row
        # contiguous
        scaled = q.band.real * -cfg.dt if real else q.band * (-1j * cfg.dt)
        scaled = np.pad(scaled.T.copy(), ((0, 0), (h, h)))
        lo, d, up = sliding_window_view(scaled, dim, axis=1)
        for n in range(1, cfg.N + 1):
            # term_n lives in rows a..b-1; row 0 has no row k-1 to mix
            # in, and row 2h no row k+1
            a, b = max(h - n, 0), min(h + n, 2 * h) + 1
            np.multiply(term[a:b], d[a:b], out=nxt[a:b])
            a1, b1 = max(a, 1), min(b, 2 * h)
            np.multiply(term[a1 - 1:b - 1], lo[a1:b], out=tmp[a1:b])
            nxt[a1:b] += tmp[a1:b]
            np.multiply(term[a + 1:b1 + 1], up[a:b1], out=tmp[a:b1])
            nxt[a:b1] += tmp[a:b1]
            np.multiply(nxt[a:b], signs[n % 2] / n, out=term[a:b])
            parts[n % 2][a:b] += term[a:b]
        last = float(np.abs(term).max())
        # freed before the defect measurement allocates its own buffers
        del term, nxt, tmp, parts
        if real:
            band = np.empty((dim, width), dtype=np.complex128)
            band.real, band.imag = m[0].T, m[1].T
        else:
            band = np.ascontiguousarray(m.T)
        del m
        band, dropped = _trim(band)
        fp = propagator_fingerprint(q.params, q.trunc.P, cfg.N, cfg.dt)
        prop = StepPropagator(fp, dim, cfg.N, cfg.dt, band=band,
                              last_term_norm=last, dropped_norm=dropped)
        if q.hermitian:
            prop.unitarity_defect = _unitarity_defect(prop.band)
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
    33(2), 2011).  The unitarity defect, max|S+S - 1| over the step band S
    that evolve applies, must be at most UNITARITY_TOL, or cfg.tol when
    that is looser: accepting a truncation error of tol per step accepts
    about as much loss of unitarity (NotUnitary).  It certifies all of M
    as well: M+M - S+S is S+D + D+S + D+D for the dropped diagonals D,
    whose entries lie below eps * max|M|, so the two defects differ by at
    most 2(h - w) dropped_norm (2 max|M| + dropped_norm): 1.3e-14 or less
    on the shipped configs, far below any bound.  A tol of 1
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
    """max|M+M - 1| from the band of M, one diagonal of M+M at a time.

    M is whatever operator the band holds; the build passes its step band
    S (see build_step_propagator).  M's columns are copied once, one
    strided slice of the band per row t, into col[t, j] = M[j + t - h, j],
    zero outside M.  (M+M)[j, j+o] = sum over t >= o of conj(col[t, j])
    col[t - o, j + o], so offset o is one product of two 2D slices of
    col, summed over t in row order.  The entries below the diagonal
    mirror these.
    """
    dim, width = band.shape
    h = width // 2
    col = np.zeros((width, dim), dtype=np.complex128)
    for t in range(width):
        lo, hi = max(h - t, 0), min(dim + h - t, dim)
        col[t, lo:hi] = band[lo + t - h:hi + t - h, width - 1 - t]
    conj = np.conjugate(col)
    worst = 0.0
    for o in range(min(width, dim)):
        g = (conj[o:, :dim - o] * col[:width - o, o:]).sum(axis=0)
        if o == 0:
            # the diagonal is a sum of |M[r, j]|^2, real; the imaginary
            # part of conj(m) m is re*im - im*re, which a fused
            # multiply-add leaves as the rounding error of one product
            g = g.real - 1.0
        worst = max(worst, float(np.abs(g).max()))
    return worst


def suggest_step(q: TransferMatrix, N: int = PropagatorConfig.N,
                 tol: float = PropagatorConfig.tol) -> float:
    """Largest dt of the form 0.1/2^k whose remainder bound beats tol.

    The bound is the scalar ratio test on the 1-norm,
    (|Q|_1 dt)^(N+1) / (N+1)!, evaluated in log space.  It bounds term
    N+1, while certify checks term N, so the build at this dt can still
    be refused by a hair (the CLI then retries once at a smaller dt).
    """
    if int(N) != N or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    a = q.one_norm()
    dt = MAX_STEP
    # the bound is 0 where |Q|_1 dt is: Q = 0, or so small that the
    # product underflows (gamma = 5e-324 at P = 0), which has no logarithm
    if a * dt == 0.0:
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


def _stepped_blocks(state: SpinorFockState, prop: StepPropagator,
                   cfg: PropagatorConfig, q: TransferMatrix):
    """Step state cfg.steps times with M; yield (k, ys, chains) per block.

    ys is a (rows, 2, n) view of the chain-order states of steps k, k+1,
    ..., a chain per middle index, each chain's slots contiguous; chains
    is the slice of chains stepped.  The view is only valid until the next
    iteration.  Every step is yielded once, step 0 in the first block.

    Steps use prop.band, M without its negligible outer diagonals (see
    cache.CacheEntry), as its dense panels of TILE_ROWS rows, gathered
    once per run (_panels).  The state is carried through a block of
    BLOCK_ROWS states; in each, a chain's slots are padded with zeros to
    a whole number of panels and by w zero slots on either side, so each
    panel multiplies a window of its own chain alone.  A step is one
    stacked matrix-vector product, one panel by one window each, from
    one row of the block into the next.  Only the chains the initial
    state occupies are stepped (model.occupied_chains): M never couples
    the chains, so a chain that starts at exactly zero stays exactly
    zero, and a Fock state, which lies in one chain, costs half a
    two-chain state's products.  A stepped chain's bits do not depend on
    whether the other is stepped.  When a block has been yielded, its
    last state is carried into row 0 of the next.

    A block whose last state holds an amplitude that is not finite is not
    yielded: NonFiniteState names the first of its steps whose amplitudes
    are not finite.  An amplitude that is not finite never becomes finite
    again under M (a product with inf or NaN, even by an exact zero, is
    not finite), so the last state of a block is the one checked.  A run
    that blows up overflows on its way; each block's products run under
    an np.errstate of their own, left before the block is yielded, so
    that it is reported once, as NonFiniteState, and the caller's code
    runs under the caller's own error state.

    While a chain fills, its parts are flushed (_flush): a stepped chain
    whose carried first state holds a float part below FLUSH_BELOW (an
    exact zero counts) starts its block under the rule, and after each
    of that block's steps the chain's parts below FLUSH_BELOW are set to
    zero, until a step leaves no such part, or leaves exactly the zero
    parts its input had (structural zeros, as from a photon-conserving
    Fock start).  Every part kept squares, and forms the off-diagonal
    energy product, without going subnormal; every part flushed had
    |y|^2 < 2^-1022, below anything a row reports; each flush moves the
    state by less than FLUSH_BELOW sqrt(2n) in the 2-norm, and M, unitary
    or a contraction, adds those moves up at most linearly.  A NaN or an
    infinity is never below FLUSH_BELOW.  The check of the carried state
    is the finiteness check of the block's last state: one abs of its
    parts, then their max and, per chain, their min.
    """
    steps = int(cfg.steps)
    dim, width = prop.band.shape
    w, n = width // 2, dim // 2
    y0 = state.vector[q.order]
    chains = occupied_chains(y0)
    panels = _panels(prop.band, chains)
    tiles, tile, span = panels.shape[1:]
    block = np.zeros((min(steps + 1, BLOCK_ROWS), 2, tiles * tile + 2 * w),
                     dtype=np.complex128)
    ys = block[:, :, w:w + n]
    ys[0] = y0.reshape(2, n)
    windows = list(sliding_window_view(block, span, axis=2)[:, chains, ::tile, :, None])
    outs = list(block[:, chains, w:w + tiles * tile].reshape(
        block.shape[0], -1, tiles, tile, 1))
    # the float parts of the stepped chains, per row; mag holds the
    # magnitudes of row 0's at the top of each block
    parts = ys[:, chains].view(np.float64)
    mag = np.abs(parts[0])
    small, zeros = np.empty((2, parts.shape[2]), dtype=bool)

    k0 = lo = 0  # step held in row 0; first row not yet yielded
    while True:
        flush = [least < FLUSH_BELOW for least in mag.min(axis=1).tolist()]
        rows = min(len(outs), steps + 1 - k0)
        j = 1
        with np.errstate(over="ignore", invalid="ignore"):
            while j < rows and any(flush):
                np.matmul(panels, windows[j - 1], out=outs[j])
                for c, on in enumerate(flush):
                    if on:
                        flush[c] = _flush(parts[j, c], parts[j - 1, c], mag[c], small, zeros)
                j += 1
            for j in range(j, rows):
                np.matmul(panels, windows[j - 1], out=outs[j])
        np.abs(parts[rows - 1], out=mag)
        if not mag.max() < math.inf:
            finite = np.isfinite(ys[lo:rows]).all(axis=(1, 2))
            raise NonFiniteState(k0 + lo + int(finite.argmin()))
        yield k0 + lo, ys[lo:rows], chains
        if k0 + rows > steps:
            return
        block[0] = block[rows - 1]
        k0, lo = k0 + rows - 1, 1


def _flush(y: np.ndarray, x: np.ndarray, mag: np.ndarray, small: np.ndarray,
           zeros: np.ndarray) -> bool:
    """Set the float parts of y, one chain's state after a step from x,
    that lie below FLUSH_BELOW to zero; whether the rule goes on: y had
    such a part, and the zero parts the step left were not exactly x's.
    mag, small and zeros are buffers of y's size."""
    np.abs(y, out=mag)
    np.less(mag, FLUSH_BELOW, out=small)
    if not np.count_nonzero(small):
        return False
    np.equal(mag, 0.0, out=zeros)
    go_on = zeros.tobytes() != (x == 0.0).tobytes()
    np.putmask(y, small, 0.0)
    return go_on


def evolve(state: SpinorFockState, prop: StepPropagator, cfg: PropagatorConfig,
           q: TransferMatrix, *, record: Trajectory | None = None) -> Trajectory:
    """Apply M step by step, recording every observable row including t=0.

    The states come from the one step kernel (_stepped_blocks, shared with
    advance), a block of up to BLOCK_ROWS at a time; each block's rows are
    measured together in one pass (Trajectory.record: the observables and
    the energy, over the stepped chains).  The kernel raises
    NonFiniteState with the first offending step index if amplitudes blow
    up; finite amplitudes whose |y|^2 overflows are recorded, not
    refused.  Each silences the overflow of its own arithmetic, so
    neither warns.

    The rows are recorded into record, a Trajectory(q, cfg.steps + 1),
    which a caller can allocate before it builds M; when None, evolve
    makes one.  The record it filled is returned.
    """
    _check_compatible(state.vector.size, prop, cfg, q)
    steps = int(cfg.steps)
    if record is None:
        record = Trajectory(q, steps + 1)
    elif len(record) != steps + 1 or record.q is not q:
        raise ValueError(f"record must hold cfg.steps + 1 = {steps + 1} rows "
                         "and measure with this q")
    for k, ys, chains in _stepped_blocks(state, prop, cfg, q):
        record.record(k, np.arange(k, k + len(ys)) * cfg.dt, ys, chains=chains)
    return record


def advance(state: SpinorFockState, prop: StepPropagator, cfg: PropagatorConfig,
            q: TransferMatrix) -> SpinorFockState:
    """The state after cfg.steps applications of M, bit for bit evolve's.

    It comes from evolve's step kernel (_stepped_blocks), which raises
    NonFiniteState at the step it raises it for evolve, and holds one
    block of states, not a record of the run.
    """
    _check_compatible(state.vector.size, prop, cfg, q)
    for _, ys, _ in _stepped_blocks(state, prop, cfg, q):
        pass
    out = np.empty(q.dim, dtype=np.complex128)
    out[q.order] = ys[-1].ravel()
    return SpinorFockState.from_vector(out)


def evolve_reusing(states: list[SpinorFockState], prop: StepPropagator,
                   cfg: PropagatorConfig, q: TransferMatrix) -> list[Trajectory]:
    """Evolve several initial states with the one prebuilt M."""
    return [evolve(s, prop, cfg, q) for s in states]
