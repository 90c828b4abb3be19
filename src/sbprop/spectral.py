"""Eigendecomposition reference evolver, lowest levels and ground-state
truncation scans.

This is the independent cross-check route: diagonalize the (real
symmetric) transfer matrix once, expand the initial state over the
eigenbasis and attach exact phase factors exp(-i E_j t).  Q never couples
the two parity chains, so each chain is diagonalized on its own, as a
half-size tridiagonal matrix.  Dissipative matrices are refused here by
design; that regime belongs to the Taylor route alone.

diagonalize is the one route to LAPACK: one eigh per chain, on the dense
block written from Q's band rows (model.chain_block).  No other dense
block is formed: diagonalize measures its residual through the
tridiagonal chains themselves.

`spectrum` and the ground-state scan need eigenvalues only, and take them
from Sturm counts alone: the number of negative LDL^T pivots of a chain
minus x is the number of its eigenvalues below x (Sylvester inertia;
Demmel, Applied Numerical Linear Algebra, 1997, section 5.3.4).  A
chain's entries do not depend on P, so the chain at cutoff P is the
leading (P+1)-block of the chain at the largest cutoff, and the pivots of
that block are the first P+1 pivots of the big chain.  One Sturm-count
sweep over the big chain therefore answers "is x above level j?" for
every cutoff and every level at once (Barth, Martin & Wilkinson, Numer.
Math. 9, 1967).  One level routine, _chain_levels, serves both: it
brackets every (chain, block, level) pair by one rule and runs one
multisection, _multisection, over all of them.  Each multisection
sweep probes PROBES shifts per bracket and also returns det(T - x) of
every block, which steers where the next probes go.  Placement decides
only where counts are taken: brackets move on counts alone.  In IEEE
arithmetic the count is monotone in the shift (Demmel, Dhillon & Ren,
ETNA 3, 1995), so any probe sequence that stops only where no float lies
strictly inside a bracket ends on the float a one-shift bisection ends
on, and no certificate is needed.  Every count goes through one engine,
_sturm_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import (ModelParams, TransferMatrix, Truncation, build_transfer_matrix,
                    chain_block, occupied_chains, small_ufunc_buffer)
from .states import SpinorFockState
from .trajectory import BLOCK_ROWS, Trajectory, TrajectoryBuilder

__all__ = [
    "NonHermitianInput",
    "SpectralDecomposition",
    "GsScanResult",
    "diagonalize",
    "lowest_energies",
    "teee_evolve",
    "gs_scan",
]

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
CONVERGED_RTOL = 1e-8     # convergence test between P_max and midpoint
PLATEAU_RTOL = 1e-6       # plateau detection (diagnostic, looser on purpose)
# Pivot rows one Sturm sweep holds at once.  Their negatives are counted
# whenever the ring is full; a larger ring only adds memory.
SWEEP_ROWS = 8
# Shifts one multisection sweep probes inside each bracket.
PROBES = 7
# A det sweep moves its mantissa's exponent out every RENORM_BLOCKS ring
# blocks: the product of that many blocks' pivots stays inside a double
# unless a leading minor is near zero, and a det out of range only costs
# the multisection sweeps, never bits.
RENORM_BLOCKS = 4
# _scaled_chains keeps its scaled entries below 2^SCALE_ROOM: their
# squares, and sums of up to 2^20 of those, stay finite.
SCALE_ROOM = 500
NON_FINITE = "eigensolver returned non-finite energies"


class NonHermitianInput(ValueError):
    """Spectral routines only accept dissipation-free matrices."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and each parity chain's orthonormal eigenpairs.

    chain_energies[c] (ascending) and the columns of chain_vectors[c] are
    the eigenpairs of chain c in chain order (c = 0 for chain A, 1 for
    chain B; see model.chain_order).  energies is their stable-sorted
    concatenation, and q the matrix they decompose.
    """

    energies: np.ndarray
    chain_energies: np.ndarray = field(repr=False)
    chain_vectors: np.ndarray = field(repr=False)
    residual: float
    ortho_defect: float
    q: TransferMatrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.energies.size


def _scaled_chains(q: TransferMatrix) -> tuple[np.ndarray, np.ndarray, int]:
    """The chains of Q / 2^e, and e, for Q with finite entries: a[c, i] is
    the entry at slot i of chain c, b[c, i] the coupling of its slots i
    and i+1.

    e is at most the exponent that puts max|a| + max|b| in [2^(e-2), 2^e),
    which leaves the scaled entries below 1, so that b^2 cannot overflow.
    It is lowered, to 0 at the least, where dividing by that 2^e would
    take a nonzero entry into the subnormal range or deeper into it, but
    by at most SCALE_ROOM: the scaled entries stay below 2^SCALE_ROOM.
    Where the scaled entries keep every bit, scaling by a power of two
    commutes with every rounding, so arithmetic on the scaled chains gives
    the unscaled floats times 2^-e wherever the unscaled arithmetic stays
    in range.
    """
    n = q.trunc.P + 1
    a, b = q.diag.real.reshape(2, n), np.stack([q.off[:n - 1], q.off[n:]])
    mags = np.abs(np.concatenate([q.diag.real, q.off]))
    # the halves, so that the sum stays finite; halving is exact
    top = int(np.frexp(mags[:q.dim].max() / 2 + mags[q.dim:].max() / 2)[1]) + 1
    # x / 2^e is normal for every nonzero x exactly when e <= exact
    least = mags[mags > 0].min(initial=np.inf)
    exact = max(int(np.frexp(least)[1]) - np.finfo(float).minexp - 1, 0)
    e = min(top, max(exact, top - SCALE_ROOM))
    return np.ldexp(a, -e), np.ldexp(b, -e), e


def diagonalize(q: TransferMatrix) -> SpectralDecomposition:
    """Full real-symmetric eigendecomposition with verified quality.

    One half-size eigh per parity chain, on the chain's dense block,
    written from its rows of q.band (model.chain_block), handed to LAPACK
    once and dropped before the next is written; the eigenpairs are kept
    per chain, in chain order.  Q must be Hermitian and finite
    (_require_hermitian), and every energy must be finite; the residual
    max_j ||Q v_j - E_j v_j|| and the orthonormality defect ||V^T V -
    1||_max are measured on every call and enforced at 1e-10 (scaled by 1
    + max|E| for the residual); a refusal is a RuntimeError.
    The residual is measured on Q / 2^e (_scaled_chains), so its squares
    cannot overflow where the energies are finite, and through the
    tridiagonal chain itself: a v - v E plus b v shifted up and down a
    slot, so no dense block is formed for it.  Vectors of different
    chains are orthogonal exactly, so both are measured per chain.
    """
    _require_hermitian(q)
    n = q.dim // 2
    chain_energies = np.empty((2, n))
    chain_vectors = np.empty((2, n, n))
    for c, rows in enumerate(q.band.real.reshape(2, n, -1)):
        chain_energies[c], chain_vectors[c] = np.linalg.eigh(chain_block(rows))
    energies = np.sort(chain_energies, axis=None, kind="stable")
    if not np.isfinite(energies).all():
        raise RuntimeError(NON_FINITE)

    a, b, e = _scaled_chains(q)
    residual = ortho = 0.0
    # the checks of both chains reuse two n x n buffers, so that they hold
    # two chain blocks beside chain_vectors
    r, g = np.empty((2, n, n))
    for c, v in enumerate(chain_vectors):
        np.multiply(a[c, :, None], v, out=r)
        r -= np.multiply(v, np.ldexp(chain_energies[c], -e), out=g)
        r[1:] += np.multiply(b[c, :, None], v[:-1], out=g[1:])
        r[:-1] += np.multiply(b[c, :, None], v[1:], out=g[:-1])
        residual = max(residual, float(np.sqrt(np.square(r, out=r).sum(axis=0)).max()))
        np.matmul(v.T, v, out=g)
        g.ravel()[::n + 1] -= 1.0
        ortho = max(ortho, float(np.abs(g, out=g).max()))
    bound = np.ldexp(RESIDUAL_TOL * (1.0 + float(np.abs(energies).max())), -e)
    with np.errstate(over="ignore"):    # only a refused residual can overflow
        unscaled = float(np.ldexp(residual, e))
    # `not x <= bound`, so that a NaN fails the check
    if not residual <= bound:
        raise RuntimeError(f"eigensolver residual {unscaled:.3e} above bound")
    if not ortho <= ORTHO_TOL:
        raise RuntimeError(f"eigenvector orthonormality defect {ortho:.3e}")
    return SpectralDecomposition(energies=energies, chain_energies=chain_energies,
                                 chain_vectors=chain_vectors,
                                 residual=unscaled, ortho_defect=ortho, q=q)


def lowest_energies(q: TransferMatrix, count: int) -> np.ndarray:
    """The count + 1 lowest energies of Q, ascending, without eigenvectors.

    Levels 0..count of each parity chain (as many as it has) come from
    _chain_levels over each whole chain, and the two chains' levels are
    stable-sorted together, as in diagonalize.  Level j of a chain is the
    largest float at which the chain minus that float has at most j
    negative pivots: the float a one-shift bisection on Sturm counts ends
    on, at or just below the exact eigenvalue.  No block is formed and no
    LAPACK call is made, so the bits depend on IEEE arithmetic alone.  Q
    must be Hermitian and finite (_require_hermitian), and an energy that
    overflows a double is a RuntimeError.
    """
    _check_count(count, q.dim - 1)
    n = q.dim // 2
    levels = np.arange(min(int(count), n - 1) + 1)
    found = _chain_levels(q, np.full(levels.size, n), levels)
    energies = np.sort(found, axis=None, kind="stable")[:int(count) + 1]
    if not np.isfinite(energies).all():
        raise RuntimeError(NON_FINITE)
    return energies


def _chain_levels(q: TransferMatrix, lengths: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Level levels[s] of the leading block of lengths[s] slots of each
    parity chain of Q, for every column s, as a (2, m) array: the largest
    float x at which the block minus x has at most levels[s] negative
    pivots.  lengths must be non-increasing (_sturm_sweep).

    Q must be Hermitian and finite (_require_hermitian).  Its chains are
    scaled once (_scaled_chains), every (chain, block, level) pair is
    bracketed by one rule and found by one _multisection, and the levels
    are scaled back; one that overflows a double comes back infinite.  The
    bracket is the block's Gershgorin interval, where the block's last row
    has only its left neighbour; at level 0 its upper end is capped by the
    block's smallest diagonal, which bounds the level by the Rayleigh
    quotient.  Both ends are then widened by 2^-40 (max|a| + 2 max|b|):
    far more than the rounding of these sums and of the pivots, so that
    at lo the pair has at most levels[s] negative pivots and at hi more.
    Unwidened, an end can round past a level: fig1's 0.5 - 0.1 rounds up
    past its eigenvalue.  Any bracket that holds the level ends on the
    same float, since the count is monotone in the shift.
    """
    _require_hermitian(q)
    a, b, e = _scaled_chains(q)
    edge = np.zeros((2, 1))
    left = np.abs(np.hstack([edge, b]))
    both = left + np.abs(np.hstack([b, edge]))
    # rows before a block's last one have both neighbours
    inner_lo = np.minimum.accumulate(a - both, axis=1)
    inner_hi = np.maximum.accumulate(a + both, axis=1)
    last = lengths - 1
    lo = np.minimum(np.hstack([edge + np.inf, inner_lo[:, :-1]]), a - left)[:, last]
    hi = np.maximum(np.hstack([edge - np.inf, inner_hi[:, :-1]]), a + left)[:, last]
    hi = np.where(levels == 0, np.minimum(hi, np.minimum.accumulate(a, axis=1)[:, last]), hi)
    room = np.ldexp(np.abs(a).max() + 2 * np.abs(b).max(initial=0.0), -40)
    found = _multisection(a, b, lo - room, hi + room, lengths, levels)
    with np.errstate(over="ignore"):
        return np.ldexp(found, e)


def _require_hermitian(q: TransferMatrix) -> None:
    """Refuse Q with dissipation (NonHermitianInput), and Q with an entry
    that is not finite, which has no finite energies (RuntimeError).

    q.hermitian says whether Q was built without dissipation; a
    hand-built TransferMatrix that claims so with a non-real diagonal is
    refused too.  The off-diagonal is real and stored once, so only the
    diagonal can break the symmetry."""
    if not q.hermitian or q.diag.imag.any():
        raise NonHermitianInput(
            "matrix carries dissipation; energy levels need Hermitian "
            "parameters (beta = gamma = 0)")
    if not np.isfinite(q.band.real).all():
        raise RuntimeError(NON_FINITE)


def teee_evolve(state: SpinorFockState, dec: SpectralDecomposition,
                times: np.ndarray) -> Trajectory:
    """Evolve by phase-rotating eigenbasis coefficients at arbitrary times.

    F_j = <v_j|s0>, state(t) = sum_j F_j exp(-i E_j t) v_j, with each
    chain expanded over its own half-size eigenbasis and the rows recorded
    in chain order.  A chain whose amplitudes are all exactly zero has
    F = 0 there and stays zero, so it is written as zeros, not rotated.
    Each row is measured as evolve measures its rows, by a
    TrajectoryBuilder of dec.q, so a state reads the same bits whichever
    evolver holds it; the norm and the energy stay at their sums over
    |F_j|^2 up to the decomposition residual and rounding.  The states are
    formed and recorded BLOCK_ROWS time points at a time, the block evolve
    steps, so no temporary grows with the number of time points.
    """
    vec0 = state.vector
    if vec0.size != dec.dim:
        raise ValueError(f"state dim {vec0.size} != decomposition dim {dec.dim}")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")

    y0 = vec0[dec.q.order].reshape(2, -1, 1)
    chains = occupied_chains(y0)
    coeff = np.zeros((2, y0.shape[1], 1), dtype=np.complex128)
    coeff[chains] = _real_times_complex(
        dec.chain_vectors[chains].transpose(0, 2, 1), y0[chains])

    builder = TrajectoryBuilder(dec.q, times.size)
    for lo in range(0, times.size, BLOCK_ROWS):
        ts = times[lo:lo + BLOCK_ROWS]
        builder.record(lo, ts, _chain_states(dec, coeff, ts, chains), chains=chains)
    return builder.build()


def _real_times_complex(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for real v and C-contiguous complex z: one real product over
    the float64 view of z, so v is never cast to complex."""
    return (v @ z.view(np.float64)).view(np.complex128)


def _chain_states(dec: SpectralDecomposition, coeff: np.ndarray,
                  ts: np.ndarray, chains: slice) -> np.ndarray:
    """The (ts.size, 2, n) chain-order states sum_j F_j exp(-i E_j t) v_j,
    one contiguous row per time point.

    Only the given chains are rotated; the others are written as zeros.
    A function of its own so that the phase block is freed before the
    caller records these states, and the states before the next block is
    formed.
    """
    phases = -1j * (dec.chain_energies[chains, :, None] * ts)
    np.exp(phases, out=phases)
    phases *= coeff[chains]
    rotated = _real_times_complex(dec.chain_vectors[chains], phases)
    del phases
    states = np.zeros((ts.size, 2, dec.dim // 2), dtype=np.complex128)
    states[:, chains] = rotated.transpose(2, 0, 1)
    return states


def _check_count(count: int, available: int) -> None:
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > available:
        raise ValueError(f"count {count} exceeds available levels {available}")


@dataclass(frozen=True)
class GsScanResult:
    """Ground-state energy vs cutoff plus the boundedness verdict.

    classification is one of Converged / Unbounded / Undetermined (see
    gs_scan).  plateau_P and slope are diagnostics that the verdict does
    not read: plateau_P is the smallest scanned cutoff from which every
    later E0 stays within PLATEAU_RTOL*(1+|E0|) of the final value (None
    when only the last point qualifies); slope is the least-squares dE0/dP
    over the final half of the scan.
    """

    p_values: np.ndarray
    e0: np.ndarray
    classification: str
    plateau_P: int | None
    slope: float


def gs_scan(params: ModelParams, p_values) -> GsScanResult:
    """E0(P) over a cutoff scan, classified Converged/Unbounded/Undetermined.

    Q is built once, at the largest cutoff, and E0 at cutoff P is the
    lower of the two chains' level 0 over their leading (P+1)-blocks, by
    one _chain_levels call: spectrum's level 0 at that cutoff, bit for
    bit.  Q must be Hermitian and finite (_require_hermitian), and an E0
    that overflows a double is a RuntimeError.  Every pair's arithmetic
    is elementwise and its own, so E0 at a cutoff does not depend on which
    other cutoffs are scanned, and E0 is non-increasing in P: the pivots
    of a larger block extend those of a smaller one.

    The verdict comes from the model, not from the scan.  In chain order
    slot p has diagonal omega_f*p +- omega_0/2 and couplings k*p and
    k'*(p+1) to its neighbours, {k, k'} = {g_minus, g_plus}, so by 2|b x y|
    <= |b| (x^2 + y^2) Q is at least the diagonal (omega_f - |g_minus| -
    |g_plus|)*p - |k'| +- omega_0/2.  With that margin >= 0, E0(P) >=
    -max(|g_minus|, |g_plus|) - |omega_0|/2 at every cutoff; with margin <
    0, a trial vector on the chain's tail makes E0(P) fall like margin*P.
    So the scan is Unbounded exactly when omega_f < |g_minus| + |g_plus|,
    compared exactly on the floats (a tie is bounded).  A bounded scan is
    Converged when its final E0 lies within CONVERGED_RTOL*(1+|E0|) of E0
    at the cutoff nearest half the last one, and Undetermined otherwise.
    """
    given = list(p_values)
    values = np.asarray(given, dtype=np.float64)
    if not np.all(np.isfinite(values) & (values == np.floor(values))):
        raise ValueError(f"p_values must be integers, got {given}")
    ps = values.astype(np.int64)
    if ps.size < 2:
        raise ValueError("need at least two cutoffs to classify a scan")
    if np.any(np.diff(ps) <= 0) or ps[0] < 0:
        raise ValueError("p_values must be strictly increasing and non-negative")

    q = build_transfer_matrix(params, Truncation(P=int(ps[-1])))
    # the blocks go longest first, as _chain_levels takes them
    e0 = _chain_levels(q, ps[::-1] + 1, np.zeros_like(ps)).min(axis=0)[::-1]
    if not np.isfinite(e0).all():
        raise RuntimeError("ground-state energy overflows a double")

    final = e0[-1]
    plateau_tol = PLATEAU_RTOL * (1.0 + abs(final))

    plateau: int | None = None
    ok_from_here = np.abs(e0 - final) <= plateau_tol
    suffix_ok = np.logical_and.accumulate(ok_from_here[::-1])[::-1]
    hits = np.nonzero(suffix_ok)[0]
    if hits.size and hits[0] < ps.size - 1:
        plateau = int(ps[hits[0]])

    half = min(ps.size // 2, ps.size - 2)  # keep >= 2 points under the fit
    # fit E0 / 2^e, |E0| < 2^e, so that the fit cannot overflow where E0
    # is finite; the power of two scales exactly back into the slope
    e = int(np.frexp(np.abs(e0[half:]).max())[1])
    fit = np.polyfit(ps[half:].astype(float), np.ldexp(e0[half:], -e), 1)
    slope = float(np.ldexp(fit[0], e))

    mid = e0[np.abs(ps - ps[-1] / 2.0).argmin()]
    if Fraction(params.omega_f) < Fraction(abs(params.g_minus)) + Fraction(abs(params.g_plus)):
        classification = "Unbounded"
    elif abs(final - mid) < CONVERGED_RTOL * (1.0 + abs(final)):
        classification = "Converged"
    else:
        classification = "Undetermined"
    return GsScanResult(p_values=ps, e0=e0, classification=classification,
                        plateau_P=plateau, slope=slope)


def _multisection(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  lengths: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Level levels[s] of the leading block of lengths[s] slots of each
    chain of (a, b) (scaled by _scaled_chains), for every column s: the
    largest float x at which the block minus x has at most levels[s]
    negative pivots.

    lo and hi (2, m) bracket pair (c, s): the block has at most levels[s]
    negative pivots at lo and more at hi.  lengths must be non-increasing
    (_sturm_sweep).  Each step is one _sturm_sweep over the chain slots
    with PROBES shifts per pair; pair (c, s) reads "x is above level j"
    as more than j = levels[s] negative pivots among its first lengths[s],
    and the new bracket runs from the largest probe not above the level
    to the smallest probe above it.  The multisection stops when no
    midpoint lies strictly inside a bracket, and returns the low ends.

    The sweep also returns det(T - x) of each pair's block at each probe,
    which steers where the next probes go:

    * While the bracket holds exactly one eigenvalue (count j at lo, j + 1
      at hi), det changes sign once inside it, so regula falsi on det puts
      a root estimate r in the bracket.  Its error is about C (r - lo)(hi -
      r) (Brent, Algorithms for Minimization without Derivatives, 1973),
      and C is read off the error the previous estimate r' realised: eps
      = |r - r'| (r - lo)(hi - r) / ((r' - lo')(hi' - r')), at most |r -
      r'|.  Where eps is below the uniform grid's spacing, the probes are
      a ladder around r: r, r +- eps/3, r +- eps and r +- 3 eps, with the
      finest rung at least one float wide.
    * A ladder that kept an end of its bracket missed the root, and its
      pair probes the uniform grid on the next sweep.  Without this rule
      a ladder can stall: where |det| differs by many powers of two
      between the ends, r sits next to one end and each sweep moves the
      other end by a few rungs, and where r rounds outside the bracket
      (lo and hi far apart in magnitude, as a level next to 0 is), every
      probe is clipped onto one end and the bracket never moves.  A
      sweep of the grid shrinks every bracket it probes.
    * A bracket at most PROBES + 1 floats wide probes each of its floats.
    * Elsewhere (a det of NaN or a count other than j or j + 1 at an end,
      or no earlier estimate) the probes are the uniform grid lo + (hi -
      lo) k / (PROBES + 1), k = 1..PROBES, or lo + (hi - lo)(k - 1) /
      PROBES while lo has no usable det, so that it gets one.

    Probes are clipped into [lo, hi].  The placement only decides where
    the counts are taken: brackets move on counts alone, and the count is
    monotone in the shift in IEEE arithmetic (Demmel, Dhillon & Ren, ETNA
    3, 1995), so every placement ends on the float a one-shift bisection
    ends on.
    """
    m = lo.shape[1]
    # each pair's probes are PROBES consecutive columns of x; lo_log and
    # hi_log hold log2 |det| at the bracket ends, NaN where it gives no
    # estimate
    x = np.empty((2, m * PROBES))
    probes = x.reshape(2, m, PROBES)
    sweep = _sturm_sweep(a, b, x, np.repeat(lengths, PROBES))
    level = np.repeat(levels, PROBES)
    lo_log = hi_log = np.full((2, m), np.nan)
    # the flat index in x just before each pair's first probe
    before = np.arange(-1, x.size - 1, PROBES).reshape(2, m)
    grid = np.arange(1, PROBES + 1) - (PROBES + 1) / 2          # -3 .. 3
    ladder_steps = np.sign(grid) * 3.0 ** (np.abs(grid) - 2)     # 0, +-1/3, +-1, +-3
    last_root = last_span = np.full((2, m), np.nan)
    missed = np.zeros((2, m), dtype=bool)
    while True:
        mid = (lo + hi) * 0.5
        if not ((lo < mid) & (mid < hi)).any():
            return lo
        width = hi - lo
        gap = np.minimum(np.abs(np.spacing(lo)), np.abs(np.spacing(hi)))
        # NaN, and so no ladder, wherever an end or the last estimate has no det
        with np.errstate(all="ignore"):
            root = lo + width / (1.0 + np.exp2(hi_log - lo_log))
            span = (root - lo) * (hi - root)
            eps = np.abs(root - last_root) * np.fmin(span / last_span, 1.0)
        last_root, last_span = root, span
        narrow = width <= (PROBES + 1) * gap
        ladder = (eps <= width / (PROBES + 1)) & ~narrow & ~missed
        # a grid over a lo with no usable det starts at lo, which gets one
        bare = np.isnan(lo_log) & ~narrow
        centre = np.where(ladder, root, np.where(bare, lo + width * (grid[-1] / PROBES), mid))
        step = np.where(ladder, np.maximum(eps, 3 * gap),
                        np.where(narrow, gap, width / np.where(bare, PROBES, PROBES + 1)))
        np.multiply(step[..., None], np.where(ladder[..., None], ladder_steps, grid),
                    out=probes)
        probes += centre[..., None]
        np.maximum(probes, lo[..., None], out=probes)
        np.minimum(probes, hi[..., None], out=probes)

        # log2 |det| is formed in the mantissa's buffer
        below, log_det, exponent = sweep()
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log2(np.abs(log_det, out=log_det), out=log_det)
        log_det += exponent
        log_det[(below < level) | (below > level + 1)] = np.nan
        # the new lo is the last probe not above the level, the new hi the next
        last = (below <= level).reshape(probes.shape).sum(axis=2) + before
        kept_lo, kept_hi = last == before, last == before + PROBES
        missed = ladder & (kept_lo | kept_hi)
        lo = np.where(kept_lo, lo, x.take(last, mode="clip"))
        hi = np.where(kept_hi, hi, x.take(last + 1, mode="clip"))
        lo_log = np.where(kept_lo, lo_log, log_det.take(last, mode="clip"))
        hi_log = np.where(kept_hi, hi_log, log_det.take(last + 1, mode="clip"))


def _sturm_sweep(a: np.ndarray, b: np.ndarray, x: np.ndarray, lengths: np.ndarray):
    """A function that counts negative LDL^T pivots for the shifts that x
    holds when it is called.

    a and b are chains scaled by _scaled_chains, x (2, cols) holds one
    shift per chain and column, and column s is counted over the leading
    block of lengths[s] slots.  lengths must be non-increasing, so that
    the columns a slot touches are a leading slice of x.  Each call
    returns (below, mantissa, exponent).  below[c, s] is the number of
    negative pivots among the first lengths[s] of d_i = (a_i - x) -
    b_{i-1}^2 / d_{i-1} of chain c minus x[c, s], that is, the
    eigenvalues of that block below x[c, s].  mantissa * 2^exponent is
    the product of those same pivots, det(T - x) of the block, with the
    sign (-1)^below.  It is NaN after a zero pivot that is not the
    block's last (0 times the -inf that follows), 0 where the last pivot
    is 0, and 0 or infinite where a product of RENORM_BLOCKS blocks
    leaves a double's range.  Each call overwrites
    the arrays the previous call returned.

    A zero pivot is +0, so the next one is -inf; a slot whose coupling
    b_{i-1} is 0 starts a decoupled block and takes d_i = a_i - x, which
    keeps 0/0 out.

    The pivots go through a ring of SWEEP_ROWS rows, one block of slots at
    a time.  A block forms a_i - x for all of its slots in one call, then
    costs two calls per slot (quotient and pivot) and three to count its
    negatives.  A block runs over every column its first slot touches;
    where a column ends inside the block, one more call overwrites its
    ring cells past its last slot with 1.0, which keeps them out of the
    count and of det (the next block never reads them).  det costs two
    calls per block, a product over the ring and one into the mantissa,
    and every RENORM_BLOCKS blocks two more, a frexp and a sum that move
    the mantissa's exponent out.  The calls are planned once, so that a
    multisection pays for each of its sweeps in ufunc calls alone.  A
    sweep runs under
    model.small_ufunc_buffer: at numpy's default buffer size, setting up
    the buffers of a call over a strided ring block costs more than the
    block's arithmetic.
    """
    n, cols = a.shape[1], x.shape[1]
    b2 = b * b
    rows = min(n, SWEEP_ROWS)
    pivots = np.empty((rows, 2, cols))
    negative = np.empty(pivots.shape, dtype=bool)
    quotient = np.empty((2, cols))
    # active[i]: the columns slot i touches; live[i]: the chains whose
    # coupling b_{i-1} is not zero (a chain whose coupling is zero keeps
    # d_i = a_i - x)
    active = np.searchsorted(-lengths, -np.arange(n), side="left")
    live = [[]] + [[c for c, on in enumerate(pair) if on] for pair in (b2 != 0).T.tolist()]
    blocks = []
    for top in range(0, n, rows):
        h, k = min(rows, n - top), active[top]
        ring, t = pivots[:h, :, :k], quotient[:, :k]
        # the previous block's last row, which slot top reads first
        prev = pivots[rows - 1, :, :k]
        calls = [(np.subtract, a[:, top, None], x[:, :k], ring[0])]
        for r, d in enumerate(ring):
            i = top + r
            if r == 1:
                # a_i - x of the later slots at once, now that slot top has
                # read the previous block's last row
                calls.append((np.subtract, a[:, i:top + h].T[:, :, None], x[:, :k], ring[1:]))
            if len(live[i]) == 2:
                calls += [(np.divide, b2[:, i - 1, None], prev, t), (np.subtract, d, t, d)]
            elif live[i]:
                c = live[i][0]
                calls += [(np.divide, b2[c, i - 1], prev[c], t[c]),
                          (np.subtract, d[c], t[c], d[c])]
            prev = d
        # the columns from `full` on stop inside the block
        full = active[top + h - 1]
        past = np.arange(h)[:, None, None] >= lengths[full:k] - top
        ends = (ring[:, :, full:], past) if past.any() else None
        blocks.append((calls, k, ring, negative[:h, :, :k], ends))

    below = np.empty((2, cols), dtype=np.int64)
    # a block's product goes to quotient, which its calls are done with,
    # and frexp's exponents to shift
    mantissa = np.empty((2, cols))
    exponent, shift = np.empty((2, 2, cols), dtype=np.intc)

    def sweep():
        below[...] = 0
        mantissa[...] = 1.0
        exponent[...] = 0
        # b^2 / +0 is the +inf wanted, so the next pivot is -inf, and so is
        # b^2 over a pivot too small for the quotient to be finite; a
        # product over a zero and an infinite pivot is NaN
        with small_ufunc_buffer(), np.errstate(divide="ignore", over="ignore",
                                               invalid="ignore"):
            for j, (calls, k, ring, flags, ends) in enumerate(blocks, 1):
                for f, u, v, out in calls:
                    f(u, v, out)
                if ends is not None:
                    np.copyto(ends[0], 1.0, where=ends[1])
                np.less(ring, 0.0, out=flags)
                # at most SWEEP_ROWS per block, so a byte holds the sum
                below[:, :k] += flags.view(np.uint8).sum(axis=0, dtype=np.uint8)
                np.multiply.reduce(ring, axis=0, out=quotient[:, :k])
                mantissa[:, :k] *= quotient[:, :k]
                if j % RENORM_BLOCKS == 0:
                    np.frexp(mantissa[:, :k], out=(mantissa[:, :k], shift[:, :k]))
                    exponent[:, :k] += shift[:, :k]
        return below, mantissa, exponent

    return sweep
