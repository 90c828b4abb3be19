"""Eigendecomposition reference evolver and ground-state truncation scans.

This is the independent cross-check route: diagonalize the (real
symmetric) transfer matrix once, expand the initial state over the
eigenbasis and attach exact phase factors exp(-i E_j t).  Q never couples
the two parity chains, so each chain is diagonalized on its own, as a
half-size tridiagonal matrix.  Dissipative matrices are refused here by
design; that regime belongs to the Taylor route alone.

diagonalize (eigh) and lowest_energies (eigvalsh) reach LAPACK through
one gate, _chain_eigensolves: Q must be Hermitian and finite, and each
chain's dense block is written from Q's band rows (model.chain_block)
and handed over once, one chain at a time.  No other dense block is
formed: diagonalize measures its residual through the tridiagonal
chains themselves.

`spectrum` needs only the lowest energies, so it runs eigvalsh (no
vectors) on each chain and certifies the levels it returns by Sturm
counts: the number of negative LDL^T pivots of a chain block minus x is
the number of its eigenvalues below x (Sylvester inertia; Demmel,
Applied Numerical Linear Algebra, 1997, section 5.3.4).

The ground-state scan needs only the lowest eigenvalue of each chain at
every cutoff.  A chain's entries do not depend on P, so the chain at
cutoff P is the leading (P+1)-block of the chain at the largest cutoff,
and the LDL^T pivots of that block are the first P+1 pivots of the big
chain.  One Sturm-count sweep over the big chain therefore answers "is x
above E0?" for every cutoff at once, and bisection on those answers gives
E0(P) for the whole scan (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
Each sweep probes PROBES shifts per bracket (multisection).  In IEEE
arithmetic the count is monotone in the shift (Demmel, Dhillon & Ren,
ETNA 3, 1995), so any probe sequence that stops only where no float lies
strictly inside a bracket ends on the float a one-shift bisection ends on.

Both routines count through one engine, _sturm_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (ModelParams, TransferMatrix, Truncation, build_transfer_matrix,
                    chain_block, chain_order, hermiticity_check, occupied_chains)
from .states import SpinorFockState
from .trajectory import Trajectory, TrajectoryBuilder

__all__ = [
    "NonHermitianInput",
    "SpectralDecomposition",
    "GsScanResult",
    "diagonalize",
    "lowest_energies",
    "teee_evolve",
    "level_differences",
    "gs_scan",
]

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
CONVERGED_RTOL = 1e-8     # classification test between P_max and midpoint
PLATEAU_RTOL = 1e-6       # plateau detection (diagnostic, looser on purpose)
UNBOUNDED_SLOPE = 1e-3    # in units of omega_f, sign-flipped below
# Pivot rows one Sturm sweep holds at once.  Their negatives are counted
# whenever the ring is full; a larger ring only adds memory.
SWEEP_ROWS = 8
# The ufunc buffer, in elements, during a sweep.  numpy sets up operand
# buffers of this size for a call over a strided block; at its default of
# 8192 that is up to 192 kB per call, which costs more than the
# arithmetic of a ring block (buffers do not change a result).
SWEEP_BUFSIZE = 1024
# Shifts one sweep of the ground-state scan probes inside each bracket.
PROBES = 7
# lowest_energies tests a Sturm midpoint only where its two levels lie
# more than GAP_EPS * n * ||chain|| apart: half that gap, 4 n eps ||chain||,
# exceeds eigvalsh's error (at most about n eps ||chain||) plus the
# count's (exact for the chain perturbed by about 3 eps ||chain||).
GAP_EPS = 8 * np.finfo(float).eps
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
    concatenation.
    """

    energies: np.ndarray
    chain_energies: np.ndarray = field(repr=False)
    chain_vectors: np.ndarray = field(repr=False)
    residual: float
    ortho_defect: float

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


def _chain_eigensolves(q: TransferMatrix, solve):
    """Yield solve (np.linalg.eigh or eigvalsh) of each parity chain's
    dense block, chain A first.

    The one way from Q to LAPACK.  Q must be Hermitian (NonHermitianInput),
    and Q with an entry that is not finite, which has no finite energies
    and which LAPACK refuses, is refused with RuntimeError.  Each block is
    written from its chain's rows of q.band (model.chain_block), handed to
    LAPACK once and dropped before the next is written.
    """
    _require_hermitian(q)
    rows = q.band.real
    if not np.isfinite(rows).all():
        raise RuntimeError(NON_FINITE)
    for chain in rows.reshape(2, q.dim // 2, -1):
        yield solve(chain_block(chain))


def diagonalize(q: TransferMatrix) -> SpectralDecomposition:
    """Full real-symmetric eigendecomposition with verified quality.

    One half-size eigh per parity chain (_chain_eigensolves); the
    eigenpairs are kept per chain, in chain order.  Every energy must be
    finite; the residual max_j ||Q v_j - E_j v_j|| and the orthonormality
    defect ||V^T V - 1||_max are measured on every call and enforced at
    1e-10 (scaled by 1 + max|E| for the residual); a refusal is a
    RuntimeError.
    The residual is measured on Q / 2^e (_scaled_chains), so its squares
    cannot overflow where the energies are finite, and through the
    tridiagonal chain itself: a v - v E plus b v shifted up and down a
    slot, so no dense block is formed for it.  Vectors of different
    chains are orthogonal exactly, so both are measured per chain.
    """
    n = q.dim // 2
    chain_energies = np.empty((2, n))
    chain_vectors = np.empty((2, n, n))
    for c, (w, v) in enumerate(_chain_eigensolves(q, np.linalg.eigh)):
        chain_energies[c], chain_vectors[c] = w, v
    energies = np.sort(chain_energies, axis=None, kind="stable")
    if not np.isfinite(energies).all():
        raise RuntimeError(NON_FINITE)

    a, b, e = _scaled_chains(q)
    residual = ortho = 0.0
    for c, v in enumerate(chain_vectors):
        r = a[c, :, None] * v
        r -= v * np.ldexp(chain_energies[c], -e)
        r[1:] += b[c, :, None] * v[:-1]
        r[:-1] += b[c, :, None] * v[1:]
        residual = max(residual, float(np.linalg.norm(r, axis=0).max()))
        ortho = max(ortho, float(np.abs(v.T @ v - np.eye(n)).max()))
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
                                 residual=unscaled, ortho_defect=ortho)


def lowest_energies(q: TransferMatrix, count: int) -> np.ndarray:
    """The count + 1 lowest energies of Q, ascending, without eigenvectors.

    One eigvalsh per parity chain (_chain_eigensolves); the two chains'
    energies are stable-sorted together, as in diagonalize.  The levels
    returned are certified by one Sturm-count sweep over both chains
    instead of by diagonalize's vector-based checks: in chain c, at the
    midpoint above each of its returned levels (between its j-th and
    (j+1)-th energy), the chain block minus x must have exactly j + 1
    negative pivots.  A midpoint whose gap is at most GAP_EPS * n *
    ||chain|| is not tested, since rounding may put it on either side of
    both levels; an exact tie or a near-tie is certified as a group by the
    next midpoint that is.  A non-finite energy or a failed count is a
    RuntimeError.
    """
    _check_count(count, q.dim - 1)
    chains = list(_chain_eigensolves(q, np.linalg.eigvalsh))
    merged = np.concatenate(chains)
    order = np.argsort(merged, kind="stable")[:int(count) + 1]
    energies = merged[order]
    if not np.isfinite(energies).all():
        raise RuntimeError(NON_FINITE)

    # chain c's returned levels are its first printed[c] energies
    printed = np.bincount(order >= chains[0].size, minlength=2)
    a, b, e = _scaled_chains(q)
    n = a.shape[1]
    norm = np.abs(a).max(axis=1) + 2 * np.abs(b).max(axis=1, initial=0.0)
    x = np.zeros((2, printed.max()))
    tested = np.zeros(x.shape, dtype=bool)
    for c, chain in enumerate(chains):
        levels = np.ldexp(chain[:printed[c] + 1], -e)
        lo, hi = levels[:-1], levels[1:]
        x[c, :lo.size] = (lo + hi) / 2
        tested[c, :lo.size] = hi - lo > GAP_EPS * n * norm[c]
    below = _sturm_sweep(a, b, x, np.full(x.shape[1], n))()
    expected = np.arange(1, x.shape[1] + 1)
    wrong = tested & (below != expected)
    if wrong.any():
        c, j = np.argwhere(wrong)[0]
        raise RuntimeError(
            f"eigensolver levels fail their Sturm count: chain {'AB'[c]} has "
            f"{below[c, j]} eigenvalues below the midpoint above its level {j}, "
            f"not {j + 1}")
    return energies


def _require_hermitian(q: TransferMatrix) -> None:
    if not q.hermitian or hermiticity_check(q) != 0.0:
        raise NonHermitianInput(
            "matrix carries dissipation; the eigendecomposition route only "
            "handles Hermitian parameters")


def teee_evolve(state: SpinorFockState, dec: SpectralDecomposition,
                times: np.ndarray) -> Trajectory:
    """Evolve by phase-rotating eigenbasis coefficients at arbitrary times.

    F_j = <v_j|s0>, state(t) = sum_j F_j exp(-i E_j t) v_j, with each
    chain expanded over its own half-size eigenbasis and the rows recorded
    in chain order.  A chain whose amplitudes are all exactly zero has
    F = 0 there and stays zero, so it is written as zeros, not rotated.
    Norm and the (constant) energy sum |F_j|^2 E_j are exact up to the
    decomposition residual by construction.
    """
    vec0 = state.vector
    if vec0.size != dec.dim:
        raise ValueError(f"state dim {vec0.size} != decomposition dim {dec.dim}")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")

    y0 = vec0[chain_order(state.P)].reshape(2, -1, 1)
    chains = occupied_chains(y0)
    coeff = np.zeros((2, y0.shape[1], 1), dtype=np.complex128)
    coeff[chains] = _real_times_complex(
        dec.chain_vectors[chains].transpose(0, 2, 1), y0[chains])
    weight = coeff.real ** 2 + coeff.imag ** 2
    energy_const = float(weight.ravel() @ dec.chain_energies.ravel())

    builder = TrajectoryBuilder(state.P, times.size)
    # time points per chunk: each complex (dim, chunk) temporary stays
    # near 8 MB whatever dim is
    chunk = max(1, 2 ** 19 // max(dec.dim, 1))
    for lo in range(0, times.size, chunk):
        ts = times[lo:lo + chunk]
        builder.record(lo, ts, _chain_states(dec, coeff, ts, chains), energy_const)
    return builder.build()


def _real_times_complex(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for real v and C-contiguous complex z: one real product over
    the float64 view of z, so v is never cast to complex."""
    return (v @ z.view(np.float64)).view(np.complex128)


def _chain_states(dec: SpectralDecomposition, coeff: np.ndarray,
                  ts: np.ndarray, chains: slice) -> np.ndarray:
    """The (ts.size, dim) chain-order states sum_j F_j exp(-i E_j t) v_j,
    one contiguous row per time point.

    Only the given chains are rotated; the others are written as zeros.
    A function of its own so that the phase block is freed before the
    caller records these states and the states before the next chunk.
    """
    phases = -1j * (dec.chain_energies[chains, :, None] * ts)
    np.exp(phases, out=phases)
    phases *= coeff[chains]
    rotated = _real_times_complex(dec.chain_vectors[chains], phases)
    del phases
    states = np.zeros((ts.size, 2, dec.dim // 2), dtype=np.complex128)
    states[:, chains] = rotated.transpose(2, 0, 1)
    return states.reshape(ts.size, dec.dim)


def level_differences(dec: SpectralDecomposition, count: int) -> np.ndarray:
    """First `count` excitation energies E_j - E_0, j = 1..count."""
    _check_count(count, dec.dim - 1)
    return dec.energies[1:count + 1] - dec.energies[0]


def _check_count(count: int, available: int) -> None:
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > available:
        raise ValueError(f"count {count} exceeds available levels {available}")


@dataclass(frozen=True)
class GsScanResult:
    """Ground-state energy vs cutoff plus the boundedness verdict.

    classification is one of Converged / Unbounded / Undetermined.
    plateau_P is the smallest scanned cutoff from which every later E0
    stays within PLATEAU_RTOL*(1+|E0|) of the final value (None when only
    the last point qualifies); slope is the least-squares dE0/dP over the
    final half of the scan.
    """

    p_values: np.ndarray
    e0: np.ndarray
    classification: str
    plateau_P: int | None
    slope: float


def gs_scan(params: ModelParams, p_values) -> GsScanResult:
    """E0(P) over a cutoff scan, classified Converged/Unbounded/Undetermined."""
    if not params.is_hermitian():
        raise NonHermitianInput("ground-state scan requires Hermitian parameters")
    given = list(p_values)
    values = np.asarray(given, dtype=np.float64)
    if not np.all(np.isfinite(values) & (values == np.floor(values))):
        raise ValueError(f"p_values must be integers, got {given}")
    ps = values.astype(np.int64)
    if ps.size < 2:
        raise ValueError("need at least two cutoffs to classify a scan")
    if np.any(np.diff(ps) <= 0) or ps[0] < 0:
        raise ValueError("p_values must be strictly increasing and non-negative")

    e0 = _ground_energies(params, ps)

    final = e0[-1]
    conv_tol = CONVERGED_RTOL * (1.0 + abs(final))
    plateau_tol = PLATEAU_RTOL * (1.0 + abs(final))

    mid_idx = int(np.abs(ps - ps[-1] / 2.0).argmin())
    converged = abs(final - e0[mid_idx]) < conv_tol

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
    decreasing = bool(np.all(np.diff(e0) < 0.0))

    if converged:
        classification = "Converged"
    elif decreasing and slope < -UNBOUNDED_SLOPE * params.omega_f and plateau is None:
        classification = "Unbounded"
    else:
        classification = "Undetermined"
    return GsScanResult(p_values=ps, e0=e0, classification=classification,
                        plateau_P=plateau, slope=slope)


def _ground_energies(params: ModelParams, ps: np.ndarray) -> np.ndarray:
    """E0 of Q at every cutoff in ps (strictly increasing), by one
    multisection on Sturm counts taken over both chains of Q at the
    largest cutoff.

    Pair (c, j) brackets the lowest eigenvalue of chain c's leading block
    at cutoff ps[j]: from Gershgorin below, and from just above the
    block's smallest diagonal (which bounds it by the Rayleigh quotient).
    Each step is one _sturm_sweep over the chain slots with PROBES shifts
    per pair, lo + (hi - lo) k / (PROBES + 1) for k = 1..PROBES; pair
    (c, j) reads "x is above E0" as a negative pivot among its first
    ps[j] + 1.  The new bracket runs from the largest probe with none to
    the smallest probe with one.  Where that grid is not strictly
    increasing and strictly inside (lo, hi), which happens once a bracket
    is a few floats wide, all of the pair's probes are the midpoint.  The
    multisection stops when no midpoint lies strictly inside a bracket,
    and E0 is the low end: the float a one-shift bisection ends on.

    Q with an entry that is not finite, or so large that max|diag| +
    max|off| overflows, is refused with RuntimeError, and so is an E0 that
    overflows.

    Every pair's arithmetic is elementwise and its own, so E0 at a cutoff
    does not depend on which other cutoffs are scanned, and E0 is
    non-increasing in P: the pivots of a larger block extend those of a
    smaller one.
    """
    q = build_transfer_matrix(params, Truncation(P=int(ps[-1])))
    m = ps.size
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.abs(q.diag.real).max() + np.abs(q.off).max()
    if not np.isfinite(top):
        raise RuntimeError("transfer matrix entries overflow; no finite "
                           "ground-state energy")
    a, b, e = _scaled_chains(q)
    edge = np.zeros((2, 1))
    left = a - np.abs(np.hstack([edge, b]))
    # Gershgorin: in the leading block at cutoff P, rows i < P have both
    # neighbours and row P only the left one
    inner = np.minimum.accumulate(left - np.abs(np.hstack([b, edge])), axis=1)
    inner = np.hstack([edge + np.inf, inner[:, :-1]])
    desc = ps[::-1]                            # pairs by descending cutoff
    lo = np.minimum(inner, left)[:, desc]
    hi = np.nextafter(np.minimum.accumulate(a, axis=1)[:, desc], np.inf)

    # each pair's probes are PROBES consecutive columns of x
    fractions = np.arange(1, PROBES + 1) / (PROBES + 1)
    x = np.empty((2, m * PROBES))
    probes = x.reshape(2, m, PROBES)
    sweep = _sturm_sweep(a, b, x, np.repeat(desc + 1, PROBES))
    while True:
        mid = (lo + hi) * 0.5
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            with np.errstate(over="ignore"):
                e0 = np.ldexp(lo.min(axis=0)[::-1], e)
            if not np.isfinite(e0).all():
                raise RuntimeError("ground-state energy overflows a double")
            return e0
        probes[...] = fractions
        probes *= (hi - lo)[..., None]
        probes += lo[..., None]
        grid = ((lo < probes[..., 0]) & (probes[..., -1] < hi)
                & (np.diff(probes, axis=2) > 0.0).all(axis=2))
        np.copyto(probes, mid[..., None], where=~grid[..., None])
        below = sweep().reshape(probes.shape) > 0
        hi = np.where(inside, np.minimum(hi, np.where(below, probes, np.inf).min(axis=2)), hi)
        lo = np.where(inside, np.maximum(lo, np.where(below, -np.inf, probes).max(axis=2)), lo)


def _sturm_sweep(a: np.ndarray, b: np.ndarray, x: np.ndarray, lengths: np.ndarray):
    """A function that counts negative LDL^T pivots for the shifts that x
    holds when it is called.

    a and b are chains scaled by _scaled_chains, x (2, cols) holds one
    shift per chain and column, and column s is counted over the leading
    block of lengths[s] slots.  lengths must be non-increasing, so that
    the columns a slot touches are a leading slice of x.  Each call
    returns below[c, s]: the number of negative pivots among the first
    lengths[s] of d_i = (a_i - x) - b_{i-1}^2 / d_{i-1} of chain c minus
    x[c, s], that is, the eigenvalues of that block below x[c, s].

    A zero pivot is +0, so the next one is -inf; a slot whose coupling
    b_{i-1} is 0 starts a decoupled block and takes d_i = a_i - x, which
    keeps 0/0 out.

    The pivots go through a ring of SWEEP_ROWS rows, one block of slots at
    a time.  A block forms a_i - x for all of its slots in one call, then
    costs two calls per slot (quotient and pivot) and four to count its
    negatives.  It runs over every column its first slot touches; a
    column's pivots past its own last slot are masked out of the count.
    The calls are planned once, so that a multisection pays for each of
    its sweeps in ufunc calls alone.
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
    live = [[]] + [np.flatnonzero(col).tolist() for col in b2.T]
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
        flags = negative[:h, :, :k]
        counted = np.arange(h)[:, None, None] < lengths[full:k] - top
        blocks.append((calls, k, ring, flags, flags[:, :, full:], counted))

    def sweep() -> np.ndarray:
        below = np.zeros((2, cols), dtype=np.int64)
        bufsize = np.setbufsize(SWEEP_BUFSIZE)
        try:
            # b^2 / +0 is the +inf wanted, so the next pivot is -inf, and
            # so is b^2 over a pivot too small for the quotient to be finite
            with np.errstate(divide="ignore", over="ignore"):
                for calls, k, ring, flags, stopping, counted in blocks:
                    for f, u, v, out in calls:
                        f(u, v, out)
                    np.less(ring, 0.0, out=flags)
                    stopping &= counted
                    # at most SWEEP_ROWS per block, so a byte holds the sum
                    below[:, :k] += flags.view(np.uint8).sum(axis=0, dtype=np.uint8)
        finally:
            np.setbufsize(bufsize)
        return below

    return sweep
