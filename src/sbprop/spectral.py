"""Eigendecomposition reference evolver and ground-state truncation scans.

This is the independent cross-check route: diagonalize the (real
symmetric) transfer matrix once, expand the initial state over the
eigenbasis and attach exact phase factors exp(-i E_j t).  Q never couples
the two parity chains, so each chain is diagonalized on its own, as a
half-size tridiagonal matrix.  Dissipative matrices are refused here by
design; that regime belongs to the Taylor route alone.

The ground-state scan needs only the lowest eigenvalue of each chain at
every cutoff.  A chain's entries do not depend on P, so the chain at
cutoff P is the leading (P+1)-block of the chain at the largest cutoff,
and the LDL^T pivots of that block are the first P+1 pivots of the big
chain.  One Sturm-count sweep over the big chain therefore answers "is x
above E0?" for every cutoff at once, and bisection on those answers gives
E0(P) for the whole scan (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (ModelParams, TransferMatrix, Truncation, build_transfer_matrix,
                    chain_order, hermiticity_check, occupied_chains)
from .states import SpinorFockState
from .trajectory import Trajectory, TrajectoryBuilder

__all__ = [
    "NonHermitianInput",
    "SpectralDecomposition",
    "GsScanResult",
    "diagonalize",
    "teee_evolve",
    "level_differences",
    "gs_scan",
]

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
CONVERGED_RTOL = 1e-8     # classification test between P_max and midpoint
PLATEAU_RTOL = 1e-6       # plateau detection (diagnostic, looser on purpose)
UNBOUNDED_SLOPE = 1e-3    # in units of omega_f, sign-flipped below
# Pivot rows one bisection sweep holds at once.  Each cutoff needs only
# "any negative pivot among its first P+1", so a ring of rows is reduced
# into that answer whenever it is full; a larger ring only adds memory.
SWEEP_ROWS = 32


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


def _chains(q: TransferMatrix):
    """Dense real tridiagonal block of each parity chain of Q."""
    n = q.trunc.P + 1
    for lo in (0, n):
        d, off = q.diag[lo:lo + n].real, q.off[lo:lo + n - 1]
        yield np.diag(d) + np.diag(off, 1) + np.diag(off, -1)


def diagonalize(q: TransferMatrix) -> SpectralDecomposition:
    """Full real-symmetric eigendecomposition with verified quality.

    One half-size eigh per parity chain; the eigenpairs are kept per
    chain, in chain order.  The residual max_j ||Q v_j - E_j v_j|| and the
    orthonormality defect ||V^T V - 1||_max are measured on every call
    and enforced at 1e-10 (scaled by 1 + max|E| for the residual), and
    every energy must be finite; a refusal is a RuntimeError.  Vectors of
    different chains are orthogonal exactly, so both are measured per
    chain.
    """
    _require_hermitian(q)
    n = q.trunc.P + 1
    chain_energies = np.empty((2, n))
    chain_vectors = np.empty((2, n, n))
    residual = ortho = 0.0
    # overflow shows up in the checks below, so the numpy warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for c, block in enumerate(_chains(q)):
            chain_energies[c], chain_vectors[c] = np.linalg.eigh(block)
            e, v = chain_energies[c], chain_vectors[c]
            residual = max(residual, float(
                np.linalg.norm(block @ v - v * e, axis=0).max()))
            ortho = max(ortho, float(np.abs(v.T @ v - np.eye(e.size)).max()))
    energies = np.sort(chain_energies, axis=None, kind="stable")

    if not np.isfinite(energies).all():
        raise RuntimeError("eigensolver returned non-finite energies")
    scale = 1.0 + float(np.abs(energies).max())
    # `not x <= bound`, so that a NaN fails the check
    if not residual <= RESIDUAL_TOL * scale:
        raise RuntimeError(f"eigensolver residual {residual:.3e} above bound")
    if not ortho <= ORTHO_TOL:
        raise RuntimeError(f"eigenvector orthonormality defect {ortho:.3e}")
    return SpectralDecomposition(energies=energies, chain_energies=chain_energies,
                                 chain_vectors=chain_vectors,
                                 residual=residual, ortho_defect=ortho)


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
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > dec.dim - 1:
        raise ValueError(f"count {count} exceeds available levels {dec.dim - 1}")
    return dec.energies[1:count + 1] - dec.energies[0]


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
    """E0 of Q at every cutoff in ps (strictly increasing), by one bisection
    on Sturm counts taken over both chains of Q at the largest cutoff.

    Pair (c, j) brackets the lowest eigenvalue of chain c's leading block
    at cutoff ps[j]: from Gershgorin below, and from just above the
    block's smallest diagonal (which bounds it by the Rayleigh quotient).
    A sweep runs the pivot recurrence d_i = (a_i - x) - b_{i-1}^2 / d_{i-1}
    once over the chain slots, with one shift x per pair; pair (c, j) reads
    "x is above E0" as any negative pivot among its first ps[j] + 1.
    Bisection stops when no midpoint lies strictly inside a bracket, and
    E0 is the low end.  A zero pivot is +0, so the next one is -inf; a slot
    whose coupling b_{i-1} is 0 starts a decoupled block and takes
    d_i = a_i - x, which keeps 0/0 out.  Each pivot row costs three ufunc
    calls, on contiguous rows of the pairs it touches.

    Q with an entry that is not finite, or so large that max|diag| +
    max|off| overflows, is refused with RuntimeError, and so is an E0 that
    overflows.

    Every pair's arithmetic is elementwise and its own, so E0 at a cutoff
    does not depend on which other cutoffs are scanned, and E0 is
    non-increasing in P: the pivots of a larger block extend those of a
    smaller one.
    """
    q = build_transfer_matrix(params, Truncation(P=int(ps[-1])))
    n, m = q.trunc.P + 1, ps.size
    # Work on Q / 2^e, whose entries lie below 1 and not far below, so
    # that b^2 can neither overflow nor underflow.  Scaling by a power of
    # two commutes with every rounding below, so E0 is the float the
    # unscaled arithmetic gives wherever that arithmetic stays in range.
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.abs(q.diag.real).max() + np.abs(q.off).max()
    if not np.isfinite(top):
        raise RuntimeError("transfer matrix entries overflow; no finite "
                           "ground-state energy")
    e = int(np.frexp(top)[1])
    a = np.ldexp(q.diag.real.reshape(2, n), -e)            # a[c, i]: slot i of chain c
    b = np.ldexp(np.stack([q.off[:n - 1], q.off[n:]]), -e)  # b[c, i] couples i, i+1
    b2 = b * b
    edge = np.zeros((2, 1))
    left = a - np.abs(np.hstack([edge, b]))
    # Gershgorin: in the leading block at cutoff P, rows i < P have both
    # neighbours and row P only the left one
    inner = np.minimum.accumulate(left - np.abs(np.hstack([b, edge])), axis=1)
    inner = np.hstack([edge + np.inf, inner[:, :-1]])
    desc = ps[::-1]                            # pairs by descending cutoff
    lo = np.minimum(inner, left)[:, desc]
    hi = np.nextafter(np.minimum.accumulate(a, axis=1)[:, desc], np.inf)

    # Row i of a sweep touches only the pairs whose cutoff is at least i:
    # the first active[i] columns.  Every call in `blocks` writes those
    # cells alone, so a ring cell holds +inf or a pivot of its own pair.
    rows = min(n, SWEEP_ROWS)
    pivots = np.full((rows, 2, m), np.inf)
    quotient = np.empty((2, m))
    x = np.empty((2, m))
    active = m - np.searchsorted(ps, np.arange(n))
    blocks = [[] for _ in range(0, n, rows)]
    for i, k in enumerate(active):
        r, calls = i % rows, blocks[i // rows]
        d = pivots[r, :, :k]
        calls.append((np.subtract, a[:, i, None], x[:, :k], d))
        # a chain whose coupling b_{i-1} is zero keeps d_i = a_i - x; r - 1
        # wraps to the last row of the (full) previous block
        live = np.flatnonzero(b2[:, i - 1]) if i else []
        if len(live):
            c = live[0] if len(live) == 1 else slice(None)
            t = quotient[c, :k]
            calls += [(np.divide, b2[c, i - 1, None], pivots[r - 1, c, :k], t),
                      (np.subtract, d[c], t, d[c])]

    lowest = np.empty((2, m))
    while True:
        np.add(lo, hi, out=x)
        x *= 0.5
        inside = (lo < x) & (x < hi)
        if not inside.any():
            with np.errstate(over="ignore"):
                e0 = np.ldexp(lo.min(axis=0)[::-1], e)
            if not np.isfinite(e0).all():
                raise RuntimeError("ground-state energy overflows a double")
            return e0
        lowest.fill(np.inf)
        with np.errstate(divide="ignore"):     # b^2 / +0 is the -inf wanted
            for calls in blocks:
                for f, u, v, out in calls:
                    f(u, v, out)
                np.minimum(lowest, pivots.min(axis=0), out=lowest)
        below = lowest < 0.0
        hi = np.where(inside & below, x, hi)
        lo = np.where(inside & ~below, x, lo)
