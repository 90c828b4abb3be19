"""Eigendecomposition reference evolver and ground-state truncation scans.

This is the independent cross-check route: diagonalize the (real
symmetric) transfer matrix once, expand the initial state over the
eigenbasis and attach exact phase factors exp(-i E_j t).  Q never couples
the two parity chains, so each chain is diagonalized on its own, as a
half-size tridiagonal matrix.  Dissipative matrices are refused here by
design; that regime belongs to the Taylor route alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (ModelParams, TransferMatrix, Truncation, build_transfer_matrix,
                    chain_order, hermiticity_check)
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

    @property
    def vectors(self) -> np.ndarray:
        """Dense block-layout eigenvector columns in the order of energies,
        built on every access."""
        n = self.chain_energies.shape[1]
        order = chain_order(n - 1)
        v = np.zeros((self.dim, self.dim))
        v[order[:n], :n] = self.chain_vectors[0]
        v[order[n:], n:] = self.chain_vectors[1]
        v = v[:, np.argsort(self.chain_energies, axis=None, kind="stable")]
        v.setflags(write=False)
        return v


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
    and enforced at 1e-10 (scaled by 1 + max|E| for the residual);
    vectors of different chains are orthogonal exactly, so both are
    measured per chain.
    """
    _require_hermitian(q)
    n = q.trunc.P + 1
    chain_energies = np.empty((2, n))
    chain_vectors = np.empty((2, n, n))
    residual = ortho = 0.0
    for c, block in enumerate(_chains(q)):
        chain_energies[c], chain_vectors[c] = np.linalg.eigh(block)
        e, v = chain_energies[c], chain_vectors[c]
        residual = max(residual, float(
            np.linalg.norm(block @ v - v * e, axis=0).max()))
        ortho = max(ortho, float(np.abs(v.T @ v - np.eye(e.size)).max()))
    energies = np.sort(chain_energies, axis=None, kind="stable")

    scale = 1.0 + float(np.abs(energies).max())
    if residual > RESIDUAL_TOL * scale:
        raise RuntimeError(f"eigensolver residual {residual:.3e} above bound")
    if ortho > ORTHO_TOL:
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
    in chain order.  Norm and the (constant) energy sum |F_j|^2 E_j are
    exact up to the decomposition residual by construction.
    """
    vec0 = state.vector
    if vec0.size != dec.dim:
        raise ValueError(f"state dim {vec0.size} != decomposition dim {dec.dim}")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")

    y0 = vec0[chain_order(state.P)].reshape(2, -1, 1)
    coeff = _real_times_complex(dec.chain_vectors.transpose(0, 2, 1), y0)
    weight = coeff.real ** 2 + coeff.imag ** 2
    energy_const = float(weight.ravel() @ dec.chain_energies.ravel())

    builder = TrajectoryBuilder(state.P, times.size)
    # time points per chunk: each complex (dim, chunk) temporary stays
    # near 8 MB whatever dim is
    chunk = max(1, 2 ** 19 // max(dec.dim, 1))
    for lo in range(0, times.size, chunk):
        ts = times[lo:lo + chunk]
        builder.record(lo, ts, _chain_states(dec, coeff, ts), energy_const)
    return builder.build()


def _real_times_complex(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for real v and C-contiguous complex z: one real product over
    the float64 view of z, so v is never cast to complex."""
    return (v @ z.view(np.float64)).view(np.complex128)


def _chain_states(dec: SpectralDecomposition, coeff: np.ndarray,
                  ts: np.ndarray) -> np.ndarray:
    """The (ts.size, dim) chain-order states sum_j F_j exp(-i E_j t) v_j,
    one contiguous row per time point.

    A function of its own so that the phase block is freed before the
    caller records these states and the states before the next chunk.
    """
    phases = -1j * (dec.chain_energies[..., None] * ts)
    np.exp(phases, out=phases)
    phases *= coeff
    states = _real_times_complex(dec.chain_vectors, phases)
    del phases
    return np.ascontiguousarray(states.reshape(dec.dim, ts.size).T)


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
    ps = np.asarray(list(p_values), dtype=np.int64)
    if ps.size < 2:
        raise ValueError("need at least two cutoffs to classify a scan")
    if np.any(np.diff(ps) <= 0) or ps[0] < 0:
        raise ValueError("p_values must be strictly increasing and non-negative")

    e0 = np.empty(ps.size)
    for i, p in enumerate(ps):
        q = build_transfer_matrix(params, Truncation(P=int(p)))
        e0[i] = min(np.linalg.eigvalsh(block)[0] for block in _chains(q))

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
    slope = float(np.polyfit(ps[half:].astype(float), e0[half:], 1)[0])
    decreasing = bool(np.all(np.diff(e0) < 0.0))

    if converged:
        classification = "Converged"
    elif decreasing and slope < -UNBOUNDED_SLOPE * params.omega_f and plateau is None:
        classification = "Unbounded"
    else:
        classification = "Undetermined"
    return GsScanResult(p_values=ps, e0=e0, classification=classification,
                        plateau_P=plateau, slope=slope)
