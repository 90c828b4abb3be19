"""Spinor-Fock states: truncated coherent and Fock initial states.

A state is a pair of complex amplitude arrays over Fock levels 0..P, one
for the atom excited, one for the ground state.  What is measured on a
state is defined in trajectory (Trajectory, observe).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherentSpec",
    "SpinorFockState",
    "TailMassTooLarge",
    "coherent_state",
    "fock_state",
]

DEFAULT_TAIL_TOL = 1e-12
# Levels past P + 200 that the search for a sufficient cutoff walks at
# most (about 0.1 s), so that any alpha is refused promptly.
SEARCH_LEVELS = 2 ** 15


class TailMassTooLarge(ValueError):
    """Requested Fock cutoff leaves too much coherent weight above it."""

    def __init__(self, alpha: float, P: int, tail: float, tol: float,
                 required_P: int):
        self.alpha = alpha
        self.P = P
        self.tail = tail
        self.tol = tol
        self.required_P = required_P
        super().__init__(
            f"coherent state alpha={alpha} keeps tail mass {tail:.3e} above "
            f"P={P} (tolerance {tol:.1e}); P >= {required_P} is needed"
        )


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent field amplitude alpha >= 0 and spinor mixing angle theta."""

    alpha: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.theta)):
            raise ValueError("alpha and theta must be finite")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")


@dataclass(frozen=True)
class SpinorFockState:
    """Amplitudes (amps_e, amps_g) over Fock levels 0..P."""

    amps_e: np.ndarray
    amps_g: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.amps_e, dtype=np.complex128)
        g = np.asarray(self.amps_g, dtype=np.complex128)
        if e.ndim != 1 or g.ndim != 1 or e.shape != g.shape or e.size == 0:
            raise ValueError("amps_e and amps_g must be equal-length 1-d arrays")
        if not (np.isfinite(e).all() and np.isfinite(g).all()):
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "amps_e", e)
        object.__setattr__(self, "amps_g", g)

    @property
    def P(self) -> int:
        return self.amps_e.size - 1

    @property
    def vector(self) -> np.ndarray:
        """Concatenated layout [e-block, g-block] used by the matrices."""
        return np.concatenate([self.amps_e, self.amps_g])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "SpinorFockState":
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.ndim != 1 or vec.size % 2 != 0 or vec.size == 0:
            raise ValueError("vector length must be even and positive")
        half = vec.size // 2
        return cls(amps_e=vec[:half].copy(), amps_g=vec[half:].copy())


def coherent_state(spec: CoherentSpec, P: int, *,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> SpinorFockState:
    """Truncated coherent spinor state.

    amps_e[p] = exp(-alpha^2/2) alpha^p / sqrt(p!) * sin(theta) and the
    ground block carries cos(theta).  Amplitudes come from the stable
    recurrence c_{p+1} = c_p * (alpha/sqrt(p+1)) -- never from factorials
    (see _coherent_levels).

    Raises TailMassTooLarge when the Poisson weight above P exceeds
    tail_tol, reporting the first cutoff that would suffice.  The search
    for it walks at most 8 alpha^2 + 200 levels past P, and never more
    than SEARCH_LEVELS + 200; where it gives up, it reports the cutoff it
    reached, whose tail is still above tail_tol, so that P must exceed it.
    A tail_tol of 1 or more accepts any tail, but a state whose squared
    norm is 0.0 has no normalized observables: ValueError.
    """
    if int(P) != P or P < 0:
        raise ValueError(f"P must be a non-negative integer, got {P}")
    if not (math.isfinite(tail_tol) and tail_tol > 0.0):
        raise ValueError("tail_tol must be positive")
    P = int(P)
    lam = spec.alpha * spec.alpha
    limit = P + 200 + int(min(8 * lam, SEARCH_LEVELS))
    # lam >= 4 limit puts limit past SEARCH_LEVELS and the Poisson mass up
    # to limit below exp(-1.6 limit) (Chernoff), so every amplitude the
    # walk reaches is 0.0, and _coherent_levels, whose alpha ** 2 may
    # overflow, is not run.
    levels = (_coherent_levels(spec) if lam < 4 * limit
              else itertools.repeat((0.0, 0.0, 0.0)))
    e = np.empty(P + 1, dtype=np.complex128)
    g = np.empty(P + 1, dtype=np.complex128)
    retained = 0.0
    for p in range(P + 1):
        c, e[p], g[p] = next(levels)
        retained += c * c

    tail = max(1.0 - retained, 0.0)
    if tail > tail_tol:
        # carry the same recurrence on past P to the first cutoff whose
        # tail is within tolerance, giving up at limit
        required = P
        while required < limit and 1.0 - retained > tail_tol:
            c = next(levels)[0]
            retained += c * c
            required += 1
        raise TailMassTooLarge(spec.alpha, P, tail, tail_tol, required)
    if retained == 0.0:
        raise ValueError(f"coherent state alpha={spec.alpha} has squared norm "
                         f"0.0 up to P={P}; raise P")
    return SpinorFockState(amps_e=e, amps_g=g)


# ln 2 in two parts, the first with its low 32 bits zero, so that
# shift * _LN2_HI is exact for shift < 2^20 (Cody & Waite)
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def _coherent_levels(spec: CoherentSpec):
    """Yield (c_p, e_p, g_p) for p = 0, 1, ...: c_p = exp(-alpha^2/2)
    alpha^p / sqrt(p!) and the amplitudes e_p = c_p sin(theta), g_p =
    c_p cos(theta), each carried by its own recurrence x_{p+1} = x_p *
    alpha / sqrt(p+1).

    Above alpha ~ 37.6, exp(-alpha^2/2) is not a normal float and every
    amplitude up to the Poisson peak would underflow on the way.  The
    recurrence then runs on 2^shift times the amplitudes, starting from
    exp(shift ln 2 - alpha^2/2) in [1, 2), and lowers shift whenever they
    grow past 1; each value is yielded scaled back.  Scaling by a power of
    two is exact, and wherever exp(-alpha^2/2) is normal shift is 0
    throughout, so those floats are the plain recurrence's.
    """
    half = 0.5 * spec.alpha ** 2
    shift = math.ceil(half / math.log(2.0)) if math.exp(-half) < np.finfo(float).tiny else 0
    c = math.exp((shift * _LN2_HI - half) + shift * _LN2_LO)
    run = (c, c * math.sin(spec.theta), c * math.cos(spec.theta))
    for p in itertools.count(1):
        yield tuple(math.ldexp(x, -shift) for x in run)
        ratio = spec.alpha / math.sqrt(p)
        k = min(shift, max(0, math.frexp(run[0] * ratio)[1]))
        run = tuple(math.ldexp(x * ratio, -k) for x in run)
        shift -= k


def fock_state(p0: int, spin: str, P: int) -> SpinorFockState:
    """Single-level state |p0, spin> with spin 'e' or 'g'."""
    if int(P) != P or P < 0:
        raise ValueError(f"P must be a non-negative integer, got {P}")
    if int(p0) != p0 or not 0 <= p0 <= P:
        raise ValueError(f"p0 must lie in 0..{P}, got {p0}")
    if spin not in ("e", "g"):
        raise ValueError(f"spin must be 'e' or 'g', got {spin!r}")
    e = np.zeros(P + 1, dtype=np.complex128)
    g = np.zeros(P + 1, dtype=np.complex128)
    (e if spin == "e" else g)[int(p0)] = 1.0
    return SpinorFockState(amps_e=e, amps_g=g)

