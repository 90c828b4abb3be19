"""Block-layout oracle for the observables the package records.

Written from the definitions alone, slot by slot in the layout of
SpinorFockState.vector: level p with spin e in slot p, with spin g in
slot P + 1 + p.  It shares no code with sbprop.trajectory, which measures
in chain order, so a wrong weight there cannot pass both.
"""

import numpy as np


def weights(P: int) -> tuple[np.ndarray, ...]:
    """(photon, inversion, excitation, parity) weight of every slot.

    Excitation counts photons plus the atomic excitation, and parity is
    (-1) to that count.
    """
    level = np.tile(np.arange(P + 1.0), 2)
    up = np.repeat([1.0, 0.0], P + 1)
    excitation = level + up
    return level, 2.0 * up - 1.0, excitation, (-1.0) ** excitation


def readings(vec: np.ndarray) -> tuple[float, ...]:
    """(norm2, photon, inversion, excitation, parity) of one block-layout
    vector, each the raw quadratic form sum_i weight_i |vec_i|^2."""
    vec = np.asarray(vec)
    sq = vec.real ** 2 + vec.imag ** 2
    return (float(sq.sum()), *(float((w * sq).sum()) for w in weights(vec.size // 2 - 1)))


def energy(vec: np.ndarray, q) -> complex:
    """<vec|Q|vec> from the dense block-layout matrix q.matrix."""
    return complex(np.vdot(vec, q.matrix @ vec))
