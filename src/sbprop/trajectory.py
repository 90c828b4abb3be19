"""Per-step observable records shared by both evolvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import ObservableWeights

__all__ = ["Trajectory", "CSV_COLUMNS", "csv_lines"]

CSV_COLUMNS = ("t", "norm2", "n_raw", "n_norm", "sz_raw", "sz_norm",
               "energy_re", "C_exp", "parity")


@dataclass
class Trajectory:
    """Uniform (or caller-supplied) time grid plus one observable row each.

    Raw columns are the unnormalized quadratic forms; *_norm divide by
    norm2 so both readings of decaying-norm runs stay available.
    """

    times: np.ndarray
    norm2: np.ndarray
    n_raw: np.ndarray
    n_norm: np.ndarray
    sz_raw: np.ndarray
    sz_norm: np.ndarray
    energy_re: np.ndarray
    c_exp: np.ndarray
    parity: np.ndarray
    snapshot_stride: int = 0
    snapshot_times: np.ndarray | None = field(default=None, repr=False)
    snapshots: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.times.size


class TrajectoryBuilder:
    """Accumulates rows; evolvers call record() once per time point.

    order, when given, is the block-layout index of each entry of the
    recorded vectors (chain order, see model.chain_order); snapshots are
    stored back in the block layout.
    """

    def __init__(self, P: int, count: int, snapshot_stride: int = 0,
                 order: np.ndarray | None = None):
        self.weights = ObservableWeights(P, order)
        self._to_block = None if order is None else np.argsort(order)
        self.count = count
        self.times = np.empty(count)
        self.norm2 = np.empty(count)
        self.n_raw = np.empty(count)
        self.sz_raw = np.empty(count)
        self.energy_re = np.empty(count)
        self.c_exp = np.empty(count)
        self.parity = np.empty(count)
        self.snapshot_stride = int(snapshot_stride)
        self._snap_idx: list[int] = []
        self._snaps: list[np.ndarray] = []

    def record(self, k: int, t: float, vec: np.ndarray, energy_re: float) -> None:
        n2, ph, inv, exc, par = self.weights.measure(vec)
        self.times[k] = t
        self.norm2[k] = n2
        self.n_raw[k] = ph
        self.sz_raw[k] = inv
        self.energy_re[k] = energy_re
        self.c_exp[k] = exc
        self.parity[k] = par
        if self.snapshot_stride and k % self.snapshot_stride == 0:
            self._snap_idx.append(k)
            self._snaps.append(vec.copy() if self._to_block is None
                               else vec[self._to_block])

    def build(self) -> Trajectory:
        with np.errstate(invalid="ignore", divide="ignore"):
            n_norm = np.where(self.norm2 > 0.0, self.n_raw / self.norm2, np.nan)
            sz_norm = np.where(self.norm2 > 0.0, self.sz_raw / self.norm2, np.nan)
        snaps = np.array(self._snaps) if self._snaps else None
        snap_t = self.times[self._snap_idx] if self._snaps else None
        return Trajectory(
            times=self.times, norm2=self.norm2,
            n_raw=self.n_raw, n_norm=n_norm,
            sz_raw=self.sz_raw, sz_norm=sz_norm,
            energy_re=self.energy_re, c_exp=self.c_exp, parity=self.parity,
            snapshot_stride=self.snapshot_stride,
            snapshot_times=snap_t, snapshots=snaps,
        )


def csv_lines(traj: Trajectory):
    """Yield CSV lines (no newlines); floats as shortest round-trip text."""
    yield ",".join(CSV_COLUMNS)
    cols = (traj.times, traj.norm2, traj.n_raw, traj.n_norm, traj.sz_raw,
            traj.sz_norm, traj.energy_re, traj.c_exp, traj.parity)
    for k in range(len(traj)):
        yield ",".join(repr(float(c[k])) for c in cols)
