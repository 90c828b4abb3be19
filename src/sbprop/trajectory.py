"""The observables of a state and the per-step record of both evolvers.

Trajectory is the one definition of what is measured: the squared norm,
photon number, inversion, excitation, parity and energy of each state,
as raw (unnormalized) quadratic forms.  evolve and teee_evolve record a
row per time point into one, and observe reads one state.
"""

from __future__ import annotations

import numpy as np

from .model import TransferMatrix, chain_slots, occupied_chains
from .states import SpinorFockState

__all__ = ["Trajectory", "CSV_COLUMNS", "CSV_BLOCK_ROWS", "csv_lines", "observe"]

CSV_COLUMNS = ("t", "norm2", "n_raw", "n_norm", "sz_raw", "sz_norm",
               "energy_re", "C_exp", "parity")

# States either evolver holds and records at once (propagator.evolve
# steps them, spectral.teee_evolve rotates them).  Measuring them
# together amortises the per-call overhead; a larger block only adds
# memory.
BLOCK_ROWS = 64

# rows csv_rows formats at a time, and lines the CLI writes per call: a
# line is at most 9 * 24 + 9 bytes, so a block stays under a 64 KB pipe
# buffer
CSV_BLOCK_ROWS = 256


class Trajectory:
    """The record of a run: a time and one observable row per time point.

    Trajectory(q, count) allocates the nine CSV columns; evolvers fill
    them with record(), once per block of time points.  Raw columns are
    the unnormalized quadratic forms; n_norm and sz_norm divide by norm2
    (NaN where norm2 is not positive), so both readings of decaying-norm
    runs stay available.  Once the last row is in, the record drops its
    measurement buffers: a finished record holds its columns and q.

    The recorded vectors are in chain order (see model.chain_order); they
    are measured, not kept (propagator.advance returns a state), and not
    checked for finiteness: evolve's step kernel refuses a run that blows
    up before its rows reach record().  Each observable is a weight per
    chain slot, from the slot's level and spin (model.chain_slots): slot
    p of either chain holds p photons and spin e on the even slots of
    chain A and the odd slots of chain B (inversion +1, else -1).
    Excitation counts the photons plus the atomic excitation, and parity,
    (-1) to that count, is -1 on every slot of chain A and +1 on chain B,
    so its column measures n_B - n_A.  Both commute exactly with the
    photon-conserving coupling, also after truncation, which is what the
    conservation checks rely on.  The energy is Re <y|Q|y>, weighted by
    Q's diagonal plus its doubled off-diagonal, so every row of either
    evolver is the same six quadratic forms of its state.  The cutoff is
    q's, and q is kept, so evolve can refuse a record made for another Q.
    """

    def __init__(self, q: TransferMatrix, count: int):
        self.q = q
        self.times = np.empty(count)
        self.norm2 = np.empty(count)
        self.n_raw = np.empty(count)
        self.n_norm = np.empty(count)
        self.sz_raw = np.empty(count)
        self.sz_norm = np.empty(count)
        self.energy_re = np.empty(count)
        self.c_exp = np.empty(count)
        self.parity = np.empty(count)
        self._weights = self._off = self._squares = None

    def __len__(self) -> int:
        return self.times.size

    def _arm(self) -> None:
        """Form the measurement buffers from q: the weights, the doubled
        couplings and an empty buffer for the squares."""
        q = self.q
        n = q.trunc.P + 1
        photon, excited = chain_slots(q.trunc.P)
        cols = [np.ones(2 * n), photon, np.where(excited, 1.0, -1.0),
                photon + excited, np.repeat([-1.0, 1.0], n), q.diag.real]
        # per chain, a second, zero row: numpy hands a vector-vector
        # product to BLAS dot, which splits long vectors across threads,
        # while a matrix-vector product computes each output on one
        # thread, so its bits do not depend on the thread count.  Q never
        # couples the chains, so off[n - 1] is not used.
        self._off = np.zeros((2, 2, 2 * n - 2))
        # a coupling above half the float range doubles to inf, and the
        # energy is then measured as inf or NaN; M's build refuses such a Q
        with np.errstate(over="ignore"):
            self._off[:, 0] = np.repeat(2.0 * np.delete(q.off, n - 1), 2).reshape(2, -1)
        # per chain, one weight per float of the complex vector: re and im
        # share it
        self._weights = np.stack(np.split(np.repeat(np.stack(cols), 2, axis=1), 2, axis=1))
        self._squares = np.empty((0, 2 * n))

    def _measure(self, block: np.ndarray, chains: slice) -> np.ndarray:
        """(rows, 6): norm2, photon, inversion, excitation, parity and
        the energy of each row of the (rows, 2, n) block, summed over the
        given chains.

        Each chain is measured with its own products and the chains'
        results are added, so a chain left out costs nothing and adds
        nothing.  Per chain, |y|^2 is formed once, from the float view of
        its rows, into a buffer kept for the next block.  Each row is then
        one matrix-vector product with the chain's weights, so a row
        measures the same bits alone or anywhere in a block.  The
        off-diagonal energy reuses the buffer: the float view times itself
        shifted by one complex slot, summed against the doubled
        off-diagonal of Q in that chain.
        """
        if self._weights is None:  # the first block, or one after the last row
            self._arm()
        rows = block.shape[0]
        if self._squares.shape[0] < rows:
            self._squares = np.empty((rows, self._squares.shape[1]))
        buf = self._squares[:rows]
        total = None
        # finite amplitudes whose squares overflow are recorded as they
        # are (inf, or NaN where infinite terms cancel)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in range(chains.start, chains.stop):
                y = block[:, c].view(np.float64)
                np.multiply(y, y, out=buf)
                cols = np.matmul(self._weights[c], buf[:, :, None])[:, :, 0]
                pairs = np.multiply(y[:, :-2], y[:, 2:], out=buf[:, :-2])
                cols[:, -1] += np.matmul(self._off[c], pairs[:, :, None])[:, 0, 0]
                total = cols if total is None else total + cols
        return total

    def record(self, k0: int, t: np.ndarray, block: np.ndarray, *,
               chains: slice = slice(0, 2)) -> None:
        """Rows k0, k0+1, ... from the chain-order state vectors in block.

        block is (rows, dim), or (rows, 2, n) with a chain per middle
        index; each chain's slots in a row must be contiguous.  Only the
        given chains are measured: the others must be exactly zero.  t
        holds one value per row.  All six raw columns come from one
        product per chain (_measure), and n_norm and sz_norm from them,
        row by row.  The values are recorded as they are, finite or not:
        refusing a run that blew up is the step kernel's
        (propagator._stepped_blocks).  A block that ends at the last row
        drops the measurement buffers.
        """
        block = block.reshape(block.shape[0], 2, -1)
        rows = slice(k0, k0 + block.shape[0])
        cols = self._measure(block, chains).T
        (self.norm2[rows], self.n_raw[rows], self.sz_raw[rows],
         self.c_exp[rows], self.parity[rows], self.energy_re[rows]) = cols
        norm2 = cols[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            self.n_norm[rows] = np.where(norm2 > 0.0, cols[1] / norm2, np.nan)
            self.sz_norm[rows] = np.where(norm2 > 0.0, cols[2] / norm2, np.nan)
        self.times[rows] = t
        if rows.stop == len(self):
            self._weights = self._off = self._squares = None


def observe(state: SpinorFockState, q: TransferMatrix) -> Trajectory:
    """The one-row Trajectory, at t = 0, of state's observables and energy
    under q, measured as evolve measures each of its rows.

    observe(advance(state, prop, cfg, q), q) is bit for bit evolve's last
    row apart from t.  q must be truncated at state's P (ValueError).
    """
    if q.trunc.P != state.P:
        raise ValueError(f"q is truncated at P = {q.trunc.P}, the state at P = {state.P}")
    traj = Trajectory(q, 1)
    y = state.vector[q.order]
    traj.record(0, 0.0, y[None], chains=occupied_chains(y))
    return traj


def csv_rows(*columns: np.ndarray):
    """Yield one CSV line (no newline) per row of the float64 columns; each
    cell is repr(float(cell)), the shortest round-trip text.

    Rows are formatted CSV_BLOCK_ROWS at a time, and a block calls repr
    once per distinct bit pattern among its cells: norm2, energy_re,
    parity and, under RWA, C_exp repeat a handful of floats, and repr is
    most of the cost of a line.  Keying on bits, not values, keeps -0.0
    apart from 0.0 and NaNs with different payloads apart.
    """
    for top in range(0, columns[0].size, CSV_BLOCK_ROWS):
        block = np.stack([c[top:top + CSV_BLOCK_ROWS] for c in columns], axis=1,
                         dtype=np.float64)
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        for row in text[inverse.reshape(block.shape)].tolist():
            yield ",".join(row)


def csv_lines(traj: Trajectory):
    """Yield the CSV header, then one line per row of traj."""
    yield ",".join(CSV_COLUMNS)
    yield from csv_rows(traj.times, traj.norm2, traj.n_raw, traj.n_norm, traj.sz_raw,
                        traj.sz_norm, traj.energy_re, traj.c_exp, traj.parity)
