"""CSV rendering of trajectories and the fused block measurement, checked
against the block-layout oracle (tests/oracle.py)."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from sbprop import (CSV_COLUMNS, ModelParams, Trajectory, Truncation, build_transfer_matrix,
                    csv_lines)
from sbprop.model import chain_order, chain_slots
from sbprop.propagator import BLOCK_ROWS
import sbprop.trajectory
from sbprop.trajectory import CSV_BLOCK_ROWS

FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
FIG6 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                   beta=0.01, gamma=0.01)
DEEP = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0)
SRC = Path(__file__).resolve().parent.parent / "src"


def carrying(cols):
    """A plain object that carries the nine CSV columns as a Trajectory
    names them, which is all csv_lines reads."""
    names = ("times", "norm2", "n_raw", "n_norm", "sz_raw", "sz_norm", "energy_re",
             "c_exp", "parity")
    return SimpleNamespace(**dict(zip(names, cols, strict=True)))


def test_csv_rows_match_the_per_cell_formula():
    special = np.array([0.0, math.nan, math.inf, -math.inf, -0.0, 5e-324,
                        2.0 ** 53 + 2, 3.0 * 2 ** 70, 1e300, 0.1, 1 / 3, -7.0])
    cols = [np.roll(special, k) for k in range(len(CSV_COLUMNS))]
    traj = carrying(cols)
    lines = list(csv_lines(traj))
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1:] == [",".join(repr(float(c[k])) for c in cols)
                         for k in range(special.size)]
    text = "\n".join(lines)
    for token in ("nan", "-inf", "-0.0", "5e-324", "9007199254740994.0"):
        assert token in text


def per_cell_lines(cols):
    return [",".join(repr(float(c[k])) for c in cols) for k in range(cols[0].size)]


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def repeating_columns(rows, seed):
    """Columns drawn from a few floats each, as norm2 and parity are, with
    every special value among them."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, nan_with_payload(1), nan_with_payload(2), -math.nan,
                     math.inf, -math.inf, 5e-324, 1.0, -1.0, 0.1, 1 / 3, 0.375])
    cols = [rng.choice(pool, rows) for _ in CSV_COLUMNS]
    cols[0] = np.arange(rows) * 0.05
    cols[3] = rng.normal(size=rows)  # one column all distinct
    return cols


def test_csv_rows_longer_than_two_blocks_match_the_per_cell_formula():
    rows = 2 * CSV_BLOCK_ROWS + 37
    cols = repeating_columns(rows, 0)
    lines = list(csv_lines(carrying(cols)))
    assert lines[1:] == per_cell_lines(cols)


def test_csv_rows_keep_bit_patterns_apart_across_block_edges(monkeypatch):
    monkeypatch.setattr(sbprop.trajectory, "CSV_BLOCK_ROWS", 3)
    # each special value and its twin (-0.0 for 0.0, another NaN payload)
    # on both sides of a block edge, and repeats within and across blocks
    edge = np.array([1.0, 0.0, -0.0, nan_with_payload(1), nan_with_payload(5), math.inf,
                     -math.inf, 5e-324, -5e-324, 5e-324, 0.0, 0.0, -0.0, 1.0, 1.0])
    cols = [np.roll(edge, k) for k in range(len(CSV_COLUMNS))]
    lines = list(csv_lines(carrying(cols)))
    assert lines[1:] == per_cell_lines(cols)
    text = "\n".join(lines)
    for token in (",0.0,", ",-0.0,", ",nan,", ",inf,", ",-inf,", ",5e-324,", ",-5e-324,"):
        assert token in text
    cols = repeating_columns(50, 1)
    assert list(csv_lines(carrying(cols)))[1:] == per_cell_lines(cols)


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS])
def test_csv_lines_are_the_header_then_one_line_per_row(rows):
    lines = list(csv_lines(carrying(repeating_columns(rows, rows))))
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == rows + 1
    assert not any("\n" in line for line in lines)
    assert all(line.count(",") == len(CSV_COLUMNS) - 1 for line in lines)


def former_columns(q, y):
    """The per-row formulas measure() and energy() used before the fusion,
    each with the sum of the absolute terms it adds up."""
    order = chain_order(q.trunc.P)
    sq = y.real ** 2 + y.imag ** 2
    weights = [np.ones(q.dim)] + [v[order] for v in oracle.weights(q.trunc.P)]
    cols = [(v * sq).sum(-1) for v in weights]
    scales = [(np.abs(v) * sq).sum(-1) for v in weights]
    a, b = y[:, :-1], y[:, 1:]
    cross = a.real * b.real + a.imag * b.imag
    cols.append((q.diag.real * sq).sum(-1) + 2.0 * (q.off * cross).sum(-1))
    scales.append((np.abs(q.diag.real) * sq).sum(-1)
                  + 2.0 * (np.abs(q.off) * np.abs(cross)).sum(-1))
    return cols, scales


def measured(builder):
    return [builder.norm2, builder.n_raw, builder.sz_raw, builder.c_exp,
            builder.parity, builder.energy_re]


def random_rows(rng, rows, dim):
    y = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return y * np.logspace(-3, 3, rows)[:, None]


@pytest.mark.parametrize("P", [0, 1, 2, 3, 50, 51])
def test_builder_weights_are_the_oracle_weights_in_chain_order(P):
    # P + 1 odd and even: chain B starts on an odd and on an even slot
    dim = 2 * (P + 1)
    # the weights do not depend on the couplings, so any Q at P will do
    builder = Trajectory(build_transfer_matrix(FIG2, Truncation(P=P)), dim)
    # one chain-order basis state per row reads each slot's weight exactly
    builder.record(0, np.zeros(dim), np.eye(dim, dtype=np.complex128))
    order = chain_order(P)
    got = (builder.norm2, builder.n_raw, builder.sz_raw, builder.c_exp, builder.parity)
    want = (np.ones(dim), *(w[order] for w in oracle.weights(P)))
    for name, g, w in zip(("norm2", "photon", "inversion", "excitation", "parity"),
                          got, want):
        assert g.tobytes() == w.tobytes(), name
    # the level and spin of each slot, which the builder, chain_order and
    # build_transfer_matrix all take from chain_slots
    level, inversion = (w[order] for w in oracle.weights(P)[:2])
    got_level, excited = chain_slots(P)
    assert np.array_equal(got_level, level)
    assert np.array_equal(excited, inversion > 0)


@pytest.mark.parametrize("params", [FIG2, FIG6], ids=["hermitian", "dissipative"])
@pytest.mark.parametrize("P", [0, 1, 50, 400])
def test_fused_columns_match_the_former_formulas(params, P):
    q = build_transfer_matrix(params, Truncation(P=P))
    rng = np.random.default_rng(P)
    y = random_rows(rng, 9, q.dim)
    y[0] = 0.0
    y[0, 3 % q.dim] = 1.0  # one basis state, measured exactly
    builder = Trajectory(q, 9)
    builder.record(0, np.arange(9.0), y)
    cols, scales = former_columns(q, y)
    for name, got, want, scale in zip(CSV_COLUMNS[1:], measured(builder), cols, scales):
        assert np.all(np.abs(got - want) <= 1e-12 * scale), name


@pytest.mark.parametrize("P", [50, 400, 2000])
def test_a_row_measures_the_same_bits_alone_and_anywhere_in_a_block(P):
    q = build_transfer_matrix(DEEP, Truncation(P=P))
    rng = np.random.default_rng(P)
    # rows held as evolve holds them: the middle of a zero-padded block
    padded = np.zeros((BLOCK_ROWS, q.dim + 2 * 7), dtype=np.complex128)
    ys = padded[:, 7:7 + q.dim]
    ys[:] = random_rows(rng, BLOCK_ROWS, q.dim)

    def measure(builder, k0, rows):
        builder.record(k0, np.zeros(rows.shape[0]), rows)
        return np.column_stack(measured(builder))[k0:k0 + rows.shape[0]]

    whole = measure(Trajectory(q, BLOCK_ROWS), 0, ys)
    alone = np.concatenate([measure(Trajectory(q, 1), 0, ys[r:r + 1].copy())
                            for r in range(BLOCK_ROWS)])
    assert np.array_equal(whole, alone)

    fives = Trajectory(q, BLOCK_ROWS)
    parts = np.concatenate([measure(fives, lo, ys[lo:lo + 5])
                            for lo in range(0, BLOCK_ROWS, 5)])
    assert np.array_equal(parts, whole)

    # one builder, its buffer reused block after block as in evolve
    builder = Trajectory(q, BLOCK_ROWS)
    others = random_rows(rng, BLOCK_ROWS, q.dim)
    for r in range(BLOCK_ROWS):
        block = others.copy()
        block[r] = ys[0]
        assert np.array_equal(measure(builder, 0, block)[r], whole[0]), r


def test_measured_bits_do_not_depend_on_the_blas_thread_count():
    # P = 5200: each chain's float view holds 10,402 floats, long enough
    # that BLAS splits a plain dot product of it across threads.  The
    # diagonal part of the energy (about 5e7) swamps the last bits of the
    # off-diagonal sum, so the energy is also measured with Q's diagonal
    # zeroed, where the off-diagonal sum is all there is.
    script = (
        "import dataclasses, hashlib, numpy as np\n"
        "from sbprop import ModelParams, Truncation, build_transfer_matrix\n"
        "from sbprop.trajectory import Trajectory\n"
        "q = build_transfer_matrix(ModelParams(1.0, 1.0, 2.0, 2.0), Truncation(P=5200))\n"
        "off_only = dataclasses.replace(q, diag=np.zeros_like(q.diag))\n"
        "rng = np.random.default_rng(5)\n"
        "y = rng.normal(size=(3, q.dim)) + 1j * rng.normal(size=(3, q.dim))\n"
        "b = Trajectory(q, 3)\n"
        "b.record(0, np.zeros(3), y)\n"
        "cols = (b.norm2, b.n_raw, b.sz_raw, b.c_exp, b.parity, b.energy_re)\n"
        "print(hashlib.sha256(np.concatenate(cols).tobytes()).hexdigest())\n"
        "b = Trajectory(off_only, 3)\n"
        "b.record(0, np.zeros(3), y)\n"
        "assert np.abs(b.energy_re).min() > 0.0\n"
        "print(hashlib.sha256(b.energy_re.tobytes()).hexdigest())\n")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(done.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("P", [0, 50, 400])
def test_each_chain_is_measured_on_its_own_and_the_results_added(P):
    q = build_transfer_matrix(DEEP, Truncation(P=P))
    n = P + 1
    rng = np.random.default_rng(P)
    y = random_rows(rng, 9, q.dim).reshape(9, 2, n)

    def columns(block, chains):
        builder = Trajectory(q, 9)
        builder.record(0, np.zeros(9), block, chains=chains)
        return np.column_stack(measured(builder))

    both = columns(y, slice(0, 2))
    a, b = columns(y, slice(0, 1)), columns(y, slice(1, 2))
    assert both.tobytes() == (a + b).tobytes()
    # a chain left out is never read: NaN there changes nothing
    for c, alone in ((0, a), (1, b)):
        other = y.copy()
        other[:, 1 - c] = np.nan
        assert columns(other, slice(c, c + 1)).tobytes() == alone.tobytes()
        # and a zero chain adds nothing: skipping it measures the same values
        zero = y.copy()
        zero[:, 1 - c] = 0.0
        assert np.array_equal(columns(zero, slice(c, c + 1)), columns(zero, slice(0, 2)))
    # (rows, dim) and (rows, 2, n) are the same rows
    assert columns(y.reshape(9, -1), slice(0, 2)).tobytes() == both.tobytes()
