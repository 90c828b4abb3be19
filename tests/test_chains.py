"""The parity-chain route checked against the dense block-layout oracle.

Every production path works on the chain arrays and the band of M; the
dense constructions below are the former implementations, kept here as
the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbprop import (
    ModelParams,
    PropagatorConfig,
    SpinorFockState,
    StepPropagator,
    Truncation,
    build_step_propagator,
    build_transfer_matrix,
    diagonalize,
    energy_expectation,
    evolve,
    hermiticity_check,
    suggest_step,
)


def dense_q(params: ModelParams, P: int) -> np.ndarray:
    """Q assembled directly in the block layout, entry by entry."""
    n = P + 1
    m = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    p = np.arange(n)
    diag_e = params.omega_0 / 2 + params.omega_f * p
    diag_g = -params.omega_0 / 2 + params.omega_f * p
    if params.is_hermitian():
        m[p, p] = diag_e
        m[n + p, n + p] = diag_g
    else:
        m[p, p] = diag_e - 1j * (params.beta * p + params.gamma)
        m[n + p, n + p] = diag_g - 1j * (params.beta * p)
    k = np.arange(1, n)
    m[k - 1, n + k] = params.g_minus * k
    m[n + k, k - 1] = params.g_minus * k
    m[k, n + k - 1] = params.g_plus * k
    m[n + k - 1, k] = params.g_plus * k
    return m


def dense_taylor(qm: np.ndarray, dt: float, N: int) -> tuple[np.ndarray, float]:
    """M to order N by dense running-term products, and the last term's max-norm."""
    scaled = qm * (-1j * dt)
    m = np.eye(qm.shape[0], dtype=np.complex128)
    term = np.eye(qm.shape[0], dtype=np.complex128)
    for n in range(1, N + 1):
        term = (term @ scaled) / n
        m = m + term
    return m, float(np.abs(term).max())


finite = dict(allow_nan=False, allow_infinity=False)
rates = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5, **finite))


@settings(max_examples=60, deadline=None)
@given(
    omega_f=st.floats(min_value=0.1, max_value=3.0, **finite),
    omega_0=st.floats(min_value=-2.0, max_value=2.0, **finite),
    g_minus=st.floats(min_value=-2.0, max_value=2.0, **finite),
    g_plus=st.floats(min_value=-2.0, max_value=2.0, **finite),
    beta=rates,
    gamma=rates,
    P=st.integers(min_value=0, max_value=12),
    N=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_chain_route_matches_the_dense_oracle(omega_f, omega_0, g_minus, g_plus,
                                              beta, gamma, P, N, seed):
    params = ModelParams(omega_f=omega_f, omega_0=omega_0, g_minus=g_minus,
                         g_plus=g_plus, beta=beta, gamma=gamma)
    q = build_transfer_matrix(params, Truncation(P=P, N=N))
    qm = dense_q(params, P)

    # the chain arrays rebuild Q bit for bit, and its derived numbers
    assert np.array_equal(q.matrix, qm)
    assert q.one_norm() == float(np.abs(qm).sum(axis=0).max())
    assert hermiticity_check(q) == float(np.abs(qm - qm.conj().T).max())

    # banded Taylor build against dense accumulation; N > P makes the
    # band wider than a chain
    dt = suggest_step(q, N)
    cfg = PropagatorConfig(dt=dt, steps=1, N=N, tol=1.0)
    prop = build_step_propagator(q, cfg)
    m, last = dense_taylor(qm, dt, N)
    assert np.abs(prop.matrix - m).max() < 1e-13
    # a cache hit rebuilds the band from the dense payload: byte for byte
    # the same, signed zeros included, so hits and misses step identically
    loaded = StepPropagator(matrix=prop.matrix, fingerprint=prop.fingerprint,
                            dt=dt, N=N)
    assert loaded.band.tobytes() == prop.band.tobytes()
    assert prop.last_term_norm == pytest.approx(last, rel=1e-9, abs=1e-300)
    if q.hermitian:
        defect = float(np.abs(m.conj().T @ m - np.eye(q.dim)).max())
        assert abs(prop.unitarity_defect - defect) < 1e-14

    # one banded step against the dense product, and the energy form
    rng = np.random.default_rng(seed)
    y = rng.normal(size=q.dim) + 1j * rng.normal(size=q.dim)
    traj = evolve(SpinorFockState.from_vector(y), prop, cfg, q, snapshot_stride=1)
    assert np.abs(traj.snapshots[1] - prop.matrix @ y).max() < 1e-13 * np.abs(y).sum()
    exact = np.vdot(y, qm @ y)
    scale = np.abs(qm).max() * np.abs(y) @ np.abs(y) * 3
    assert abs(q.energy(y[q.order]) - exact.real) <= 1e-14 * scale
    assert abs(traj.energy_re[0] - exact.real) <= 1e-14 * scale
    assert abs(energy_expectation(SpinorFockState.from_vector(y), q) - exact) <= 1e-14 * scale

    # per-chain eigensolves against one dense eigensolve
    if q.hermitian:
        dec = diagonalize(q)
        ref = np.linalg.eigvalsh(qm.real)
        assert np.abs(dec.energies - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_step_propagator_band_shape_in_chain_order():
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
    q = build_transfer_matrix(params, Truncation(P=40))
    prop = build_step_propagator(q, PropagatorConfig(dt=0.05, steps=1))
    # M in chain order has half-bandwidth exactly N and no cross-chain block
    order = q.order
    chain = prop.matrix[np.ix_(order, order)]
    i, j = np.nonzero(chain)
    assert np.abs(i - j).max() == prop.N
    n = q.trunc.P + 1
    assert not chain[:n, n:].any() and not chain[n:, :n].any()


@pytest.mark.parametrize("where", ["far_from_diagonal", "across_chains"])
def test_dense_matrix_outside_the_band_is_refused(where):
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
    q = build_transfer_matrix(params, Truncation(P=40))
    prop = build_step_propagator(q, PropagatorConfig(dt=0.05, steps=1))
    bad = prop.matrix.copy()
    order = q.order
    if where == "far_from_diagonal":
        bad[order[0], order[prop.N + 1]] = 1e-300   # chain A, offset N + 1
    else:
        bad[order[0], order[q.trunc.P + 1]] = 1e-300  # chain A row, chain B column
    with pytest.raises(ValueError, match="outside the parity-chain band"):
        StepPropagator(matrix=bad, fingerprint=prop.fingerprint, dt=prop.dt, N=prop.N)
    with pytest.raises(ValueError, match="exactly one"):
        StepPropagator(fingerprint=prop.fingerprint, dt=prop.dt, N=prop.N)
