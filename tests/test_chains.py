"""The parity-chain route checked against the dense block-layout oracle.

Every production path works on the chain arrays and the band of M; the
dense constructions below are the former implementations, kept here as
the reference.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbprop import (
    CacheEntry,
    ModelParams,
    PropagatorConfig,
    SpinorFockState,
    StepPropagator,
    Truncation,
    advance,
    build_step_propagator,
    build_transfer_matrix,
    diagonalize,
    evolve,
    observe,
    suggest_step,
)
from sbprop.model import band_from_dense


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
# subnormal scale: the relative energy bound alone underflows to 0.0
@example(omega_f=1.0, omega_0=2.2250738585e-313, g_minus=0.0, g_plus=0.0,
         beta=0.0, gamma=0.0, P=0, N=1, seed=0)
# |Q|_1 dt underflows to 0 at the largest step, so suggest_step takes no log
@example(omega_f=1.0, omega_0=0.0, g_minus=0.0, g_plus=0.0,
         beta=0.0, gamma=5e-324, P=0, N=1, seed=0)
def test_chain_route_matches_the_dense_oracle(omega_f, omega_0, g_minus, g_plus,
                                              beta, gamma, P, N, seed):
    params = ModelParams(omega_f=omega_f, omega_0=omega_0, g_minus=g_minus,
                         g_plus=g_plus, beta=beta, gamma=gamma)
    q = build_transfer_matrix(params, Truncation(P=P))
    qm = dense_q(params, P)

    # the chain arrays rebuild Q bit for bit, and its derived numbers
    assert np.array_equal(q.matrix, qm)
    assert q.one_norm() == float(np.abs(qm).sum(axis=0).max())

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
                            dim=q.dim, dt=dt, N=N)
    assert loaded.band.tobytes() == prop.band.tobytes()
    assert prop.last_term_norm == pytest.approx(last, rel=1e-9, abs=1e-300)
    if q.hermitian:
        defect = float(np.abs(m.conj().T @ m - np.eye(q.dim)).max())
        assert abs(prop.unitarity_defect - defect) < 1e-14

    # one banded step against the dense product, and the energy form
    rng = np.random.default_rng(seed)
    y = rng.normal(size=q.dim) + 1j * rng.normal(size=q.dim)
    stepped = advance(SpinorFockState.from_vector(y), prop, cfg, q).vector
    assert np.abs(stepped - prop.matrix @ y).max() < 1e-13 * np.abs(y).sum()
    traj = evolve(SpinorFockState.from_vector(y), prop, cfg, q)
    exact = np.vdot(y, qm @ y)
    scale = np.abs(qm).max() * np.abs(y) @ np.abs(y) * 3
    # floor: a few ulps of subnormal arithmetic, where 1e-14 * scale is 0.0
    bound = 1e-14 * scale + q.dim * np.finfo(float).smallest_subnormal
    assert abs(traj.energy_re[0] - exact.real) <= bound
    assert abs(observe(SpinorFockState.from_vector(y), q).energy_re[0] - exact.real) <= bound

    # per-chain eigensolves against one dense eigensolve
    if q.hermitian:
        dec = diagonalize(q)
        ref = np.linalg.eigvalsh(qm.real)
        assert np.abs(dec.energies - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_step_propagator_band_shape_in_chain_order():
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
    q = build_transfer_matrix(params, Truncation(P=40))
    prop = build_step_propagator(q, PropagatorConfig(dt=0.05, steps=1))
    # M in chain order has half-bandwidth exactly N, the propagator's band
    # its own half-width w < N, and neither has a cross-chain block
    m, _ = dense_taylor(dense_q(params, 40), 0.05, prop.N)
    w = prop.band.shape[1] // 2
    assert w < prop.N
    order = q.order
    n = q.trunc.P + 1
    for dense, half_width in ((m, prop.N), (prop.matrix, w)):
        chain = dense[np.ix_(order, order)]
        i, j = np.nonzero(chain)
        assert np.abs(i - j).max() == half_width
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
        StepPropagator(matrix=bad, fingerprint=prop.fingerprint, dim=q.dim, dt=prop.dt,
                       N=prop.N)
    with pytest.raises(ValueError, match="give one of band and matrix"):
        StepPropagator(fingerprint=prop.fingerprint, dim=q.dim, dt=prop.dt, N=prop.N)


def test_a_dense_matrix_that_is_not_square_of_even_dimension_is_refused():
    for shape in ((3, 3), (4, 2), (4,)):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a square matrix of even dimension, got {shape}")):
            band_from_dense(np.zeros(shape, dtype=np.complex128), 2)
    with pytest.raises(ValueError, match="expected a square matrix of even dimension"):
        CacheEntry(fingerprint=1, dim=3, N=2, dt=0.05, matrix=np.zeros((3, 3)))
