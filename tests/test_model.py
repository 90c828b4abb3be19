"""Transfer matrix assembly, checked against an independently coded rebuild."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbprop import ModelParams, Truncation, build_transfer_matrix
from sbprop.model import UFUNC_BUFSIZE, chain_block, chain_slots, small_ufunc_buffer


def interleaved_reference(params: ModelParams, P: int) -> np.ndarray:
    """Element-by-element rebuild in the interleaved order [e0, g0, e1, g1...].

    Deliberately written from the physics (which levels talk to which),
    not from the production assembly, and in a different basis ordering.
    """
    dim = 2 * (P + 1)
    m = np.zeros((dim, dim), dtype=np.complex128)

    def idx(spin: str, p: int) -> int:
        return 2 * p + (0 if spin == "e" else 1)

    for p in range(P + 1):
        m[idx("e", p), idx("e", p)] = (
            params.omega_0 / 2 + params.omega_f * p
            - 1j * (params.beta * p + params.gamma) * (not params.is_hermitian())
        )
        m[idx("g", p), idx("g", p)] = (
            -params.omega_0 / 2 + params.omega_f * p
            - 1j * (params.beta * p) * (not params.is_hermitian())
        )
        # photon-conserving channel: |e,p> <-> |g,p+1>, weight g_minus*(p+1)
        if p + 1 <= P:
            m[idx("e", p), idx("g", p + 1)] = params.g_minus * (p + 1)
            m[idx("g", p + 1), idx("e", p)] = params.g_minus * (p + 1)
        # counter-rotating channel: |e,p> <-> |g,p-1>, weight g_plus*p
        if p >= 1:
            m[idx("e", p), idx("g", p - 1)] = params.g_plus * p
            m[idx("g", p - 1), idx("e", p)] = params.g_plus * p
    return m


def to_block_order(m_inter: np.ndarray, P: int) -> np.ndarray:
    n = P + 1
    perm = np.concatenate([2 * np.arange(n), 2 * np.arange(n) + 1])
    return m_inter[np.ix_(perm, perm)]


def test_rwa_p1_matrix_is_the_expected_4x4():
    params = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1)
    q = build_transfer_matrix(params, Truncation(P=1))
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 0.1],
            [0.0, 1.5, 0.0, 0.0],
            [0.0, 0.0, -0.5, 0.0],
            [0.1, 0.0, 0.0, 0.5],
        ],
        dtype=np.complex128,
    )
    assert q.dim == 4
    assert q.hermitian
    assert np.array_equal(q.matrix, expected)


def test_dissipative_p1_diagonal_and_flag():
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                         beta=0.01, gamma=0.01)
    q = build_transfer_matrix(params, Truncation(P=1))
    assert not q.hermitian
    diag = np.diag(q.matrix)
    assert diag[0] == 0.375 - 0.01j          # e, p=0: -i*gamma
    assert diag[1] == 1.375 - 0.02j          # e, p=1: -i*(beta + gamma)
    assert diag[2] == -0.375                 # g, p=0: untouched
    assert diag[3] == 0.625 - 0.01j          # g, p=1: -i*beta
    # largest deviation from symmetry sits on the e,p=1 diagonal entry
    assert np.abs(q.matrix - q.matrix.T.conj()).max() == 2 * (0.01 * 1 + 0.01)


def test_a_rate_past_the_float_range_leaves_the_real_parts():
    # fig6 at beta = 1e308: beta * p overflows at levels 2 and 3, and
    # -1j * inf is nan - inf j, which the real parts must not take on
    fig6 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                       beta=1e308, gamma=0.01)
    q = build_transfer_matrix(fig6, Truncation(P=3))
    undamped = build_transfer_matrix(replace(fig6, beta=0.0, gamma=0.0), Truncation(P=3))
    level, _ = chain_slots(3)
    assert q.diag.real.tobytes() == undamped.diag.real.tobytes()
    assert np.array_equal(np.isneginf(q.diag.imag), level >= 2)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1),
        ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4),
        ModelParams(omega_f=0.7, omega_0=1.3, g_minus=0.1234567, g_plus=0.7654321),
        ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0),
    ],
)
def test_hermitian_parameters_give_exact_symmetry(params):
    q = build_transfer_matrix(params, Truncation(P=23))
    assert q.hermitian
    assert np.array_equal(q.matrix, q.matrix.T.conj())
    assert np.all(q.matrix.imag == 0.0)


@pytest.mark.parametrize("P", [0, 1, 2, 5, 17])
@pytest.mark.parametrize(
    "params",
    [
        ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1),
        ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4),
        ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                    beta=0.01, gamma=0.01),
        ModelParams(omega_f=2.5, omega_0=-0.3, g_minus=1.1, g_plus=0.9,
                    beta=0.2, gamma=0.0),
    ],
)
def test_matches_interleaved_reference_bit_for_bit(params, P):
    q = build_transfer_matrix(params, Truncation(P=P))
    ref = to_block_order(interleaved_reference(params, P), P)
    assert np.array_equal(q.matrix, ref)


@pytest.mark.parametrize("P", [0, 1, 7])
def test_chain_blocks_of_q_are_the_dense_matrix_in_chain_order(P):
    params = ModelParams(omega_f=2.5, omega_0=-0.3, g_minus=1.1, g_plus=0.9,
                         beta=0.2, gamma=0.1)
    q = build_transfer_matrix(params, Truncation(P=P))
    n = P + 1
    blocks = chain_block(q.band.reshape(2, n, 3))
    dense = q.matrix[np.ix_(q.order, q.order)]
    for c in range(2):
        slots = slice(c * n, (c + 1) * n)
        assert blocks[c].tobytes() == dense[slots, slots].tobytes()
        # one chain's rows alone give the same block
        assert chain_block(q.band[slots]).tobytes() == blocks[c].tobytes()
    # the real part of the rows gives a real block
    assert chain_block(q.band.real[:n]).dtype == np.float64


def test_interleaved_ordering_is_banded():
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
    m = interleaved_reference(params, 12)
    i, j = np.nonzero(m)
    assert np.abs(i - j).max() <= 3


def test_max_coupling_magnitude_is_g_times_P():
    g_minus, g_plus, P = 0.4, 0.3, 37
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=g_minus, g_plus=g_plus)
    q = build_transfer_matrix(params, Truncation(P=P))
    off = q.matrix - np.diag(np.diag(q.matrix))
    largest = np.abs(off).max()
    # the top retained channel |e,P-1> <-> |g,P> carries the factor P, not P+1:
    # the would-be P+1 entry references level P+1 and is cut
    assert largest == g_minus * P
    assert largest <= max(g_minus, g_plus) * (P + 1)


def test_p0_has_no_couplings():
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
    q = build_transfer_matrix(params, Truncation(P=0))
    assert q.dim == 2
    assert np.array_equal(q.matrix, np.diag([0.375 + 0j, -0.375 + 0j]))


def test_truncation_dim():
    assert Truncation(P=0).dim == 2
    assert Truncation(P=50).dim == 102


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega_f=0.0, omega_0=1.0),
        dict(omega_f=-1.0, omega_0=1.0),
        dict(omega_f=float("nan"), omega_0=1.0),
        dict(omega_f=1.0, omega_0=float("inf")),
        dict(omega_f=1.0, omega_0=1.0, beta=-0.1),
        dict(omega_f=1.0, omega_0=1.0, gamma=-1e-9),
    ],
)
def test_bad_parameters_are_rejected(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("P", [-1, 2.5])
def test_bad_truncation_is_rejected(P):
    with pytest.raises(ValueError):
        Truncation(P=P)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    omega_f=st.floats(min_value=1e-3, max_value=50.0, **finite),
    omega_0=st.floats(min_value=-50.0, max_value=50.0, **finite),
    g_minus=st.floats(min_value=-10.0, max_value=10.0, **finite),
    g_plus=st.floats(min_value=-10.0, max_value=10.0, **finite),
    beta=st.floats(min_value=0.0, max_value=2.0, **finite),
    gamma=st.floats(min_value=0.0, max_value=2.0, **finite),
    P=st.integers(min_value=0, max_value=12),
)
def test_reference_agreement_property(omega_f, omega_0, g_minus, g_plus,
                                      beta, gamma, P):
    params = ModelParams(omega_f=omega_f, omega_0=omega_0, g_minus=g_minus,
                         g_plus=g_plus, beta=beta, gamma=gamma)
    q = build_transfer_matrix(params, Truncation(P=P))
    assert np.array_equal(q.matrix, to_block_order(interleaved_reference(params, P), P))
    if params.is_hermitian():
        assert np.array_equal(q.matrix, q.matrix.T.conj())


def test_small_ufunc_buffer_gives_the_caller_its_size_back_on_error(caller_bufsize):
    with pytest.raises(ZeroDivisionError):
        with small_ufunc_buffer():
            assert np.getbufsize() == UFUNC_BUFSIZE
            1 / 0
    assert np.getbufsize() == caller_bufsize
