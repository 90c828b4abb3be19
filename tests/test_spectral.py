"""Eigendecomposition route: spectra, phase evolution, cutoff scans."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

import sbprop.spectral as spectral
from oracle import readings
from sbprop import (
    ModelParams,
    NonHermitianInput,
    SpinorFockState,
    Truncation,
    build_transfer_matrix,
    diagonalize,
    fock_state,
    gs_scan,
    load_run_config,
    lowest_energies,
    observe,
    parse_p_values,
    teee_evolve,
)
from sbprop.model import chain_block, occupied_chains

RWA = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1)
FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
DEEP = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0)


def test_p1_rwa_spectrum_by_hand():
    # blocks: isolated |g,0> at -0.5, isolated |e,1> at 1.5, and the
    # {|e,0>, |g,1>} pair [[0.5, 0.1], [0.1, 0.5]] -> 0.4, 0.6
    q = build_transfer_matrix(RWA, Truncation(P=1))
    dec = diagonalize(q)
    assert dec.energies == pytest.approx([-0.5, 0.4, 0.6, 1.5], abs=1e-14)


def test_decoupled_spectrum_is_the_bare_ladder():
    params = ModelParams(omega_f=1.0, omega_0=0.75)
    q = build_transfer_matrix(params, Truncation(P=4))
    expected = np.sort(np.concatenate([0.375 + np.arange(5.0),
                                       -0.375 + np.arange(5.0)]))
    assert diagonalize(q).energies == pytest.approx(expected, abs=1e-14)


def test_quality_metrics_are_enforced_and_reported():
    dec = diagonalize(build_transfer_matrix(FIG2, Truncation(P=50)))
    scale = 1.0 + np.abs(dec.energies).max()
    assert dec.residual <= 1e-10 * scale
    assert dec.ortho_defect <= 1e-10
    assert dec.dim == 102


def test_dissipative_matrix_is_refused():
    damped = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                         beta=0.01, gamma=0.01)
    q = build_transfer_matrix(damped, Truncation(P=5))
    with pytest.raises(NonHermitianInput):
        diagonalize(q)
    with pytest.raises(NonHermitianInput, match="^matrix carries dissipation"):
        gs_scan(damped, [5, 10])


def test_eigenbasis_is_complete_for_any_state():
    q = build_transfer_matrix(FIG2, Truncation(P=20))
    rng = np.random.default_rng(7)
    vec = rng.normal(size=q.dim) + 1j * rng.normal(size=q.dim)
    coeff = dense_decomposition(q)[1].T @ vec
    assert np.abs(coeff) @ np.abs(coeff) == pytest.approx(readings(vec)[0], rel=1e-12)


def test_phase_evolution_reproduces_the_rabi_cosine():
    dec = diagonalize(build_transfer_matrix(RWA, Truncation(P=5)))
    times = np.linspace(0.0, 60.0, 601)
    traj = teee_evolve(fock_state(0, "e", 5), dec, times)
    assert np.abs(traj.sz_raw - np.cos(0.2 * times)).max() < 1e-10
    # the energy column is measured per row, as evolve measures it: the
    # sum |F_j|^2 E_j up to rounding
    assert np.abs(traj.energy_re - traj.energy_re[0]).max() <= 1e-15
    assert np.abs(traj.norm2 - 1.0).max() < 1e-12


def test_eigenvector_initial_state_is_stationary():
    q = build_transfer_matrix(FIG2, Truncation(P=8))
    dec = diagonalize(q)
    state = SpinorFockState.from_vector(dense_decomposition(q)[1][:, 3].astype(np.complex128))
    traj = teee_evolve(state, dec, np.array([0.0, 0.7, 2.0, 11.0]))
    assert np.abs(traj.n_raw - traj.n_raw[0]).max() < 1e-12
    assert np.abs(traj.sz_raw - traj.sz_raw[0]).max() < 1e-12
    assert np.abs(traj.norm2 - 1.0).max() < 1e-12


def test_teee_validation():
    dec = diagonalize(build_transfer_matrix(FIG2, Truncation(P=4)))
    with pytest.raises(ValueError):
        teee_evolve(fock_state(0, "e", 5), dec, np.array([0.0]))
    with pytest.raises(ValueError):
        teee_evolve(fock_state(0, "e", 4), dec, np.zeros((2, 2)))


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3_P400"])
def test_lowest_energies_agree_with_the_full_decomposition(config_dir, name):
    # fig1 (rotating-wave) has zero couplings, an exact tie in chain B and
    # a 1.8e-15 split in chain A
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    want = diagonalize(q).energies
    for count in (1, 20, q.dim - 1):
        got = lowest_energies(q, count)
        assert got.shape == (count + 1,)
        assert np.abs(got - want[:count + 1]).max() <= 1e-12 * (1 + np.abs(want).max())


def test_lowest_energies_validation():
    q = build_transfer_matrix(FIG2, Truncation(P=4))
    for count in (0, -3, 1.5, q.dim):
        with pytest.raises(ValueError):
            lowest_energies(q, count)
    damped = ModelParams(omega_f=1.0, omega_0=0.75, beta=0.01)
    with pytest.raises(NonHermitianInput):
        lowest_energies(build_transfer_matrix(damped, Truncation(P=4)), 1)
    assert lowest_energies(q, 2.0).tobytes() == lowest_energies(q, 2).tobytes()
    # P = 0: each chain is one level
    q0 = build_transfer_matrix(FIG2, Truncation(P=0))
    assert lowest_energies(q0, 1).tolist() == [-0.375, 0.375]


@pytest.mark.parametrize("params", [
    FIG2, DEEP, RWA, ModelParams(omega_f=1.0, omega_0=0.0),
    ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.0, g_plus=0.5)])
def test_sturm_counts_match_the_one_float_recurrence(params):
    # shifts at the chain's own diagonal entries make pivots exactly 0
    P = 12
    q = build_transfer_matrix(params, Truncation(P=P))
    a, b, e = spectral._scaled_chains(q)
    rng = np.random.default_rng(3)
    x = np.stack([np.concatenate([rng.uniform(-1.0, 1.0, 8), a[c, :6]]) for c in (0, 1)])
    chains = chain_blocks(params, P)
    # every column over the whole chain, then over leading blocks that end
    # inside a ring of spectral.SWEEP_ROWS slots, at its last slot and past it
    for lengths in (np.full(x.shape[1], P + 1), np.repeat([13, 12, 9, 8, 5, 3, 1], 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, mantissa, exponent = spectral._sturm_sweep(a, b, x, lengths)()
            with np.errstate(divide="ignore"):
                log_det = np.log2(np.abs(mantissa)) + exponent
        for c, (d, off) in enumerate(chains):
            want = [sturm_count(d[:n], off[:n - 1], np.ldexp(v, e))
                    for v, n in zip(x[c], lengths)]
            assert counts[c].tolist() == want, (c, lengths.tolist())
            for s, (v, n) in enumerate(zip(x[c], lengths)):
                pivots = sturm_pivots(a[c, :n], b[c, :n - 1], v)
                with np.errstate(divide="ignore", invalid="ignore"):
                    want_log = np.log2(np.abs(pivots)).sum()
                if not np.isfinite(want_log):
                    # NaN: no estimate; -inf: a last pivot of 0
                    assert str(log_det[c, s]) == str(want_log), (c, s)
                    continue
                assert abs(log_det[c, s] - want_log) <= 1e-12 * max(1.0, abs(want_log)), (c, s)
                assert np.sign(mantissa[c, s]) == (-1) ** counts[c, s], (c, s)
        # x = a_0 makes d_0 = +0, and where b_0 couples it to slot 1, d_1 is
        # -inf and det has no estimate
        assert np.isnan(mantissa[b[:, 0] != 0, 8]).all()

    # the count is monotone in the shift, zero pivots included
    x = np.sort(np.hstack([rng.uniform(-1.0, 1.0, (2, 40)), a]), axis=1)
    counts = spectral._sturm_sweep(a, b, x, np.full(x.shape[1], P + 1))()[0]
    assert np.all(np.diff(counts, axis=1) >= 0)
    assert counts[:, 0].tolist() == [0, 0] and counts[:, -1].tolist() == [P + 1] * 2


def test_diagonalize_scales_its_residual_by_a_power_of_two():
    # at g_minus = 1e305 the energies (near -5e306) and the eigenpairs are
    # finite and accurate, but the squares of Q's entries overflow
    q = build_transfer_matrix(ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1e305,
                                          g_plus=0.4), Truncation(P=50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = diagonalize(q)
    assert dec.energies.tobytes() == dense_decomposition(q)[0].tobytes()
    assert dec.residual <= 1e-10 * (1.0 + np.abs(dec.energies).max())


def test_infinite_couplings_are_refused_alike_by_both_eigensolves():
    # 1e308 * 2 overflows: LAPACK would refuse the block, so diagonalize
    # does not hand it over, and lowest_energies refuses it alike
    q = build_transfer_matrix(ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1e308,
                                          g_plus=1e308), Truncation(P=5))
    for solve in (diagonalize, lambda q: lowest_energies(q, 3)):
        with pytest.raises(RuntimeError, match="^eigensolver returned non-finite energies$"):
            solve(q)


def test_infinite_diagonal_is_refused_as_non_finite_not_as_dissipation():
    # omega_f * 2 overflows on the diagonal at P = 3: Q is Hermitian, so
    # its refusal is that of any Q that is not finite, in the scan too
    params = ModelParams(omega_f=1e308, omega_0=0.75, g_minus=0.4, g_plus=0.4)
    q = build_transfer_matrix(params, Truncation(P=3))
    assert q.hermitian and np.isinf(q.diag.real).any()
    for solve in (diagonalize, lambda q: lowest_energies(q, 3),
                  lambda q: gs_scan(params, [0, 3])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="^eigensolver returned non-finite energies$"):
                solve(q)


def test_q_that_claims_to_be_hermitian_with_a_complex_diagonal_is_refused():
    damped = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                         beta=0.01, gamma=0.01)
    q = dataclasses.replace(build_transfer_matrix(damped, Truncation(P=5)), hermitian=True)
    for solve in (diagonalize, lambda q: lowest_energies(q, 3)):
        with pytest.raises(NonHermitianInput):
            solve(q)


@pytest.mark.parametrize("amp", [1e160, 1e200, 1e300])
def test_teee_evolve_records_coefficients_whose_squares_overflow_quietly(amp):
    q = build_transfer_matrix(FIG2, Truncation(P=10))
    s0 = SpinorFockState(amps_e=np.full(11, amp), amps_g=np.full(11, -1j * amp))
    dec = diagonalize(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = teee_evolve(s0, dec, np.linspace(0.0, 1.0, 5))
    assert np.all(traj.norm2 == np.inf)


def test_each_chain_block_is_written_once(monkeypatch):
    # lowest_energies counts on the chains themselves and writes no block
    blocks = []
    monkeypatch.setattr(spectral, "chain_block",
                        lambda rows: blocks.append(rows.shape) or chain_block(rows))
    q = build_transfer_matrix(FIG2, Truncation(P=30))
    for solve, want in ((diagonalize, [(31, 3), (31, 3)]),
                        (lambda q: lowest_energies(q, 3), [])):
        blocks.clear()
        solve(q)
        assert blocks == want


@pytest.mark.parametrize("name", ["fig2", "fig3_P400"])
@pytest.mark.parametrize("noise", [0.0, 1e-12])
def test_chain_residual_is_the_dense_block_residual(config_dir, monkeypatch, name, noise):
    # noise moves the vectors off the eigenvectors, so that the residual
    # stands far above the rounding of either product
    eigh = np.linalg.eigh

    def noisy(block):
        w, v = eigh(block)
        return w, v + noise * np.cos(np.arange(v.size)).reshape(v.shape)

    monkeypatch.setattr(np.linalg, "eigh", noisy)
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    dec = diagonalize(q)
    a, b, e = spectral._scaled_chains(q)
    dense = 0.0
    for c in range(2):
        block = np.diag(a[c]) + np.diag(b[c], 1) + np.diag(b[c], -1)
        v = dec.chain_vectors[c]
        r = block @ v - v * np.ldexp(dec.chain_energies[c], -e)
        dense = max(dense, float(np.linalg.norm(r, axis=0).max()))
    # each entry of either residual is the exact one within a few roundings
    # of its terms, and a column of v has unit norm
    scale = np.abs(a).max() + 2 * np.abs(b).max() + np.ldexp(np.abs(dec.energies).max(), -e)
    rounding = np.ldexp(8 * np.finfo(float).eps * scale, e)
    assert abs(dec.residual - np.ldexp(dense, e)) <= rounding
    assert noise == 0.0 or dec.residual > 100 * rounding


def test_gs_scan_converges_for_moderate_coupling():
    result = gs_scan(FIG2, range(4, 41, 4))
    assert result.classification == "Converged"
    assert result.plateau_P is not None and result.plateau_P <= 16
    assert abs(result.slope) < 1e-8
    assert result.e0[-1] == pytest.approx(-0.48393711262, abs=1e-9)


def test_gs_scan_flags_deep_strong_coupling_as_unbounded():
    result = gs_scan(DEEP, range(10, 61, 10))
    assert result.classification == "Unbounded"
    assert result.plateau_P is None
    assert result.slope < -1.0
    assert np.all(np.diff(result.e0) < 0.0)


def test_gs_scan_gives_the_caller_its_ufunc_buffer_back(caller_bufsize):
    gs_scan(FIG2, [4, 8, 12])
    assert np.getbufsize() == caller_bufsize


def test_gs_scan_tiny_exact_case():
    # P=0 and P=1 share E0 = -omega_0/2 exactly in the photon-conserving
    # model, so the scan must classify Converged with a zero-width plateau
    result = gs_scan(RWA, [0, 1])
    assert result.e0[0] == -0.5
    assert result.e0[1] == -0.5
    assert result.classification == "Converged"
    assert result.plateau_P == 0


@pytest.mark.parametrize("params, ps, want", [
    # the tie omega_f = |g_minus| + |g_plus| is bounded, settled or not
    (ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.5, g_plus=0.5), range(2, 61),
     "Undetermined"),
    (ModelParams(omega_f=1.0, omega_0=0.75, g_minus=-0.5, g_plus=0.5), [0, 1], "Undetermined"),
    # 1 + 2^-60 rounds to 1.0 in floats, yet the margin is negative; the
    # scan settles within CONVERGED_RTOL all the same
    (ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1.0, g_plus=2.0 ** -60), range(2, 61),
     "Unbounded"),
    (ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1.0, g_plus=-2.0 ** -60), [0, 1],
     "Unbounded"),
])
def test_gs_scan_verdict_is_the_exact_margin(params, ps, want):
    assert gs_scan(params, ps).classification == want


@pytest.mark.parametrize("ps", [[0, 1], range(0, 4), range(2, 21), range(2, 61), [5, 400]])
def test_gs_scan_reads_the_coupling_signs_as_their_magnitudes(ps):
    # g_minus = -0.4 is fig5a's model up to a sign flip of every other slot
    flipped = dataclasses.replace(FIG2, g_minus=-FIG2.g_minus)
    mine, theirs = gs_scan(flipped, ps), gs_scan(FIG2, ps)
    assert mine.classification == theirs.classification
    assert mine.e0.tobytes() == theirs.e0.tobytes()


@st.composite
def bounded_models(draw):
    """Hermitian models with omega_f >= |g_minus| + |g_plus| exactly, a
    fifth of them at the tie."""
    omega_f = draw(st.floats(0.2, 2.0))
    omega_0 = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    if draw(st.integers(0, 4)) == 0:
        # big lies in [omega_f / 2, omega_f], so omega_f - big is exact
        # (Sterbenz's lemma) and the two add up to omega_f
        big = omega_f * draw(st.floats(0.5, 1.0))
        g = [big, omega_f - big]
    else:
        u = draw(st.floats(0.0, 1.0))
        g = [omega_f * u, omega_f * draw(st.floats(0.0, 1.0 - u))]
    g = draw(st.permutations(g))
    g_minus, g_plus = (x * draw(st.sampled_from([-1.0, 1.0])) for x in g)
    assume(margin(omega_f, g_minus, g_plus) >= 0)
    return ModelParams(omega_f=omega_f, omega_0=omega_0, g_minus=g_minus, g_plus=g_plus)


def margin(omega_f, g_minus, g_plus):
    """omega_f - |g_minus| - |g_plus|, exactly."""
    return Fraction(omega_f) - Fraction(abs(g_minus)) - Fraction(abs(g_plus))


def q_scale(params, P):
    """A bound on the largest row sum of Q at cutoff P."""
    return ((params.omega_f + abs(params.g_minus) + abs(params.g_plus)) * (P + 1)
            + abs(params.omega_0))


@settings(max_examples=60, deadline=None)
@given(params=bounded_models(),
       ps=st.lists(st.integers(0, 400), min_size=2, max_size=8, unique=True).map(sorted))
@example(params=ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.5, g_plus=0.5),
         ps=[0, 1, 2, 60, 400])
def test_a_bounded_model_stays_above_its_lower_bound(params, ps):
    """margin >= 0: Q is at least the diagonal (margin p - |k'| +- omega_0/2)
    (gs_scan), so E0(P) >= -max(|g_minus|, |g_plus|) - |omega_0|/2 at every
    cutoff.  E0 is the last float below the level, within a few eps*|Q|."""
    result = gs_scan(params, ps)
    assert result.classification != "Unbounded"
    bound = -max(abs(params.g_minus), abs(params.g_plus)) - abs(params.omega_0) / 2
    tol = 8 * np.finfo(float).eps * q_scale(params, ps[-1])
    assert np.all(result.e0 >= bound - tol), result.e0.min() - bound


signed_couplings = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(params=st.builds(ModelParams, omega_f=st.floats(0.2, 2.0),
                        omega_0=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                        g_minus=signed_couplings, g_plus=signed_couplings))
@example(params=DEEP)
@example(params=ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1.0, g_plus=2.0 ** -60))
@example(params=ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.5))
def test_an_unbounded_model_falls_like_its_margin(params):
    """margin = omega_f - |g_minus| - |g_plus| < 0: E0(P) <= margin*P + C
    at P = 400.

    C comes from a trial vector on the chain's period-2 tail: x_p = s_p /
    sqrt(L) on its last L slots p = P-L+1 .. P, L odd, with s_{p+1} =
    -sign(b_p) s_p, so that each coupling b_p = c_p (p+1) adds -2|b_p| / L.
    The c_p alternate between |g_minus| and |g_plus|; with S their sum and
    D their difference, the L - 1 couplings, paired, sum to at least
    (S/2) sum(p+1) - (L-1) D/4.  The diagonals omega_f p +- omega_0/2
    alternate their sign of omega_0 and sum to at most omega_f L (P -
    (L-1)/2) + |omega_0|/2.  Adding up, the Rayleigh quotient is at most

        margin P + S P/L + |margin| (L-1)/2 + |omega_0|/(2L) + D/2,

    and E0(P) lies at or below it (Rayleigh-Ritz).  L is an odd integer
    within 1 of sqrt(2 S P / |margin|), which about minimises S P/L +
    |margin| L/2, and at most P + 1 (P is even).
    """
    exact = margin(params.omega_f, params.g_minus, params.g_plus)
    assume(exact < 0)
    P, gap = 400, -float(exact)
    g = sorted((abs(params.g_minus), abs(params.g_plus)))
    S, D = g[0] + g[1], g[1] - g[0]
    L = int(min(math.sqrt(2 * S * P / gap), P)) | 1
    C = S * P / L + gap * (L - 1) / 2 + abs(params.omega_0) / (2 * L) + D / 2
    result = gs_scan(params, [P // 2, P])
    assert result.classification == "Unbounded"
    tol = 8 * np.finfo(float).eps * q_scale(params, P)
    assert result.e0[-1] <= -gap * P + C + tol


def test_gs_scan_validation():
    with pytest.raises(ValueError):
        gs_scan(FIG2, [5])
    with pytest.raises(ValueError):
        gs_scan(FIG2, [5, 5])
    with pytest.raises(ValueError):
        gs_scan(FIG2, [10, 5])
    with pytest.raises(ValueError):
        gs_scan(FIG2, [-1, 5])
    with pytest.raises(ValueError, match="integers"):
        gs_scan(FIG2, [2.7, 5.5])
    with pytest.raises(ValueError, match="integers"):
        gs_scan(FIG2, [2, 5.5])
    with pytest.raises(ValueError, match="integers"):
        gs_scan(FIG2, [2, float("nan")])
    # integral floats name the same cutoffs as ints, as in Truncation
    assert gs_scan(FIG2, [2.0, 5.0]).e0.tobytes() == gs_scan(FIG2, [2, 5]).e0.tobytes()


def chain_blocks(params, P):
    """(diagonal, off-diagonal) of both parity chains of Q at cutoff P."""
    q = build_transfer_matrix(params, Truncation(P=P))
    n = P + 1
    return [(q.diag[lo:lo + n].real, q.off[lo:lo + n - 1]) for lo in (0, n)]


def sturm_pivots(d, off, x):
    """The LDL^T pivots of T - x, one float at a time: a zero pivot is +0,
    so the next is -inf, and a zero coupling starts a decoupled block."""
    pivots, pivot = [], 1.0
    for i, a in enumerate(d):
        b2 = off[i - 1] * off[i - 1] if i else 0.0
        quotient = (b2 / pivot if pivot else np.inf) if b2 else 0.0
        pivot = (a - x) - quotient
        pivots.append(pivot)
    return pivots


def sturm_count(d, off, x):
    """Negative pivots of LDL^T of T - x."""
    return sum(pivot < 0.0 for pivot in sturm_pivots(d, off, x))


couplings = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
hermitian_params = st.builds(
    ModelParams, omega_f=st.floats(0.2, 2.0),
    omega_0=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    g_minus=couplings, g_plus=couplings)
cutoff_grids = st.lists(st.integers(0, 120), min_size=2, max_size=12,
                        unique=True).map(sorted)


@settings(max_examples=40, deadline=None)
@given(params=hermitian_params, ps=cutoff_grids)
# omega_0 / 2 is subnormal: scaled by the largest entry, 2^6, it lost bits
@example(params=ModelParams(omega_f=2.0, omega_0=1.307518396529771e-308), ps=[0, 16])
def test_gs_scan_matches_a_tridiagonal_eigensolver(params, ps):
    e0 = gs_scan(params, ps).e0
    assert np.isfinite(e0).all()
    assert np.all(np.diff(e0) <= 0.0)
    eps = np.finfo(float).eps
    for P, e in zip(ps, e0):
        want, norm = [], 0.0
        for d, off in chain_blocks(params, P):
            want.append(eigvalsh_tridiagonal(d, off, select="i", select_range=(0, 0))[0]
                        if P else d[0])
            rows = np.abs(d) + np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0])
            norm = max(norm, rows.max())
        # each bisection is within about 0.7 eps*|T| of the exact value, and
        # the two can err in opposite directions
        assert abs(e - min(want)) <= 2.0 * eps * norm, P


@pytest.mark.parametrize("params", [FIG2, DEEP, RWA])
def test_gs_scan_values_do_not_depend_on_the_grid(params):
    full = gs_scan(params, range(0, 121))
    sub = [0, 3, 17, 50, 119, 120]
    assert gs_scan(params, sub).e0.tobytes() == full.e0[sub].tobytes()
    assert gs_scan(params, [17, 50]).e0.tobytes() == full.e0[[17, 50]].tobytes()


@pytest.mark.parametrize("params", [
    FIG2, DEEP, RWA, ModelParams(omega_f=1.0, omega_0=0.5, g_plus=0.7),
    ModelParams(omega_f=1.0, omega_0=0.0),
    # a bisection shift here makes a pivot exactly 0, so the next is -inf
    ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.0, g_plus=0.5),
    # resonant RWA: block (e0, g1) has the Gershgorin end 0.5 - 1.6 = -1.1,
    # where its pivots already count one negative
    ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.6)])
def test_gs_scan_e0_is_the_last_float_below_the_ground_state(params):
    ps = [0, 1, 2, 3, 4, 8, 40]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e0 = gs_scan(params, ps).e0
    for P, e in zip(ps, e0):
        chains = chain_blocks(params, P)
        assert sum(sturm_count(d, off, e) for d, off in chains) == 0, P
        above = np.nextafter(e, np.inf)
        assert sum(sturm_count(d, off, above) for d, off in chains) >= 1, P


@pytest.mark.parametrize("power", [-600, 600])
def test_gs_scan_scales_exactly_by_powers_of_two(power):
    # at 2^600 the squared couplings overflow a double, at 2^-600 they
    # underflow; scaled by a power of two, every E0 is exactly scaled
    ps = [1, 5, 30]
    scaled = ModelParams(*(np.ldexp(v, power) for v in (1.0, 1.0, 2.0, 2.0)))
    want = np.ldexp(gs_scan(DEEP, ps).e0, power)
    assert gs_scan(scaled, ps).e0.tobytes() == want.tobytes()


def assert_matches_the_bisection(params, ps):
    with np.errstate(over="ignore"):   # the bisection's b^2 / d may overflow to inf
        want = bisection_ground_energies(params, np.asarray(ps))
    assert gs_scan(params, ps).e0.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig1", "fig2", "fig3_P200", "fig3_P400"])
def test_multisection_matches_the_bisection_on_every_config(config_dir, name):
    # the gs-scan grid of fig5a and fig5b, every cutoff up to P elsewhere
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    ps = parse_p_values(cfg.p_values) if cfg.p_values else range(cfg.P + 1)
    assert_matches_the_bisection(cfg.to_params(), list(ps))


@settings(max_examples=60, deadline=None)
@given(params=hermitian_params, ps=cutoff_grids)
# a probe makes a pivot exactly 0, so the next is -inf and det is NaN
@example(params=ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.0, g_plus=0.5),
         ps=[0, 1, 2, 3, 4, 8, 40])
# the resonant RWA model: every other coupling is zero, det is 0 at lo,
# and counts above 1 at hi leave the uniform grid
@example(params=ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.0), ps=[0, 5, 30])
# omega_0 / 2 is subnormal, so the chains keep their scale 2^0 (coupled,
# so that the probes run)
@example(params=ModelParams(omega_f=2.0, omega_0=1.307518396529771e-308, g_minus=0.5),
         ps=[0, 16])
# resonant RWA past g_minus = omega_f: at P = 1 the Gershgorin end is above E0
@example(params=ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.6), ps=[0, 1, 2, 16])
def test_multisection_matches_the_bisection_on_random_scans(params, ps):
    assert_matches_the_bisection(params, ps)


@pytest.mark.parametrize("power", [-600, 600])
def test_multisection_matches_the_bisection_at_scaled_couplings(power):
    scaled = ModelParams(*(np.ldexp(v, power) for v in (1.0, 1.0, 2.0, 2.0)))
    assert_matches_the_bisection(scaled, [1, 5, 30])


@pytest.mark.parametrize("name, sweeps", [("fig5a", 7), ("fig5b", 8)],
                         ids=["fig5a", "fig5b"])
def test_multisection_probes_each_float_of_a_narrow_bracket(config_dir, monkeypatch, name,
                                                            sweeps):
    # a bracket at most PROBES + 1 floats wide probes every float inside it
    rounds = []
    real = spectral._sturm_sweep

    def spy(a, b, x, lengths):
        sweep = real(a, b, x, lengths)

        def probing():
            result = sweep()
            below = result[0]
            shape = (2, -1, spectral.PROBES)
            rounds.append((x.reshape(shape).copy(), below.reshape(shape) > 0))
            return result
        return probing

    monkeypatch.setattr(spectral, "_sturm_sweep", spy)
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    ps = parse_p_values(cfg.p_values)
    e0 = gs_scan(cfg.to_params(), ps).e0
    # the one-shift bisection took 57 sweeps on fig5a and 54 on fig5b, the
    # evenly spaced multisection 20, the det-steered one 7 and 8
    assert len(rounds) <= sweeps
    assert e0.tobytes() == bisection_ground_energies(cfg.to_params(), np.asarray(ps)).tobytes()

    # replay the brackets from the counts alone; an end no count has moved
    # yet is left infinite
    lo = np.full(rounds[0][0].shape[:2], -np.inf)
    hi = -lo
    probed = []
    for probes, above in rounds:
        last = lo
        for _ in range(spectral.PROBES + 1):
            last = np.nextafter(last, np.inf)
        for c, j in np.argwhere(np.isfinite(lo) & np.isfinite(hi) & (hi <= last)):
            inner = [np.nextafter(lo[c, j], np.inf)]
            while inner[-1] < hi[c, j]:
                inner.append(np.nextafter(inner[-1], np.inf))
            assert set(inner[:-1]) <= set(probes[c, j]), (c, j)
            probed.append(len(inner) - 1)
        lo = np.maximum(lo, np.where(above, -np.inf, probes).max(axis=2))
        hi = np.minimum(hi, np.where(above, probes, np.inf).min(axis=2))
    assert max(probed) > 1
    assert np.all(np.nextafter(lo, np.inf) == hi)


def limit_sweeps(monkeypatch, bound):
    """Fail at the first Sturm sweep spectral makes past bound from here
    on, so that a multisection that never ends fails too."""
    sweeps = []
    real = spectral._sturm_sweep

    def spy(a, b, x, lengths):
        sweep = real(a, b, x, lengths)

        def counted():
            sweeps.append(None)
            assert len(sweeps) <= bound, f"more than {bound} sweeps"
            return sweep()
        return counted

    monkeypatch.setattr(spectral, "_sturm_sweep", spy)


@pytest.mark.parametrize("source, levels, bound", [
    # det steers every level of fig3_P400 to its float in 9 sweeps
    ("fig3_P400", 40, 12),
    # fig1's RWA chains hold exact ties, whose brackets never hold one
    # eigenvalue alone, so only the uniform grid serves them: 20 sweeps
    ("fig1", 20, 24),
    # level 0 lies within 2e-40 of 0 while lo sits near -1.6e-25: regula
    # falsi's estimate rounds above hi, and a ladder clipped onto hi never
    # moves, until the miss sends the pair back to the grid: 8 sweeps
    (ModelParams(omega_f=2.0, omega_0=1.1754943508222875e-38), 1, 12),
], ids=["fig3_P400", "fig1", "level_next_to_0"])
def test_level_multisection_finishes_within_a_sweep_bound(config_dir, monkeypatch, source,
                                                          levels, bound):
    if isinstance(source, str):
        cfg = load_run_config(config_dir / f"{source}.cfg", [])
        q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    else:
        q = build_transfer_matrix(source, Truncation(P=13))
    limit_sweeps(monkeypatch, bound)
    got = lowest_energies(q, levels)
    assert got.tobytes() == bisection_levels(q, levels).tobytes()


@pytest.mark.parametrize("name, levels", [
    ("fig1", None), ("fig2", None), ("fig3_P200", None), ("fig3_P400", None),
    ("fig3_P400", 40), ("fig5a", None), ("fig5b", None), ("fig6", None)])
def test_lowest_energies_match_the_level_bisection_on_every_config(config_dir, name,
                                                                   levels):
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    count = levels or cfg.levels
    if not cfg.to_params().is_hermitian():
        # fig6 is dissipative: it has no levels to find
        with pytest.raises(NonHermitianInput):
            lowest_energies(q, count)
        return
    assert lowest_energies(q, count).tobytes() == bisection_levels(q, count).tobytes()


@settings(max_examples=40, deadline=None)
@given(params=hermitian_params, P=st.integers(0, 40), count=st.integers(1, 81))
# the resonant RWA model: every other coupling is zero
@example(params=ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.0), P=30, count=25)
# g_minus = 0: the counter-rotating couplings alone
@example(params=ModelParams(omega_f=1.0, omega_0=0.75, g_plus=0.7), P=30, count=25)
# P = 0: each chain is one level
@example(params=FIG2, P=0, count=1)
# no coupling on resonance: the levels of each chain come in exact ties
@example(params=ModelParams(omega_f=1.0, omega_0=1.0), P=12, count=20)
def test_lowest_energies_match_the_level_bisection_on_random_chains(params, P, count):
    q = build_transfer_matrix(params, Truncation(P=P))
    count = min(count, q.dim - 1)
    with np.errstate(over="ignore"):   # the bisection's b^2 / d may overflow to inf
        want = bisection_levels(q, count)
    assert lowest_energies(q, count).tobytes() == want.tobytes()


def test_gs_scan_assembles_q_once(monkeypatch):
    calls = []

    def counting(params, trunc):
        calls.append(trunc.P)
        return build_transfer_matrix(params, trunc)

    monkeypatch.setattr(spectral, "build_transfer_matrix", counting)
    gs_scan(DEEP, range(10, 61, 10))
    assert calls == [60]


def assert_e0_is_the_level_0_of_spectrum(params, ps):
    e0 = gs_scan(params, ps).e0
    want = [lowest_energies(build_transfer_matrix(params, Truncation(P=P)), 1)[0]
            for P in ps]
    assert e0.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3_P200", "fig3_P400", "fig5a",
                                  "fig5b"])
def test_gs_scan_e0_is_the_level_0_of_spectrum_on_every_config(config_dir, name):
    # the gs-scan grid of fig5a and fig5b, a few cutoffs up to P elsewhere
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    ps = parse_p_values(cfg.p_values) if cfg.p_values else [0, 1, 2, cfg.P // 2, cfg.P]
    assert_e0_is_the_level_0_of_spectrum(cfg.to_params(), ps)


@st.composite
def resonant_rwa(draw):
    """omega_0 = omega_f and g_plus = 0, with g_minus up to 12 omega_f."""
    omega_f = draw(st.floats(0.2, 2.0))
    return ModelParams(omega_f=omega_f, omega_0=omega_f,
                       g_minus=omega_f * draw(st.floats(0.0, 12.0)))


@settings(max_examples=40, deadline=None)
@given(params=resonant_rwa(), ps=st.lists(st.integers(0, 40), min_size=2, max_size=8,
                                           unique=True).map(sorted))
@example(params=ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.6), ps=[0, 1, 2])
def test_gs_scan_e0_is_the_level_0_of_spectrum_on_resonant_rwa(params, ps):
    assert_e0_is_the_level_0_of_spectrum(params, ps)


def dense_decomposition(q):
    """The former dense construction: one eigh per chain, the eigenvectors
    filled into a block-layout dim x dim matrix, columns in stable-sorted
    energy order."""
    n = q.trunc.P + 1
    energies = np.empty(q.dim)
    vectors = np.zeros((q.dim, q.dim))
    for lo in (0, n):
        slots = slice(lo, lo + n)
        d, off = q.diag[slots].real, q.off[lo:lo + n - 1]
        e, v = np.linalg.eigh(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
        energies[slots] = e
        vectors[q.order[slots], slots] = v
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order]


# omega_0 = 0 and no coupling: every level is doubly degenerate across the
# chains, so the stable tie order of the two chains shows
DEGENERATE = ModelParams(omega_f=1.0, omega_0=0.0)


@pytest.mark.parametrize("params", [FIG2, DEEP, DEGENERATE])
@pytest.mark.parametrize("P", [0, 1, 8, 50])
def test_vectors_view_is_the_dense_block_layout_construction(params, P):
    q = build_transfer_matrix(params, Truncation(P=P))
    dec = diagonalize(q)
    energies, vectors = dense_decomposition(q)
    assert dec.energies.tobytes() == energies.tobytes()
    assert dec.chain_energies.shape == (2, P + 1)
    assert dec.chain_vectors.shape == (2, P + 1, P + 1)
    # eigenpair k of chain c is the oracle's column at its place in the
    # stable sort, read in the rows of chain c's slots
    n = P + 1
    column = np.argsort(np.argsort(dec.chain_energies, axis=None, kind="stable"))
    for c in range(2):
        slots = slice(c * n, (c + 1) * n)
        block = vectors[q.order[slots]][:, column[slots]]
        assert dec.chain_vectors[c].tobytes() == block.tobytes(), c


@pytest.mark.parametrize("spin", ["e", "g"])
def test_teee_skips_the_empty_chain_without_changing_a_bit(monkeypatch, spin):
    dec = diagonalize(build_transfer_matrix(FIG2, Truncation(P=30)))
    times = np.linspace(0.0, 20.0, 201)
    skipped = teee_evolve(fock_state(0, spin, 30), dec, times)
    monkeypatch.setattr(spectral, "occupied_chains", lambda y: slice(0, 2))
    full = teee_evolve(fock_state(0, spin, 30), dec, times)
    for name in ("norm2", "n_raw", "sz_raw", "energy_re", "c_exp", "parity"):
        assert getattr(skipped, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("P", [0, 5, 50, 400])
def test_per_chain_teee_matches_the_dense_eigenbasis_oracle(P):
    q = build_transfer_matrix(DEEP, Truncation(P=P))
    dec = diagonalize(q)
    rng = np.random.default_rng(P)
    vec = rng.normal(size=q.dim) + 1j * rng.normal(size=q.dim)
    vec /= np.linalg.norm(vec)
    state = SpinorFockState.from_vector(vec)
    # 701 times span 11 of teee_evolve's BLOCK_ROWS blocks, the last partial
    times = np.linspace(0.0, 20.0, 701)
    traj = teee_evolve(state, dec, times)

    energies, v = dense_decomposition(q)
    coeff = v.T @ vec
    states = v @ (np.exp(-1j * np.outer(energies, times)) * coeff[:, None])
    norm2, photon, inversion, excitation, parity = np.array(
        [readings(s) for s in states.T]).T
    energy = np.abs(coeff) ** 2 @ energies
    expected = {"norm2": norm2, "n_raw": photon, "n_norm": photon / norm2,
                "sz_raw": inversion, "sz_norm": inversion / norm2,
                "energy_re": energy, "c_exp": excitation, "parity": parity}
    assert np.array_equal(traj.times, times)
    # relative to each column's size: a random state spread over all
    # levels has n_raw near P / 2
    for name, want in expected.items():
        scale = 1.0 + np.abs(want).max()
        assert np.abs(getattr(traj, name) - want).max() < 1e-12 * scale, name

    empty = teee_evolve(state, dec, np.array([]))
    assert len(empty) == 0
    for name in expected:
        assert getattr(empty, name).shape == (0,), name


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3_P200"])
def test_each_teee_row_is_observe_of_its_rotated_state_bit_for_bit(config_dir, name):
    # the states teee_evolve records, rotated block by block as it rotates
    # them, and each read back alone by observe, the reading of evolve's rows
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    q = build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    dec = diagonalize(q)
    state = cfg.build_initial_state()
    times = np.linspace(0.0, cfg.t_max, 200)
    traj = teee_evolve(state, dec, times)

    y0 = state.vector[q.order].reshape(2, -1, 1)
    chains = occupied_chains(y0)
    coeff = np.zeros(y0.shape, dtype=np.complex128)
    coeff[chains] = spectral._real_times_complex(
        dec.chain_vectors[chains].transpose(0, 2, 1), y0[chains])
    rows = []
    for lo in range(0, times.size, spectral.BLOCK_ROWS):
        for y in spectral._chain_states(dec, coeff, times[lo:lo + spectral.BLOCK_ROWS],
                                        chains):
            vector = np.empty(q.dim, dtype=np.complex128)
            vector[q.order] = y.ravel()
            rows.append(observe(SpinorFockState.from_vector(vector), q))
    for column in ("norm2", "n_raw", "n_norm", "sz_raw", "sz_norm", "energy_re",
                   "c_exp", "parity"):
        want = np.concatenate([getattr(row, column) for row in rows])
        assert getattr(traj, column).tobytes() == want.tobytes(), column


# The one-shift bisection that gs_scan ran before its multisection, from a
# bracket it shares with no package code, as the reference whose every bit
# the multisection must match: both stop only where no float lies strictly
# inside a bracket, and the count is monotone in the shift, so both end on
# the same float.
SWEEP_ROWS = 32
_scaled_chains = spectral._scaled_chains


def bisection_ground_energies(params: ModelParams, ps: np.ndarray) -> np.ndarray:
    """E0 of Q at every cutoff in ps (strictly increasing), by one bisection
    on Sturm counts taken over both chains of Q at the largest cutoff.

    Every pair (c, j), the lowest eigenvalue of chain c's leading block at
    cutoff ps[j], starts from the bracket [-r, r] about the whole spectrum
    of Q / 2^e that bisection_levels uses.  A sweep runs the pivot
    recurrence d_i = (a_i - x) - b_{i-1}^2 / d_{i-1} once over the chain
    slots, with one shift x per pair; pair (c, j) reads
    "x is above E0" as any negative pivot among its first ps[j] + 1.
    Bisection stops when no midpoint lies strictly inside a bracket, and
    E0 is the low end.  A zero pivot is +0, so the next one is -inf; a slot
    whose coupling b_{i-1} is 0 starts a decoupled block and takes
    d_i = a_i - x, which keeps 0/0 out.  Each pivot row costs three ufunc
    calls, on contiguous rows of the pairs it touches.

    Q must have finite entries, and an E0 that overflows is refused with
    RuntimeError.
    """
    q = build_transfer_matrix(params, Truncation(P=int(ps[-1])))
    n, m = q.trunc.P + 1, ps.size
    a, b, e = _scaled_chains(q)
    b2 = b * b
    norm = np.abs(a).max() + 2 * np.abs(b).max(initial=0.0)
    reach = np.ldexp(1.0, int(np.frexp(norm)[1]) + 1)
    lo = np.full((2, m), -reach)
    hi = -lo

    # The columns hold the pairs by descending cutoff.  Row i of a sweep
    # touches only the pairs whose cutoff is at least i: the first
    # active[i] columns.  Every call in `blocks` writes those
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


def bisection_levels(q, count: int) -> np.ndarray:
    """The count + 1 lowest energies of Q by one bisection per (chain,
    level) on Sturm counts: one shift per pair, from a bracket [-r, r]
    about the whole spectrum of Q / 2^e, stopping only when no float lies
    strictly inside a bracket.

    Pair (c, j) reads "x is above level j" as more than j negative pivots
    of chain c minus x, so level j ends on the largest float with at most
    j.  The pivots follow the same recurrence as _sturm_sweep, one slot at
    a time: a zero pivot is +0, so the next is -inf, and a slot whose
    coupling is 0 takes d_i = a_i - x.  The two chains' levels are
    stable-sorted together.
    """
    a, b, e = _scaled_chains(q)
    n = a.shape[1]
    levels = np.arange(min(count, n - 1) + 1)
    b2 = b * b
    norm = np.abs(a).max() + 2 * np.abs(b).max(initial=0.0)
    r = np.ldexp(1.0, int(np.frexp(norm)[1]) + 1)
    lo = np.full((2, levels.size), -r)
    hi = -lo
    while True:
        x = (lo + hi) * 0.5
        inside = (lo < x) & (x < hi)
        if not inside.any():
            with np.errstate(over="ignore"):
                return np.sort(np.ldexp(lo, e), axis=None, kind="stable")[:count + 1]
        below = np.zeros(x.shape, dtype=np.int64)
        with np.errstate(divide="ignore"):
            for i in range(n):
                pivot = a[:, i, None] - x
                if i:
                    live = np.flatnonzero(b2[:, i - 1])
                    pivot[live] -= b2[live, i - 1, None] / d[live]
                d = pivot
                below += d < 0.0
        above = below > levels
        hi = np.where(inside & above, x, hi)
        lo = np.where(inside & ~above, x, lo)
