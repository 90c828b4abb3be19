"""Eigendecomposition route: spectra, phase evolution, cutoff scans."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

import sbprop.spectral as spectral
from sbprop import (
    ModelParams,
    NonHermitianInput,
    ObservableWeights,
    SpinorFockState,
    Truncation,
    build_transfer_matrix,
    diagonalize,
    fock_state,
    gs_scan,
    level_differences,
    load_run_config,
    lowest_energies,
    norm_squared,
    parse_p_values,
    teee_evolve,
)
from sbprop.model import chain_block

RWA = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1)
FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
DEEP = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0)


def test_p1_rwa_spectrum_by_hand():
    # blocks: isolated |g,0> at -0.5, isolated |e,1> at 1.5, and the
    # {|e,0>, |g,1>} pair [[0.5, 0.1], [0.1, 0.5]] -> 0.4, 0.6
    q = build_transfer_matrix(RWA, Truncation(P=1))
    dec = diagonalize(q)
    assert dec.energies == pytest.approx([-0.5, 0.4, 0.6, 1.5], abs=1e-14)
    assert level_differences(dec, 3) == pytest.approx([0.9, 1.1, 2.0], abs=1e-14)


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
    with pytest.raises(NonHermitianInput):
        gs_scan(damped, [5, 10])


def test_eigenbasis_is_complete_for_any_state():
    q = build_transfer_matrix(FIG2, Truncation(P=20))
    rng = np.random.default_rng(7)
    vec = rng.normal(size=q.dim) + 1j * rng.normal(size=q.dim)
    state = SpinorFockState.from_vector(vec)
    coeff = dense_decomposition(q)[1].T @ vec
    assert np.abs(coeff) @ np.abs(coeff) == pytest.approx(norm_squared(state),
                                                          rel=1e-12)


def test_phase_evolution_reproduces_the_rabi_cosine():
    dec = diagonalize(build_transfer_matrix(RWA, Truncation(P=5)))
    times = np.linspace(0.0, 60.0, 601)
    traj = teee_evolve(fock_state(0, "e", 5), dec, times)
    assert np.abs(traj.sz_raw - np.cos(0.2 * times)).max() < 1e-10
    # energy column is the constant sum |F_j|^2 E_j by construction
    assert np.all(traj.energy_re == traj.energy_re[0])
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
    with pytest.raises(ValueError):
        level_differences(dec, 0)
    with pytest.raises(ValueError):
        level_differences(dec, dec.dim)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3_P400"])
def test_lowest_energies_agree_with_the_full_decomposition(config_dir, name):
    # fig1 (rotating-wave) has zero couplings, an exact tie in chain B and
    # a 1.8e-15 split in chain A, all certified without a refusal
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
    # P = 0: each chain is one level, so no midpoint is tested
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
        counts = spectral._sturm_sweep(a, b, x, lengths)()
        for c, (d, off) in enumerate(chains):
            want = [sturm_count(d[:n], off[:n - 1], np.ldexp(v, e))
                    for v, n in zip(x[c], lengths)]
            assert counts[c].tolist() == want, (c, lengths.tolist())

    # the count is monotone in the shift, zero pivots included
    x = np.sort(np.hstack([rng.uniform(-1.0, 1.0, (2, 40)), a]), axis=1)
    counts = spectral._sturm_sweep(a, b, x, np.full(x.shape[1], P + 1))()
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
    # 1e308 * 2 overflows: LAPACK would refuse the block, so neither route
    # hands it over
    q = build_transfer_matrix(ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1e308,
                                          g_plus=1e308), Truncation(P=5))
    for solve in (diagonalize, lambda q: lowest_energies(q, 3)):
        with pytest.raises(RuntimeError, match="^eigensolver returned non-finite energies$"):
            solve(q)


def test_each_chain_block_is_written_once(monkeypatch):
    blocks = []
    monkeypatch.setattr(spectral, "chain_block",
                        lambda rows: blocks.append(rows.shape) or chain_block(rows))
    q = build_transfer_matrix(FIG2, Truncation(P=30))
    for solve in (diagonalize, lambda q: lowest_energies(q, 3)):
        blocks.clear()
        solve(q)
        assert blocks == [(31, 3), (31, 3)]


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


def test_gs_scan_tiny_exact_case():
    # P=0 and P=1 share E0 = -omega_0/2 exactly in the photon-conserving
    # model, so the scan must classify Converged with a zero-width plateau
    result = gs_scan(RWA, [0, 1])
    assert result.e0[0] == -0.5
    assert result.e0[1] == -0.5
    assert result.classification == "Converged"
    assert result.plateau_P == 0


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


def sturm_count(d, off, x):
    """Negative pivots of LDL^T of T - x, one float at a time: a zero pivot
    is +0, and a zero coupling starts a decoupled block."""
    count, pivot = 0, 1.0
    for i, a in enumerate(d):
        b2 = off[i - 1] * off[i - 1] if i else 0.0
        quotient = (b2 / pivot if pivot else np.inf) if b2 else 0.0
        pivot = (a - x) - quotient
        count += pivot < 0.0
    return count


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
    ModelParams(omega_f=1.0, omega_0=1.0, g_minus=1.0, g_plus=0.5)])
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
def test_multisection_matches_the_bisection_on_random_scans(params, ps):
    assert_matches_the_bisection(params, ps)


@pytest.mark.parametrize("power", [-600, 600])
def test_multisection_matches_the_bisection_at_scaled_couplings(power):
    scaled = ModelParams(*(np.ldexp(v, power) for v in (1.0, 1.0, 2.0, 2.0)))
    assert_matches_the_bisection(scaled, [1, 5, 30])


@pytest.mark.parametrize("name", ["fig5a", "fig5b"])
def test_multisection_falls_back_to_the_midpoint_on_narrow_brackets(config_dir, monkeypatch,
                                                                    name):
    # a bracket a few floats wide puts several points of the PROBES grid
    # on one float, and the pair probes its midpoint PROBES times instead
    collapsed = []
    real = spectral._sturm_sweep

    def spy(a, b, x, lengths):
        sweep = real(a, b, x, lengths)

        def probing():
            probes = x.reshape(2, -1, spectral.PROBES)
            collapsed.append(bool((probes == probes[..., :1]).all(axis=2).any()))
            return sweep()
        return probing

    monkeypatch.setattr(spectral, "_sturm_sweep", spy)
    cfg = load_run_config(config_dir / f"{name}.cfg", [])
    ps = parse_p_values(cfg.p_values)
    e0 = gs_scan(cfg.to_params(), ps).e0
    assert any(collapsed) and not collapsed[0]
    # the one-shift bisection took 57 sweeps on fig5a and 54 on fig5b
    assert len(collapsed) <= 22
    assert e0.tobytes() == bisection_ground_energies(cfg.to_params(), np.asarray(ps)).tobytes()


def test_gs_scan_assembles_q_once(monkeypatch):
    calls = []

    def counting(params, trunc):
        calls.append(trunc.P)
        return build_transfer_matrix(params, trunc)

    monkeypatch.setattr(spectral, "build_transfer_matrix", counting)
    gs_scan(DEEP, range(10, 61, 10))
    assert calls == [60]


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
    # at P = 400 this spans two of teee_evolve's time chunks
    times = np.linspace(0.0, 20.0, 701)
    traj = teee_evolve(state, dec, times)

    energies, v = dense_decomposition(q)
    coeff = v.T @ vec
    states = v @ (np.exp(-1j * np.outer(energies, times)) * coeff[:, None])
    weights = ObservableWeights(P)
    norm2, photon, inversion, excitation, parity = np.array(
        [weights.measure(s) for s in states.T]).T
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


# The one-shift bisection that gs_scan ran before its multisection, kept
# verbatim as the reference whose every bit the multisection must match:
# both stop only where no float lies strictly inside a bracket, and the
# count is monotone in the shift, so both end on the same float.
SWEEP_ROWS = 32
_scaled_chains = spectral._scaled_chains


def bisection_ground_energies(params: ModelParams, ps: np.ndarray) -> np.ndarray:
    """E0 of Q at every cutoff in ps (strictly increasing), by one bisection
    on Sturm counts taken over both chains of Q at the largest cutoff.

    Pair (c, j) brackets the lowest eigenvalue of chain c's leading block
    at cutoff ps[j]: from Gershgorin below, and from just above the
    block's smallest diagonal (which bounds it by the Rayleigh quotient).
    A sweep runs the pivot recurrence d_i = (a_i - x) - b_{i-1}^2 / d_{i-1}
    once over the chain slots, with one shift x per pair; pair (c, j) reads
    "x is above E0" as any negative pivot among its first ps[j] + 1.
    Bisection stops when no midpoint lies strictly inside a bracket, and
    E0 is the low end.  A zero pivot is +0, so the next one is -inf; a slot
    whose coupling b_{i-1} is 0 starts a decoupled block and takes
    d_i = a_i - x, which keeps 0/0 out.  Each pivot row costs three ufunc
    calls, on contiguous rows of the pairs it touches.

    Q with an entry that is not finite, or so large that max|diag| +
    max|off| overflows, is refused with RuntimeError, and so is an E0 that
    overflows.

    Every pair's arithmetic is elementwise and its own, so E0 at a cutoff
    does not depend on which other cutoffs are scanned, and E0 is
    non-increasing in P: the pivots of a larger block extend those of a
    smaller one.
    """
    q = build_transfer_matrix(params, Truncation(P=int(ps[-1])))
    n, m = q.trunc.P + 1, ps.size
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.abs(q.diag.real).max() + np.abs(q.off).max()
    if not np.isfinite(top):
        raise RuntimeError("transfer matrix entries overflow; no finite "
                           "ground-state energy")
    a, b, e = _scaled_chains(q)
    b2 = b * b
    edge = np.zeros((2, 1))
    left = a - np.abs(np.hstack([edge, b]))
    # Gershgorin: in the leading block at cutoff P, rows i < P have both
    # neighbours and row P only the left one
    inner = np.minimum.accumulate(left - np.abs(np.hstack([b, edge])), axis=1)
    inner = np.hstack([edge + np.inf, inner[:, :-1]])
    desc = ps[::-1]                            # pairs by descending cutoff
    lo = np.minimum(inner, left)[:, desc]
    hi = np.nextafter(np.minimum.accumulate(a, axis=1)[:, desc], np.inf)

    # Row i of a sweep touches only the pairs whose cutoff is at least i:
    # the first active[i] columns.  Every call in `blocks` writes those
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
