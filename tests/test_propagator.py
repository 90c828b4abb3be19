"""Taylor step propagator: certificates, suggested steps, evolution loop."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import sbprop.propagator
from oracle import energy, readings
from sbprop import (
    CoherentSpec,
    ModelParams,
    NonFiniteState,
    NotConverged,
    PropagatorConfig,
    SpinorFockState,
    StepPropagator,
    Truncation,
    advance,
    build_step_propagator,
    build_transfer_matrix,
    coherent_state,
    evolve,
    evolve_reusing,
    fock_state,
    load_run_config,
    observe,
    propagator_fingerprint,
    suggest_step,
)
from sbprop.cli import _prepare
from sbprop.model import UFUNC_BUFSIZE, band_half_width, band_to_dense, chain_block
from sbprop.propagator import (
    BLOCK_ROWS,
    FLUSH_BELOW,
    TILE_ROWS,
    _panels,
    _stepped_blocks,
    _trim,
    _unitarity_defect,
)
from sbprop.trajectory import TrajectoryBuilder

FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
DEEP = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0)
RWA = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1)
DAMPED = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                     beta=0.01, gamma=0.01)
CONFIGS = ["fig1", "fig2", "fig3_P200", "fig3_P400", "fig5a", "fig5b", "fig6"]


def build(params, P, dt, N=30, tol=1e-12, steps=1):
    q = build_transfer_matrix(params, Truncation(P=P))
    cfg = PropagatorConfig(dt=dt, steps=steps, N=N, tol=tol)
    return q, cfg, build_step_propagator(q, cfg)


def stepped_states(s0, prop, cfg, q):
    """The chain-order states of steps 0..cfg.steps from the step kernel
    evolve and advance share, each block copied before the next replaces
    it: (cfg.steps + 1, dim)."""
    blocks = [ys.copy() for _, ys, _ in _stepped_blocks(s0, prop, cfg, q)]
    return np.concatenate(blocks).reshape(cfg.steps + 1, -1)


def test_diagonal_matrix_reproduces_the_scalar_series():
    # P=0 keeps Q diagonal, so M must equal exp(-i*diag*dt) elementwise
    q, _, prop = build(ModelParams(omega_f=1.0, omega_0=1.0), 0, dt=0.1)
    assert abs(prop.matrix[0, 0] - np.exp(-0.05j)) < 1e-16
    assert abs(prop.matrix[1, 1] - np.exp(+0.05j)) < 1e-16
    assert prop.matrix[0, 1] == 0.0


def test_order_one_step_is_identity_minus_i_dt_q():
    q, _, prop = build(FIG2, 4, dt=0.01, N=1, tol=10.0)
    expected = np.eye(q.dim) + (-1j * 0.01) * q.matrix
    assert np.array_equal(prop.matrix, expected)


def test_matches_eigenvector_exponential():
    q, _, prop = build(FIG2, 20, dt=0.05)
    w, v = np.linalg.eigh(q.matrix.real)
    exact = (v * np.exp(-1j * w * 0.05)) @ v.T
    assert np.abs(prop.matrix - exact).max() < 1e-12


def test_fig2_step_of_0_1_fails_the_certificate():
    q = build_transfer_matrix(FIG2, Truncation(P=50))
    cfg = PropagatorConfig(dt=0.1, steps=1, N=30, tol=1e-12)
    with pytest.raises(NotConverged) as exc:
        build_step_propagator(q, cfg)
    err = exc.value
    assert err.last_term_norm == pytest.approx(3.727e-6, rel=1e-3)
    assert err.dt == 0.1 and err.N == 30
    assert err.dt_reduction == pytest.approx(0.604, rel=1e-2)

    # forcing the build through with a looser tolerance shows why it was
    # refused: the step is measurably non-unitary
    loose = build_step_propagator(q, PropagatorConfig(dt=0.1, steps=1, N=30, tol=1e-5))
    assert loose.unitarity_defect == pytest.approx(1.897e-6, rel=1e-2)

    # at the suggested step the certificate and the defect are both tiny
    dt = suggest_step(q)
    assert dt == 0.05
    good = build_step_propagator(q, PropagatorConfig(dt=dt, steps=1))
    assert good.last_term_norm <= 1e-12
    assert good.unitarity_defect < 1e-9


def reference_unitarity_defect(band):
    """max|M+M - 1| as measured before the flat-run form: a gather of
    M's columns, and each entry of M+M summed in numpy's pairwise order.
    The oracle for _unitarity_defect, which sums in row order."""
    dim, width = band.shape
    h = width // 2
    # col[j, t] = M[j + t - h, j]: column j of M, top to bottom
    t = np.arange(width)
    padded = np.pad(band, ((h, h), (0, 0)))
    col = padded[np.arange(dim)[:, None] + t, width - 1 - t]
    worst = 0.0
    # (M+M)[j, j+o] = sum over rows r of conj(M[r, j]) M[r, j+o]; the
    # entries below the diagonal mirror these
    for o in range(min(width, dim)):
        g = (col[:dim - o, o:].conj() * col[o:, :width - o]).sum(axis=1)
        if o == 0:
            g -= 1.0
        worst = max(worst, float(np.abs(g).max()))
    return worst


def assert_defect_agrees(band):
    # both sums add the same 2h+1 products per entry of B+B, B the
    # operator band holds, in another order; the dense product is the
    # definition itself
    value = _unitarity_defect(band)
    m = band_to_dense(band)
    dense = float(np.abs(m.conj().T @ m - np.eye(band.shape[0])).max())
    bound = band.shape[1] * np.finfo(float).eps * max(1.0, value)
    assert abs(value - reference_unitarity_defect(band)) <= bound
    assert abs(value - dense) <= bound
    return value


def assert_stepped_defect_certifies_m(m, prop):
    # M = S + D, M the full band m, S the propagator's band and D the
    # diagonals _trim drops, so M+M - S+S = S+D + D+S + D+D.  An entry of
    # A+B is at most max|A| times a column 1-norm of B, and a column of D
    # meets at most 2(h - w) dropped diagonals, each entry at most
    # dropped_norm.  Each measured defect also carries the rounding of its
    # sums (assert_defect_agrees).
    full, stepped = _unitarity_defect(m), _unitarity_defect(prop.band)
    width, kept = m.shape[1], prop.band.shape[1]
    column = (width - kept) * prop.dropped_norm
    exact = column * (2.0 * np.abs(m).max() + prop.dropped_norm)
    rounding = 2 * width * np.finfo(float).eps * max(1.0, full)
    assert abs(full - stepped) <= exact + rounding
    return full, stepped


def full_width_build(q, cfg):
    """The Taylor loop build_step_propagator ran before it held M
    diagonal-major: every order over the whole row-major (dim, 2h+1)
    band, a new array per product.  Returns all of M's band, the last
    term's max-norm and the unitarity defect of the step band _trim cuts
    from it (None for dissipative Q)."""
    h = band_half_width(q.dim, cfg.N)
    width = 2 * h + 1
    term = np.zeros((q.dim, width), dtype=np.complex128)
    term[:, h] = 1.0
    m = term.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.pad((q.band * (-1j * cfg.dt)).T.copy(), ((0, 0), (h, h)))
        lo, d, up = sliding_window_view(scaled, width, axis=1)
        for n in range(1, cfg.N + 1):
            nxt = term * d
            nxt[:, 1:] += term[:, :-1] * lo[:, 1:]
            nxt[:, :-1] += term[:, 1:] * up[:, :-1]
            term = nxt / n
            m += term
        last = float(np.abs(term).max())
        defect = _unitarity_defect(_trim(m)[0]) if q.hermitian else None
    return m, last, defect


def uncertified_build(q, cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sbprop.propagator, "certify", lambda *args: None)
        return build_step_propagator(q, cfg)


def assert_built_as_the_full_width_loop(q, cfg):
    # the certificates are compared, not enforced: a refused build is
    # the same band as an accepted one.  full_width_build measures its
    # defect with the package's own function, so the defect is also held
    # to its oracles: the recorded one is the band's, and a dissipative
    # build records none, but its band is measured all the same.
    prop = uncertified_build(q, cfg)
    m, last, defect = full_width_build(q, cfg)
    band, dropped = _trim(m)
    assert prop.band.tobytes() == band.tobytes()
    assert prop.dropped_norm == dropped
    assert prop.last_term_norm == last
    assert prop.unitarity_defect == defect
    assert prop.unitarity_defect in (None, assert_defect_agrees(prop.band))
    assert_defect_agrees(m)
    return assert_stepped_defect_certifies_m(m, prop)


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_builds_are_the_full_width_loop_bytes(config_dir, name):
    q, cfg = _prepare(load_run_config(config_dir / f"{name}.cfg", []))
    # on every shipped config the step band's defect is all of M's, to the bit
    full, stepped = assert_built_as_the_full_width_loop(q, cfg)
    assert full == stepped


def test_build_measures_the_defect_over_the_step_band(monkeypatch):
    seen = []

    def spy(band):
        seen.append((band, np.getbufsize()))
        return _unitarity_defect(band)

    monkeypatch.setattr(sbprop.propagator, "_unitarity_defect", spy)
    _, _, prop = build(FIG2, 50, dt=0.05)
    [(band, bufsize)] = seen
    assert band is prop.band
    assert band.shape[1] < 2 * band_half_width(prop.dim, prop.N) + 1
    assert bufsize == UFUNC_BUFSIZE
    # a dissipative build measures none
    seen.clear()
    _, _, damped = build(DAMPED, 50, dt=0.05)
    assert seen == [] and damped.unitarity_defect is None


def test_a_build_whose_stepped_defect_is_not_that_of_m():
    # the outer diagonals _trim drops add products of about 1e-16 to the
    # sums of M+M, and here they move its largest entry by 3.2e-17
    q = build_transfer_matrix(ModelParams(omega_f=1.0, omega_0=1.899, g_minus=1.707,
                                          g_plus=0.3), Truncation(P=21))
    cfg = PropagatorConfig(dt=0.003125, steps=1, N=10)
    prop = build_step_propagator(q, cfg)
    m = full_width_build(q, cfg)[0]
    assert (m.shape[1], prop.band.shape[1]) == (21, 15)
    full, stepped = assert_stepped_defect_certifies_m(m, prop)
    assert prop.unitarity_defect == stepped == 2.5407226475359564e-16
    assert full == 2.220446049250313e-16


def test_build_gives_the_caller_its_ufunc_buffer_back(config_dir, caller_bufsize):
    # certify refuses a build only after the buffer is given back, so an
    # accepted build covers the refused ones; an error inside the helper
    # is test_model's
    q, cfg = _prepare(load_run_config(config_dir / "fig2.cfg", []))
    build_step_propagator(q, cfg)
    assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("params", [FIG2, DEEP, DAMPED], ids=["fig2", "deep", "damped"])
@pytest.mark.parametrize("P", [0, 1, 3])
@pytest.mark.parametrize("N", [1, 2, 60])
def test_clipped_band_builds_are_the_full_width_loop_bytes(params, P, N):
    # h = min(N, P): for N > P the band is clipped below N, and every
    # order past h works on all 2h + 1 diagonals
    q = build_transfer_matrix(params, Truncation(P=P))
    assert_built_as_the_full_width_loop(q, PropagatorConfig(dt=0.05, steps=1, N=N))


@settings(max_examples=40, deadline=None)
# the pinned build whose stepped defect is not that of M
@example(omega_0=1.899, g_minus=1.707, g_plus=0.3, damping=0.0, P=21, N=10, dt=0.003125)
# a diagonal band whose |m|^2 - 1 is a few ulps and whose conj(m) m has a
# fused multiply-add's rounding error for an imaginary part
@example(omega_0=0.0005323373517680531, g_minus=0.0, g_plus=0.0, damping=0.0, P=19, N=8,
         dt=0.003125)
@given(
    omega_0=st.floats(min_value=-2.0, max_value=2.0),
    g_minus=st.floats(min_value=0.0, max_value=2.0),
    g_plus=st.floats(min_value=0.0, max_value=2.0),
    damping=st.sampled_from([0.0, 0.003, 0.05]),
    P=st.integers(min_value=0, max_value=40),
    N=st.integers(min_value=1, max_value=40),
    dt=st.sampled_from([0.003125, 0.025, 0.1, 0.3]),
)
def test_builds_are_the_full_width_loop_bytes(omega_0, g_minus, g_plus, damping, P, N,
                                              dt):
    params = ModelParams(omega_f=1.0, omega_0=omega_0, g_minus=g_minus, g_plus=g_plus,
                         beta=damping, gamma=damping / 2)
    q = build_transfer_matrix(params, Truncation(P=P))
    assert_built_as_the_full_width_loop(q, PropagatorConfig(dt=dt, steps=1, N=N))


def test_large_defect_agrees_with_the_reference(config_dir):
    # fig2 at dt = 0.5: the terms grow far before they shrink, and M is
    # far from unitary
    q, cfg = _prepare(load_run_config(config_dir / "fig2.cfg", ["dt=0.5", "N=150"]))
    prop = uncertified_build(q, cfg)
    assert prop.unitarity_defect == assert_defect_agrees(prop.band)
    defect = assert_defect_agrees(full_width_build(q, cfg)[0])
    assert defect == pytest.approx(1.0e2, rel=0.05)


def test_diverging_build_is_refused_once_without_warnings():
    # the terms overflow on their way: at dt = 1e10 and g_minus = 1e200 on
    # their own, at g_minus = 1e307 from couplings of Q that overflow
    # (levels 18 and up).  A Hermitian build runs over the reals, where the
    # complex loop's 0 * inf = nan is +-inf, but its terms then meet
    # inf - inf: each refusal is the full-width loop's, nan included
    for params, dt in ((FIG2, 1e10), (replace(FIG2, g_minus=1e200), 0.01),
                       (replace(FIG2, g_minus=1e307), 0.01)):
        q = build_transfer_matrix(params, Truncation(P=50))
        cfg = PropagatorConfig(dt=dt, steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged) as exc:
                build_step_propagator(q, cfg)
            _, last, _ = full_width_build(q, cfg)
        assert np.isnan(last) and repr(exc.value.last_term_norm) == repr(last)
        assert exc.value.dt_reduction is None
        ratio = q.one_norm() * dt / (cfg.N + 1)
        assert str(exc.value) == str(NotConverged(last, cfg.tol, dt, cfg.N, ratio))
        assert str(exc.value) == (f"last Taylor term has max-norm nan at dt={dt} N=30: "
                                  "the series diverges; reduce dt or the couplings")


def test_a_diverging_p0_build_is_refused_as_infinite():
    # at P = 0 the band is one diagonal, and a term meets no zero factor
    # and no other term: the real loop's terms overflow to inf, where the
    # complex loop's 0 * inf made nan
    q = build_transfer_matrix(replace(FIG2, omega_0=1e200), Truncation(P=0))
    cfg = PropagatorConfig(dt=0.01, steps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConverged) as exc:
            build_step_propagator(q, cfg)
        _, last, _ = full_width_build(q, cfg)
    assert np.isnan(last) and exc.value.last_term_norm == math.inf
    assert str(exc.value) == ("last Taylor term has max-norm inf at dt=0.01 N=30: "
                              "the series diverges; reduce dt or the couplings")


def test_suggest_step_halves_until_the_bound_holds():
    # diagonal matrices make the 1-norm exact and easy to stage
    q10 = build_transfer_matrix(ModelParams(omega_f=10.0, omega_0=0.0),
                                Truncation(P=1))
    assert suggest_step(q10) == 0.1
    q1e4 = build_transfer_matrix(ModelParams(omega_f=1e4, omega_0=0.0),
                                 Truncation(P=1))
    assert suggest_step(q1e4) == 0.1 / 256
    qzero = build_transfer_matrix(ModelParams(omega_f=1.0, omega_0=0.0),
                                  Truncation(P=0))
    assert suggest_step(qzero) == 0.1
    with pytest.raises(ValueError):
        suggest_step(q10, N=0)
    with pytest.raises(ValueError):
        suggest_step(q10, tol=0.0)


def test_resonant_vacuum_rabi_cosine():
    q, cfg, prop = build(RWA, 5, dt=0.1, steps=500)
    traj = evolve(fock_state(0, "e", 5), prop, cfg, q)
    assert np.abs(traj.sz_raw - np.cos(0.2 * traj.times)).max() < 1e-10
    assert np.abs(traj.norm2 - 1.0).max() < 1e-12


def test_conserved_quantities_per_coupling_channel():
    q, cfg, prop = build(RWA, 8, dt=0.05, steps=200)
    traj = evolve(fock_state(0, "e", 8), prop, cfg, q)
    assert np.abs(traj.c_exp - traj.c_exp[0]).max() < 1e-12

    q, cfg, prop = build(FIG2, 30, dt=0.05, steps=200)
    traj = evolve(fock_state(0, "e", 30), prop, cfg, q)
    assert np.abs(traj.parity - traj.parity[0]).max() < 1e-12
    assert np.abs(traj.c_exp - traj.c_exp[0]).max() > 1e-3  # not conserved here
    assert np.abs(traj.energy_re - traj.energy_re[0]).max() < 1e-12


def test_evolution_is_linear_in_the_initial_state():
    q, cfg, prop = build(FIG2, 12, dt=0.05, steps=40)
    a = fock_state(0, "e", 12)
    b = fock_state(3, "g", 12)
    mix = SpinorFockState(amps_e=(a.amps_e + 1j * b.amps_e) / 2,
                          amps_g=(a.amps_g + 1j * b.amps_g) / 2)
    ya, yb, ym = (advance(s, prop, cfg, q).vector for s in (a, b, mix))
    assert np.abs(ym - (ya + 1j * yb) / 2).max() < 1e-13


def test_evolve_into_a_given_builder_records_the_same_bits():
    q, cfg, prop = build(FIG2, 10, dt=0.05, steps=2 * BLOCK_ROWS + 5)
    s0 = fock_state(0, "e", 10)
    own = evolve(s0, prop, cfg, q)
    given = evolve(s0, prop, cfg, q, builder=TrajectoryBuilder(q, cfg.steps + 1))
    for a, b in zip(own.__dict__.values(), given.__dict__.values()):
        assert a.tobytes() == b.tobytes()
    q8 = build_transfer_matrix(FIG2, Truncation(P=8))
    for wrong in (TrajectoryBuilder(q, cfg.steps),  # one row short
                  TrajectoryBuilder(q8, cfg.steps + 1)):  # another P
        with pytest.raises(ValueError, match="builder must hold"):
            evolve(s0, prop, cfg, q, builder=wrong)


def test_evolve_reusing_matches_single_runs_bitwise():
    q, cfg, prop = build(FIG2, 10, dt=0.05, steps=60)
    a = fock_state(0, "e", 10)
    b = fock_state(2, "g", 10)
    separate = [evolve(a, prop, cfg, q), evolve(b, prop, cfg, q)]
    together = evolve_reusing([a, b], prop, cfg, q)
    for s, t in zip(separate, together):
        assert np.array_equal(s.n_raw, t.n_raw)
        assert np.array_equal(s.sz_raw, t.sz_raw)
        assert np.array_equal(s.norm2, t.norm2)


def test_evolve_reusing_matches_single_runs_through_the_flushed_transient():
    q = build_transfer_matrix(DEEP, Truncation(P=400))
    q, cfg, prop = build(DEEP, 400, dt=suggest_step(q), steps=200)
    starts = [fock_state(0, "e", 400), fock_state(2, "g", 400)]
    separate = [evolve(s, prop, cfg, q) for s in starts]
    together = evolve_reusing(starts, prop, cfg, q)
    for s, t in zip(separate, together):
        for x, y in zip(s.__dict__.values(), t.__dict__.values()):
            assert x.tobytes() == y.tobytes()


def two_chain_state(P):
    return SpinorFockState(amps_e=np.linspace(1.0, 0.1, P + 1) * np.exp(0.3j),
                           amps_g=np.linspace(-0.2, 0.5, P + 1) + 0.1j)


@pytest.mark.parametrize("state", ["chain A", "both"])
def test_advance_matches_stepping(state):
    # step counts that end on the first row of a block, inside one, on a
    # block's last row and one past it
    counts = [0, 1, 62, 63, 64, 65, 126, 127, 128, 200]
    q, cfg, prop = build(FIG2, 10, dt=0.05, steps=max(counts))
    s0 = fock_state(0, "e", 10) if state == "chain A" else two_chain_state(10)
    rows = stepped_states(s0, prop, cfg, q)
    dense = [s0.vector]
    for _ in range(max(counts)):
        dense.append(prop.matrix @ dense[-1])
    inverse = np.argsort(q.order)
    for k in counts:
        got = advance(s0, prop, PropagatorConfig(dt=cfg.dt, steps=k), q)
        assert got.vector.tobytes() == rows[k][inverse].tobytes(), k
        assert np.abs(got.vector - dense[k]).max() < 1e-12, k
    # advancing in two legs is advancing once, bit for bit
    for k1, k2 in [(0, 65), (1, 62), (63, 64), (64, 136), (127, 73)]:
        half = advance(s0, prop, PropagatorConfig(dt=cfg.dt, steps=k1), q)
        both = advance(half, prop, PropagatorConfig(dt=cfg.dt, steps=k2), q)
        assert both.vector.tobytes() == rows[k1 + k2][inverse].tobytes(), (k1, k2)
    with pytest.raises(ValueError, match="fingerprint"):
        advance(s0, prop, PropagatorConfig(dt=0.1, steps=5), q)


@pytest.mark.parametrize("spin, empty", [("e", slice(11, 22)), ("g", slice(0, 11))])
def test_advance_skips_the_empty_chain_without_changing_a_bit(monkeypatch, spin, empty):
    q, cfg, prop = build(FIG2, 10, dt=0.05)
    s0 = fock_state(0, spin, 10)  # chain A for e, chain B for g
    counts = (1, 5, 13, 130)

    def run():
        return [advance(s0, prop, PropagatorConfig(dt=cfg.dt, steps=k), q).vector
                for k in counts]

    skipped = run()
    monkeypatch.setattr(sbprop.propagator, "occupied_chains",
                        lambda y: slice(0, 2))
    full = run()
    for a, b in zip(skipped, full):
        assert np.array_equal(a, b) and not a[q.order[empty]].any()


@pytest.mark.parametrize("P, N", [(0, 30), (1, 30), (20, 5), (20, 30)])
def test_chain_blocks_of_m_are_the_dense_matrix_in_chain_order(P, N):
    # band half-width min(N, P): 0, 1, N < P and N > P
    q, cfg, prop = build(FIG2, P, dt=0.002, N=N, tol=1e-6)
    n = P + 1
    dense = prop.matrix[np.ix_(q.order, q.order)]  # chain order
    assert not dense[:n, n:].any() and not dense[n:, :n].any()
    # the blocks are gathered from the band, so they are exact
    blocks = chain_block(prop.band.reshape(2, n, -1))
    assert np.array_equal(blocks, [dense[:n, :n], dense[n:, n:]])


def test_runaway_growth_raises_with_the_step_index():
    # order 3 is unstable at this step.  The loose tol passes the last term,
    # and ||Q dt||_1 / (N+2) = 0.89 < 1 keeps the tail bound (certify) finite.
    q, cfg, prop = build(FIG2, 50, dt=0.05, N=3, tol=1e12, steps=400)
    with pytest.raises(NonFiniteState) as exc:
        evolve(fock_state(0, "e", 50), prop, cfg, q)
    assert 0 < exc.value.step <= 400


def test_non_finite_state_names_the_first_bad_step_inside_a_block():
    q, cfg, prop = build(FIG2, 50, dt=0.05, N=3, tol=1e12, steps=400)
    m = prop.matrix
    # |0,e> lies in chain A and |0,g> in chain B; evolve steps only that
    # chain, the dense loop both.  The coherent state occupies both chains.
    starts = {"e": fock_state(0, "e", 50), "g": fock_state(0, "g", 50),
              "coherent": coherent_state(CoherentSpec(2.0, math.pi / 4), 50)}
    for name, s0 in starts.items():
        y = s0.vector
        first = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.isfinite(y).all():
                y = m @ y
                first += 1
        # the step kernel checks whole blocks of rows; this step is neither
        # the first nor the last row of its block
        assert first <= 400 and first % (BLOCK_ROWS - 1) > 1
        with pytest.raises(NonFiniteState) as exc:
            evolve(s0, prop, cfg, q)
        assert exc.value.step == first, name
        with pytest.raises(NonFiniteState) as exc:
            advance(s0, prop, cfg, q)
        assert exc.value.step == first, name


def dense_panels(prop, order):
    """The TILE_ROWS-row panels of each chain cut from the dense chain
    blocks of M, its entries beyond the step band's half-width w zeroed:
    (2, tiles, TILE_ROWS, TILE_ROWS + 2w)."""
    dim, width = prop.band.shape
    w, n = width // 2, dim // 2
    tiles = -(-n // TILE_ROWS)
    m = prop.matrix[np.ix_(order, order)]  # chain order
    # padded[c, r, w + s] = M[r, s] within chain c, rows and slots padded
    padded = np.zeros((2, tiles * TILE_ROWS, tiles * TILE_ROWS + 2 * w), dtype=complex)
    padded[0, :n, w:w + n] = m[:n, :n]
    padded[1, :n, w:w + n] = m[n:, n:]
    r, j = np.indices(padded.shape[1:])
    padded[:, (j < r) | (j > r + 2 * w)] = 0.0
    span = TILE_ROWS + 2 * w
    return np.array([[padded[c, t * TILE_ROWS:(t + 1) * TILE_ROWS,
                             t * TILE_ROWS:t * TILE_ROWS + span]
                      for t in range(tiles)] for c in (0, 1)])


def both_chain_steps(prop, order, y, steps, flush=True):
    """evolve's tiled kernel on both chains, one step per call from its own
    buffer: one np.matmul of the stacked panels of both chains (from the
    dense M) by the windows over each chain's padded slots; the
    chain-order states of steps 0..steps.

    With flush, each chain is flushed as the kernel flushes it while it
    fills: the steps from state k0 (k0 a multiple of BLOCK_ROWS - 1) on
    start under the rule when state k0 holds a float part of the chain
    below FLUSH_BELOW, and each step under it sets the chain's parts
    below FLUSH_BELOW to zero, until a step leaves none, or leaves
    exactly the zero parts of the state it stepped from."""
    panels = dense_panels(prop, order)
    _, tiles, tile, span = panels.shape
    w, n = (span - tile) // 2, y.size // 2
    padded = np.zeros((2, tiles * tile + 2 * w), dtype=np.complex128)
    padded[:, w:w + n] = y.reshape(2, n)
    windows = sliding_window_view(padded, span, axis=1)[:, ::tile, :, None]
    states = [y]
    on = [False, False]
    for k in range(1, steps + 1):
        before = states[-1].reshape(2, n).view(np.float64)
        if (k - 1) % (BLOCK_ROWS - 1) == 0:
            on = [flush and bool((np.abs(before[c]) < FLUSH_BELOW).any()) for c in (0, 1)]
        out = np.matmul(panels.reshape(-1, tile, span), windows.reshape(-1, span, 1))
        padded[:, w:w + tiles * tile] = out.reshape(2, -1)
        for c in (0, 1):
            if on[c]:
                after = padded[c, w:w + n].view(np.float64)
                below = np.abs(after) < FLUSH_BELOW
                on[c] = bool(below.any()) and not np.array_equal(after == 0.0,
                                                                 before[c] == 0.0)
                after[below] = 0.0
        states.append(padded[:, w:w + n].ravel())
    return np.array(states)


def per_row_steps(prop, y, steps):
    """The per-row kernel evolve stepped with before its panels: one
    np.matmul of each row of the step band by its window, both chains at
    once; the chain-order states of steps 0..steps."""
    dim, width = prop.band.shape
    h = width // 2
    padded = np.zeros(dim + 2 * h, dtype=np.complex128)
    windows = sliding_window_view(padded, width)[..., None]
    states = [y]
    for _ in range(steps):
        padded[h:h + dim] = states[-1]
        states.append(np.matmul(prop.band[:, None, :], windows).ravel())
    return np.array(states)


@pytest.mark.parametrize("params, P", [(FIG2, 0), (FIG2, 3), (FIG2, 6), (FIG2, 7),
                                       (FIG2, 50), (DEEP, 400)])
def test_panels_are_the_step_band_cut_into_tiles(params, P):
    # n = P + 1 slots per chain: fewer than, exactly and not a multiple of
    # TILE_ROWS
    q = build_transfer_matrix(params, Truncation(P=P))
    q, cfg, prop = build(params, P, dt=suggest_step(q))
    w = prop.band.shape[1] // 2
    tiles = -(-(P + 1) // TILE_ROWS)
    panels = _panels(prop.band)
    assert panels.shape == (2, tiles, TILE_ROWS, TILE_ROWS + 2 * w)
    assert panels.tobytes() == dense_panels(prop, q.order).tobytes()


@pytest.mark.parametrize("params, P", [(FIG2, 50), (DEEP, 60), (DEEP, 400), (FIG2, 6),
                                       (FIG2, 0)])
@pytest.mark.parametrize("state", ["chain A", "chain B", "both"])
def test_single_chain_steps_match_the_both_chain_kernel_bitwise(params, P, state):
    steps = 2 * BLOCK_ROWS + 7
    q = build_transfer_matrix(params, Truncation(P=P))
    q, cfg, prop = build(params, P, dt=suggest_step(q), steps=steps)
    s0 = {"chain A": fock_state(0, "e", P), "chain B": fock_state(0, "g", P),
          "both": SpinorFockState.from_vector(
              (fock_state(0, "e", P).vector + fock_state(0, "g", P).vector)
              / np.sqrt(2.0))}[state]
    got = stepped_states(s0, prop, cfg, q)
    want = both_chain_steps(prop, q.order, s0.vector[q.order], steps)
    n = P + 1
    occupied = {"chain A": [0], "chain B": [1], "both": [0, 1]}[state]
    for c in (0, 1):
        rows = slice(c * n, (c + 1) * n)
        if c in occupied:
            assert got[:, rows].tobytes() == want[:, rows].tobytes()
        else:
            # never stepped: every amplitude stays +0, every byte zero
            assert got[:, rows].tobytes() == bytes(got[:, rows].nbytes)
            assert not want[:, rows].any()


def test_a_deep_strong_fock_run_yields_no_part_below_the_flush_threshold():
    # the front of subnormal amplitudes that crosses the chain while it
    # fills is flushed; unflushed, it is there
    steps = 640
    q = build_transfer_matrix(DEEP, Truncation(P=400))
    q, cfg, prop = build(DEEP, 400, dt=suggest_step(q), steps=steps)
    s0 = fock_state(0, "e", 400)

    def tiny(states):
        parts = np.abs(states.view(np.float64))
        return int(((parts > 0.0) & (parts < FLUSH_BELOW)).sum())

    assert tiny(stepped_states(s0, prop, cfg, q)) == 0
    assert tiny(both_chain_steps(prop, q.order, s0.vector[q.order], steps,
                                 flush=False)) > 0


@pytest.mark.parametrize("name, spin", [("fig2", None), ("fig1", "e")])
def test_flushing_moves_no_bit_of_a_bounded_or_photon_conserving_run(
        monkeypatch, config_dir, name, spin):
    # fig2 flushes 4 steps from its Fock start; fig1's photon-conserving
    # model from a Fock state flushes the first step of each of its 3
    # blocks, and the second of the first, whose first step fills the
    # imaginary parts: its other zeros are structural
    flushed = []
    flush = sbprop.propagator._flush
    monkeypatch.setattr(sbprop.propagator, "_flush",
                        lambda *args: flushed.append(1) or flush(*args))
    run = load_run_config(config_dir / f"{name}.cfg", [])
    q, cfg = _prepare(run)
    prop = build_step_propagator(q, cfg)
    s0 = run.build_initial_state() if spin is None else fock_state(0, spin, q.trunc.P)
    steps = cfg.steps if spin is None else 3 * (BLOCK_ROWS - 1)
    cfg = PropagatorConfig(dt=cfg.dt, steps=steps, N=cfg.N, tol=cfg.tol)
    got = stepped_states(s0, prop, cfg, q)
    want = both_chain_steps(prop, q.order, s0.vector[q.order], steps, flush=False)
    assert np.array_equal(got, want)
    assert len(flushed) <= 4 if spin is None else len(flushed) == 4


@pytest.mark.parametrize("k1", [5, 10, 30, 70, 200])
def test_advancing_a_deep_strong_fock_state_in_two_legs_is_one_call(k1):
    # the second leg starts its blocks at step k1, so its flush rule starts
    # where the one call's does not
    steps = 640
    q = build_transfer_matrix(DEEP, Truncation(P=400))
    q, cfg, prop = build(DEEP, 400, dt=suggest_step(q), steps=steps)
    s0 = fock_state(0, "e", 400)
    once = advance(s0, prop, cfg, q)
    half = advance(s0, prop, PropagatorConfig(dt=cfg.dt, steps=k1), q)
    both = advance(half, prop, PropagatorConfig(dt=cfg.dt, steps=steps - k1), q)
    assert both.vector.tobytes() == once.vector.tobytes()


def test_an_overflow_under_the_flush_rule_is_reported_at_its_step():
    # chain A's first 40 slots at 1.7e308 overflow within a few steps,
    # while the state still fills the chain: every step up to the first
    # that is not finite leaves zero parts, fewer than its input had, so
    # the flush rule is on there.  Neither inf nor the NaN that follows is
    # below FLUSH_BELOW, so the step that overflowed is the one named.
    steps, n = 20, 401
    q = build_transfer_matrix(DEEP, Truncation(P=400))
    q, cfg, prop = build(DEEP, 400, dt=suggest_step(q), steps=steps)
    y = np.zeros(q.dim, dtype=complex)
    y[q.order[:40]] = 1.7e308
    s0 = SpinorFockState.from_vector(y)
    with np.errstate(over="ignore", invalid="ignore"):
        want = both_chain_steps(prop, q.order, y[q.order], steps, flush=False)
    first = int(np.isfinite(want).all(axis=1).argmin())
    zeros = (want[:first + 1, :n].view(np.float64) == 0.0).sum(axis=1)
    assert first > 1 and np.all(np.diff(zeros) < 0) and zeros[-1] > 0
    assert np.isnan(want[first + 1]).any()
    for run in (evolve, advance):
        with pytest.raises(NonFiniteState) as exc:
            run(s0, prop, cfg, q)
        assert exc.value.step == first


@pytest.mark.parametrize("params, P, steps, spin", [
    (FIG2, 50, 400, "both"), (DEEP, 400, 640, "e"), (DEEP, 400, 160, "both"),
    (DEEP, 6, 300, "g"), (FIG2, 0, 50, "both")])
def test_tiled_steps_match_the_per_row_kernel(params, P, steps, spin):
    # the panels sum each row's products in another order than one dot
    # per row: the states agree to rounding, not bit for bit
    q = build_transfer_matrix(params, Truncation(P=P))
    q, cfg, prop = build(params, P, dt=suggest_step(q), steps=steps)
    if spin == "both":
        s0 = two_chain_state(P)
    else:
        s0 = fock_state(0, spin, P)
    got = stepped_states(s0, prop, cfg, q)
    want = per_row_steps(prop, s0.vector[q.order], steps)
    scale = np.abs(want).max(axis=1)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)


def test_block_recording_matches_a_per_step_oracle():
    steps = 3 * BLOCK_ROWS + 5
    q, cfg, prop = build(FIG2, 10, dt=0.05, steps=steps)
    s0 = two_chain_state(10)
    traj = evolve(s0, prop, cfg, q)
    assert len(traj) == steps + 1
    states = stepped_states(s0, prop, cfg, q)

    m, y = prop.matrix, s0.vector
    expected = []
    for k in range(steps + 1):
        assert np.allclose(states[k], y[q.order], rtol=0.0, atol=1e-12)
        expected.append((k * cfg.dt, *readings(y), energy(y, q).real))
        y = m @ y
    expected = np.array(expected).T
    got = (traj.times, traj.norm2, traj.n_raw, traj.sz_raw, traj.c_exp,
           traj.parity, traj.energy_re)
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12)
    assert np.array_equal(traj.times, np.array([k * cfg.dt for k in range(steps + 1)]))


@pytest.mark.parametrize("params, P, steps", [(FIG2, 50, 300), (DEEP, 400, 150)])
def test_trimmed_step_band_matches_the_full_band_dense_oracle(params, P, steps):
    q = build_transfer_matrix(params, Truncation(P=P))
    dt = suggest_step(q)
    q, cfg, prop = build(params, P, dt=dt, steps=steps)
    full = full_width_build(q, cfg)[0]
    h, w = full.shape[1] // 2, prop.band.shape[1] // 2
    assert w < h  # the outer diagonals really are dropped
    assert np.array_equal(prop.band, full[:, h - w:h + w + 1])
    band, dropped = _trim(full)
    assert prop.band.tobytes() == band.tobytes() and prop.dropped_norm == dropped
    assert 0.0 < prop.dropped_norm < 1e-15

    s0 = fock_state(0, "e", P)
    traj = evolve(s0, prop, cfg, q)
    states = stepped_states(s0, prop, cfg, q)
    m, y = band_to_dense(full), s0.vector
    for k in range(steps + 1):
        assert np.abs(states[k] - y[q.order]).max() < 1e-12
        n_raw, sz_raw = readings(y)[1:3]
        assert abs(traj.n_raw[k] - n_raw) < 1e-12 * max(1.0, n_raw)
        assert abs(traj.sz_raw[k] - sz_raw) < 1e-12
        y = m @ y


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig6"])
@pytest.mark.parametrize("steps", [0, 1, 2 * BLOCK_ROWS + 5])
def test_observe_reads_the_advanced_state_as_evolve_records_it(config_dir, name, steps):
    # fig1 starts in both chains, fig2 in one, and fig6 is dissipative
    run = load_run_config(config_dir / f"{name}.cfg", [])
    q, cfg = _prepare(run)
    cfg = PropagatorConfig(dt=cfg.dt, steps=steps, N=cfg.N, tol=cfg.tol)
    prop = build_step_propagator(q, cfg)
    s0 = run.build_initial_state()
    traj = evolve(s0, prop, cfg, q)
    row = observe(advance(s0, prop, cfg, q), q)
    assert len(row) == 1 and row.times[0] == 0.0
    for col in ("norm2", "n_raw", "n_norm", "sz_raw", "sz_norm", "energy_re", "c_exp",
                "parity"):
        assert getattr(row, col).tobytes() == getattr(traj, col)[-1:].tobytes(), col


def test_observe_refuses_q_of_another_cutoff():
    q = build_transfer_matrix(FIG2, Truncation(P=10))
    with pytest.raises(ValueError, match="q is truncated at P = 10, the state at P = 12"):
        observe(fock_state(0, "e", 12), q)
    with pytest.raises(ValueError, match="q is truncated at P = 10, the state at P = 9"):
        observe(fock_state(0, "e", 9), q)


def test_zero_steps_give_one_row():
    q, cfg, prop = build(FIG2, 6, dt=0.05, steps=0)
    traj = evolve(fock_state(0, "e", 6), prop, cfg, q)
    assert len(traj) == 1
    assert (traj.times[0], traj.norm2[0], traj.sz_raw[0]) == (0.0, 1.0, 1.0)
    s0 = two_chain_state(6)
    assert advance(s0, prop, cfg, q).vector.tobytes() == s0.vector.tobytes()


def test_mismatched_propagator_is_refused():
    q_a, cfg, prop_a = build(FIG2, 10, dt=0.05)
    q_b = build_transfer_matrix(RWA, Truncation(P=10))
    s = fock_state(0, "e", 10)
    with pytest.raises(ValueError, match="fingerprint"):
        evolve(s, prop_a, cfg, q_b)
    with pytest.raises(ValueError, match="dimension"):
        evolve(fock_state(0, "e", 9), prop_a, cfg, q_a)


def test_dissipative_run_decays_monotonically():
    damped = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4,
                         beta=0.01, gamma=0.01)
    q, cfg, prop = build(damped, 30, dt=0.05, steps=400)
    assert prop.unitarity_defect is None
    traj = evolve(fock_state(0, "e", 30), prop, cfg, q)
    assert np.all(np.diff(traj.norm2) <= 1e-15)
    assert traj.norm2[-1] < 0.9
    assert np.isfinite(traj.n_norm).all()


def test_config_validation():
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.0, steps=1)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.1, steps=-1)
    for N in (0, -2, 1.5):
        with pytest.raises(ValueError):
            PropagatorConfig(dt=0.1, steps=1, N=N)
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.1, steps=1, tol=-1e-12)


@settings(max_examples=25, deadline=None)
@given(
    omega_0=st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
    g=st.floats(min_value=0.0, max_value=1.5,
                allow_nan=False, allow_infinity=False),
    P=st.integers(min_value=0, max_value=6),
)
def test_suggested_step_always_certifies_and_stays_unitary(omega_0, g, P):
    params = ModelParams(omega_f=1.0, omega_0=omega_0, g_minus=g, g_plus=g / 2)
    q = build_transfer_matrix(params, Truncation(P=P))
    dt = suggest_step(q)
    assert dt <= 0.1
    prop = build_step_propagator(q, PropagatorConfig(dt=dt, steps=1))
    assert prop.last_term_norm <= 1e-12
    assert prop.unitarity_defect < 1e-9


def test_overflowing_norm_of_finite_amplitudes_is_not_a_failure():
    # amplitudes near 1e160 are finite, but |y|^2 overflows to inf: the
    # norm2 column is not finite, yet the exact scan finds nothing to refuse
    q, cfg, prop = build(FIG2, 10, dt=0.05, steps=3 * BLOCK_ROWS + 5)
    s0 = SpinorFockState(amps_e=np.full(11, 1e160), amps_g=np.full(11, -1e160j))
    traj = evolve(s0, prop, cfg, q)
    assert len(traj) == cfg.steps + 1
    assert np.all(traj.norm2 == np.inf)
    assert np.isfinite(advance(s0, prop, cfg, q).vector).all()


@pytest.mark.parametrize("amp", [1e160, 1e200, 1e300])
def test_finite_amplitudes_whose_squares_overflow_are_measured_quietly(amp):
    # the measurement silences its own overflow, whatever the caller's
    # error state: the row is recorded as it is, inf or NaN
    q, cfg, prop = build(FIG2, 10, dt=0.05, steps=5)
    s0 = SpinorFockState(amps_e=np.full(11, amp), amps_g=np.full(11, -1j * amp))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = observe(s0, q)
        traj = evolve(s0, prop, cfg, q)
    assert row.norm2[0] == traj.norm2[0] == np.inf


def test_a_coupling_whose_double_overflows_is_measured_quietly():
    # 2 * 1e308 overflows in the builder's energy weights, and the energy
    # of |0,e> is then inf * 0 = NaN; evolve without a builder makes its
    # own, as observe does.  M cannot be built for this Q, so the identity
    # stands in for it, under the matching fingerprint.
    params = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=1e308, g_plus=0.4)
    q = build_transfer_matrix(params, Truncation(P=1))
    cfg = PropagatorConfig(dt=0.01, steps=3)
    prop = StepPropagator(propagator_fingerprint(params, 1, cfg.N, cfg.dt), q.dim,
                          cfg.N, cfg.dt, band=np.ones((q.dim, 1), dtype=np.complex128))
    s0 = fock_state(0, "e", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = observe(s0, q)
        traj = evolve(s0, prop, cfg, q)
    assert np.isnan(row.energy_re[0]) and np.isnan(traj.energy_re).all()
    assert row.norm2[0] == 1.0 and np.all(traj.norm2 == 1.0)
