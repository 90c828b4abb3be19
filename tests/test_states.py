"""Coherent/Fock state construction and the observables observe reads.

Coherent amplitudes are checked against two independent oracles: the
closed-form log-gamma expression and scipy's Poisson survival function for
the truncated tail mass.  Their norms and photon numbers are read with the
block-layout oracle (tests/oracle.py).
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import readings
from sbprop import (
    CoherentSpec,
    ModelParams,
    SpinorFockState,
    TailMassTooLarge,
    Truncation,
    build_transfer_matrix,
    coherent_state,
    fock_state,
    observe,
)
from sbprop.states import SEARCH_LEVELS
from sbprop.trajectory import TrajectoryBuilder

ALPHA = 5.0  # mean photon number 25; the workhorse example throughout


def poisson_tail(P: int, alpha: float = ALPHA) -> float:
    """Mass of the Poisson(alpha^2) distribution strictly above level P."""
    return float(scipy.stats.poisson(alpha * alpha).sf(P))


def norm_squared(state: SpinorFockState) -> float:
    return readings(state.vector)[0]


def mean_photon_number(state: SpinorFockState) -> float:
    return readings(state.vector)[1]


def test_recurrence_ratio_is_bit_exact():
    spec = CoherentSpec(alpha=3.7, theta=math.pi / 3)
    st8 = coherent_state(spec, 40, tail_tol=1.0)
    for p in range(40):
        ratio = spec.alpha / math.sqrt(p + 1.0)
        assert st8.amps_e[p + 1] == st8.amps_e[p] * ratio
        assert st8.amps_g[p + 1] == st8.amps_g[p] * ratio


def test_amplitudes_match_log_gamma_formula():
    spec = CoherentSpec(alpha=ALPHA, theta=math.pi / 2)  # sin = 1 exactly
    state = coherent_state(spec, 60, tail_tol=1e-5)
    for p in [0, 1, 7, 25, 42, 60]:
        log_c = p * math.log(ALPHA) - 0.5 * ALPHA ** 2 - 0.5 * math.lgamma(p + 1)
        assert state.amps_e[p].real == pytest.approx(math.exp(log_c), rel=5e-13)
        assert state.amps_e[p].imag == 0.0


@pytest.mark.parametrize("P", [50, 60, 62, 70])
def test_truncated_tail_matches_poisson_survival(P):
    state = coherent_state(CoherentSpec(ALPHA, math.pi / 4), P, tail_tol=1.0)
    tail = 1.0 - norm_squared(state)
    # absolute floor ~1e-15: the retained sum is assembled from ~P additions
    assert tail == pytest.approx(poisson_tail(P), rel=1e-6, abs=5e-15)


def test_tail_mass_error_reports_a_sufficient_cutoff():
    with pytest.raises(TailMassTooLarge) as exc:
        coherent_state(CoherentSpec(ALPHA, math.pi / 4), 50)  # default 1e-12
    err = exc.value
    assert err.P == 50
    assert err.tol == 1e-12
    assert err.tail == pytest.approx(3.351e-6, rel=1e-3)
    assert err.required_P == 68
    # independent check: first cutoff whose Poisson tail drops below 1e-12
    scipy_P = next(p for p in range(50, 120) if poisson_tail(p) <= 1e-12)
    assert abs(err.required_P - scipy_P) <= 1
    # and the suggested cutoff actually succeeds
    coherent_state(CoherentSpec(ALPHA, math.pi / 4), err.required_P)


# (alpha, P, tail_tol) -> required_P, pinned from a walk of the recurrence
# that restarted at p = 0; carrying it on from P gives the same floats
@pytest.mark.parametrize("alpha, P, tol, required", [
    (0.5, 0, 1e-12, 9), (2.0, 5, 1e-12, 25), (5.0, 50, 1e-17, 74),
    (9.0, 60, 1e-15, 161), (12.0, 100, 1e-12, 236), (30.0, 10, 1e-12, 1119),
    (1.0, 0, 1e-300, 18),
    # exp(-alpha^2/2) underflows; scipy's Poisson tail names 1889 as well
    (40.0, 1000, 1e-12, 1889),
])
def test_required_cutoff_is_pinned(alpha, P, tol, required):
    with pytest.raises(TailMassTooLarge) as exc:
        coherent_state(CoherentSpec(alpha, math.pi / 4), P, tail_tol=tol)
    assert exc.value.required_P == required


@pytest.mark.parametrize("alpha", [300.0, 363.0, 364.0, 1e3, 1e6, 1e200, 1.7e308])
def test_cutoff_search_gives_up_at_a_cutoff_that_is_still_needed(alpha):
    # the search walks at most SEARCH_LEVELS + 200 levels past P; above
    # alpha ~ 363 it walks zeros, and alpha^2 overflows above ~1.3e154
    with pytest.raises(TailMassTooLarge) as exc:
        coherent_state(CoherentSpec(alpha, math.pi / 4), 50)
    err = exc.value
    assert err.required_P == 50 + 200 + SEARCH_LEVELS
    assert err.tail == 1.0
    if alpha * alpha < math.inf:
        assert poisson_tail(err.required_P, alpha) > 1e-12
    # a tolerance that accepts any tail still refuses a state of norm 0
    with pytest.raises(ValueError, match="squared norm 0.0 up to P=50"):
        coherent_state(CoherentSpec(alpha, math.pi / 4), 50, tail_tol=1.0)


@pytest.mark.parametrize("alpha", [38.5, 40.0, 50.0])
def test_amplitudes_past_the_normal_range_of_exp_match_poisson(alpha):
    # exp(-alpha^2/2) is subnormal above alpha ~ 37.6 and zero above 38.6;
    # the amplitudes up to the Poisson peak must still not underflow.  P is
    # one above the first cutoff whose Poisson tail is within 1e-12, since
    # that cutoff's own tail (9.7e-13 at alpha = 40) is too close to pin.
    lam = alpha * alpha
    levels = np.arange(int(lam), int(lam + 20 * alpha))
    P = int(levels[np.argmax(scipy.stats.poisson(lam).sf(levels) <= 1e-12)]) + 1
    state = coherent_state(CoherentSpec(alpha, math.pi / 4), P)
    want = np.sqrt(scipy.stats.poisson(lam).pmf(np.arange(P + 1)) / 2.0)
    # scipy's log-space pmf is itself good to about 3e-12 of the peak here
    peak = want.max()
    assert np.abs(state.amps_e.real - want).max() < 5e-12 * peak
    assert np.abs(state.amps_g.real - want).max() < 5e-12 * peak
    assert norm_squared(state) == pytest.approx(1.0 - poisson_tail(P, alpha), abs=1e-14)
    assert abs(norm_squared(state) - 1.0) <= 1e-12


def test_truthful_norm_and_photon_number_at_p50():
    state = coherent_state(CoherentSpec(ALPHA, math.pi / 4), 50, tail_tol=1e-5)
    n2 = norm_squared(state)
    assert n2 == pytest.approx(1.0 - 3.351e-6, rel=1e-9)
    deficit = ALPHA ** 2 - mean_photon_number(state)
    assert deficit == pytest.approx(1.738e-4, rel=1e-3)
    # equal spinor mix: inversion vanishes up to rounding
    assert abs(readings(state.vector)[2]) < 1e-12


def test_tight_cutoffs_restore_the_ideal_values():
    state = coherent_state(CoherentSpec(ALPHA, math.pi / 4), 70)
    assert abs(norm_squared(state) - 1.0) < 1e-12
    assert abs(mean_photon_number(state) - ALPHA ** 2) < 1e-9
    state62 = coherent_state(CoherentSpec(ALPHA, math.pi / 4), 62, tail_tol=1e-9)
    assert abs(mean_photon_number(state62) - ALPHA ** 2) < 1e-6


def test_fock_state_observables():
    q = build_transfer_matrix(ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1),
                              Truncation(P=5))
    row = observe(fock_state(1, "g", 5), q)
    assert len(row) == 1 and row.times[0] == 0.0
    assert row.norm2[0] == 1.0
    assert row.n_raw[0] == 1.0
    assert row.sz_raw[0] == -1.0
    assert row.c_exp[0] == 1.0   # p photons, atom down
    assert row.parity[0] == -1.0

    row = observe(fock_state(0, "e", 5), q)
    assert row.sz_raw[0] == 1.0
    assert row.c_exp[0] == 1.0   # no photons, atom up
    assert row.parity[0] == -1.0


def test_excitation_of_balanced_superposition():
    a = fock_state(0, "e", 4)
    b = fock_state(1, "g", 4)
    s = SpinorFockState(amps_e=(a.amps_e + b.amps_e) / math.sqrt(2),
                        amps_g=(a.amps_g + b.amps_g) / math.sqrt(2))
    assert readings(s.vector)[3] == pytest.approx(1.0, abs=1e-15)


def test_excitation_weights_commute_with_photon_conserving_coupling():
    # the weights the builder measures with: one chain-order basis state
    # per row reads each slot's weight exactly
    rwa = build_transfer_matrix(
        ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1), Truncation(P=10))
    # the weights do not depend on the couplings, so any Q at P = 10 will do
    builder = TrajectoryBuilder(rwa, 22)
    builder.record(0, np.zeros(22), np.eye(22, dtype=np.complex128))
    full = build_transfer_matrix(
        ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4),
        Truncation(P=10))

    def commutator_norm(q, weights):
        # Q in the chain order the builder's rows are in
        m = q.matrix[np.ix_(q.order, q.order)]
        d = np.diag(weights)
        return np.abs(m @ d - d @ m).max()

    assert commutator_norm(rwa, builder.c_exp) == 0.0
    assert commutator_norm(full, builder.c_exp) > 0.1
    # parity survives the counter-rotating terms too
    assert commutator_norm(rwa, builder.parity) == 0.0
    assert commutator_norm(full, builder.parity) == 0.0


def test_energy_expectation_examples():
    params = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=0.1)
    q = build_transfer_matrix(params, Truncation(P=3))
    assert observe(fock_state(0, "e", 3), q).energy_re[0] == 0.5
    assert observe(fock_state(2, "g", 3), q).energy_re[0] == 1.5
    with pytest.raises(ValueError):
        observe(fock_state(0, "e", 5), q)


def test_vector_round_trip_and_validation():
    s = fock_state(2, "g", 4)
    back = SpinorFockState.from_vector(s.vector)
    assert np.array_equal(back.amps_e, s.amps_e)
    assert np.array_equal(back.amps_g, s.amps_g)
    with pytest.raises(ValueError):
        SpinorFockState(amps_e=np.zeros(3), amps_g=np.zeros(2))
    with pytest.raises(ValueError):
        SpinorFockState(amps_e=np.array([np.nan]), amps_g=np.zeros(1))
    with pytest.raises(ValueError):
        SpinorFockState.from_vector(np.zeros(5))


def test_coherent_spec_and_fock_validation():
    with pytest.raises(ValueError):
        CoherentSpec(alpha=-1.0, theta=0.0)
    with pytest.raises(ValueError):
        CoherentSpec(alpha=1.0, theta=7.0)
    with pytest.raises(ValueError):
        coherent_state(CoherentSpec(1.0, 0.0), -1)
    with pytest.raises(ValueError):
        coherent_state(CoherentSpec(1.0, 0.0), 10, tail_tol=0.0)
    with pytest.raises(ValueError):
        fock_state(6, "e", 5)
    with pytest.raises(ValueError):
        fock_state(0, "x", 5)


SCALING_Q = build_transfer_matrix(
    ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4), Truncation(P=5))


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=100.0,
                    allow_nan=False, allow_infinity=False),
    phase=st.floats(min_value=0.0, max_value=6.28,
                    allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_measure_scales_quadratically(scale, phase, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=12) + 1j * rng.normal(size=12)

    def measure(v):
        row = observe(SpinorFockState.from_vector(v), SCALING_Q)
        return np.array([row.norm2[0], row.n_raw[0], row.sz_raw[0], row.c_exp[0],
                         row.parity[0]])

    base = measure(vec)
    scaled = measure(vec * scale * np.exp(1j * phase))
    assert scaled == pytest.approx(base * scale ** 2, rel=1e-12)
