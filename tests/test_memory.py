"""Memory guards: the cutoff scan and the squared checkpoints stay off dense
matrices.

Each routine works on chain-sized pieces, so its traced peak stays below
the size of one dense matrix of the kind it used to build.
"""

import tracemalloc

from sbprop import (
    ModelParams,
    PropagatorConfig,
    Truncation,
    build_step_propagator,
    build_transfer_matrix,
    checkpoint_powers,
    gs_scan,
    suggest_step,
)

FIG2 = ModelParams(omega_f=1.0, omega_0=0.75, g_minus=0.4, g_plus=0.4)
DEEP = ModelParams(omega_f=1.0, omega_0=1.0, g_minus=2.0, g_plus=2.0)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gs_scan_peak_is_below_one_dense_chain_block():
    # one float64 block of the largest chain is 401 x 401
    assert traced_peak(gs_scan, DEEP, range(10, 401)) < 401 ** 2 * 8


def test_checkpoint_powers_allocates_no_dense_propagator():
    q = build_transfer_matrix(FIG2, Truncation(P=100))
    prop = build_step_propagator(q, PropagatorConfig(dt=suggest_step(q), steps=1))
    # M's two chain blocks hold half the entries of the dense dim x dim M
    assert traced_peak(checkpoint_powers, prop, 1) < q.dim ** 2 * 16
