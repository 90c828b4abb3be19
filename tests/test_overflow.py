"""Parameters at the edge of the float range: every run ends in its result
or in one refusal, and no numpy RuntimeWarning escapes.

Each computation silences the overflow of its own arithmetic, so neither
a CLI run nor a library call warns, whatever the caller's error state.
"""

import warnings

import numpy as np
import pytest

from sbprop import (
    PropagatorConfig,
    StepPropagator,
    advance,
    build_step_propagator,
    build_transfer_matrix,
    diagonalize,
    evolve,
    gs_scan,
    load_run_config,
    lowest_energies,
    observe,
    propagator_fingerprint,
    suggest_step,
    teee_evolve,
)
from sbprop.cli import main

VALUES = ["1e300", "1e307", "1e308", "1.7e308"]


def library_calls(cfg):
    """Every library step a run makes, called on cfg's Q; a step that its
    inputs refuse raises, and the steps after it that need its result are
    made on a stand-in."""
    params = cfg.to_params()
    q = build_transfer_matrix(params, cfg.to_truncation())
    state = cfg.build_initial_state()
    pcfg = PropagatorConfig(dt=0.01, steps=10)
    calls = [lambda: observe(state, q), lambda: suggest_step(q)]
    try:
        prop = build_step_propagator(q, pcfg)
    except RuntimeError:
        # the identity under the matching fingerprint, so that the step
        # kernel and the measurement still see this Q
        prop = StepPropagator(propagator_fingerprint(params, cfg.P, pcfg.N, pcfg.dt),
                              q.dim, pcfg.N, pcfg.dt,
                              band=np.ones((q.dim, 1), dtype=np.complex128))
    calls += [lambda: evolve(state, prop, pcfg, q), lambda: advance(state, prop, pcfg, q),
              lambda: lowest_energies(q, min(5, q.dim - 1)),
              lambda: gs_scan(params, range(0, cfg.P + 3))]
    try:
        dec = diagonalize(q)
    except (ValueError, RuntimeError):
        return calls
    return calls + [lambda: teee_evolve(state, dec, np.linspace(0.0, 1.0, 11))]


@pytest.mark.parametrize("key", ["omega_f", "omega_0", "g_minus", "g_plus", "beta", "gamma"])
def test_no_warning_escapes_at_the_float_limit(config_dir, capsys, tmp_path, monkeypatch,
                                               key):
    monkeypatch.setenv("SBPROP_CACHE_DIR", str(tmp_path))
    base = str(config_dir / ("fig6.cfg" if key in ("beta", "gamma") else "fig2.cfg"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in VALUES:
            for P in (0, 1, 3):
                sets = ["--set", f"{key}={value}", "--set", f"P={P}"]
                for argv in (["evolve"], ["evolve", "--set", "dt=0.01"],
                             ["compare", "--set", "dt=0.01"], ["spectrum"],
                             ["gs-scan", "--p-values", f"0:{P + 2}"]):
                    code = main([argv[0], "--config", base, *sets, *argv[1:]])
                    err = capsys.readouterr().err.splitlines()
                    assert (code == 0 and err == []) or (
                        code in (1, 2) and len(err) == 1
                        and err[0].startswith(("error: ", "numerical failure: "))), \
                        (argv, sets, code, err)
                cfg = load_run_config(base, [f"{key}={value}", f"P={P}"])
                for call in library_calls(cfg):
                    try:
                        call()
                    except (ValueError, RuntimeError):
                        pass
