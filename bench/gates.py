"""Output checks, run outside the timed region.

`check_reference` judges the first (cold-cache) run of an operation on its
content.  Every later run of the same operation must reproduce that run
byte for byte (`same_as_reference`), which is how a warm-cache CSV is held
to the cold-cache one.
"""

from __future__ import annotations

import math

import numpy as np

HEADERS = {
    "evolve": "t,norm2,n_raw,n_norm,sz_raw,sz_norm,energy_re,C_exp,parity",
    "compare": "t,dn_abs,dsz_abs",
    "spectrum": "j,energy,delta_e",
    "gs-scan": "P,E0",
}
TEEE_TOL = 1e-6        # Taylor vs eigendecomposition, raw <n> and <sz>
NORM_DRIFT_TOL = 1e-9  # Hermitian runs
COMPARE_TOL = 1e-6
SAMPLED_ROWS = 9


def _table(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return np.array(rows, dtype=np.float64)


def check_reference(sb, op, result) -> list[str]:
    """Problems found in one operation's output; empty when it passed."""
    if result.code != 0:
        return [f"exit code {result.code}"]
    text = result.out.decode(errors="replace")
    header = text.split("\n", 1)[0]
    if header != HEADERS[op.command]:
        return [f"CSV header {header!r}"]
    try:
        table = _table(text)
    except ValueError:
        return ["malformed CSV"]
    if table.ndim != 2 or table.shape[0] == 0 or not np.isfinite(table).all():
        return ["empty or non-finite table"]
    check = {"evolve": _evolve, "compare": _compare,
             "spectrum": _spectrum, "gs-scan": _gs_scan}[op.command]
    return check(sb, op, table, result.stdout)


def same_as_reference(result, ref) -> list[str]:
    if result.code != ref.code:
        return [f"exit code {result.code}, first run {ref.code}"]
    if result.out != ref.out or result.stdout != ref.stdout:
        return ["output differs from the first (cold-cache) run"]
    return []


def _evolve(sb, op, table, stdout):
    cfg = sb.load_run_config(op.config, list(op.sets))
    q = sb.build_transfer_matrix(cfg.to_params(), cfg.to_truncation())
    dt = cfg.dt if cfg.dt is not None else sb.suggest_step(q, cfg.N, cfg.tol)
    steps = max(math.ceil(cfg.t_max / dt - 1e-9), 0)
    if table.shape[0] != steps + 1:
        return [f"{table.shape[0]} rows, expected {steps + 1}"]
    norm2 = table[:, 1]
    if not q.hermitian:
        if np.any(np.diff(norm2) > 0.0) or norm2[-1] >= norm2[0]:
            return ["norm does not decay monotonically on a dissipative run"]
        return []
    problems = []
    drift = float(np.abs(norm2 - norm2[0]).max())
    if drift >= NORM_DRIFT_TOL:
        problems.append(f"norm drift {drift:.3e}")
    rows = np.unique(np.linspace(0, steps, SAMPLED_ROWS).astype(int))
    ref = sb.teee_evolve(cfg.build_initial_state(), sb.diagonalize(q), table[rows, 0])
    for name, col, exact in (("n_raw", 2, ref.n_raw), ("sz_raw", 4, ref.sz_raw)):
        err = float(np.abs(table[rows, col] - exact).max())
        if err >= TEEE_TOL:
            problems.append(f"{name} differs from teee_evolve by {err:.3e}")
    return problems


def _compare(sb, op, table, stdout):
    values = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    try:
        worst = max(float(values["max_dn"]), float(values["max_dsz"]))
    except (KeyError, ValueError):
        return ["no max_dn/max_dsz lines"]
    return [] if worst < COMPARE_TOL else [f"compare maximum {worst:.3e}"]


def _spectrum(sb, op, table, stdout):
    energies, deltas = table[:, 1], table[:, 2]
    if np.any(np.diff(energies) < 0.0) or np.any(deltas < 0.0):
        return ["levels not ascending"]
    return []


def _gs_scan(sb, op, table, stdout):
    found = [line.split("=", 1)[1] for line in stdout.splitlines()
             if line.startswith("classification=")]
    if found != [op.expect]:
        return [f"classification {found}, expected {op.expect}"]
    return []
