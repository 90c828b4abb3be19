"""Flat key=value run configuration with command-line overrides."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .model import ModelParams, Truncation
from .propagator import PropagatorConfig
from .states import (DEFAULT_TAIL_TOL, CoherentSpec, SpinorFockState, coherent_state,
                     fock_state)

__all__ = ["ConfigError", "RunConfig", "load_run_config", "parse_p_values"]


class ConfigError(ValueError):
    """Bad key, bad value, or an unusable combination."""


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


_PI_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def _parse_angle(text: str) -> float:
    """Plain float, or familiar fractions like 'pi/4', '3*pi/2', '0.5pi'."""
    m = _PI_RE.match(text.strip())
    try:
        if not m:
            return float(text)
        coeff = m.group(1)
        # the pattern also admits a bare "." as the coefficient
        num = 1.0 if coeff in ("", "+") else -1.0 if coeff == "-" else float(coeff)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None
    den = float(m.group(2)) if m.group(2) else 1.0
    if den == 0.0:
        raise ConfigError(f"zero denominator in angle {text!r}")
    return num * math.pi / den


def _parse_dt(text: str):
    if text.strip().lower() == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"dt must be a number or 'auto', got {text!r}") from None
    return value


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def parse_p_values(text: str) -> list[int]:
    """Cutoff list: 'a:b', 'a:b:step', or comma-separated integers."""
    text = text.strip()
    if not text:
        raise ConfigError("p_values is empty; give 'start:stop[:step]' or a list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad range {text!r}")
        start, stop = _parse_int(parts[0]), _parse_int(parts[1])
        step = _parse_int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or stop < start:
            raise ConfigError(f"bad range {text!r}")
        values = list(range(start, stop + 1, step))
    else:
        values = [_parse_int(tok) for tok in text.split(",") if tok.strip()]
    if len(values) < 2:
        raise ConfigError("p_values must contain at least two cutoffs")
    return values


@dataclass
class RunConfig:
    """Everything a run needs; field names double as config keys."""

    omega_f: float = 1.0
    omega_0: float = 1.0
    g_minus: float = 0.0
    g_plus: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    P: int = 50
    N: int = PropagatorConfig.N
    dt: float | None = None          # None means pick via suggest_step
    t_max: float = 100.0
    tol: float = PropagatorConfig.tol
    state: str = "fock"              # fock | coherent
    p0: int = 0
    spin: str = "e"
    alpha: float = 0.0
    theta: float = math.pi / 2
    tail_tol: float = DEFAULT_TAIL_TOL
    out: str = ""
    normalize: bool = False
    p_values: str = ""
    levels: int = 20

    def to_params(self) -> ModelParams:
        try:
            return ModelParams(omega_f=self.omega_f, omega_0=self.omega_0,
                               g_minus=self.g_minus, g_plus=self.g_plus,
                               beta=self.beta, gamma=self.gamma)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def to_truncation(self) -> Truncation:
        try:
            return Truncation(P=self.P)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def build_initial_state(self) -> SpinorFockState:
        if self.state == "fock":
            return fock_state(self.p0, self.spin, self.P)
        if self.state == "coherent":
            spec = CoherentSpec(alpha=self.alpha, theta=self.theta)
            return coherent_state(spec, self.P, tail_tol=self.tail_tol)
        raise ConfigError(f"state must be 'fock' or 'coherent', got {self.state!r}")


_TYPE_PARSERS = {"float": _parse_float, "int": _parse_int, "bool": _parse_bool,
                 "str": str, "float | None": _parse_dt}
_PARSERS = {f.name: _parse_angle if f.name == "theta" else _TYPE_PARSERS[f.type]
            for f in fields(RunConfig)}


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def load_run_config(path: str | Path | None = None,
                    overrides: list[str] | None = None) -> RunConfig:
    """Parse a config file, then apply 'key=value' overrides (flags win).

    Unknown keys are errors, not warnings; so are unreadable files.
    """
    cfg = RunConfig()
    pairs: list[tuple[str, str]] = []
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        pairs.extend(_read_pairs(p))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))

    for key, value in pairs:
        parser = _PARSERS.get(key)
        if parser is None:
            known = ", ".join(sorted(_PARSERS))
            raise ConfigError(f"unknown config key {key!r} (known keys: {known})")
        try:
            setattr(cfg, key, parser(value))
        except ConfigError as err:
            raise ConfigError(f"key {key!r}: {err}") from None
    return cfg
