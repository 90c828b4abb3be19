"""Config files, --set overrides, and the value parsers."""

import math
import re

import pytest

from sbprop import ConfigError, RunConfig, TailMassTooLarge, load_run_config, parse_p_values
from sbprop.config import _parse_angle, _parse_bool


def test_defaults_without_any_input():
    cfg = load_run_config()
    assert cfg == RunConfig()
    assert cfg.dt is None and cfg.P == 50 and cfg.state == "fock"


def test_file_parsing_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # a full-line comment
        omega_0 = 0.75
        g_minus = 0.4   # trailing comment
        g_plus=0.4
        P = 12

        state = coherent
        alpha = 2.0
        theta = pi/4
        dt = auto
        normalize = yes
        """
    )
    cfg = load_run_config(path)
    assert cfg.omega_0 == 0.75
    assert cfg.g_minus == 0.4 and cfg.g_plus == 0.4
    assert cfg.P == 12
    assert cfg.state == "coherent" and cfg.alpha == 2.0
    assert cfg.theta == math.pi / 4
    assert cfg.dt is None
    assert cfg.normalize is True


def test_overrides_beat_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("P = 10\nomega_0 = 1.0\n")
    cfg = load_run_config(path, ["P=20", "dt=0.025", "spin=g"])
    assert cfg.P == 20
    assert cfg.dt == 0.025
    assert cfg.spin == "g"
    assert cfg.omega_0 == 1.0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("3*pi/2", 3 * math.pi / 2),
        ("0.5pi", 0.5 * math.pi),
        ("-pi/2", -math.pi / 2),
        ("1.5707963", 1.5707963),
        ("2pi", 2 * math.pi),
    ],
)
def test_angle_forms(text, expected):
    assert _parse_angle(text) == pytest.approx(expected, rel=1e-15)


def test_bad_angles_and_bools():
    with pytest.raises(ConfigError):
        _parse_angle("pie")
    with pytest.raises(ConfigError):
        _parse_angle("pi/0")
    assert _parse_bool("TRUE") is True and _parse_bool("off") is False
    with pytest.raises(ConfigError):
        _parse_bool("maybe")


@pytest.mark.parametrize("text", [".pi", "+.pi", "-.pi/2"])
def test_bare_dot_angle_coefficient_is_a_config_error_naming_its_key(text):
    # the pi pattern admits "." as the coefficient, which float() refuses
    with pytest.raises(ConfigError, match=f"^key 'theta': cannot parse angle '{re.escape(text)}'$"):
        load_run_config(None, [f"theta={text}"])


def test_p_values_forms():
    assert parse_p_values("2:6") == [2, 3, 4, 5, 6]
    assert parse_p_values("10:50:10") == [10, 20, 30, 40, 50]
    assert parse_p_values("5, 9, 12") == [5, 9, 12]
    for bad in ["", "7", "9:5", "1:9:0", "1:2:3:4", "a:b"]:
        with pytest.raises(ConfigError):
            parse_p_values(bad)


def test_unknown_key_is_rejected_with_the_known_list(tmp_path):
    with pytest.raises(ConfigError, match="known keys"):
        load_run_config(None, ["omega=1"])
    path = tmp_path / "run.cfg"
    path.write_text("omega_q = 1\n")
    with pytest.raises(ConfigError, match="omega_q"):
        load_run_config(path)


def test_bad_values_are_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(None, ["P=2.5"])
    with pytest.raises(ConfigError):
        load_run_config(None, ["omega_f=abc"])
    with pytest.raises(ConfigError):
        load_run_config(None, ["dt=later"])
    with pytest.raises(ConfigError):
        load_run_config(None, ["P"])
    # file syntax without '='
    path = tmp_path / "run.cfg"
    path.write_text("just a line\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_run_config(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "nope.cfg")


def test_parameter_validation_is_wrapped(tmp_path):
    cfg = load_run_config(None, ["omega_f=-1"])
    with pytest.raises(ConfigError):
        cfg.to_params()
    cfg = load_run_config(None, ["P=-3"])
    with pytest.raises(ConfigError):
        cfg.to_truncation()


def test_initial_state_construction():
    cfg = load_run_config(None, ["state=fock", "p0=2", "spin=g", "P=5"])
    s = cfg.build_initial_state()
    assert s.amps_g[2] == 1.0

    cfg = load_run_config(None, ["state=coherent", "alpha=5.0", "theta=pi/4",
                                 "P=50", "tail_tol=1e-5"])
    s = cfg.build_initial_state()
    assert abs(s.amps_e[25]) > 0.1

    cfg = load_run_config(None, ["state=coherent", "alpha=5.0", "P=50"])
    with pytest.raises(TailMassTooLarge):
        cfg.build_initial_state()

    cfg = load_run_config(None, ["state=squeezed"])
    with pytest.raises(ConfigError):
        cfg.build_initial_state()


def test_all_shipped_configs_parse(config_dir):
    paths = sorted(config_dir.glob("*.cfg"))
    assert len(paths) == 7
    for path in paths:
        cfg = load_run_config(path)
        cfg.to_params()
        cfg.to_truncation()
        if "fig5" not in path.name:
            cfg.build_initial_state()
        else:
            assert len(parse_p_values(cfg.p_values)) >= 2
