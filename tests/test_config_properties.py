"""Property tests of the config contract, over all 16 config keys.

An out-of-range value of any key makes the CLI exit 2 with the key in the
message; an in-range config parses back to the values that were written
and validates.  Examples are derandomized with a fixed count, so every run
draws the same cases.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_energetics import cli
from gate_energetics.config import DEFAULT_T_MAX, parse_config
from gate_energetics.model import MAX_FREQUENCY

FIXED = settings(derandomize=True, max_examples=25, deadline=None, database=None)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
TEXT_NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])


def _floats_outside(below=None, above=None):
    """Non-finite floats, floats <= ``below`` and floats >= ``above``, as config text."""
    parts = [NON_FINITE]
    if below is not None:
        parts.append(st.floats(max_value=below, allow_infinity=False))
    if above is not None:
        parts.append(st.floats(min_value=above, allow_infinity=False))
    return st.one_of(*parts).map(repr)


def _ints_below(bound):
    return st.one_of(st.integers(max_value=bound - 1).map(str), TEXT_NON_FINITE)


NEGATIVE = -5e-324  # the largest negative float
ABOVE_ONE = math.nextafter(1.0, 2.0)

# key -> strategy for the text of an out-of-range value, with the other keys at
# their defaults (t_min = 0, t_max = DEFAULT_T_MAX, n_points = 200)
OUT_OF_RANGE = {
    "omega_L": _floats_outside(0.0, MAX_FREQUENCY),
    "omega_int": _floats_outside(NEGATIVE, MAX_FREQUENCY),
    "alpha": _floats_outside(0.0, 1.0),
    "beta_B": _floats_outside(below=0.0),
    "t_min": _floats_outside(above=DEFAULT_T_MAX),
    "t_max": _floats_outside(below=0.0),
    "n_points": _ints_below(2),
    "moments_max": _ints_below(1),
    "hist_times": st.one_of(
        st.just(""),
        st.lists(
            _floats_outside(NEGATIVE, math.nextafter(DEFAULT_T_MAX, 4.0)), min_size=1, max_size=3
        ).map(", ".join),
    ),
    "samples": _ints_below(1),
    "seed": st.one_of(
        st.integers(max_value=-1).map(str),
        st.integers(min_value=2**64 - 199).map(str),
        TEXT_NON_FINITE,
    ),
    "photonic.enabled": st.one_of(TEXT_NON_FINITE, st.sampled_from(["maybe", "2", "-1"])),
    "photonic.T_H": _floats_outside(NEGATIVE, ABOVE_ONE),
    "photonic.T_V": _floats_outside(NEGATIVE, ABOVE_ONE),
    "photonic.atten_H": _floats_outside(NEGATIVE, ABOVE_ONE),
    "photonic.eps": _floats_outside(NEGATIVE, 1.0),
}


def _run_cli(config_text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(config_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["hist", "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
@FIXED
@given(data=st.data())
def test_out_of_range_value_exits_2_naming_key(key, data):
    value = data.draw(OUT_OF_RANGE[key], label=key)
    code, err = _run_cli(f"{key} = {value}\n")
    assert code == 2
    assert key in err


@st.composite
def in_range_configs(draw):
    t_min = draw(st.floats(-1e3, 1e3))
    n_points = draw(st.integers(2, 10**6))
    unit = st.floats(0.0, 1.0)
    return {
        "omega_L": draw(st.floats(0.0, 1e6, exclude_min=True)),
        "omega_int": draw(st.floats(0.0, 1e6)),
        "alpha": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "beta_B": draw(st.floats(0.0, 1e300, exclude_min=True)),
        "t_min": t_min,
        "t_max": t_min + draw(st.floats(1e-6, 1e3)),
        "n_points": n_points,
        "moments_max": draw(st.integers(1, 50)),
        "hist_times": tuple(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))),
        "samples": draw(st.integers(1, 10**12)),
        "seed": draw(st.integers(0, 2**64 - n_points)),
        "photonic.enabled": draw(st.booleans()),
        "photonic.T_H": draw(unit),
        "photonic.T_V": draw(unit),
        "photonic.atten_H": draw(unit),
        "photonic.eps": draw(st.floats(0.0, 1.0, exclude_max=True)),
    }


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


@FIXED
@given(values=in_range_configs())
def test_in_range_config_parses_back(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{key} = {_text(value)}\n" for key, value in values.items()))
        cfg = parse_config(path)
    cfg.validate()
    parsed = {
        "omega_L": cfg.model.omega_L,
        "omega_int": cfg.model.omega_int,
        "alpha": cfg.thermal.alpha,
        "beta_B": cfg.thermal.beta_B,
        "t_min": cfg.t_min,
        "t_max": cfg.t_max,
        "n_points": cfg.n_points,
        "moments_max": cfg.moments_max,
        "hist_times": cfg.hist_times,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "photonic.enabled": cfg.photonic,
        "photonic.T_H": cfg.optical.T_H,
        "photonic.T_V": cfg.optical.T_V,
        "photonic.atten_H": cfg.optical.atten_H,
        "photonic.eps": cfg.optical.eps,
    }
    assert parsed == values
