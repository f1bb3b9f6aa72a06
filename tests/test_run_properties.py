"""Every valid config through every command.

Each config key is drawn over its whole valid range, with its edges weighted
in: tiny, subnormal and near-``MAX_FREQUENCY`` frequencies and
``omega_int = 0``, ``alpha`` next to 0 and 1, ``beta_B`` from the smallest
subnormal to the largest float, windows of any width at any offset,
including widths of a few float spacings of their times, and optics over
[0, 1].  ``sweep``, ``hist``, ``compare`` and ``compare --photonic`` run each
config in-process, with every warning an error, and must:

* return, with no exception leaving ``cli.main``, exit code 0, 2 or 3;
* on exit 2 name a config key, and on exit 3 the time, ``omega_L_t=``;
* after a non-zero exit leave no file in the output directory;
* after exit 0 write times that increase strictly down the time column of
  every grid CSV, and the ``hist_times`` in their order, each on a run of
  rows, down the time column of every histogram.

Examples are derandomized with a fixed count.  hypothesis also mixes in
literals of the loaded local modules, so the draws change with the test
files and with what a run imports; the ``@example`` cases are fixed.  A
hypothesis profile with more examples raises the count
(``--hypothesis-profile=runs-5000``, registered in tests/conftest.py).
"""

import contextlib
import io
import math
import re
import sys
import tempfile
import warnings
from itertools import groupby
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gate_energetics import cli
from gate_energetics.config import parse_config
from gate_energetics.model import MAX_FREQUENCY

RUNS = settings(
    derandomize=True,
    max_examples=max(200, settings.default.max_examples),
    deadline=None,
    database=None,
)

KEYS = {
    "omega_L", "omega_int", "alpha", "beta_B", "t_min", "t_max", "n_points", "moments_max",
    "hist_times", "samples", "seed", "photonic.T_H", "photonic.T_V", "photonic.atten_H",
    "photonic.eps",
}
COMMANDS = [["sweep"], ["hist"], ["compare"], ["compare", "--photonic"]]
PARSER = cli.build_parser()
BELOW_ONE = math.nextafter(1.0, 0.0)
TINY = sys.float_info.min


def _edged(edges, *bases):
    """A strategy that draws one of ``edges`` as often as from each of ``bases``."""
    return st.one_of(st.sampled_from(edges), *bases)


FREQUENCY = _edged(
    [5e-324, 1.5e-323, TINY, 2 * TINY, 1e-162, 1e-158, 1.0, 2000.0,
     math.nextafter(MAX_FREQUENCY, 0.0)],
    st.floats(5e-324, MAX_FREQUENCY, exclude_max=True),
    st.floats(1e-3, 1e3),
)
UNIT = _edged([0.0, 5e-324, BELOW_ONE, 1.0], st.floats(0.0, 1.0))
# the window: any width at any offset, or up to 2**20 float spacings of
# t_min (about 2e-10 of it), across the 12 significant digits that the CSV
# cells print
T_MIN = _edged(
    [0.0, -0.0, 1e17, -1e17, 5e-324],
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
WIDTH = st.one_of(st.floats(5e-324, sys.float_info.max), st.floats(1e-3, 1e2), st.none())
SPACINGS = st.integers(1, 2**20)
# each hist time at a fraction of the window, both ends included
FRACTIONS = st.lists(UNIT, min_size=1, max_size=4)
OTHER_KEYS = {
    "omega_L": FREQUENCY,
    "omega_int": st.one_of(st.just(0.0), FREQUENCY),
    "alpha": _edged(
        [5e-324, 1e-300, 0.5, BELOW_ONE], st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
    "beta_B": _edged(
        [5e-324, 0.5, 360.0, 1e308, sys.float_info.max], st.floats(5e-324, sys.float_info.max)
    ),
    "n_points": st.integers(2, 40),
    "moments_max": st.integers(1, 12),
    "samples": _edged([1, 2**63 - 1], st.integers(1, 2**63 - 1)),
    "seed": _edged([0, 2**64 - 1], st.integers(0, 2**64 - 1)),
    "photonic.T_H": UNIT,
    "photonic.T_V": UNIT,
    "photonic.atten_H": UNIT,
    "photonic.eps": _edged([0.0, BELOW_ONE], st.floats(0.0, 1.0, exclude_max=True)),
}


@st.composite
def configs(draw):
    """A value of every key, each over its valid range."""
    t_min, width = draw(T_MIN), draw(WIDTH)
    if width is None:
        width = draw(SPACINGS) * math.ulp(t_min)
    t_max = t_min + width
    hist_times = [t_min + u * (t_max - t_min) for u in draw(FRACTIONS)]
    values = {key: draw(strategy) for key, strategy in OTHER_KEYS.items()}
    return {
        **values,
        "t_min": t_min,
        "t_max": t_max,
        "hist_times": ", ".join(map(repr, hist_times)),
    }


def _time_column(path: Path) -> list[str]:
    return [line.partition(",")[0] for line in path.read_text().splitlines()[1:]]


def _check_outputs(out: Path, hist_times) -> None:
    for path in out.glob("*.csv"):
        cells = _time_column(path)
        if path.name.startswith("hist_"):
            # one run of rows per time, in the order of hist_times; two
            # times that print alike merge their runs in both
            runs = [cell for cell, _ in groupby(cells)]
            assert runs == [cell for cell, _ in groupby("%.11e" % t for t in hist_times)], path
        else:
            times = np.array(cells, dtype=float)
            assert (times[:-1] < times[1:]).all(), (path.name, cells)


@RUNS
@given(values=configs())
@example(values={"omega_L": 1e-162, "omega_int": 0.0})
@example(values={"omega_L": 5e-324, "omega_int": 0.0})
@example(values={"omega_L": 2000.0, "beta_B": 576460752303424.0})  # exp overflowed
def test_every_valid_config_runs_through_every_command(values):
    text = "".join(
        f"{key} = {value if isinstance(value, str) else repr(value)}\n"
        for key, value in values.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        for i, argv in enumerate(COMMANDS):
            out = Path(tmp) / f"out{i}"
            err = io.StringIO()
            with (
                # one parser for every run, built as cli.main builds it: an
                # argparse parser keeps no state between parse_args calls
                mock.patch.object(cli, "build_parser", lambda: PARSER),
                warnings.catch_warnings(),
                contextlib.redirect_stderr(err),
                contextlib.redirect_stdout(io.StringIO()),
            ):
                warnings.simplefilter("error")
                code = cli.main([*argv, "--config", str(path), "--out", str(out)])
            err = err.getvalue()
            if code == 0:
                assert err == ""
                _check_outputs(out, parse_config(path).hist_times)
                continue
            if code == 2:
                assert err.startswith("config error: "), err
                # the message starts with a key; the photonic refusal names
                # the optical stack, of the photonic.* keys
                named = re.split("[ :,]", err.removeprefix("config error: "), maxsplit=1)[0]
                assert named in KEYS | {"photonic"}, err
            else:
                assert code == 3, (code, err)
                assert err.startswith("numeric invariant violated: "), err
                assert "omega_L_t=" in err, err
            assert not out.exists() or not any(out.iterdir()), (argv, err)
