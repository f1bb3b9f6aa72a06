"""Every valid config through every command, on a fixed corpus.

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

The configs are the three named ``EXAMPLES``, each of which must also give
the exit code it records on every command, and a ``CORPUS`` of 200 that
``random.Random(CORPUS_SEED)`` draws, so they change with nothing but this
file; ``test_the_corpus_is_the_recorded_one`` holds the SHA-256 of their
texts.  Each range below is a spec: a list of alternatives, each as likely;
a tuple of edge values; ``Floats``, drawn uniformly; ``Doubles``, drawn as
random bit patterns, so that each binade of a range across hundreds of
decades is as likely; or ``Ints``.  The hypothesis search over the same
specs is tests/search_run_properties.py, which CI runs with 5000 examples;
a config it finds failing becomes a named example here.
"""

import contextlib
import hashlib
import io
import math
import random
import re
import struct
import sys
import tempfile
import warnings
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gate_energetics import cli
from gate_energetics.config import parse_config
from gate_energetics.model import MAX_FREQUENCY

COMMANDS = [["sweep"], ["hist"], ["compare"], ["compare", "--photonic"]]
PARSER = cli.build_parser()
BELOW_ONE = math.nextafter(1.0, 0.0)
TINY = sys.float_info.min
HUGE = sys.float_info.max


@dataclass(frozen=True)
class Floats:
    """Floats of [lo, hi], drawn uniformly."""

    lo: float
    hi: float

    def draw(self, rng: random.Random) -> float:
        return min(self.hi, self.lo + (self.hi - self.lo) * rng.random())


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


@dataclass(frozen=True)
class Doubles:
    """The doubles of [lo, hi], each as likely: a random bit pattern in range."""

    lo: float
    hi: float

    def draw(self, rng: random.Random) -> float:
        # doubles of one sign are ordered as their bit patterns; a negative
        # double takes the negated pattern of its magnitude
        lo = _bits(abs(self.lo))
        key = rng.randint(-lo if self.lo < 0 else lo, _bits(self.hi))
        magnitude = struct.unpack("<d", struct.pack("<q", abs(key)))[0]
        return -magnitude if key < 0 else magnitude


@dataclass(frozen=True)
class Ints:
    """Integers of [lo, hi]: ``x - lo`` is k random bits, each k up to the
    width of the range as likely, so small offsets are drawn as often as
    large ones."""

    lo: int
    hi: int

    def draw(self, rng: random.Random) -> int:
        bits = rng.randint(0, (self.hi - self.lo).bit_length())
        return min(self.hi, self.lo + rng.getrandbits(bits))


def draw_from(rng: random.Random, spec):
    """One value of ``spec``: a list of alternatives, each as likely; a tuple
    of values, each as likely; or a range."""
    if isinstance(spec, list):
        return draw_from(rng, rng.choice(spec))
    if isinstance(spec, tuple):
        return rng.choice(spec)
    return spec.draw(rng)


FREQUENCY = [
    (5e-324, 1.5e-323, TINY, 2 * TINY, 1e-162, 1e-158, 1.0, 2000.0,
     math.nextafter(MAX_FREQUENCY, 0.0)),
    Doubles(5e-324, math.nextafter(MAX_FREQUENCY, 0.0)),
    Floats(1e-3, 1e3),
]
UNIT = [(0.0, 5e-324, BELOW_ONE, 1.0), Floats(0.0, 1.0)]
# the window: any width at any offset, or up to 2**20 float spacings of
# t_min (about 2e-10 of it), across the 12 significant digits that the CSV
# cells print
T_MIN = [(0.0, -0.0, 1e17, -1e17, 5e-324), Floats(-1e3, 1e3), Doubles(-HUGE, HUGE)]
WIDTH = [Doubles(5e-324, HUGE), Floats(1e-3, 1e2), (None,)]
SPACINGS = Ints(1, 2**20)
# each hist time at a fraction of the window, both ends included
FRACTIONS = Ints(1, 4)
OTHER_KEYS = {
    "omega_L": FREQUENCY,
    "omega_int": [(0.0,), FREQUENCY],
    "alpha": [(5e-324, 1e-300, 0.5, BELOW_ONE), Floats(5e-324, BELOW_ONE)],
    "beta_B": [(5e-324, 0.5, 360.0, 1e308, HUGE), Doubles(5e-324, HUGE)],
    "n_points": Ints(2, 40),
    "moments_max": Ints(1, 12),
    "samples": [(1, 2**63 - 1), Ints(1, 2**63 - 1)],
    "seed": [(0, 2**64 - 1), Ints(0, 2**64 - 1)],
    "photonic.T_H": UNIT,
    "photonic.T_V": UNIT,
    "photonic.atten_H": UNIT,
    "photonic.eps": [(0.0, BELOW_ONE), Floats(0.0, BELOW_ONE)],
}
KEYS = {*OTHER_KEYS, "t_min", "t_max", "hist_times"}


def config(draw) -> dict:
    """A value of every key, each over its valid range; ``draw(spec)`` gives
    one value of a spec."""
    t_min, width = draw(T_MIN), draw(WIDTH)
    if width is None:
        width = draw(SPACINGS) * math.ulp(t_min)
    t_max = t_min + width
    fractions = [draw(UNIT) for _ in range(draw(FRACTIONS))]
    hist_times = [t_min + u * (t_max - t_min) for u in fractions]
    values = {key: draw(spec) for key, spec in OTHER_KEYS.items()}
    return {
        **values,
        "t_min": t_min,
        "t_max": t_max,
        "hist_times": ", ".join(map(repr, hist_times)),
    }


def config_text(values: dict) -> str:
    return "".join(
        f"{key} = {value if isinstance(value, str) else repr(value)}\n"
        for key, value in values.items()
    )


def _corpus(seed: int, size: int) -> list[dict]:
    rng = random.Random(seed)
    return [config(lambda spec: draw_from(rng, spec)) for _ in range(size)]


CORPUS_SEED = 41
CORPUS = _corpus(CORPUS_SEED, 200)
# configs that failed once, named by the fault each found, and the exit
# code of every command on it
EXAMPLES = {
    "hypot-underflow": ({"omega_L": 1e-162, "omega_int": 0.0}, 0),
    "delta-rounds-to-zero": ({"omega_L": 5e-324, "omega_int": 0.0}, 2),
    "exp-overflow": ({"omega_L": 2000.0, "beta_B": 576460752303424.0}, 0),
}
PARAMS = [pytest.param(values, code, id=name) for name, (values, code) in EXAMPLES.items()] + [
    pytest.param(values, None, id=f"corpus-{i:03d}") for i, values in enumerate(CORPUS)
]


def test_the_corpus_is_the_recorded_one():
    # a change of the generator, of the ranges or of Python's random shows
    # here, not as a silent change of what the corpus covers
    examples = [values for values, _ in EXAMPLES.values()]
    texts = "".join(config_text(values) for values in [*examples, *CORPUS])
    assert hashlib.sha256(texts.encode()).hexdigest() == (
        "3927152a29ee0695f0a1d1d1bbb9371d1b2d90e1b1e575553bc1a0634fe4d717"
    )


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


def run_every_command(values: dict) -> list[int]:
    """Run every command on the config ``values``, check its properties and
    return its exit codes."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(config_text(values))
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
            codes.append(code)
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
    return codes


@pytest.mark.parametrize(("values", "code"), PARAMS)
def test_every_valid_config_runs_through_every_command(values, code):
    codes = run_every_command(values)
    assert code is None or codes == [code] * len(COMMANDS), codes
