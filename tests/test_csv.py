"""The CSV writer against Python's own '%.11e', byte for byte.

``csv_lines`` is the row-at-a-time '%' writer the vectorised one replaced;
it is the oracle here.  Every table is written through a ``csvformat.CsvWriter``,
and the file must equal the header plus the oracle's lines.
"""

import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from gate_energetics import csvformat

BLOCK = csvformat._BLOCK_ROWS


def piece(cols: int) -> int:
    """The rows of a piece of a table of ``cols`` columns: 20 bytes a cell."""
    return csvformat._PIECE_BYTES // (20 * cols)


def csv_lines(table: np.ndarray):
    """One line of '%.11e' cells per row; a non-finite cell is left empty."""
    fmt = ",".join(["%.11e"] * table.shape[1]) + "\n"
    for row, ok in zip(table, np.isfinite(table).all(axis=1).tolist()):
        cells = row.tolist()
        yield fmt % tuple(cells) if ok else ",".join(
            "%.11e" % x if math.isfinite(x) else "" for x in cells
        ) + "\n"


def write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    with path.open("wb") as f:
        csvformat.CsvWriter(f, header).write(table)


def csv_rows(table: np.ndarray) -> bytes:
    """The rows the writer writes for ``table``, without the header."""
    f = io.BytesIO()
    csvformat.CsvWriter(f, ["c"] * table.shape[1]).write(table)
    return f.getvalue().split(b"\n", 1)[1]


def assert_written_as_oracle(table) -> None:
    table = np.asarray(table, dtype=float)
    header = [f"c{j}" for j in range(table.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, header, table)
        written = path.read_bytes()
    expected = (",".join(header) + "\n" + "".join(csv_lines(table))).encode()
    if written != expected:
        got, want = written.split(b"\n"), expected.split(b"\n")
        line = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"line {line}: wrote {got[line]!r}, '%' gives {want[line]!r}")


def bit_patterns(bits: np.ndarray) -> np.ndarray:
    return bits.astype(np.uint64).view(np.float64)


# exponents of 3 digits, both ends of the float range, values that round up
# to a new decade, exact ties at the 12th digit (Python rounds them half to
# even), powers of ten and both ends of the range scaled by one product
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, 1e100, 1e-100, -3.5e-250,
    9.9999999999996e5, 9.99999999999951e99, 9.9999999999995e-101, 9.99999999999951e-100,
    9.999999999995e5, 0.99999999999951, 0.999999999999, 9.9999999999999e279,
    1234567890125.0, 1234567890135.0, 123456789012.5, 123456789013.5, -987654321098.5,
    0.1, 1e-5, 1e22, 1e23, 1.0, 0.5, 2.0**-40, 2.0**60, math.pi,
    1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
    np.nextafter(1e280, 0.0), 1e-281, 1e281,
]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(arrays(np.uint64, array_shapes(min_dims=2, max_dims=2, max_side=12)))
def test_random_bit_patterns_match_percent(bits):
    assert_written_as_oracle(bit_patterns(bits))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=60))
def test_random_floats_match_percent(values):
    assert_written_as_oracle(np.reshape(values, (-1, 1)))


def test_many_random_bit_patterns_match_percent():
    rng = np.random.default_rng(20261018)
    assert_written_as_oracle(bit_patterns(rng.integers(0, 2**64, (12_000, 25), dtype=np.uint64)))


def random_magnitude_table() -> np.ndarray:
    rng = np.random.default_rng(7)
    shape = (4000, 25)
    return rng.random(shape) * 10.0 ** rng.integers(-320, 309, shape) * rng.choice([-1, 1], shape)


def near_tie_table() -> np.ndarray:
    """13-digit decimals ending in 5: the double nearest each one lies a hair
    above or below the rounding midpoint of its 12-digit form."""
    rng = np.random.default_rng(13)
    digits = rng.integers(10**11, 10**12, 5000).tolist()
    exponents = rng.integers(-290, 290, 5000).tolist()
    return np.reshape([float(f"{d}5e{e}") for d, e in zip(digits, exponents)], (-1, 10))


def edge_tables() -> list[np.ndarray]:
    return [np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]]), np.reshape(EDGE_VALUES, (-1, 1))]


def test_random_magnitudes_match_percent():
    assert_written_as_oracle(random_magnitude_table())


def test_decimal_near_ties_match_percent():
    """The one rounded product that scales a near-tie lands within 2.3e-4 of
    its exact value, on either side of the midpoint, so the writer cannot
    tell which way it rounds: every one of them must reach '%' through the
    tie margin, and a margin too narrow shows here as a wrong digit."""
    assert_written_as_oracle(near_tie_table())


def test_edge_values_match_percent():
    for table in edge_tables():
        assert_written_as_oracle(table)


def test_pow10_entries_are_correctly_rounded():
    exponents = range(csvformat._E_LO, csvformat._E_HI + 1)
    assert csvformat._POW10.tolist() == [float(Fraction(10) ** (11 - e)) for e in exponents]


def _scaling_errors(values) -> list[Fraction]:
    """|s - exact| of the writer's scaled value s = |x| * _POW10[e - _E_LO]
    for each x, against the exact product in rationals, at the decimal
    exponent e of '%.11e' % x."""
    errors = []
    for x in np.abs(np.ravel(values)).tolist():
        if not csvformat._FAST_MIN <= x < csvformat._FAST_MAX:
            continue
        e = int(("%.11e" % x)[14:])
        power = csvformat._POW10[e - csvformat._E_LO]
        errors.append(abs(Fraction(x * power) - Fraction(x) * Fraction(10) ** (11 - e)))
    return errors


@pytest.mark.parametrize("table", [random_magnitude_table, near_tie_table])
def test_one_product_stays_inside_the_tie_margin(table):
    """Two roundings of relative error at most 2**-53 on a value below 1e12
    leave it within 2.3e-4 of the exact product, which the margin covers."""
    errors = _scaling_errors(table()[:400])
    assert len(errors) > 1000
    assert max(errors) < 2.3e-4 < csvformat._TIE_MARGIN


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "-0.00000000000e+00"),
        (9.9999999999996e5, "1.00000000000e+06"),
        (9.99999999999951e99, "1.00000000000e+100"),
        (5e-324, "4.94065645841e-324"),
        (1234567890135.0, "1.23456789014e+12"),
    ],
)
def test_cell_grammar(value, text, tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], np.array([[value]]))
    assert path.read_text() == f"x\n{text}\n"
    # the same cell in a column that varies, which the array path formats
    write_csv(path, ["x"], np.array([[value], [1.0]]))
    assert path.read_text() == f"x\n{text}\n1.00000000000e+00\n"


@pytest.mark.parametrize("column", [0, 3, 6])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cells_are_empty(column, bad):
    table = np.full((3, 7), -1.25e-7)
    table[1, column] = bad
    assert_written_as_oracle(table)


def test_row_of_only_non_finite_cells():
    assert_written_as_oracle([[1.0, 2.0, 3.0], [np.nan, np.inf, -np.inf], [4.0, np.nan, 5.0]])
    assert_written_as_oracle([[np.nan]])


@pytest.mark.parametrize("rows, cols", [
    (1, 1), (1, 9), (7, 1), (BLOCK - 1, 3), (BLOCK, 3), (BLOCK + 1, 3), (2 * BLOCK + 1, 1),
    (BLOCK + 1, 32), (piece(32), 32), (piece(32) + 1, 32), (3 * piece(5), 5),
])
def test_table_shapes(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-120, 120, (rows, cols))
    table[rows // 2, cols // 2] = np.nan
    assert_written_as_oracle(table)


def test_empty_table_writes_the_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], np.zeros((0, 2)))
    assert path.read_bytes() == b"a,b\n"


# values that fill a whole column of a block: zeros of both signs, values
# that '%' formats (non-finite, subnormal, outside the fast range) and one
# with a three-digit exponent inside it; the writer formats such runs of
# equal cells like any others
CONSTANTS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-200, -1.25]


@pytest.mark.parametrize("value", CONSTANTS)
def test_constant_columns_match_percent(value):
    """A column constant over one block and not over the next, beside
    columns that vary, that hold another constant, and that hold the
    negated value (-0.0 beside 0.0), all formatted cell by cell."""
    rng = np.random.default_rng(23)
    rows = 2 * BLOCK + 5
    table = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-30, 30, (rows, 7))
    table[:, 1] = value
    table[BLOCK + 3, 1] = 1.5  # varies in the second block only
    table[:BLOCK, 2] = value  # constant in the first block only
    table[:, 4] = -value
    table[:, 5] = 7.0
    table[BLOCK:, 6] = value  # constant from the second block on
    assert_written_as_oracle(table)


def test_a_block_of_only_constant_columns():
    """Every column of every block holds one value, formatted in every row."""
    assert_written_as_oracle(np.tile(CONSTANTS, (BLOCK + 3, 1)))


def test_zero_cells_match_percent():
    """A zero takes the table path with mantissa and exponent 0 and the sign
    of its sign bit: whole zero columns of either sign, +0.0 and -0.0 mixed
    in one column, and zeros beside cells that '%' formats in one row (NaN,
    +-inf, subnormal, outside the fast range and near ties)."""
    rng = np.random.default_rng(31)
    rows = BLOCK + 9
    table = rng.standard_normal((rows, 12)) * 10.0 ** rng.integers(-30, 30, (rows, 12))
    table[:, 0] = 0.0
    table[:, 1] = -0.0
    table[:, 2] = np.where(rng.random(rows) < 0.5, 0.0, -0.0)
    table[::3, 3] = 0.0
    table[1::3, 3] = -0.0
    ties = near_tie_table().ravel()[:rows]
    table[:, 4] = ties
    table[::2, 5] = 0.0
    table[1::2, 5] = -ties[1::2]
    mixed = [0.0, np.nan, -0.0, np.inf, 0.0, -np.inf, -0.0, 5e-324, 0.0, 1e300, -0.0, ties[0]]
    table[7] = mixed
    table[BLOCK + 2] = mixed[::-1]
    assert_written_as_oracle(table)
    assert_written_as_oracle(np.zeros((3, 4)))
    assert_written_as_oracle(-np.zeros((3, 4)))


def test_blocks_after_the_first_allocate_nothing_of_a_blocks_size():
    """numpy reports its data buffers to tracemalloc.  Once the first block
    is written, 20 more blocks of 1024 x 32 cells must raise the traced peak
    by less than 128 KiB, which a piece's copy and its translation (80 KiB)
    stay below.  A temporary of a block's size would raise it by at least
    128 KiB: one word of every cell, or the copy of ``out`` that ``np.take``
    makes when it checks its indices."""
    rng = np.random.default_rng(29)
    rows = 21 * BLOCK
    table = rng.standard_normal((rows, 32)) * 10.0 ** rng.integers(-30, 30, (rows, 32))
    table[:, 3] = 0.0  # constant over every block
    table[: rows // 2, 9:12] = np.nan  # constant over the first blocks only
    table[::7, 20] = np.inf  # cells that '%' formats and empty cells
    table[::11, 21] = 1e-300
    with open(os.devnull, "wb") as f:
        tracemalloc.start()
        try:
            writer = csvformat.CsvWriter(f, ["c"] * 32)
            writer.write(table[:BLOCK])
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            writer.write(table[BLOCK:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - before < 128 * 1024


def layouts() -> dict[str, np.ndarray]:
    """Blocks that are not C-contiguous, each holding cells that '%' formats:
    values outside the fast range and near ties."""
    table = np.vstack([np.reshape(EDGE_VALUES[:40], (5, 8)), near_tie_table()[:5, :8]])
    return {
        "fortran-2x2": np.asfortranarray([[1.5, 1e-300], [2.5, 3e-290]]),
        "fortran": np.asfortranarray(table),
        "column-slice": table[:, 1:6],
        "column-stride": table[:, ::3],
        "transposed": table.T,
    }


@pytest.mark.parametrize("layout", sorted(layouts()))
def test_blocks_of_any_layout_match_percent(layout):
    """The '%' cells are written back by (row, column), so a block that is
    not C-contiguous gets them in place, not in a flattened copy."""
    block = layouts()[layout]
    assert not block.flags.c_contiguous
    assert np.any((np.abs(block) < csvformat._FAST_MIN) & (block != 0))
    assert csv_rows(block) == "".join(csv_lines(block)).encode()


def test_every_cell_through_the_fallback_gives_the_same_bytes(monkeypatch):
    """A margin above 1/2 sends every finite non-zero cell to '%'."""
    rng = np.random.default_rng(11)
    table = np.vstack([
        bit_patterns(rng.integers(0, 2**64, (200, 8), dtype=np.uint64)),
        np.reshape(EDGE_VALUES[:40], (5, 8)),
    ])
    monkeypatch.setattr(csvformat, "_TIE_MARGIN", 1.0)
    assert_written_as_oracle(table)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_a_wrong_exponent_estimate_falls_back(monkeypatch, shift):
    """The decimal exponent comes from np.log10; a scaled value outside
    [1e11, 1e12) shows the estimate was off and the cell goes to '%'."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a, out: np.add(log10(a, out=out), shift, out=out))
    rng = np.random.default_rng(17)
    assert_written_as_oracle(rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-50, 50, (50, 4)))


# numpy's dispatch capped at its X86_V2 baseline (SSE4.2): np.log10 there
# may round differently from its AVX-512 path, and an exponent estimate that
# this puts off by one must still reach '%'
X86_V2_HOST = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
_WRITE_AT_BASELINE = """
from numpy._core._multiarray_umath import __cpu_features__
import test_csv
assert not __cpu_features__["X86_V3"], "the dispatch level was not capped"
tables = test_csv.edge_tables() + [test_csv.near_tie_table(), test_csv.random_magnitude_table()]
for table in tables:
    test_csv.assert_written_as_oracle(table)
"""


def test_tables_match_percent_at_the_x86_v2_dispatch_level():
    # the setting acts when numpy loads, so it needs a fresh interpreter
    path = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(csvformat.__file__))]
    env = dict(os.environ, **X86_V2_HOST, PYTHONPATH=os.pathsep.join(path + sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _WRITE_AT_BASELINE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
