"""Sweep orchestration and deterministic CSV/JSON emission.

CSV files are comma-delimited with '\\n' line endings; re-running any command
with the same configuration produces byte-identical files.  Time columns are
the dimensionless omega_L * t.  Every numeric cell is exactly Python's
``'%.11e' % x``: a '-' for a negative value (-0.0 included), one digit, '.',
11 digits, 'e', the exponent's sign and its digits, at least two (three for
an exponent of 100 or more in magnitude).  A non-finite value leaves its
cell empty.  Each file has one ``_CsvWriter``, which formats it with numpy
array operations.

Every file is written under a temporary name in the output directory,
``.<name>.<12 hex digits>.tmp``, and takes its final name by ``os.replace``
once the command has written all of its files (``_Outputs``).  On any error
the temporary files are unlinked before the error goes on, so no final name
appears after a failure; a process killed while it writes may leave a
temporary file, never a final name.

Every command walks its times through ``_blocks``, in blocks of
``_GRID_ROWS``: ``_evaluate`` builds and gates the tables of a block, one
row per time, and the command reads and writes them before the next block,
so memory does not grow with the grid.  Every row is computed by itself, so
the bytes do not depend on the blocks.  The first ``cli.main`` of
``compare --photonic`` in a fresh interpreter (1000 shots, T_H = 0.985,
eps = 0.01; 2-vCPU Xeon, numpy 2.4.6) peaks at VmHWM 45.2 MiB at 20 000
points and 47.3 MiB at 200 000 (73.2 and 442.2 MiB when it evaluated its
grid in one piece).  The statistics of a ``SweepGrid`` are built on their
first read, so each command pays only for what it writes: ``sweep`` the
moments, the coherence, ``h2_sq`` and the report; ``hist`` the two
distributions; ``compare`` the joint and conditional tables and the dE
moments, and per block one photonic call, one sampler draw from the one
generator of the seed and the gate of the sampled frequencies.  The tests
keep a per-point form of the same computation in tests/reference.py, and
the grid must equal it bit for bit.

Each table is checked once, where it is built, so a failed check stops every
command before any of its files takes its final name.  ``_evaluate`` gates,
for every command: every conditional table for double stochasticity, which
is the only check of the propagator (every output reads U through these
tables alone), the joint tables (cells in [0, 1 + tol] and sums 1 within
tol = ``linalg.PROB_SUM_TOL``; the only check of the input state, whose
populations are their row sums), the weight on undefined entropy
realizations (exactly 0) and the fluctuation average ift against its
closed form.  These gates are the only checks of the tables and of every
distribution built from them, and a NaN fails each.
The dsigma moments of ``sweep`` (finite: a high order can overflow) and the
sampled frequencies of ``compare`` are gated as the command reads a block.
One rule holds for every gate: the first block that fails one ends the
command with ``NumericInvariantError``, which names the block's first
failing check, in the order above, and that check's first failing time; no
later block is evaluated.  A photonic input blocked in a block ends
``compare`` there with exit 2.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .linalg import PROB_SUM_TOL
from .model import input_populations, propagator_grid, trajectory_coherence
from .photonic import conditional_for_time
from .sampler import SampleConfig, sample_tpm
from .tpm import (
    OUTCOME_LABELS,
    AtomRows,
    ThermoReport,
    conditional_matrix,
    delta_e_atoms,
    delta_e_grid,
    delta_e_moments,
    entropy_grid,
    entropy_realizations,
    final_probs,
    ift_grid,
    joint_table_from_conditional,
    thermo_report_grid,
)

# "<row>_<col>" of the 16 cells of a 4x4 table, in row-major order
_CELL_LABELS = [f"{a}_{b}" for a in OUTCOME_LABELS for b in OUTCOME_LABELS]


class NumericInvariantError(Exception):
    """A computed table or average left its allowed range before writing."""


# --- CSV cells ------------------------------------------------------------
#
# A cell is laid out in 20 bytes, as five 4-byte words: "-d.d", "dddd",
# "dddd", "dde+" and "ddd,".  A NUL marks a byte the cell does not use (the
# sign of a non-negative value, the hundreds digit of an exponent below 100,
# every byte but the separator of a non-finite cell); deleting the NULs
# leaves the text of '%.11e' % x.

_BLOCK_ROWS = 1024
# a piece of a block, whole rows of at most this many bytes of words (or one
# row), is freed of its NULs and written at once.  The piece's copy and its
# translation are alive together: 80 KiB, below glibc's 128 KiB mmap
# threshold, so the heap serves them again from pages it already has, and
# below one block's word of every cell at 32 columns
_PIECE_BYTES = 40 * 1024
# |x| in [_FAST_MIN, _FAST_MAX) is scaled by 10**(11 - e) for e in
# [_E_LO, _E_HI]: its decimal exponent lies in [-281, 280], and its log10
# estimate within one of that
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_LO, _E_HI = -282, 282
# the scaled value s = |x| * 10**(11 - e) takes two roundings of relative
# error at most 2**-53 (the power, then the product) and is below 1e12, so it
# is within 2.3e-4 of the exact product; a fraction of s this close to 1/2
# may be a tie or round the other way in exact arithmetic: '%' formats it
_TIE_MARGIN = 1e-3
# row e - _E_LO holds 10**(11 - e) correctly rounded: Python rounds an int
# to float, and the quotient of two ints, correctly
_POW10 = np.array(
    [float(10 ** (11 - e)) if e <= 11 else 1 / 10 ** (e - 11) for e in range(_E_LO, _E_HI + 1)]
)


def _words(cells) -> np.ndarray:
    """Cells of 4 bytes each, as native uint32 words."""
    return np.frombuffer(b"".join(cells), np.uint32)


# the 5 words of a cell, each looked up by the index in its comment
_PAIRS = np.frombuffer(b"".join(b"%02d" % n for n in range(100)), np.uint16)
_HEAD = _words(  # "-d.d": the first two digits + 100 * signbit(x)
    sign + b"%d.%d" % divmod(n, 10) for sign in (b"\0", b"-") for n in range(100)
)
_QUAD = np.stack(  # "dddd": four digits
    np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None, :]), axis=-1
).view(np.uint32).ravel()
_TAIL = _words(  # "dde+": the last two digits + 100 * (exponent < 0)
    b"%02de" % n + sign for sign in (b"+", b"-") for n in range(100)
)
_EXP = _words(  # "ddd,": |exponent|, at most 324 for a double
    b"%d," % n if n >= 100 else b"\0%02d," % n for n in range(325)
)
_EMPTY_CELL = "\0" * 19 + ","  # a non-finite cell
_EMPTY = _words([_EMPTY_CELL.encode()])


def _cell(x: float) -> str:
    """The 20 bytes of one cell, laid out from '%' itself."""
    text = "%.11e" % x
    if text[-1] > "9":  # nan, inf, -inf
        return _EMPTY_CELL
    if text[-4] == "e":  # an exponent of two digits leaves its hundreds out
        text = text[:-2] + "\0" + text[-2:]
    return text + "," if text[0] == "-" else "\0" + text + ","


def _cells(values: np.ndarray) -> np.ndarray:
    """The (k, 5) words of the k cells ``values``."""
    text = "".join(map(_cell, values.tolist()))
    return np.frombuffer(text.encode(), np.uint32).reshape(-1, 5)


class _CsvWriter:
    """Writes the CSV rows of one file to the binary file ``file``, block by block.

    ``write`` copies each block of ``_BLOCK_ROWS`` rows into scratch arrays,
    formats it there, and writes it in pieces of at most ``_PIECE_BYTES``,
    each as soon as it is freed of its NULs.  The scratch is allocated by the
    first write, for its rows or one block if that is fewer, and again only
    if a later write has more rows, up to one block; so no array of a
    block's size is allocated after the first block.
    Every cell of a block takes one path, ``_format``: it is scaled to a
    12-digit integer by one rounded product against a correctly rounded
    power of ten, which lands within 2.3e-4 of the exact value; a cell that
    this cannot round with certainty, or that is outside the fast range, is
    formatted by '%' itself.
    """

    def __init__(self, file, header: list[str]):
        self._file = file
        file.write((",".join(header) + "\n").encode())
        self._columns = len(header)
        self._block = np.empty((0, self._columns))

    def _allocate(self, rows: int) -> None:
        """Scratch for blocks of up to ``rows`` rows."""
        cells = rows * self._columns
        self._block = np.empty((rows, self._columns))
        self._words = np.empty((rows, self._columns, 5), np.uint32)
        self._text = self._words.view(np.uint8).reshape(rows, -1)
        # per cell: |x| then the rounded mantissa; the scaled value; the exponent
        self._a, self._s = np.empty(cells), np.empty(cells)
        self._e = np.empty(cells, np.intp)
        self._w = np.empty(cells, np.uint32)
        self._sign, self._fast, self._t = (np.empty(cells, bool) for _ in range(3))

    def write(self, *columns: np.ndarray) -> None:
        """Write the rows whose cells are ``columns`` side by side; each is an
        (n,) or (n, k) float array, and their widths add up to the header's."""
        columns = [c if c.ndim == 2 else c[:, None] for c in columns]
        n = len(columns[0])
        # the scratch fits the first write's rows, and grows at most to a block
        if len(self._block) < min(n, _BLOCK_ROWS):
            self._allocate(min(n, _BLOCK_ROWS))
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            j = 0
            for c in columns:
                self._block[:rows, j:j + c.shape[1]] = c[start:start + rows]
                j += c.shape[1]
            self._format(self._block[:rows].ravel(), self._words[:rows].reshape(-1, 5))
            text = self._text[:rows]
            text[:, -1] = ord("\n")
            step = max(1, _PIECE_BYTES // text.shape[1])
            for i in range(0, rows, step):
                self._file.write(bytearray(text[i:i + step]).translate(None, b"\0"))

    def _format(self, x: np.ndarray, words: np.ndarray) -> None:
        """Fill the (n, 5) ``words`` with the cells of the n values ``x``.

        Every array operation writes into the writer's scratch.  Each take
        clips its indices, which numpy then need not check into a copy of
        ``out``; a cell that '%' formats gets garbage indices on the way,
        which the clip keeps in range.
        """
        n = x.size
        a, s, e = self._a[:n], self._s[:n], self._e[:n]
        sign, fast, t = self._sign[:n], self._fast[:n], self._t[:n]
        np.signbit(x, out=sign)
        np.abs(x, out=a)
        np.greater_equal(a, _FAST_MIN, out=fast)  # false for 0, inf and nan
        fast &= np.less(a, _FAST_MAX, out=t)
        np.copyto(a, 1.0, where=np.logical_not(fast, out=t))
        np.log10(a, out=s)
        np.floor(s, out=s)
        np.subtract(s, _E_LO, out=e, casting="unsafe")
        np.take(_POW10, e, out=s, mode="clip")
        s *= a
        m = np.rint(s, out=a)
        # |s - m| is the distance of s to its nearest integer: at most
        # 1/2 - margin when its fraction is at least the margin away from 1/2
        fast &= np.greater_equal(s, 1e11, out=t)
        fast &= np.less(s, 1e12, out=t)
        np.abs(np.subtract(s, m, out=s), out=s)
        fast &= np.less_equal(s, 0.5 - _TIE_MARGIN, out=t)
        carry = np.equal(m, 1e12, out=t)  # rounded up to a new decade: 1e11 at e + 1
        np.copyto(m, 1e11, where=carry)
        e += carry
        e += _E_LO
        mantissa, digits = s.view(np.int64), a.view(np.int64)
        np.copyto(mantissa, m, casting="unsafe")
        # 0 gets m = e = 0, a non-finite cell its empty words below, and any
        # other cell off the fast path the words of '%'
        slow = np.flatnonzero(np.logical_not(fast, out=t))
        if slow.size:
            values = x[slow]
            mantissa[slow] = e[slow] = 0
        # np.take buffers an out that is not contiguous: each word is looked up
        # into w, then copied to its place in the cells
        w = self._w[:n]

        def put(word: int, table: np.ndarray, index: np.ndarray) -> None:
            words[:, word] = np.take(table, index, out=w, mode="clip")

        np.less(e, 0, out=t)
        put(4, _EXP, np.abs(e, out=e))
        # e is free once its word is made: it takes digits * 10**k
        for word, (table, k) in enumerate(((_HEAD, 10), (_QUAD, 6), (_QUAD, 2))):
            np.floor_divide(mantissa, 10**k, out=digits)
            mantissa -= np.multiply(digits, 10**k, out=e)
            if word == 0:
                np.add(digits, 100, out=digits, where=sign)
            put(word, table, digits)
        np.add(mantissa, 100, out=mantissa, where=t)
        put(3, _TAIL, mantissa)
        if slow.size:
            finite = np.isfinite(values)
            words[slow[~finite]] = _EMPTY
            shown = finite & (values != 0)
            words[slow[shown]] = _cells(values[shown])


class _Outputs:
    """The output files of one command, written under temporary names.

    ``open(name)`` creates ``.<name>.<12 hex digits>.tmp`` in the output
    directory ``out``, which is made if it does not exist.  When the ``with``
    block ends without an error, every file takes its final name by
    ``os.replace``; when it raises, every temporary file is unlinked before
    the error goes on.  A process killed in between may leave a temporary
    file, never a final name.
    """

    def __init__(self, out_dir: str | Path):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.paths: dict[str, Path] = {}
        self._pending: list[tuple[Path, Path, object]] = []

    def open(self, name: str):
        """A new binary file that becomes ``out / name``; its key in ``paths``
        is the name's stem."""
        tmp = self.out / f".{name}.{os.urandom(6).hex()}.tmp"
        file = tmp.open("xb")
        self._pending.append((tmp, self.out / name, file))
        self.paths[Path(name).stem] = self.out / name
        return file

    def csv(self, name: str, header: list[str]) -> _CsvWriter:
        return _CsvWriter(self.open(name), header)

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            for _, _, file in self._pending:
                file.close()
            while exc_type is None and self._pending:
                tmp, path, _ = self._pending[0]
                os.replace(tmp, path)
                del self._pending[0]
        finally:
            for tmp, _, file in self._pending:
                file.close()
                tmp.unlink(missing_ok=True)


def _require_prob_group(cells: np.ndarray, what: str, t: np.ndarray) -> None:
    """Gate one probability group per time: its cells must lie in [0, 1] and sum to 1.

    Row i of ``cells`` is the group at ``t[i]``; the first failing row raises.
    A cell may exceed 1 by ``PROB_SUM_TOL``, but none may be negative: every
    cell the program builds is a product or a count of non-negative numbers,
    and a negative one would reach the merge of ``tpm`` or the sampler.
    """
    # one contiguous row per cell, time last: each reduction adds whole rows
    cells = np.asarray(cells, dtype=float).reshape(len(t), -1).T.copy()
    lo, hi, totals = cells.min(axis=0), cells.max(axis=0), cells.sum(axis=0)
    # each test is written so that NaN fails it
    outside = ~((lo >= 0.0) & (hi <= 1.0 + PROB_SUM_TOL))
    bad = np.flatnonzero(outside | ~(np.abs(totals - 1.0) <= PROB_SUM_TOL))
    if bad.size:
        i = bad[0]
        where = f"{what} at omega_L_t={t[i]:.6g}"
        if outside[i]:
            raise NumericInvariantError(
                f"{where}: probability {lo[i]:.6e}..{hi[i]:.6e} outside [0, 1]"
            )
        raise NumericInvariantError(f"{where}: probabilities sum to {totals[i]:.12e}, not 1")


def _require_defined_weights(joint: np.ndarray, sigma: np.ndarray, t: np.ndarray) -> None:
    """Gate the joint tables against weight on undefined (NaN) entropy
    realizations, which the statistics leave out; the first failing row raises.

    Past the double-stochasticity and joint gates that weight is exactly 0,
    so the gate needs no tolerance: a p_fin of 0 is a sum of joint cells that
    the joint gate keeps non-negative, and a p_in of 0 zeroes its whole row.
    """
    stray = np.max(joint, axis=(-2, -1), where=~np.isfinite(sigma), initial=0.0)
    bad = np.flatnonzero(~(stray == 0.0))
    if bad.size:
        i = bad[0]
        raise NumericInvariantError(
            f"undefined entropy realizations at omega_L_t={t[i]:.6g} "
            f"carry probability {stray[i]:.3e}"
        )


def _require_doubly_stochastic(cond: np.ndarray, t: np.ndarray) -> None:
    """Gate every conditional table: its row and column sums must be 1."""
    c = np.moveaxis(cond, 0, -1).copy()  # c[fin, in] is a contiguous row over time
    sums = np.concatenate([c.sum(axis=0), c.sum(axis=1)])
    worst = np.abs(sums - 1.0).max(axis=0)
    bad = np.flatnonzero(~(worst <= PROB_SUM_TOL))
    if bad.size:
        i = bad[0]
        raise NumericInvariantError(
            f"conditional table at omega_L_t={t[i]:.6g}: "
            f"a row or column sum is off by {worst[i]:.3e}"
        )


def _require_ift(
    ift: np.ndarray, cond: np.ndarray, p_in: np.ndarray, p_fin: np.ndarray, t: np.ndarray
) -> None:
    """Gate the fluctuation average of every row against its closed form.

    With an input of full support the closed form is 1.  An input without
    full support leaves the realizations from its empty outcomes undefined,
    and <e^{-dsigma}> = sum_fin p_fin[fin] sum_{in: p_in[in] > 0} c[fin, in]
    (absolute irreversibility; Murashita, Funo & Ueda, PRE 90, 042110 (2014)).
    """
    support = p_in > 0.0
    if support.all():
        expected = np.ones_like(ift)
    else:
        expected = (p_fin * cond[:, :, support].sum(axis=2)).sum(axis=1)
    bad = np.flatnonzero(~(np.abs(ift - expected) <= PROB_SUM_TOL))
    if bad.size:
        i = bad[0]
        raise NumericInvariantError(
            f"ift at omega_L_t={t[i]:.6g}: {ift[i]:.12e}, not {expected[i]:.12e}"
        )


def _require_finite_moments(moments: np.ndarray, t: np.ndarray) -> None:
    """Gate the (T, h_max) dsigma moments: the first non-finite one in row
    order, then in order h, raises."""
    bad = np.flatnonzero(~np.isfinite(moments))
    if bad.size:
        i, h = divmod(bad[0], moments.shape[1])
        raise NumericInvariantError(
            f"ds_m{h + 1} at omega_L_t={t[i]:.6g}: {moments[i, h]} is not finite"
        )


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Exact two-point-measurement statistics of every time of a grid, one row per time.

    ``p_in``, the input state's populations, is shared by all rows.  The
    fields are the gated tables; the statistics below them are built on their
    first read and kept.  The report's fields are arrays, with NaN where the
    ratio is undefined.  Each row equals, field by field and bit for bit, the
    per-point reference ``evaluate_point`` of tests/reference.py at that time.
    """

    t: np.ndarray
    p_in: np.ndarray
    U: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    cond: np.ndarray
    joint: np.ndarray
    p_fin: np.ndarray
    sigma: np.ndarray
    ift: np.ndarray
    beta: float
    moments_max: int

    @cached_property
    def de_weights(self) -> np.ndarray:
        return delta_e_grid(self.joint)

    @cached_property
    def de_dist(self) -> AtomRows:
        return delta_e_atoms(self.de_weights)

    @cached_property
    def ds_dist(self) -> AtomRows:
        return entropy_grid(self.joint, self.sigma)

    @cached_property
    def de_moments(self) -> np.ndarray:
        return delta_e_moments(self.de_weights, self.moments_max)

    @cached_property
    def ds_moments(self) -> np.ndarray:
        # the gate stops an overflowed power (inf, or NaN from inf - inf) silently
        with np.errstate(over="ignore", invalid="ignore"):
            moments = self.ds_dist.moments(self.moments_max)
        _require_finite_moments(moments, self.t)
        return moments

    @cached_property
    def coherence(self) -> np.ndarray:
        return trajectory_coherence(self.U)

    @cached_property
    def h2_sq(self) -> np.ndarray:
        # libm pow, as Python's ** for one time: numpy's ** 2 squares by
        # multiplying, which rounds differently in the last bit
        return np.float_power(self.h2, 2.0)

    @cached_property
    def report(self) -> ThermoReport:
        return thermo_report_grid(
            self.joint, self.sigma, self.beta, self.de_moments[:, 0], self.ift
        )


def _evaluate(cfg: RunConfig, t: np.ndarray, p_in: np.ndarray) -> SweepGrid:
    """The tables of every time of ``t`` from the input populations ``p_in``,
    each gated as soon as it is built; row i equals, bit for bit,
    ``evaluate_point(cfg, t[i])`` of tests/reference.py."""
    h1, h2, u = propagator_grid(cfg.model, t)
    cond = conditional_matrix(u)
    _require_doubly_stochastic(cond, t)
    joint = joint_table_from_conditional(cond, p_in)
    _require_prob_group(joint, "joint table", t)
    p_fin = final_probs(joint)
    sigma = entropy_realizations(p_in, p_fin)
    _require_defined_weights(joint, sigma, t)
    ift = ift_grid(joint, sigma)
    _require_ift(ift, cond, p_in, p_fin, t)
    return SweepGrid(
        t=t,
        p_in=p_in,
        U=u,
        h1=h1,
        h2=h2,
        cond=cond,
        joint=joint,
        p_fin=p_fin,
        sigma=sigma,
        ift=ift,
        beta=cfg.thermal.beta_B * cfg.model.omega_L,  # dE is in label units
        moments_max=cfg.moments_max,
    )


# Times that go through _evaluate at once.  Whole-grid transients, the
# (T, 4, 4) tables and the sort buffers of entropy_grid, came from fresh
# pages: a 20 000-point sweep faulted on about 16 000 of them.  A block's
# buffers are freed before the next block asks for the same sizes, which the
# allocator then serves from pages already mapped.  The first cli.main of a
# 20 000-point sweep in a fresh interpreter (2-vCPU Xeon, numpy 2.4.6), 12
# rounds of one run per size in rotating order, medians: 512 rows 196 ms, 555 faults, VmHWM 33.1 MiB; 1024
# rows 183 ms, 1 712, 36.0 MiB; 2048 rows 161 ms, 2 728, 38.7 MiB; 4096 rows
# 156 ms, 3 889, 42.8 MiB.  2048 rows took less wall time than 1024 or 512
# in 11 of 12 rounds, and less than 4096 in 6.  _BLOCK_ROWS, the CSV block,
# stays apart: at 2048 CSV rows that sweep faulted 3 370 times (VmHWM 42.5
# MiB), and hist at 2000 times 740 instead of 660.
_GRID_ROWS = 2048


def _blocks(cfg: RunConfig, times):
    """The ``SweepGrid`` of each block of ``_GRID_ROWS`` times, in time order:
    the one evaluation path of every command.

    The input state's populations are built once, read-only, so that every
    block can share them.  A block that fails a gate ends the walk.
    """
    t = np.asarray(times, dtype=float)
    p_in = input_populations(cfg.thermal, cfg.model)
    p_in.flags.writeable = False
    for i in range(0, len(t), _GRID_ROWS):
        yield _evaluate(cfg, t[i:i + _GRID_ROWS], p_in)


class _Peak:
    """The first maximum of a column over the blocks, NaN cells left out."""

    def __init__(self):
        self.peak: dict | None = None

    def update(self, t: np.ndarray, values: np.ndarray) -> None:
        if np.isnan(values).all():
            return
        i = np.nanargmax(values)
        if self.peak is None or values[i] > self.peak["max"]:
            self.peak = {"argmax_omega_L_t": float(t[i]), "max": float(values[i])}


def run_sweep(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write sweep.csv, realizations.csv and summary.json for the time grid.

    The grid is evaluated, gated and written block by block; the summary
    keeps only the running peaks of the blocks.
    """
    mom_cols = [f"dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    mom_cols += [f"ds_m{h}" for h in range(1, cfg.moments_max + 1)]
    header = (
        ["omega_L_t"]
        + [f"j_{c}" for c in _CELL_LABELS]
        + mom_cols
        + ["c_l1_10", "ift", "landauer_lhs", "ds_mean", "ratio"]
    )
    real_header = ["omega_L_t"] + [f"dsig_{c}" for c in _CELL_LABELS]

    with _Outputs(out_dir) as outputs:
        sweep_csv = outputs.csv("sweep.csv", header)
        real_csv = outputs.csv("realizations.csv", real_header)
        peaks = {name: _Peak() for name in ("de_mean", "h2_sq", "coherence_l1_10", "ratio")}
        for g in _blocks(cfg, cfg.time_grid()):
            n, report = len(g.t), g.report
            sweep_csv.write(
                g.t, g.joint.reshape(n, 16), g.de_moments, g.ds_moments, g.coherence,
                report.ift, report.landauer_lhs, report.ds_mean, report.ratio,
            )
            real_csv.write(g.t, g.sigma.reshape(n, 16))
            columns = (report.de_mean, g.h2_sq, g.coherence, report.ratio)
            for peak, values in zip(peaks.values(), columns):
                peak.update(g.t, values)
        summary = {
            "grid": {
                "t_min": cfg.t_min,
                "t_max": cfg.t_max,
                "n_points": cfg.n_points,
                "step": cfg.step,
                "half_open": True,
            },
            **{name: peak.peak for name, peak in peaks.items()},
        }
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        outputs.open("summary.json").write(text.encode())
    return outputs.paths


def emit_distributions(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write hist_dE.csv and hist_ds.csv at the requested times."""
    for t in cfg.hist_times:
        if not cfg.t_min <= t <= cfg.t_max:
            raise ConfigError(
                f"hist_times: {t} outside [{cfg.t_min:.6g}, {cfg.t_max:.6g}]"
            )
    header = ["omega_L_t", "value", "probability"]
    with _Outputs(out_dir) as outputs:
        files = [outputs.csv(f"hist_{name}.csv", header) for name in ("dE", "ds")]
        for g in _blocks(cfg, cfg.hist_times):
            for file, d in zip(files, (g.de_dist, g.ds_dist)):
                file.write(np.repeat(g.t, d.counts), d.values[d.atoms], d.probs[d.atoms])
    return outputs.paths


def run_compare(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write mc_error.csv (and photonic_error.csv when enabled) over the grid,
    block by block; the blocks draw in grid order from one generator."""
    header = (
        ["omega_L_t"]
        + [f"err_j_{c}" for c in _CELL_LABELS]
        + [f"err_dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    )
    ph_header = ["omega_L_t"] + [f"err_c_{c}" for c in _CELL_LABELS]
    shots = SampleConfig(cfg.samples, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    with _Outputs(out_dir) as outputs:
        mc_csv = outputs.csv("mc_error.csv", header)
        ph_csv = outputs.csv("photonic_error.csv", ph_header) if cfg.photonic else None
        for g in _blocks(cfg, cfg.time_grid()):
            if cfg.photonic:
                try:
                    imperfect = conditional_for_time(cfg.optical, g.h1, g.h2, g.t)
                except ValueError as exc:
                    # a gate that blocks an input passes every range check
                    raise ConfigError(f"photonic: {exc}") from None
            # cfg stays a keyword: benchmarks/tracing.py reads the shot count from it
            freq = sample_tpm(g.joint, rng, cfg=shots).frequencies
            _require_prob_group(freq, "empirical table", g.t)
            sampled = delta_e_moments(delta_e_grid(freq), cfg.moments_max)
            cell_errors = np.abs(g.joint - freq).reshape(-1, 16)
            mc_csv.write(g.t, cell_errors, np.abs(g.de_moments - sampled))
            if cfg.photonic:
                ph_csv.write(g.t, np.abs(g.cond - imperfect).reshape(-1, 16))
    return outputs.paths
