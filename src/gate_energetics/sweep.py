"""Sweep orchestration and deterministic CSV/JSON emission.

CSV files are comma-delimited with '\\n' line endings; re-running any command
with the same configuration produces byte-identical files.  Time columns are
the dimensionless omega_L * t.  Every numeric cell is exactly Python's
``'%.11e' % x``: a '-' for a negative value (-0.0 included), one digit, '.',
11 digits, 'e', the exponent's sign and its digits, at least two (three for
an exponent of 100 or more in magnitude).  A non-finite value leaves its
cell empty.  Each file has one ``_CsvWriter``, which formats it with numpy
array operations, and flushes its header and each write before they
return.

Every file is written under a temporary name in the output directory,
``.<name>.<12 hex digits>.tmp``, and takes its final name by ``os.replace``
once the command has written all of its files (``_Outputs``).  On any error,
a failed rename included, the temporary files and the final names that the
command already gave are unlinked before the error goes on, so no final
name appears after a failure; a process killed while it writes may leave a
temporary file, never a final name.

Every command walks its times through ``_blocks``, in blocks of
``_GRID_ROWS``: ``_evaluate`` builds and gates the tables of a block, one
row per time, and the command reads and writes them before the next block,
so memory does not grow with the grid.  Every row is computed by itself, so
the bytes do not depend on the blocks.

Each write of CSV rows is one C-contiguous (n, k) float64 array of cells,
built once by ``_Outputs.write`` from the columns a command passes.  A
command whose times span more than one block, on a host that lets it run on
two CPUs or more, runs in two processes.  The main process evaluates, gates
and reads every block in time order, draws every sample and writes
summary.json, exactly as one process would; it sends each cell array down a
pipe to one forked writer process (``_WriterProcess``), which runs the same
``_CsvWriter.write`` on it while the main process evaluates the next block,
and is reaped when the command's outputs are closed, after summary.json is
written.  Each end of the pipe is a buffered binary file: a write is its
file's index and row count, two int64, then its cells, flushed at once, and
the writer reads each into an array of its shape.  Any other command, and
any command on one CPU, formats its rows in the main process.  The first
``cli.main`` in a fresh interpreter (2-vCPU Xeon, numpy 2.4.6) peaks at
VmHWM 34.5 MiB in the main process and 27.0 MiB in the writer (its
ru_maxrss) for a 20 000-point ``sweep``, and 35.9 and 28.4 MiB at 200 000
points; ``compare --photonic`` (1000 shots, T_H = 0.985, eps = 0.01) at
42.3 and 27.1 MiB, and 43.7 and 28.5 MiB (73.2 and 442.2 MiB in one process
when it evaluated its grid in one piece).

The statistics of a ``SweepGrid`` are built on their first read, so each
command pays only for what it writes: ``sweep`` the moments, the coherence,
``h2_sq``, ``ds_mean``, ``landauer_lhs`` and ``ratio``; ``hist`` the dsigma
distribution and the dE lattice weights; ``compare`` the joint and
conditional tables and the dE moments, and per block one photonic call, one
sampler draw of counts from the one generator of the seed and the gate of
the sampled frequencies.  The tests keep a per-point form of the same
computation in tests/reference.py, and the grid must equal it bit for bit.

Each table is checked once, where it is built, so a failed check stops every
command before any of its files takes its final name.  ``_evaluate`` gates,
for every command: every conditional table for double stochasticity, which
is the only check of the propagator (every output reads U through these
tables alone), the joint tables (cells in [0, 1 + tol] and sums 1 within
tol = ``linalg.PROB_SUM_TOL``; the only check of the input state, whose
populations are their row sums), the weight on undefined entropy
realizations (exactly 0) and the fluctuation average ift against its
closed form.  These gates are the only checks of the tables and of every
distribution built from them, and a NaN fails each.  The dsigma moments of
``sweep`` (finite: a high order can overflow) and the sampled frequencies of
``compare`` are gated as the command reads a block.  One rule holds for every
gate, and ``_gate`` alone applies it: the first block that fails one ends the
command with ``NumericInvariantError``, which names the block's first failing
check, in the order above, and that check's first failing time; no later block
is evaluated.  ``compare`` puts the photonic model's per-input success
probabilities through the same rule before it draws a block: an input that
never post-selects ends it there with ``ConfigError`` (exit 2).  Every command
runs ``RunConfig.validate`` first, so a config it refuses creates nothing.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .linalg import PROB_SUM_TOL, RATIO_GUARD, SUCCESS_FLOOR
from .model import input_populations, propagator_grid, trajectory_coherence
from .photonic import conditional_for_time
from .sampler import SampleConfig, sample_tpm
from .tpm import (
    OUTCOME_LABELS,
    AtomRows,
    conditional_matrix,
    delta_e_grid,
    delta_e_moments,
    delta_e_rows,
    ds_mean_grid,
    entropy_realizations,
    final_probs,
    ift_grid,
    joint_table_from_conditional,
    merge_atom_rows,
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
_EMPTY = _words([b"\0" * 19 + b","])  # a non-finite cell


def _cell(x: float) -> str:
    """The 20 bytes of one finite cell, laid out from '%' itself."""
    text = "%.11e" % x
    if text[-4] == "e":  # an exponent of two digits leaves its hundreds out
        text = text[:-2] + "\0" + text[-2:]
    return text + "," if text[0] == "-" else "\0" + text + ","


def _cells(values: np.ndarray) -> np.ndarray:
    """The (k, 5) words of the k finite cells ``values``."""
    text = "".join(map(_cell, values.tolist()))
    return np.frombuffer(text.encode(), np.uint32).reshape(-1, 5)


class _CsvWriter:
    """Writes the CSV rows of one file to the binary file ``file``, block by block.

    ``write`` takes one (n, k) float64 array of cells, formats it in blocks
    of ``_BLOCK_ROWS`` rows into scratch arrays, and writes each block in
    pieces of at most ``_PIECE_BYTES``, each as soon as it is freed of its
    NULs.  The scratch is allocated by the first write, for its rows or one
    block if that is fewer, and again only if a later write has more rows,
    up to one block; so no array of a block's size is allocated after the
    first block.
    Every cell of a block takes one path, ``_format``: it is scaled to a
    12-digit integer by one rounded product against a correctly rounded
    power of ten, which lands within 2.3e-4 of the exact value, and a zero
    gets the integer 0 and the exponent 0; a cell that this cannot round
    with certainty, or that is non-zero outside the fast range, is
    formatted by '%' itself.

    The header is written where the writer is made, in the main process.
    ``write`` runs there too, or in the writer process (``_WriterProcess``),
    on the array that the main process sent; either way it formats the same
    array, which ``_Outputs.write`` built, so every byte is the same.  The
    header and every ``write`` are flushed before they return, so no
    buffered byte crosses a fork or waits for the process to exit.
    """

    def __init__(self, file, header: list[str]):
        self._file = file
        file.write((",".join(header) + "\n").encode())
        file.flush()
        self._columns = len(header)
        self._words = np.empty((0, self._columns, 5), np.uint32)

    def _allocate(self, rows: int) -> None:
        """Scratch for blocks of up to ``rows`` rows."""
        cells = rows * self._columns
        self._words = np.empty((rows, self._columns, 5), np.uint32)
        self._text = self._words.view(np.uint8).reshape(rows, -1)
        # per cell: |x| then the rounded mantissa; the scaled value; the
        # exponent; the offset of the exponent's sign
        self._a, self._s = np.empty(cells), np.empty(cells)
        self._e, self._k = np.empty(cells, np.int64), np.empty(cells, np.int64)
        self._w = np.empty(cells, np.uint32)
        self._fast, self._t, self._z = (np.empty(cells, bool) for _ in range(3))

    def write(self, cells: np.ndarray) -> None:
        """Write the rows of the (n, k) float64 array ``cells``, k the header's width."""
        n = len(cells)
        # the scratch fits the first write's rows, and grows at most to a block
        if len(self._words) < min(n, _BLOCK_ROWS):
            self._allocate(min(n, _BLOCK_ROWS))
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            # a view of C-contiguous cells; a copy in row order of any others
            self._format(np.ravel(cells[start:start + rows]), self._words[:rows].reshape(-1, 5))
            text = self._text[:rows]
            text[:, -1] = ord("\n")
            step = max(1, _PIECE_BYTES // text.shape[1])
            for i in range(0, rows, step):
                self._file.write(bytearray(text[i:i + step]).translate(None, b"\0"))
        self._file.flush()

    def _format(self, x: np.ndarray, words: np.ndarray) -> None:
        """Fill the (n, 5) ``words`` with the cells of the n values ``x``.

        Every array operation writes into the writer's scratch, and none is
        masked: the signs of the value and of the exponent become the offsets
        ``(bits >> 63) & 100`` into their tables.  A zero takes the table path
        with m = e = 0, its sign from its sign bit; only the cells that '%'
        formats are gathered and written back.  Each take clips its indices,
        which numpy then need not check into a copy of ``out``; a cell that
        '%' formats gets garbage indices on the way, which the clip keeps in
        range.
        """
        n = x.size
        a, s, e, k = self._a[:n], self._s[:n], self._e[:n], self._k[:n]
        fast, t, z = self._fast[:n], self._t[:n], self._z[:n]
        np.abs(x, out=a)
        np.less(a, _FAST_MAX, out=fast)  # false for inf and nan
        # clamped into the fast range, every exponent estimate is a row of
        # _POW10 and every scaled value is finite; a zero and a value below
        # the range are estimated at _FAST_MIN, which scales them below 1e11
        np.fmin(a, _FAST_MAX, out=a)
        np.log10(np.fmax(a, _FAST_MIN, out=s), out=s)
        np.floor(s, out=s)
        np.subtract(s, _E_LO, out=e, casting="unsafe")
        np.take(_POW10, e, out=s, mode="clip")
        s *= a
        m = np.rint(s, out=a)
        # |s - m| is the distance of s to its nearest integer: at most
        # 1/2 - margin when its fraction is at least the margin away from 1/2;
        # s in [1e11, 1e12) shows the exponent estimate was right, and a zero
        # (s = 0) needs none
        fast &= np.less(s, 1e12, out=t)
        fast &= np.logical_or(np.greater_equal(s, 1e11, out=t), np.equal(s, 0.0, out=z), out=t)
        np.abs(np.subtract(s, m, out=s), out=s)
        fast &= np.less_equal(s, 0.5 - _TIE_MARGIN, out=t)
        carry = np.equal(m, 1e12, out=t)  # rounded up to a new decade: 1e11 at e + 1
        np.copyto(m, 1e11, where=carry)
        e += carry
        e += _E_LO
        mantissa, digits = s.view(np.int64), a.view(np.int64)
        np.copyto(mantissa, m, casting="unsafe")
        # 0 has exponent 0: min(m, 1) is 0 for it and 1 for any other cell
        e *= np.minimum(mantissa, 1, out=digits)
        slow = np.flatnonzero(np.logical_not(fast, out=t))
        # np.take buffers an out that is not contiguous: each word is looked up
        # into w, then copied to its place in the cells
        w = self._w[:n]

        def put(word: int, table: np.ndarray, index: np.ndarray) -> None:
            words[:, word] = np.take(table, index, out=w, mode="clip")

        # k: 100 for a negative exponent, the offset of its sign in _TAIL
        np.bitwise_and(np.right_shift(e, 63, out=k), 100, out=k)
        put(4, _EXP, np.abs(e, out=e))
        # e is free once its word is made: it takes digits * 10**p
        for word, (table, p) in enumerate(((_HEAD, 10), (_QUAD, 6), (_QUAD, 2))):
            np.floor_divide(mantissa, 10**p, out=digits)
            mantissa -= np.multiply(digits, 10**p, out=e)
            if word == 0:  # 100 for a set sign bit, -0.0 included: the '-' of _HEAD
                digits += np.bitwise_and(np.right_shift(x.view(np.int64), 63, out=e), 100, out=e)
            put(word, table, digits)
        put(3, _TAIL, np.add(mantissa, k, out=mantissa))
        if slow.size:
            values = x[slow]
            finite = np.isfinite(values)
            words[slow[~finite]] = _EMPTY
            words[slow[finite]] = _cells(values[finite])


# The pipe to the writer process holds this many bytes where the platform
# lets it grow: a 2048-row block of sweep is 784 KiB over its two files, so
# the main process sends a block while the writer formats the one before.  At
# the default 64 KiB the main process waited on the writer at every block
_PIPE_BYTES = 1 << 20


def _serve(rows_fd: int, errors_fd: int, csvs: list[_CsvWriter]) -> None:
    """The writer process: run ``_CsvWriter.write`` on every write that comes
    down the pipe ``rows_fd``, read as a buffered file, until it ends.

    It leaves only through ``os._exit``: 0 when the pipe has ended (each
    write was flushed before it returned), and 1 after it has put its
    exception, pickled, on the pipe ``errors_fd``.
    """
    status = 1
    try:
        rows = open(rows_fd, "rb")
        head = np.empty(2, np.int64)  # the file's index, its rows
        # readinto reads until the array is full or the pipe ends
        while rows.readinto(head) == head.nbytes:
            index, n = head.tolist()
            cells = np.empty((n, csvs[index]._columns))
            if rows.readinto(cells) < cells.nbytes:
                break
            csvs[index].write(cells)
        status = 0
    except BaseException as exc:
        os.write(errors_fd, pickle.dumps(exc))
    finally:
        os._exit(status)


class _WriterProcess:
    """A forked process that formats and writes the rows of the CSV files
    ``csvs``, beside the main process, which evaluates the next block.

    ``send`` puts one write of a file on a pipe: the file's index and its
    row count, two int64, then the float64 cells of its one C-contiguous
    array in row order.  The process receives them into an array of that
    shape and runs ``_CsvWriter.write`` on it, into the files the main
    process opened, so every byte is the one the main process would write.
    Each end of the pipe is a buffered file, which loops over short writes
    and reads.  No CSV byte is buffered at the fork (``_CsvWriter`` flushes
    every write), and after it only the writer process writes to the CSVs.

    A failure of the writer, such as ``OSError(ENOSPC)`` from a write, comes
    back pickled on a second pipe, and the main process raises it at its
    next ``send`` or at ``close``.  The writer ignores SIGINT: an interrupt
    ends the main process's command, which closes the pipe, and the writer
    ends once it has read what is left.
    """

    def __init__(self, csvs: list[_CsvWriter]):
        # imported here: fcntl is Unix only, as fork is, and signal costs
        # about 1 ms of start-up that no single-block command needs
        import fcntl
        import signal

        rows_r, rows_w = os.pipe()
        self._errors, errors_w = os.pipe()
        try:
            fcntl.fcntl(rows_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):  # not Linux, or above the user's pipe limit
            pass
        # SIGINT is blocked until the child ignores it, so that an interrupt
        # cannot raise in the child before it is inside _serve
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        pid = -1
        try:
            pid = os.fork()
        except OSError:
            for fd in (rows_r, rows_w, self._errors, errors_w):
                os.close(fd)
            raise
        finally:
            if pid == 0:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if pid == 0:
            os.close(rows_w)
            os.close(self._errors)
            _serve(rows_r, errors_w, csvs)
        os.close(rows_r)
        os.close(errors_w)
        self._rows = open(rows_w, "wb")
        self._pid = pid

    def send(self, index: int, cells: np.ndarray) -> None:
        """Send one ``_CsvWriter.write(cells)`` of file ``index``; ``cells``
        is C-contiguous."""
        try:
            self._rows.write(np.array([index, len(cells)], np.int64))
            self._rows.write(cells)
            self._rows.flush()
        except BrokenPipeError:  # the writer has ended: close raises its failure
            self.close(raising=True)
            raise

    def close(self, raising: bool) -> None:
        """End the pipe and reap the writer once it has written every row;
        with ``raising``, raise its failure.  A second close does nothing."""
        try:
            self._rows.close()
        except BrokenPipeError:  # bytes that a failed send left in the buffer
            pass
        report, status = b"", 0
        if self._errors >= 0:
            with open(self._errors, "rb") as errors:
                self._errors = -1
                report = errors.read()
        if self._pid > 0:
            status = os.waitpid(self._pid, 0)[1]
            self._pid = -1
        if raising and status:
            if report:
                raise pickle.loads(report)
            raise OSError(f"the CSV writer process ended with wait status {status}")


class _Outputs:
    """The output files of one command, written under temporary names.

    ``open(name)`` creates ``.<name>.<12 hex digits>.tmp`` in the output
    directory ``out``, which is made if it does not exist.  When the ``with``
    block ends without an error, every file takes its final name by
    ``os.replace``; when the block or a rename (say, onto a directory)
    raises, every file is unlinked, under whichever name it has, before the
    error goes on.  A process killed in between may leave a temporary file,
    never a final name.

    The CSV files take their rows through ``write``, which builds one cell
    array per write.  ``start`` decides, once per command, where they are
    formatted: in one forked writer process (``_WriterProcess``) when the
    command's times span more than one block of ``_GRID_ROWS`` and it may
    run on at least two CPUs, and here otherwise, or when the fork fails.
    The writer is reaped when the ``with`` block ends, after every file,
    summary.json included, has been written, and before any file is
    renamed or unlinked; its failure is raised only when the block ended
    without an error, and it unlinks every file as any other error does.
    """

    def __init__(self, out_dir: str | Path):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.paths: dict[str, Path] = {}
        self._pending: list[tuple[Path, Path, object]] = []
        self._csvs: list[_CsvWriter] = []
        self._writer: _WriterProcess | None = None

    def open(self, name: str):
        """A new binary file that becomes ``out / name``; its key in ``paths``
        is the name's stem."""
        tmp = self.out / f".{name}.{os.urandom(6).hex()}.tmp"
        file = tmp.open("xb")
        self._pending.append((tmp, self.out / name, file))
        self.paths[Path(name).stem] = self.out / name
        return file

    def csv(self, name: str, header: list[str]) -> int:
        """A new CSV file with its header; its index for ``write``."""
        self._csvs.append(_CsvWriter(self.open(name), header))
        return len(self._csvs) - 1

    def start(self, times: int) -> None:
        """Choose where the rows of a command of ``times`` times are written.

        A writer process overlaps the formatting of one block with the
        evaluation of the next, which pays only with two blocks or more and
        a second CPU: fork, exit and reap cost about 4 ms, and on one CPU the
        two processes took 16% longer than one.
        """
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else 1
        if times > _GRID_ROWS and cpus >= 2 and hasattr(os, "fork"):
            try:
                self._writer = _WriterProcess(self._csvs)
            except OSError:  # no process to spare, such as EAGAIN: write here
                pass

    def write(self, index: int, *columns: np.ndarray) -> None:
        """Write n rows to the CSV file ``index``: row i holds the cells of
        ``c[i]`` of each column ``c`` in turn, an (n,) or (n, ...) array, in
        row-major order."""
        n = len(columns[0])
        cells = np.concatenate([np.reshape(c, (n, -1)) for c in columns], axis=1, dtype=float)
        if self._writer is None:
            self._csvs[index].write(cells)
        else:
            self._writer.send(index, cells)

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        renamed = 0
        try:
            if self._writer is not None:
                self._writer.close(raising=exc_type is None)
                self._writer = None
            for _, _, file in self._pending:
                file.close()
            while exc_type is None and renamed < len(self._pending):
                tmp, path, _ = self._pending[renamed]
                os.replace(tmp, path)
                renamed += 1
        finally:
            if renamed < len(self._pending):  # an error: no file keeps a name
                for i, (tmp, path, file) in enumerate(self._pending):
                    file.close()
                    (path if i < renamed else tmp).unlink(missing_ok=True)


def _gate(ok: np.ndarray, t: np.ndarray, describe, error=NumericInvariantError) -> None:
    """The one first-failure rule of every per-time check: raise ``error`` at
    the first row i where ``ok[i]`` is false.  ``describe(i)`` gives the
    check's name and the rest of the message; between them the message
    names the time, ``omega_L_t`` = ``t[i]`` to 6 significant digits.

    Each caller writes ``ok`` so that a NaN makes it false.
    """
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        check, rest = describe(i)
        raise error(f"{check} at omega_L_t={t[i]:.6g}{rest}")


def _require_prob_group(cells: np.ndarray, what: str, t: np.ndarray) -> None:
    """Gate one probability group per time: its cells must lie in [0, 1] and sum to 1.

    Row i of ``cells`` is the group at ``t[i]``.  A cell may exceed 1 by
    ``PROB_SUM_TOL``, but none may be negative: every cell the program
    builds is a product or a count of non-negative numbers, and a negative
    one would reach the merge of ``tpm`` or the sampler.
    """
    # one contiguous row per cell, time last: each reduction adds whole rows
    cells = np.asarray(cells, dtype=float).reshape(len(t), -1).T.copy()
    lo, hi, totals = cells.min(axis=0), cells.max(axis=0), cells.sum(axis=0)
    inside = (lo >= 0.0) & (hi <= 1.0 + PROB_SUM_TOL)
    _gate(inside & (np.abs(totals - 1.0) <= PROB_SUM_TOL), t, lambda i: (what, (
        f": probabilities sum to {totals[i]:.12e}, not 1" if inside[i]
        else f": probability {lo[i]:.6e}..{hi[i]:.6e} outside [0, 1]")))


def _require_defined_weights(joint: np.ndarray, sigma: np.ndarray, t: np.ndarray) -> None:
    """Gate the joint tables against weight on undefined (NaN) entropy
    realizations, which the statistics leave out.

    Past the double-stochasticity and joint gates that weight is exactly 0,
    so the gate needs no tolerance: a p_fin of 0 is a sum of joint cells that
    the joint gate keeps non-negative, and a p_in of 0 zeroes its whole row.
    """
    stray = np.max(joint, axis=(-2, -1), where=~np.isfinite(sigma), initial=0.0)
    _gate(stray == 0.0, t, lambda i: (
        "undefined entropy realizations", f" carry probability {stray[i]:.3e}"))


def _require_doubly_stochastic(cond: np.ndarray, t: np.ndarray) -> None:
    """Gate every conditional table: its row and column sums must be 1."""
    c = np.moveaxis(cond, 0, -1).copy()  # c[fin, in] is a contiguous row over time
    sums = np.concatenate([c.sum(axis=0), c.sum(axis=1)])
    worst = np.abs(sums - 1.0).max(axis=0)
    _gate(worst <= PROB_SUM_TOL, t, lambda i: (
        "conditional table", f": a row or column sum is off by {worst[i]:.3e}"))


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
    ok = np.abs(ift - expected) <= PROB_SUM_TOL
    _gate(ok, t, lambda i: ("ift", f": {ift[i]:.12e}, not {expected[i]:.12e}"))


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Exact two-point-measurement statistics of every time of a grid, one row per time.

    ``u`` holds the four non-trivial entries of each time's propagator, one
    row per entry (``model.propagator_grid``), and ``h1`` and ``h2`` its
    amplitudes |h1| and |h2|.  The other fields are the gated tables and
    ``ift``; every statistic below them is built on its first read and kept,
    a plain array but for the dsigma distribution ``ds_dist``, the flat
    atoms of ``tpm.AtomRows`` (``hist`` reads the dE atoms from
    ``de_weights``, through ``tpm.delta_e_rows``).  ``ratio`` is NaN where
    |<dsigma>| is at most ``RATIO_GUARD``: it has no stable value there.
    Each row equals, field by field and bit for bit, the per-point reference
    ``evaluate_point`` of tests/reference.py at that time.
    """

    t: np.ndarray
    u: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    cond: np.ndarray
    joint: np.ndarray
    sigma: np.ndarray
    ift: np.ndarray
    beta: float
    moments_max: int

    @cached_property
    def de_weights(self) -> np.ndarray:
        return delta_e_grid(self.joint)

    @cached_property
    def ds_dist(self) -> AtomRows:
        # an undefined (NaN) realization has weight exactly 0 (gated), and the
        # merge keeps only atoms of positive weight
        n = len(self.t)
        return merge_atom_rows(self.sigma.reshape(n, 16), self.joint.reshape(n, 16))

    @cached_property
    def de_moments(self) -> np.ndarray:
        return delta_e_moments(self.de_weights, self.moments_max)

    @cached_property
    def ds_moments(self) -> np.ndarray:
        # the gate stops an overflowed power (inf, or NaN from inf - inf) silently
        with np.errstate(over="ignore", invalid="ignore"):
            moments = self.ds_dist.moments(len(self.t), self.moments_max)
        finite = np.isfinite(moments)

        def describe(i):  # the row's lowest non-finite order
            h = np.argmin(finite[i])
            return f"ds_m{h + 1}", f": {moments[i, h]} is not finite"

        _gate(finite.all(axis=1), self.t, describe)
        return moments

    @cached_property
    def coherence(self) -> np.ndarray:
        return trajectory_coherence(self.u)

    @cached_property
    def h2_sq(self) -> np.ndarray:
        # libm pow, as Python's ** for one time: numpy's ** 2 squares by
        # multiplying, which rounds differently in the last bit
        return np.float_power(self.h2, 2.0)

    @cached_property
    def ds_mean(self) -> np.ndarray:
        return ds_mean_grid(self.joint, self.sigma)

    @cached_property
    def landauer_lhs(self) -> np.ndarray:
        de_mean = self.de_moments[:, 0]
        # a beta = beta_B * omega_L too large for the product leaves it inf or NaN
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self.beta * de_mean

    @cached_property
    def ratio(self) -> np.ndarray:
        de_mean, ds_mean = self.de_moments[:, 0], self.ds_mean
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(np.abs(ds_mean) > RATIO_GUARD, de_mean / ds_mean, np.nan)


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
        u=u,
        h1=h1,
        h2=h2,
        cond=cond,
        joint=joint,
        sigma=sigma,
        ift=ift,
        beta=cfg.thermal.beta_B * cfg.model.omega_L,  # dE is in label units
        moments_max=cfg.moments_max,
    )


# Times that go through _evaluate at once.  Whole-grid transients, the
# (T, 4, 4) tables and the sort buffers of merge_atom_rows, came from fresh
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
    p_in = input_populations(cfg.thermal, cfg.model)
    p_in.flags.writeable = False
    for i in range(0, len(times), _GRID_ROWS):
        yield _evaluate(cfg, times[i:i + _GRID_ROWS], p_in)


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
    cfg.validate()
    mom_cols = [f"dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    mom_cols += [f"ds_m{h}" for h in range(1, cfg.moments_max + 1)]
    header = (
        ["omega_L_t"]
        + [f"j_{c}" for c in _CELL_LABELS]
        + mom_cols
        + ["c_l1_10", "ift", "landauer_lhs", "ds_mean", "ratio"]
    )
    real_header = ["omega_L_t"] + [f"dsig_{c}" for c in _CELL_LABELS]

    times = cfg.time_grid()
    with _Outputs(out_dir) as outputs:
        sweep_csv = outputs.csv("sweep.csv", header)
        real_csv = outputs.csv("realizations.csv", real_header)
        outputs.start(len(times))
        peaks = {name: _Peak() for name in ("de_mean", "h2_sq", "coherence_l1_10", "ratio")}
        for g in _blocks(cfg, times):
            outputs.write(
                sweep_csv, g.t, g.joint, g.de_moments, g.ds_moments,
                g.coherence, g.ift, g.landauer_lhs, g.ds_mean, g.ratio,
            )
            outputs.write(real_csv, g.t, g.sigma)
            columns = (g.de_moments[:, 0], g.h2_sq, g.coherence, g.ratio)
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
    cfg.validate()
    header = ["omega_L_t", "value", "probability"]
    times = cfg.hist_grid()
    with _Outputs(out_dir) as outputs:
        de_csv, ds_csv = (outputs.csv(f"hist_{name}.csv", header) for name in ("dE", "ds"))
        outputs.start(len(times))
        for g in _blocks(cfg, times):
            for csv, d in ((de_csv, delta_e_rows(g.de_weights)), (ds_csv, g.ds_dist)):
                outputs.write(csv, g.t[d.time], d.values, d.probs)
    return outputs.paths


def run_compare(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write mc_error.csv (and photonic_error.csv when enabled) over the grid,
    block by block; the blocks draw in grid order from one generator."""
    cfg.validate()
    header = (
        ["omega_L_t"]
        + [f"err_j_{c}" for c in _CELL_LABELS]
        + [f"err_dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    )
    ph_header = ["omega_L_t"] + [f"err_c_{c}" for c in _CELL_LABELS]
    shots = SampleConfig(cfg.samples)
    rng = np.random.default_rng(cfg.seed)
    times = cfg.time_grid()
    with _Outputs(out_dir) as outputs:
        mc_csv = outputs.csv("mc_error.csv", header)
        ph_csv = outputs.csv("photonic_error.csv", ph_header) if cfg.photonic else None
        outputs.start(len(times))
        for g in _blocks(cfg, times):
            if cfg.photonic:
                imperfect, success = conditional_for_time(cfg.optical, g.h1, g.h2)
                # a gate that blocks an input passes every range check: it is
                # invalid input, refused before the block is drawn
                passes = success > SUCCESS_FLOOR
                _gate(passes.all(axis=1), g.t, lambda i: (
                    "photonic: gate blocks basis input(s) "
                    + ", ".join(np.compress(~passes[i], OUTCOME_LABELS))
                    + ": post-selection never succeeds", ""), ConfigError)
                outputs.write(ph_csv, g.t, np.abs(g.cond - imperfect))
            # cfg stays a keyword: benchmarks/tracing.py reads the shot count from it
            freq = sample_tpm(g.joint, rng, cfg=shots) / shots.n_samples
            _require_prob_group(freq, "empirical table", g.t)
            sampled = delta_e_moments(delta_e_grid(freq), cfg.moments_max)
            outputs.write(mc_csv, g.t, np.abs(g.joint - freq), np.abs(g.de_moments - sampled))
    return outputs.paths
