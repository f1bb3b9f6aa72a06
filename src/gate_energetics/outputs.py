"""Where and how a command's output files are written.

``Outputs`` gives every file its final name only once the command has
written all of them.  Their CSV rows are formatted in the main process, or,
for a command of several blocks of times (``Outputs.start``), in a forked
writer process (``_WriterProcess``) that formats one block while the main
process evaluates the next.  The main process then evaluates, gates and
reads every block in time order, draws every sample and writes
summary.json, exactly as one process would.  Either way ``CsvWriter.write``
formats the same cell array, which ``Outputs.write`` builds, so every byte
is the same.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .csvformat import CsvWriter

# The pipe to the writer process holds this many bytes where the platform
# lets it grow: a 2048-row block of sweep is 784 KiB over its two files, so
# the main process sends a block while the writer formats the one before.  At
# the default 64 KiB the main process waited on the writer at every block
_PIPE_BYTES = 1 << 20


def _pin(cpus: set[int]) -> None:
    """Run the calling thread on ``cpus`` alone, best effort: where the host
    refuses (an ``OSError``), the thread keeps the CPUs it has."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _serve(rows_fd: int, csvs: list[CsvWriter], cpu: int) -> None:
    """The writer process: pin itself to ``cpu``, then run ``CsvWriter.write``
    on every write that comes down the pipe ``rows_fd``, read as a buffered
    file, until it ends.

    It leaves only through ``os._exit``, and its exit status is its one
    report: 0 when the pipe has ended (each write was flushed before it
    returned), the errno of an ``OSError`` that has one in 1-254, and 255
    after it has printed the traceback of any other exception.
    """
    status = 255
    try:
        _pin({cpu})
        rows = open(rows_fd, "rb")
        head = np.empty(2, np.int64)  # the file's index, its rows
        # readinto reads until the array is full or the pipe ends
        while rows.readinto(head) == head.nbytes:
            index, n = head.tolist()
            cells = np.empty((n, csvs[index].columns))
            if rows.readinto(cells) < cells.nbytes:
                break
            csvs[index].write(cells)
        status = 0
    except BaseException as exc:
        code = exc.errno if isinstance(exc, OSError) else None
        if isinstance(code, int) and 0 < code < 255:
            status = code
        else:
            import traceback

            traceback.print_exc()  # stderr is line-buffered: flushed as printed
    finally:
        os._exit(status)


class _WriterProcess:
    """A forked process that formats and writes the rows of the CSV files
    ``csvs``, beside the main process, which evaluates the next block.

    ``send`` puts one write of a file on a pipe: the file's index and its
    row count, two int64, then the float64 cells of its one C-contiguous
    array in row order.  The process receives them into an array of that
    shape and runs ``CsvWriter.write`` on it, into the files the main
    process opened, so every byte is the one the main process would write.
    Each end of the pipe is a buffered file, which loops over short writes
    and reads.  No CSV byte is buffered at the fork (``CsvWriter`` flushes
    every write), and after it only the writer process writes to the CSVs.

    The pipe runs one way, and the writer's exit status is all that comes
    back (``_serve``): a writer that fails ends, the main process's next
    ``send`` finds the pipe broken, and ``close`` reaps the writer and
    raises its failure.  The writer ignores SIGINT: an interrupt ends the
    main process's command, which closes the pipe, and the writer ends once
    it has read what is left.

    The two processes run on CPUs of their own, taken from the command's
    mask ``cpus`` (two or more): the writer on the highest, the main process
    on the others, each by ``os.sched_setaffinity`` on itself, best effort
    (``_pin``).  Left to the scheduler, both could share one CPU: the first
    ``cli.main`` of a 20 000-point ``sweep`` in a fresh interpreter took a
    median 117 ms over 10 runs, of which each process waited about 45 ms in
    the run queue (``/proc/<pid>/schedstat``); pinned, 78 ms, with under 2 ms
    of waiting, and 125 ms in one process on one CPU.  Both must be pinned:
    with the writer alone pinned, the main process was still moved onto the
    writer's CPU each time the writer woke it, and the two queued as before.
    ``close`` gives the main process ``cpus`` back first, so every path
    through it does.
    """

    def __init__(self, csvs: list[CsvWriter], cpus: set[int]):
        # imported here: fcntl is Unix only, as fork is, and signal costs
        # about 1 ms of start-up that no single-block command needs
        import fcntl
        import signal

        rows_r, rows_w = os.pipe()
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
            os.close(rows_r)
            os.close(rows_w)
            raise
        finally:
            if pid == 0:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        cpu = max(cpus)  # the writer's; the main process takes the others
        if pid == 0:
            os.close(rows_w)
            _serve(rows_r, csvs, cpu)
        os.close(rows_r)
        self._rows = open(rows_w, "wb")
        self._pid = pid
        self._cpus = cpus
        _pin(cpus - {cpu})

    def send(self, index: int, cells: np.ndarray) -> None:
        """Send one ``CsvWriter.write(cells)`` of file ``index``; ``cells``
        is C-contiguous."""
        try:
            self._rows.write(np.array([index, len(cells)], np.int64))
            self._rows.write(cells)
            self._rows.flush()
        except BrokenPipeError:  # the writer has ended: close raises its failure
            self.close(raising=True)
            raise

    def close(self, raising: bool) -> None:
        """Give the main process its CPUs back, end the pipe and reap the
        writer once it has written every row; with ``raising``, raise its
        failure: the ``OSError`` of an errno exit code, else one that names
        the code (-N for a signal N).  A second close changes nothing."""
        _pin(self._cpus)
        try:
            self._rows.close()
        except BrokenPipeError:  # bytes that a failed send left in the buffer
            pass
        code = 0
        if self._pid > 0:
            code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            self._pid = -1
        if raising and 0 < code < 255:
            raise OSError(code, os.strerror(code))
        if raising and code:
            raise OSError(f"the CSV writer process ended with exit code {code}")


class Outputs:
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
    command walks more than one block of times and may run on at least two
    CPUs, and here otherwise, or when the fork fails.
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
        self._csvs: list[CsvWriter] = []
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
        self._csvs.append(CsvWriter(self.open(name), header))
        return len(self._csvs) - 1

    def start(self, several_blocks: bool) -> None:
        """Choose where the CSV rows are formatted, given whether the command
        walks ``several_blocks`` of times.

        A writer process overlaps the formatting of one block with the
        evaluation of the next, which pays only with two blocks or more and
        a second CPU: fork, exit and reap cost about 4 ms, and two processes
        that share one CPU wait for each other in its run queue.  So the
        writer is forked only when the command's CPU mask, read once here,
        holds two CPUs or more, and the two processes are pinned apart on
        them (``_WriterProcess``), best effort.
        """
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = affinity(0) if affinity else set()
        if several_blocks and len(cpus) >= 2:
            try:
                self._writer = _WriterProcess(self._csvs, cpus)
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

    def __enter__(self) -> Outputs:
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

