"""Exact '%.11e' CSV cells, formatted with numpy array operations.

CSV files are comma-delimited with '\\n' line endings.  Every numeric cell is
exactly Python's ``'%.11e' % x``: a '-' for a negative value (-0.0 included),
one digit, '.', 11 digits, 'e', the exponent's sign and its digits, at least
two (three for an exponent of 100 or more in magnitude).  A non-finite value
leaves its cell empty.

A cell is laid out in 20 bytes, as five 4-byte words: "-d.d", "dddd",
"dddd", "dde+" and "ddd,".  A NUL marks a byte the cell does not use (the
sign of a non-negative value, the hundreds digit of an exponent below 100,
every byte but the separator of a non-finite cell); deleting the NULs
leaves the text of '%.11e' % x.
"""

import numpy as np

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


class CsvWriter:
    """Writes the CSV rows of one file to the binary file ``file``, block by block.

    ``write`` takes one (n, k) float64 array of cells, formats it in blocks
    of ``_BLOCK_ROWS`` rows into scratch arrays, and writes each block in
    pieces of at most ``_PIECE_BYTES``, each as soon as it is freed of its
    NULs.  The scratch of one block is allocated where the writer is made,
    so no write allocates an array of a block's size; its pages are mapped
    as a write first touches them.
    Every cell of a block takes one path, ``_format``: it is scaled to a
    12-digit integer by one rounded product against a correctly rounded
    power of ten, which lands within 2.3e-4 of the exact value, and a zero
    gets the integer 0 and the exponent 0; a cell that this cannot round
    with certainty, or that is non-zero outside the fast range, is
    formatted by '%' itself.

    The header is written where the writer is made.  The header and every
    ``write`` are flushed before they return: no byte waits in a buffer.
    """

    def __init__(self, file, header: list[str]):
        self._file = file
        file.write((",".join(header) + "\n").encode())
        file.flush()
        self.columns = len(header)
        cells = _BLOCK_ROWS * self.columns
        self._words = np.empty((_BLOCK_ROWS, self.columns, 5), np.uint32)
        self._text = self._words.view(np.uint8).reshape(_BLOCK_ROWS, -1)
        # per cell: |x| then the rounded mantissa; the scaled value; the
        # exponent; the offset of the exponent's sign
        self._a, self._s = np.empty(cells), np.empty(cells)
        self._e, self._k = np.empty(cells, np.int64), np.empty(cells, np.int64)
        self._w = np.empty(cells, np.uint32)
        self._fast, self._t, self._z = (np.empty(cells, bool) for _ in range(3))

    def write(self, cells: np.ndarray) -> None:
        """Write the rows of the (n, k) float64 array ``cells``, k the header's width."""
        n = len(cells)
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

