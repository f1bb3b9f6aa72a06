"""Sweep orchestration and deterministic CSV/JSON emission.

CSV files are comma-delimited with '\\n' line endings; re-running any command
with the same configuration produces byte-identical files.  Time columns are
the dimensionless omega_L * t.  Every numeric cell is exactly Python's
``'%.11e' % x``: a '-' for a negative value (-0.0 included), one digit, '.',
11 digits, 'e', the exponent's sign and its digits, at least two (three for
an exponent of 100 or more in magnitude).  A non-finite value leaves its
cell empty.  Rows are formatted in blocks of ``_BLOCK_ROWS`` with numpy
array operations (``_csv_block``): each cell is scaled to a 12-digit integer
by one rounded product against a correctly rounded power of ten, which
lands within 2.3e-4 of the exact value, and a cell that this cannot round
with certainty is formatted by '%' itself.

``evaluate_grid`` builds the tables of all times of a grid at once, as
arrays with one row per time; ``sweep``, ``hist`` and the theory side of
``compare`` all go through it.  ``sweep`` and ``hist`` walk their times in
blocks of ``_GRID_ROWS``: each block is evaluated, gated, read and formatted
to CSV bytes kept in memory, and the files are written only after the last
block has passed every check.  Every row is computed by itself, so the bytes
do not depend on the blocks.  ``compare`` evaluates its whole grid at once,
because its sampler draws the whole grid from one stream in one call.

The statistics of a ``SweepGrid`` are built on their first read, so each
command pays only for what it writes: ``sweep`` reads the moments, the
coherence, ``h2_sq`` and the report; ``hist`` only the two distributions;
``compare`` only the joint and conditional tables and the dE moments.  The
dE moments come from the weights of the five dE values; only ``hist`` builds
the dE atoms from them.  ``compare`` then makes one sampler call on the
grid's joint tables and, with the photonic model, one photonic call for the
whole grid.  The tests keep a per-point form of the same computation in
tests/reference.py, and the grid must equal it bit for bit.

Each table is checked once, where it is built, so a failed check stops every
command before it writes a file.  ``evaluate_grid`` gates, for ``sweep``,
``hist`` and ``compare`` alike: every conditional table for double
stochasticity, which is the only check of the propagator (every output
reads U through these tables alone), the joint tables (cells in [0, 1],
sums 1 within ``linalg.PROB_SUM_TOL``; the only check of the input state,
whose populations are their row sums), the weight on undefined entropy
realizations (at most ``linalg.UNDEFINED_WEIGHT_TOL``) and the fluctuation
average ift against its closed form.  The ``tpm`` statistics and the
sampler then trust those tables; ``AtomRows`` checks the distributions it
holds, and every command reads each statistic it writes before it opens its
first file.  ``compare`` also gates the sampled frequencies.  Each check
runs over all rows; its first failing row, in time order, raises
``NumericInvariantError``.  When a block fails, the whole grid is evaluated
once more, so the error is the one a single evaluation of all times raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .linalg import PROB_SUM_TOL, UNDEFINED_WEIGHT_TOL
from .model import propagator_grid, thermal_state, trajectory_coherence
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
    initial_probs,
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
_EMPTY = _words([b"\0" * 19 + b","])


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 12-digit integer mantissa m and exponent e of '%.11e' % |x|.

    |x| is scaled by one product against ``_POW10``, 10**(11 - e) correctly
    rounded, and rounded to an integer; the scaled value is within 2.3e-4 of
    the exact one.  A cell outside the fast range, or whose scaled fraction
    is within ``_TIE_MARGIN`` of 1/2, or whose estimate of e was off, takes m
    and e from Python's correctly rounded '%' instead.  Zero and non-finite
    cells get m = e = 0.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # false for 0, inf and nan
    a = np.where(fast, a, 1.0)
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    s = a * _POW10.take(e - _E_LO)
    m = np.rint(s)
    # |s - m| is the distance of s to its nearest integer: at most
    # 1/2 - margin when its fraction is at least the margin away from 1/2
    fast &= (s >= 1e11) & (s < 1e12) & (np.abs(s - m) <= 0.5 - _TIE_MARGIN)
    carry = m == 1e12  # rounded up to a new decade: 1e11 at e + 1
    m -= 9e11 * carry
    e += carry
    m = np.where(fast, m, 0.0).astype(np.int64)
    e = np.where(fast, e, 0)
    # the '%' cells are assigned by (row, column), the same cell of x, m and
    # e whatever their memory layouts: when x is not C-contiguous, neither
    # are m and e, and a flat view of them would be a copy
    slow = np.unravel_index(np.flatnonzero(~fast & np.isfinite(x) & (x != 0)), x.shape)
    cells = ["%.11e" % v for v in np.abs(x[slow]).tolist()]
    m[slow] = [int(cell[0] + cell[2:13]) for cell in cells]
    e[slow] = [int(cell[14:]) for cell in cells]
    return m, e


def _csv_block(x: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float block: '%.11e' cells, a non-finite cell
    left empty."""
    m, e = _decimal(x)
    words = np.empty(x.shape + (5,), np.uint32)
    top = m // 10**10
    rest = m - top * 10**10
    words[..., 0] = _HEAD.take(top + 100 * np.signbit(x))
    quad = rest // 10**6
    rest -= quad * 10**6
    words[..., 1] = _QUAD.take(quad)
    quad = rest // 100
    rest -= quad * 100
    words[..., 2] = _QUAD.take(quad)
    words[..., 3] = _TAIL.take(rest + 100 * (e < 0))
    words[..., 4] = _EXP.take(np.abs(e))
    words[~np.isfinite(x)] = _EMPTY
    text = words.view(np.uint8).reshape(len(x), -1)
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _csv_rows(table: np.ndarray) -> list[bytes]:
    """The CSV rows of ``table``, formatted in blocks of ``_BLOCK_ROWS`` rows."""
    table = np.asarray(table, dtype=float)
    starts = range(0, len(table), _BLOCK_ROWS)
    return [_csv_block(table[start:start + _BLOCK_ROWS]) for start in starts]


def _write_csv(path: Path, header: list[str], rows: list[bytes]) -> None:
    """Write the header and the formatted ``rows``."""
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode())
        f.writelines(rows)


def _require_prob_group(cells: np.ndarray, what: str, t: np.ndarray) -> None:
    """Gate one probability group per time: its cells must lie in [0, 1] and sum to 1.

    Row i of ``cells`` is the group at ``t[i]``; the first failing row raises.
    """
    # one contiguous row per cell, time last: each reduction adds whole rows
    cells = np.asarray(cells, dtype=float).reshape(len(t), -1).T.copy()
    lo, hi, totals = cells.min(axis=0), cells.max(axis=0), cells.sum(axis=0)
    outside = (lo < -PROB_SUM_TOL) | (hi > 1.0 + PROB_SUM_TOL)
    bad = np.flatnonzero(outside | (np.abs(totals - 1.0) > PROB_SUM_TOL))
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
    realizations, which the statistics leave out; the first failing row raises."""
    stray = np.max(joint, axis=(-2, -1), where=~np.isfinite(sigma), initial=0.0)
    bad = np.flatnonzero(stray > UNDEFINED_WEIGHT_TOL)
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
    bad = np.flatnonzero(worst > PROB_SUM_TOL)
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
    bad = np.flatnonzero(np.abs(ift - expected) > PROB_SUM_TOL)
    if bad.size:
        i = bad[0]
        raise NumericInvariantError(
            f"ift at omega_L_t={t[i]:.6g}: {ift[i]:.12e}, not {expected[i]:.12e}"
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
        return self.ds_dist.moments(self.moments_max)

    @cached_property
    def coherence(self) -> np.ndarray:
        return trajectory_coherence(self.U)

    @cached_property
    def h2_sq(self) -> np.ndarray:
        # libm pow, as Python's ** for one time: numpy's ** 2 squares by
        # multiplying, which rounds differently in the last bit
        return np.float_power(np.abs(self.h2), 2.0)

    @cached_property
    def report(self) -> ThermoReport:
        return thermo_report_grid(
            self.joint, self.sigma, self.beta, self.de_moments[:, 0], self.ift
        )


def evaluate_grid(cfg: RunConfig, times) -> SweepGrid:
    """The gated tables of every time of ``times``, built for all times at once.

    Row i of every field and statistic equals, bit for bit, the field of the
    per-point reference ``evaluate_point(cfg, times[i])`` of
    tests/reference.py.  Each table is gated as soon as it is built, before
    anything is built from it: the conditional tables for double
    stochasticity, the joint tables (which also check the input state), the
    weight on undefined realizations and ift.
    """
    t = np.asarray(times, dtype=float)
    p_in = initial_probs(thermal_state(cfg.thermal, cfg.model))
    h2, u = propagator_grid(cfg.model, t)
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
        h2=h2,
        cond=cond,
        joint=joint,
        p_fin=p_fin,
        sigma=sigma,
        ift=ift,
        beta=cfg.thermal.beta_B,
        moments_max=cfg.moments_max,
    )


# Times that go through evaluate_grid at once.  Whole-grid transients, the
# (T, 4, 4) tables and the sort buffers of entropy_grid, came from fresh
# pages: a 20 000-point sweep faulted on about 16 000 of them.  A block's
# buffers are freed before the next block asks for the same sizes, which the
# allocator then serves from pages already mapped.  With the CSV bytes kept
# in memory that sweep faulted 7.0k times at 2000 rows, 8.7k at 4096 and
# 12.1k at 8192; blocks of 512-1024 rows faulted about 18k times, because
# their arrays straddle glibc's 128 KiB mmap threshold.  _BLOCK_ROWS, the CSV
# block, stays apart: at 2048 CSV rows that sweep faulted 8 400 times, not
# 6 800 (VmHWM 57.8, not 54.5 MiB), and hist at 2000 times 930, not 870,
# since one hist block of 2048 times formats about 10 000 dsigma atom rows.
_GRID_ROWS = 2048


def _grid_blocks(cfg: RunConfig, times, emit) -> list:
    """``emit(g)`` for the ``SweepGrid`` g of each block of ``_GRID_ROWS``
    times, in time order.

    Each block is gated as a whole grid is.  If one fails, the whole grid is
    evaluated once more, so that the error names the first failing check and
    time of one evaluation of all times, whichever block failed first.
    """
    t = np.asarray(times, dtype=float)
    try:
        return [emit(evaluate_grid(cfg, t[i:i + _GRID_ROWS])) for i in range(0, len(t), _GRID_ROWS)]
    except NumericInvariantError:
        evaluate_grid(cfg, t)
        raise


def _peak(grid: np.ndarray, values) -> dict:
    values = np.asarray(values, dtype=float)
    idx = int(np.nanargmax(values))
    return {"argmax_omega_L_t": float(grid[idx]), "max": float(values[idx])}


def _sweep_block(g: SweepGrid) -> tuple:
    """The sweep.csv and realizations.csv rows of one block, and the columns
    its summary reads."""
    n, report = len(g.t), g.report
    columns = [report.ift, report.landauer_lhs, report.ds_mean, report.ratio]
    table = np.column_stack(
        [g.t, g.joint.reshape(n, 16), g.de_moments, g.ds_moments, g.coherence, *columns]
    )
    realizations = np.column_stack([g.t, g.sigma.reshape(n, 16)])
    peaks = (report.de_mean, g.h2_sq, g.coherence, report.ratio)
    return _csv_rows(table), _csv_rows(realizations), peaks


def run_sweep(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write sweep.csv, realizations.csv and summary.json for the time grid.

    The grid is evaluated and formatted block by block; the files are
    written once every block has passed its checks.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = cfg.time_grid()
    sweep_rows, real_rows, peaks = zip(*_grid_blocks(cfg, t, _sweep_block))
    de_mean, h2_sq, coherence, ratio = (np.concatenate(column) for column in zip(*peaks))

    mom_cols = [f"dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    mom_cols += [f"ds_m{h}" for h in range(1, cfg.moments_max + 1)]
    header = (
        ["omega_L_t"]
        + [f"j_{c}" for c in _CELL_LABELS]
        + mom_cols
        + ["c_l1_10", "ift", "landauer_lhs", "ds_mean", "ratio"]
    )
    defined = ~np.isnan(ratio)
    summary = {
        "grid": {
            "t_min": cfg.t_min,
            "t_max": cfg.t_max,
            "n_points": cfg.n_points,
            "step": cfg.step,
            "half_open": True,
        },
        "de_mean": _peak(t, de_mean),
        "h2_sq": _peak(t, h2_sq),
        "coherence_l1_10": _peak(t, coherence),
        "ratio": _peak(t[defined], ratio[defined]) if defined.any() else None,
    }

    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, header, [rows for block in sweep_rows for rows in block])
    real_header = ["omega_L_t"] + [f"dsig_{c}" for c in _CELL_LABELS]
    real_path = out / "realizations.csv"
    _write_csv(real_path, real_header, [rows for block in real_rows for rows in block])
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {"sweep": sweep_path, "realizations": real_path, "summary": summary_path}


def _hist_block(g: SweepGrid) -> list[list[bytes]]:
    """The hist_dE.csv and hist_ds.csv rows of one block."""
    return [
        _csv_rows(np.column_stack([np.repeat(g.t, d.counts), d.values[d.atoms], d.probs[d.atoms]]))
        for d in (g.de_dist, g.ds_dist)
    ]


def emit_distributions(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write hist_dE.csv and hist_ds.csv at the requested times."""
    for t in cfg.hist_times:
        if not cfg.t_min <= t <= cfg.t_max:
            raise ConfigError(
                f"hist_times: {t} outside [{cfg.t_min:.6g}, {cfg.t_max:.6g}]"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blocks = _grid_blocks(cfg, cfg.hist_times, _hist_block)
    header = ["omega_L_t", "value", "probability"]
    paths = {}
    for name, dist_rows in zip(("dE", "ds"), zip(*blocks)):
        paths[f"hist_{name}"] = out / f"hist_{name}.csv"
        _write_csv(paths[f"hist_{name}"], header, [rows for block in dist_rows for rows in block])
    return paths


def run_compare(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write mc_error.csv (and photonic_error.csv when enabled) over the grid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = evaluate_grid(cfg, cfg.time_grid())
    n = len(g.t)
    if cfg.photonic:
        try:
            imperfect = conditional_for_time(cfg.optical, cfg.model, g.t)
        except ValueError as exc:
            # a gate that blocks an input passes every range check
            raise ConfigError(f"photonic: {exc}") from None
    # the points draw in grid order from the one stream of the seed; cfg stays
    # a keyword, because benchmarks/tracing.py reads the shot count from it
    freq = sample_tpm(g.joint, cfg=SampleConfig(cfg.samples, cfg.seed)).frequencies

    _require_prob_group(freq, "empirical table", g.t)
    cells = freq.reshape(n, 16)
    cell_errors = np.abs(g.joint.reshape(n, 16) - cells)
    moment_errors = np.abs(g.de_moments - delta_e_moments(delta_e_grid(freq), cfg.moments_max))

    header = (
        ["omega_L_t"]
        + [f"err_j_{c}" for c in _CELL_LABELS]
        + [f"err_dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    )
    mc_path = out / "mc_error.csv"
    _write_csv(mc_path, header, _csv_rows(np.column_stack([g.t, cell_errors, moment_errors])))
    paths = {"mc_error": mc_path}

    if cfg.photonic:
        ph_header = ["omega_L_t"] + [f"err_c_{c}" for c in _CELL_LABELS]
        errors = np.abs(g.cond - imperfect).reshape(n, 16)
        ph_path = out / "photonic_error.csv"
        _write_csv(ph_path, ph_header, _csv_rows(np.column_stack([g.t, errors])))
        paths["photonic_error"] = ph_path
    return paths
