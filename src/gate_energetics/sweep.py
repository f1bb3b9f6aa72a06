"""The grid walk, its gates and the three commands.

Re-running any command with the same configuration produces byte-identical
files (cells: ``csvformat``; files: ``outputs``).  Time columns are the
dimensionless omega_L * t.

Every command walks its times through ``_blocks``, in blocks of
``_GRID_ROWS``: ``_evaluate`` builds and gates the tables of a block, one
row per time, and the command reads and writes them before the next block,
so memory does not grow with the grid.  Every row is computed by itself, so
the bytes do not depend on the blocks.

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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .linalg import PROB_SUM_TOL, RATIO_GUARD, SUCCESS_FLOOR
from .model import input_populations, propagator_grid, trajectory_coherence
from .outputs import Outputs
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
# in 11 of 12 rounds, and less than 4096 in 6.  csvformat._BLOCK_ROWS, the
# CSV block, stays apart: at 2048 CSV rows that sweep faulted 3 370 times
# (VmHWM 42.5 MiB), and hist at 2000 times 740 instead of 660.  With the
# writer process, the first cli.main peaks at VmHWM 34.5 MiB in the main
# process and 27.0 MiB in the writer (its ru_maxrss) for a 20 000-point
# sweep, and 35.9 and 28.4 MiB at 200 000 points; compare --photonic (1000
# shots, T_H = 0.985, eps = 0.01) at 42.3 and 27.1 MiB, and 43.7 and 28.5
# MiB (73.2 and 442.2 MiB in one process when it evaluated its grid in one
# piece).
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
    with Outputs(out_dir) as outputs:
        sweep_csv = outputs.csv("sweep.csv", header)
        real_csv = outputs.csv("realizations.csv", real_header)
        outputs.start(len(times) > _GRID_ROWS)
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
    with Outputs(out_dir) as outputs:
        de_csv, ds_csv = (outputs.csv(f"hist_{name}.csv", header) for name in ("dE", "ds"))
        outputs.start(len(times) > _GRID_ROWS)
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
    with Outputs(out_dir) as outputs:
        mc_csv = outputs.csv("mc_error.csv", header)
        ph_csv = outputs.csv("photonic_error.csv", ph_header) if cfg.photonic else None
        outputs.start(len(times) > _GRID_ROWS)
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
