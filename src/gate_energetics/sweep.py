"""Sweep orchestration and deterministic CSV/JSON emission.

All numeric cells are written in fixed scientific notation with 12
significant digits, comma-delimited, '\\n' line endings; re-running any
command with the same configuration produces byte-identical files.  Time
columns are the dimensionless omega_L * t.

``evaluate_grid`` computes the statistics of all times of a grid at once, as
arrays with one row per time; ``sweep``, ``hist`` and the theory side of
``compare`` all go through it.  ``evaluate_point`` is the same computation
for one time, kept as the reference that the grid must equal bit for bit.
Before anything is written, every probability group is checked, and every
sweep row also has its conditional table checked for double stochasticity
and its fluctuation average for |ift - 1|, all within
``linalg.PROB_SUM_TOL``.  The checks run one after another over all rows;
the first failing row of a check, in time order, raises
``NumericInvariantError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .linalg import PROB_SUM_TOL
from .model import propagator_analytic, propagator_grid, thermal_state, trajectory_coherence
from .photonic import conditional_for_time
from .sampler import SampleConfig, error_report, sample_tpm
from .tpm import (
    AtomRows,
    DiscreteDistribution,
    OUTCOMES,
    ThermoReport,
    conditional_matrix,
    delta_e_distribution,
    delta_e_grid,
    entropy_distribution,
    entropy_grid,
    entropy_realizations,
    final_probs,
    initial_probs,
    joint_table_from_conditional,
    moments,
    thermo_report,
    thermo_report_grid,
)

_LABELS = [str(o) for o in OUTCOMES]


class NumericInvariantError(Exception):
    """A computed table or average left its allowed range before writing."""


def _csv_lines(table: np.ndarray):
    """One line of '%.11e' cells per row, made as it is written; a non-finite
    cell is left empty."""
    fmt = ",".join(["%.11e"] * table.shape[1]) + "\n"
    for row, ok in zip(table, np.isfinite(table).all(axis=1).tolist()):
        cells = row.tolist()
        yield fmt % tuple(cells) if ok else ",".join(
            "%.11e" % x if math.isfinite(x) else "" for x in cells
        ) + "\n"


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(_csv_lines(table))


def _require_prob_group(cells: np.ndarray, what: str, t: np.ndarray | None = None) -> None:
    """Gate a probability group: its cells must lie in [0, 1] and sum to 1.

    With times ``t``, row i of ``cells`` is the group at ``t[i]`` and the
    first failing row raises.
    """
    cells = np.asarray(cells, dtype=float).reshape(1 if t is None else len(t), -1)
    lo, hi, totals = cells.min(axis=1), cells.max(axis=1), cells.sum(axis=1)
    outside = (lo < -PROB_SUM_TOL) | (hi > 1.0 + PROB_SUM_TOL)
    bad = np.flatnonzero(outside | (np.abs(totals - 1.0) > PROB_SUM_TOL))
    if bad.size:
        i = bad[0]
        where = what if t is None else f"{what} at omega_L_t={t[i]:.6g}"
        if outside[i]:
            raise NumericInvariantError(
                f"{where}: probability {lo[i]:.6e}..{hi[i]:.6e} outside [0, 1]"
            )
        raise NumericInvariantError(f"{where}: probabilities sum to {totals[i]:.12e}, not 1")


@dataclass(eq=False)
class SweepPoint:
    """Everything the emitters need about one sweep time."""

    t: float
    p_in: np.ndarray
    p_fin: np.ndarray
    cond: np.ndarray
    joint: np.ndarray
    sigma: np.ndarray
    de_dist: DiscreteDistribution
    ds_dist: DiscreteDistribution
    de_moments: np.ndarray
    ds_moments: np.ndarray
    coherence: float
    h2_sq: float
    report: "object"


def evaluate_point(cfg: RunConfig, t: float) -> SweepPoint:
    """Exact two-point-measurement statistics of the gate at time t."""
    rho0 = thermal_state(cfg.thermal, cfg.model)
    prop = propagator_analytic(cfg.model, t)
    p_in = initial_probs(rho0)
    cond = conditional_matrix(prop)
    joint = joint_table_from_conditional(cond, p_in)
    p_fin = final_probs(joint)
    sigma = entropy_realizations(p_in, p_fin)
    de_dist = delta_e_distribution(joint)
    ds_dist = entropy_distribution(joint, sigma)
    return SweepPoint(
        t=t,
        p_in=p_in,
        p_fin=p_fin,
        cond=cond,
        joint=joint,
        sigma=sigma,
        de_dist=de_dist,
        ds_dist=ds_dist,
        de_moments=moments(de_dist, cfg.moments_max),
        ds_moments=moments(ds_dist, cfg.moments_max),
        coherence=trajectory_coherence(prop),
        h2_sq=abs(prop.h2) ** 2,
        report=thermo_report(joint, sigma, beta=cfg.thermal.beta_B),
    )


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """``SweepPoint`` of every time of a grid, one row per time.

    ``rho0`` and ``p_in`` are shared by all rows; the report's fields are
    arrays, with NaN where the ratio is undefined.
    """

    t: np.ndarray
    rho0: np.ndarray
    p_in: np.ndarray
    U: np.ndarray
    p_fin: np.ndarray
    cond: np.ndarray
    joint: np.ndarray
    sigma: np.ndarray
    de_dist: AtomRows
    ds_dist: AtomRows
    de_moments: np.ndarray
    ds_moments: np.ndarray
    coherence: np.ndarray
    h2_sq: np.ndarray
    report: ThermoReport


def evaluate_grid(cfg: RunConfig, times) -> SweepGrid:
    """``evaluate_point`` at every time, computed for all times at once.

    Every field equals the field of ``evaluate_point(cfg, t)`` at each t,
    bit for bit.
    """
    t = np.asarray(times, dtype=float)
    rho0 = thermal_state(cfg.thermal, cfg.model)
    p_in = initial_probs(rho0)
    h2, u = propagator_grid(cfg.model, t)
    cond = conditional_matrix(u)
    joint = joint_table_from_conditional(cond, p_in)
    p_fin = final_probs(joint)
    sigma = entropy_realizations(p_in, p_fin)
    de_dist = delta_e_grid(joint)
    ds_dist = entropy_grid(joint, sigma)
    de_moments = de_dist.moments(cfg.moments_max)
    return SweepGrid(
        t=t,
        rho0=rho0,
        p_in=p_in,
        U=u,
        p_fin=p_fin,
        cond=cond,
        joint=joint,
        sigma=sigma,
        de_dist=de_dist,
        ds_dist=ds_dist,
        de_moments=de_moments,
        ds_moments=ds_dist.moments(cfg.moments_max),
        coherence=trajectory_coherence(u),
        # Python's float power, as in evaluate_point: numpy squares by
        # multiplying, which rounds differently in the last bit
        h2_sq=np.array([abs(h) ** 2 for h in h2.tolist()]),
        report=thermo_report_grid(joint, sigma, cfg.thermal.beta_B, de_moments[:, 0]),
    )


def _require_row_invariants(g: SweepGrid) -> None:
    """Gate every sweep row: joint table, double stochasticity and the IFT.

    Each check runs over all rows in turn; its first failing row raises.
    """
    _require_prob_group(g.joint, "joint table", g.t)
    sums = np.concatenate([g.cond.sum(axis=1), g.cond.sum(axis=2)], axis=1)
    worst = np.abs(sums - 1.0).max(axis=1)
    bad = np.flatnonzero(worst > PROB_SUM_TOL)
    if bad.size:
        i = bad[0]
        raise NumericInvariantError(
            f"conditional table at omega_L_t={g.t[i]:.6g}: "
            f"a row or column sum is off by {worst[i]:.3e}"
        )
    ift = g.report.ift
    bad = np.flatnonzero(np.abs(ift - 1.0) > PROB_SUM_TOL)
    if bad.size:
        i = bad[0]
        raise NumericInvariantError(f"ift at omega_L_t={g.t[i]:.6g}: {ift[i]:.12e}, not 1")


def _peak(grid: np.ndarray, values) -> dict:
    values = np.asarray(values, dtype=float)
    idx = int(np.nanargmax(values))
    return {"argmax_omega_L_t": float(grid[idx]), "max": float(values[idx])}


def run_sweep(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write sweep.csv, realizations.csv and summary.json for the time grid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = evaluate_grid(cfg, cfg.time_grid())
    _require_row_invariants(g)
    n, report = len(g.t), g.report

    mom_cols = [f"dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    mom_cols += [f"ds_m{h}" for h in range(1, cfg.moments_max + 1)]
    header = (
        ["omega_L_t"]
        + [f"j_{a}_{b}" for a in _LABELS for b in _LABELS]
        + mom_cols
        + ["c_l1_10", "ift", "landauer_lhs", "ds_mean", "ratio"]
    )
    columns = [report.ift, report.landauer_lhs, report.ds_mean, report.ratio]
    table = np.column_stack(
        [g.t, g.joint.reshape(n, 16), g.de_moments, g.ds_moments, g.coherence, *columns]
    )
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, header, table)

    real_header = ["omega_L_t"] + [f"dsig_{a}_{b}" for a in _LABELS for b in _LABELS]
    real_path = out / "realizations.csv"
    _write_csv(real_path, real_header, np.column_stack([g.t, g.sigma.reshape(n, 16)]))

    defined = ~np.isnan(report.ratio)
    summary = {
        "grid": {
            "t_min": cfg.t_min,
            "t_max": cfg.t_max,
            "n_points": cfg.n_points,
            "step": cfg.step,
            "half_open": True,
        },
        "de_mean": _peak(g.t, report.de_mean),
        "h2_sq": _peak(g.t, g.h2_sq),
        "coherence_l1_10": _peak(g.t, g.coherence),
        "ratio": _peak(g.t[defined], report.ratio[defined]) if defined.any() else None,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {"sweep": sweep_path, "realizations": real_path, "summary": summary_path}


def emit_distributions(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write hist_dE.csv and hist_ds.csv at the requested times."""
    for t in cfg.hist_times:
        if not cfg.t_min <= t <= cfg.t_max:
            raise ConfigError(
                f"hist_times: {t} outside [{cfg.t_min:.6g}, {cfg.t_max:.6g}]"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = evaluate_grid(cfg, cfg.hist_times)
    dists = {"dE": g.de_dist, "ds": g.ds_dist}
    header = ["omega_L_t", "value", "probability"]
    paths = {}
    for name, d in dists.items():
        table = np.column_stack([np.repeat(g.t, d.counts), d.values[d.atoms], d.probs[d.atoms]])
        paths[f"hist_{name}"] = out / f"hist_{name}.csv"
        _write_csv(paths[f"hist_{name}"], header, table)
    return paths


def run_compare(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write mc_error.csv (and photonic_error.csv when enabled) over the grid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = evaluate_grid(cfg, cfg.time_grid())
    n = len(g.t)
    freq = np.empty((n, 4, 4))
    imperfect = np.empty((n, 4, 4))
    for index, t in enumerate(g.t.tolist()):
        # per-point seed keeps each point's draws independent of the others
        sample = SampleConfig(cfg.samples, cfg.seed + index, t)
        freq[index] = sample_tpm(g.rho0, g.U[index], sample).frequencies
        if cfg.photonic:
            try:
                imperfect[index] = conditional_for_time(cfg.optical, cfg.model, t)
            except ValueError as exc:
                # a gate that blocks an input passes every range check
                raise ConfigError(f"photonic: {exc} at omega_L_t={t:.6g}") from None

    _require_prob_group(freq, "empirical table", g.t)
    cells = freq.reshape(n, 16)
    cell_errors = error_report(g.t, g.joint.reshape(n, 16), g.t, cells)
    emp_moments = delta_e_grid(freq).moments(cfg.moments_max)
    moment_errors = error_report(g.t, g.de_moments, g.t, emp_moments)

    header = (
        ["omega_L_t"]
        + [f"err_j_{a}_{b}" for a in _LABELS for b in _LABELS]
        + [f"err_dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    )
    mc_path = out / "mc_error.csv"
    _write_csv(mc_path, header, np.column_stack([g.t, cell_errors, moment_errors]))
    paths = {"mc_error": mc_path}

    if cfg.photonic:
        ph_header = ["omega_L_t"] + [f"err_c_{b}_{a}" for b in _LABELS for a in _LABELS]
        errors = np.abs(g.cond - imperfect).reshape(n, 16)
        ph_path = out / "photonic_error.csv"
        _write_csv(ph_path, ph_header, np.column_stack([g.t, errors]))
        paths["photonic_error"] = ph_path
    return paths
