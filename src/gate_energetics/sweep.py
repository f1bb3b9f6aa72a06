"""Sweep orchestration and deterministic CSV/JSON emission.

All numeric cells are written in fixed scientific notation with 12
significant digits, comma-delimited, '\\n' line endings; re-running any
command with the same configuration produces byte-identical files.  Time
columns are the dimensionless omega_L * t.

Points are evaluated one after another, in time order, as pure functions of
(config, t).  Before anything is written, every probability group is
checked, and every sweep row also has its conditional table checked for
double stochasticity and its fluctuation average for |ift - 1|, all within
``linalg.PROB_SUM_TOL``; a failure raises ``NumericInvariantError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .linalg import PROB_SUM_TOL
from .model import propagator_analytic, thermal_state, trajectory_coherence
from .photonic import conditional_for_time
from .sampler import SampleConfig, error_report, sample_tpm
from .tpm import (
    DiscreteDistribution,
    OUTCOMES,
    conditional_matrix,
    delta_e_distribution,
    entropy_distribution,
    entropy_realizations,
    final_probs,
    initial_probs,
    joint_table_from_conditional,
    moments,
    thermo_report,
)

_LABELS = [str(o) for o in OUTCOMES]


class NumericInvariantError(Exception):
    """A computed table or average left its allowed range before writing."""


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return format(float(x), ".11e")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _require_prob_group(cells: np.ndarray, what: str) -> None:
    cells = np.asarray(cells, dtype=float)
    if cells.min() < -PROB_SUM_TOL or cells.max() > 1.0 + PROB_SUM_TOL:
        raise NumericInvariantError(
            f"{what}: probability {cells.min():.6e}..{cells.max():.6e} outside [0, 1]"
        )
    total = float(cells.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NumericInvariantError(f"{what}: probabilities sum to {total:.12e}, not 1")


def _require_row_invariants(pt: SweepPoint) -> None:
    """Gate one sweep row: joint table, double stochasticity and the IFT."""
    where = f"omega_L_t={pt.t:.6g}"
    _require_prob_group(pt.joint.ravel(), f"joint table at {where}")
    sums = np.concatenate([pt.cond.sum(axis=0), pt.cond.sum(axis=1)])
    worst = float(np.abs(sums - 1.0).max())
    if worst > PROB_SUM_TOL:
        raise NumericInvariantError(
            f"conditional table at {where}: a row or column sum is off by {worst:.3e}"
        )
    if abs(pt.report.ift - 1.0) > PROB_SUM_TOL:
        raise NumericInvariantError(f"ift at {where}: {pt.report.ift:.12e}, not 1")


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


def _peak(grid: np.ndarray, values) -> dict:
    values = np.asarray(values, dtype=float)
    idx = int(np.nanargmax(values))
    return {"argmax_omega_L_t": float(grid[idx]), "max": float(values[idx])}


def run_sweep(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write sweep.csv, realizations.csv and summary.json for the time grid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.time_grid()
    points = [evaluate_point(cfg, float(t)) for t in grid]

    mom_cols = [f"dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    mom_cols += [f"ds_m{h}" for h in range(1, cfg.moments_max + 1)]
    header = (
        ["omega_L_t"]
        + [f"j_{a}_{b}" for a in _LABELS for b in _LABELS]
        + mom_cols
        + ["c_l1_10", "ift", "landauer_lhs", "ds_mean", "ratio"]
    )
    rows = []
    for pt in points:
        _require_row_invariants(pt)
        row = [_fmt(pt.t)]
        row += [_fmt(x) for x in pt.joint.ravel()]
        row += [_fmt(x) for x in pt.de_moments]
        row += [_fmt(x) for x in pt.ds_moments]
        row += [
            _fmt(pt.coherence),
            _fmt(pt.report.ift),
            _fmt(pt.report.landauer_lhs),
            _fmt(pt.report.ds_mean),
            _fmt(pt.report.ratio),
        ]
        rows.append(row)
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, header, rows)

    real_header = ["omega_L_t"] + [f"dsig_{a}_{b}" for a in _LABELS for b in _LABELS]
    real_rows = []
    for pt in points:
        cells = [_fmt(x) if np.isfinite(x) else "" for x in pt.sigma.ravel()]
        real_rows.append([_fmt(pt.t)] + cells)
    real_path = out / "realizations.csv"
    _write_csv(real_path, real_header, real_rows)

    ratios = [pt.report.ratio for pt in points]
    defined = [(t, r) for t, r in zip(grid, ratios) if r is not None]
    summary = {
        "grid": {
            "t_min": cfg.t_min,
            "t_max": cfg.t_max,
            "n_points": cfg.n_points,
            "step": cfg.step,
            "half_open": True,
        },
        "de_mean": _peak(grid, [pt.report.de_mean for pt in points]),
        "h2_sq": _peak(grid, [pt.h2_sq for pt in points]),
        "coherence_l1_10": _peak(grid, [pt.coherence for pt in points]),
        "ratio": (
            _peak(np.array([t for t, _ in defined]), [r for _, r in defined])
            if defined
            else None
        ),
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
    points = [evaluate_point(cfg, float(t)) for t in cfg.hist_times]

    header = ["omega_L_t", "value", "probability"]
    de_rows, ds_rows = [], []
    for pt in points:
        for dist, rows, name in ((pt.de_dist, de_rows, "dE"), (pt.ds_dist, ds_rows, "ds")):
            _require_prob_group(dist.probs, f"{name} histogram at omega_L_t={pt.t:.6g}")
            for value, prob in zip(dist.values, dist.probs):
                rows.append([_fmt(pt.t), _fmt(value), _fmt(prob)])
    de_path = out / "hist_dE.csv"
    ds_path = out / "hist_ds.csv"
    _write_csv(de_path, header, de_rows)
    _write_csv(ds_path, header, ds_rows)
    return {"hist_dE": de_path, "hist_ds": ds_path}


def _compare_point(cfg: RunConfig, index: int, t: float):
    pt = evaluate_point(cfg, t)
    rho0 = thermal_state(cfg.thermal, cfg.model)
    prop = propagator_analytic(cfg.model, t)
    # per-point seed keeps each point's draws independent of the others
    emp = sample_tpm(rho0, prop, SampleConfig(cfg.samples, cfg.seed + index, t))
    freq = emp.frequencies
    emp_moments = moments(delta_e_distribution(freq), cfg.moments_max)
    photonic_err = None
    if cfg.photonic:
        try:
            imperfect = conditional_for_time(cfg.optical, cfg.model, t)
        except ValueError as exc:
            # a gate that blocks an input passes every range check
            raise ConfigError(f"photonic: {exc} at omega_L_t={t:.6g}") from None
        photonic_err = np.abs(pt.cond - imperfect)
    return pt, freq, emp_moments, photonic_err


def run_compare(cfg: RunConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write mc_error.csv (and photonic_error.csv when enabled) over the grid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.time_grid()
    results = [_compare_point(cfg, index, float(t)) for index, t in enumerate(grid)]

    for pt, freq, _, _ in results:
        _require_prob_group(freq.ravel(), f"empirical table at omega_L_t={pt.t:.6g}")
    times = np.array([pt.t for pt, _, _, _ in results])
    cell_errors = error_report(
        times,
        np.array([pt.joint.ravel() for pt, _, _, _ in results]),
        times,
        np.array([freq.ravel() for _, freq, _, _ in results]),
    )
    moment_errors = error_report(
        times,
        np.array([pt.de_moments for pt, _, _, _ in results]),
        times,
        np.array([emp_moments for _, _, emp_moments, _ in results]),
    )

    header = (
        ["omega_L_t"]
        + [f"err_j_{a}_{b}" for a in _LABELS for b in _LABELS]
        + [f"err_dE_m{h}" for h in range(1, cfg.moments_max + 1)]
    )
    rows = [
        [_fmt(t)] + [_fmt(x) for x in cells] + [_fmt(x) for x in moms]
        for t, cells, moms in zip(times, cell_errors, moment_errors)
    ]
    mc_path = out / "mc_error.csv"
    _write_csv(mc_path, header, rows)
    paths = {"mc_error": mc_path}

    if cfg.photonic:
        ph_header = ["omega_L_t"] + [f"err_c_{b}_{a}" for b in _LABELS for a in _LABELS]
        ph_rows = [
            [_fmt(pt.t)] + [_fmt(x) for x in err.ravel()]
            for pt, _, _, err in results
        ]
        ph_path = out / "photonic_error.csv"
        _write_csv(ph_path, ph_header, ph_rows)
        paths["photonic_error"] = ph_path
    return paths
