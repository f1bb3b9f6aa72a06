"""Output checks run on every timed sample, after its timed section.

Each check returns a list of problems; an empty list means the outputs are
correct.  At ``DEFAULT_SEED`` (full size) the SHA-256 of every
byte-contracted output must match ``digests.json``.  At any seed, rows at a
fixed stride are compared with an oracle built from
``linalg.expm_hermitian`` of the total Hamiltonian, and every Monte Carlo
cell must be a plausible binomial frequency around its exact cell, so a
sampler that changes the Monte Carlo bytes still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gate_energetics.linalg import expm_hermitian
from gate_energetics.model import ModelParams, hamiltonians

from workloads import DEFAULT_SEED, Case

STRIDE = 97
PROB_TOL = 1e-10
IFT_TOL = 1e-10
# rounding of the 12-digit cells, relative; sigma values are of order 1-10
VALUE_TOL = 1e-9
# Chernoff bound P(|K/n - p| >= |q - p|) <= 2 exp(-n D(q || p)) on a binomial
# frequency q: n D <= 30 keeps false alarms near 1e-13 per cell, about 7.7
# standard errors where the normal approximation holds, and stays valid for
# cells with only a few expected counts, where standard errors are not
MC_LOG_TAIL = 30.0
ZERO_PROB = 1e-20

DIGESTS = Path(__file__).with_name("digests.json")
# energy label eps(psi_A) + eps(phi_B) of outcome m = 2 psi_A + phi_B, and dE[in, fin]
ENERGIES = np.array([(2 * (m >> 1) - 1) + (2 * (m & 1) - 1) for m in range(4)])
DELTA_E = ENERGIES[None, :] - ENERGIES[:, None]


def expected_files(case: Case) -> list[str]:
    if case.command == "sweep":
        return ["sweep.csv", "realizations.csv", "summary.json"]
    if case.command == "hist":
        return ["hist_dE.csv", "hist_ds.csv"]
    return ["mc_error.csv"] + (["photonic_error.csv"] if case.photonic else [])


def digests(out_dir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def times(case: Case) -> np.ndarray:
    """The evaluation times, with the same arithmetic as ``RunConfig.time_grid``."""
    p = case.params
    if case.command == "hist":
        return np.array(p["hist_times"])
    step = (p["t_max"] - p["t_min"]) / p["n_points"]
    return p["t_min"] + step * np.arange(p["n_points"])


class Oracle:
    """Exact joint tables from the eigendecomposition propagator."""

    def __init__(self, case: Case):
        p = case.params
        self.omega_L = p["omega_L"]
        self.h_tot = hamiltonians(ModelParams(omega_L=p["omega_L"], omega_int=p["omega_int"]))[2]
        p_a = np.array([p["alpha"], 1.0 - p["alpha"]])
        w_b = np.exp(-p["beta_B"] * p["omega_L"] * np.array([-1.0, 1.0]))
        self.p_in = np.kron(p_a, w_b / w_b.sum())

    def joint(self, t: float) -> np.ndarray:
        cond = np.abs(expm_hermitian(self.h_tot, -t)) ** 2  # cond[fin, in]
        return cond.T * self.p_in[:, None]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path.name}: missing final newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _strided(n: int) -> list[int]:
    return sorted(set(range(0, n, STRIDE)) | {n - 1})


def _cells(row: list[str], idx: list[int]) -> np.ndarray:
    return np.array([float(row[i]) if row[i] else math.nan for i in idx])


def _bernoulli_kl(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(q > 0, q * np.log(q / p), 0.0)
        b = np.where(q < 1, (1 - q) * np.log((1 - q) / (1 - p)), 0.0)
    return a + b


def _time_ok(cell: str, t: float, omega_L: float) -> bool:
    return abs(float(cell) - omega_L * t) <= 1e-11 * max(1.0, abs(omega_L * t))


def check_sweep(case: Case, out: Path, oracle: Oracle, ts: np.ndarray) -> list[str]:
    problems = []
    header, rows = _read_csv(out / "sweep.csv")
    if len(rows) != len(ts):
        return [f"sweep.csv: {len(rows)} rows, expected {len(ts)}"]
    joint_cols = [i for i, h in enumerate(header) if h.startswith("j_")]
    ift_col = header.index("ift")
    _, real_rows = _read_csv(out / "realizations.csv")
    if len(real_rows) != len(ts):
        problems.append(f"realizations.csv: {len(real_rows)} rows, expected {len(ts)}")
    for k in _strided(len(ts)):
        t, row = ts[k], rows[k]
        if not _time_ok(row[0], t, oracle.omega_L):
            problems.append(f"sweep.csv row {k}: time {row[0]} is not {t!r}")
            continue
        joint = _cells(row, joint_cols)
        exact = oracle.joint(t)
        gap = np.max(np.abs(joint - exact.ravel()))
        if not gap <= PROB_TOL:
            problems.append(f"sweep.csv row {k}: joint table off the oracle by {gap:.3e}")
        if not abs(joint.sum() - 1.0) <= PROB_TOL:
            problems.append(f"sweep.csv row {k}: joint table sums to {joint.sum():.15g}")
        ift = float(row[ift_col])
        if not abs(ift - 1.0) <= IFT_TOL:
            problems.append(f"sweep.csv row {k}: ift = {ift!r}")
        if k < len(real_rows):
            p_fin = exact.sum(axis=0)
            sigma = np.log(oracle.p_in)[:, None] - np.log(p_fin)[None, :]
            got = _cells(real_rows[k], list(range(1, 17)))
            gap = np.max(np.abs(got - sigma.ravel()) / np.maximum(1.0, np.abs(sigma.ravel())))
            if not gap <= VALUE_TOL:
                problems.append(f"realizations.csv row {k}: off the oracle by {gap:.3e}")
    summary = json.loads((out / "summary.json").read_text())
    if summary["grid"]["n_points"] != len(ts):
        problems.append(f"summary.json: n_points {summary['grid']['n_points']}")
    return problems


def check_hist(case: Case, out: Path, oracle: Oracle, ts: np.ndarray) -> list[str]:
    problems = []
    for name in ("hist_dE.csv", "hist_ds.csv"):
        _, rows = _read_csv(out / name)
        groups: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            groups.setdefault(row[0], []).append((float(row[1]), float(row[2])))
        keys = list(groups)
        if len(keys) != len(ts):
            problems.append(f"{name}: {len(keys)} times, expected {len(ts)}")
            continue
        for k in _strided(len(ts)):
            t = ts[k]
            if not _time_ok(keys[k], t, oracle.omega_L):
                problems.append(f"{name} time {k}: {keys[k]} is not {t!r}")
                continue
            atoms = groups[keys[k]]
            probs = np.array([p for _, p in atoms])
            if not abs(probs.sum() - 1.0) <= PROB_TOL:
                problems.append(f"{name} time {k}: probabilities sum to {probs.sum():.15g}")
            if name == "hist_dE.csv":
                exact = np.bincount((DELTA_E + 4).ravel(), weights=oracle.joint(t).ravel(),
                                    minlength=9)
                got = np.zeros(9)
                for value, prob in atoms:
                    got[int(round(value)) + 4] += prob
                gap = np.max(np.abs(got - exact))
                if not gap <= PROB_TOL:
                    problems.append(f"{name} time {k}: off the oracle by {gap:.3e}")
            else:
                ift = sum(p * math.exp(-v) for v, p in atoms)
                if not abs(ift - 1.0) <= VALUE_TOL:
                    problems.append(f"{name} time {k}: ift = {ift!r}")
    return problems


def check_mc(case: Case, out: Path, oracle: Oracle, ts: np.ndarray) -> list[str]:
    problems = []
    header, rows = _read_csv(out / "mc_error.csv")
    if len(rows) != len(ts):
        return [f"mc_error.csv: {len(rows)} rows, expected {len(ts)}"]
    cols = [i for i, h in enumerate(header) if h.startswith("err_j_")]
    n = case.params["samples"]
    for k, row in enumerate(rows):
        if not _time_ok(row[0], ts[k], oracle.omega_L):
            problems.append(f"mc_error.csv row {k}: time {row[0]} is not {ts[k]!r}")
            continue
        err = _cells(row, cols)
        p = oracle.joint(ts[k]).ravel()
        zero = p < ZERO_PROB
        if np.any(err[zero] != 0.0):
            problems.append(f"mc_error.csv row {k}: a zero-probability cell has error")
        # the cell holds |p - q|; q is a whole number of shots on either side of p
        log_tail = np.full(p.shape, np.inf)
        for q in (p + err, p - err):
            q = np.round(q * n) / n
            valid = ~zero & (q >= 0.0) & (q <= 1.0)
            log_tail[valid] = np.minimum(log_tail[valid], n * _bernoulli_kl(q, p)[valid])
        bad = ~zero & ~(log_tail <= MC_LOG_TAIL)
        if bad.any():
            worst = int(np.argmax(np.where(bad, log_tail, -np.inf)))
            problems.append(f"mc_error.csv row {k} cell {worst}: error {err[worst]:.3e} at "
                            f"p = {p[worst]:.3e} has tail bound exp(-{log_tail[worst]:.3g})")
    if case.photonic:
        _, ph_rows = _read_csv(out / "photonic_error.csv")
        if len(ph_rows) != len(ts):
            problems.append(f"photonic_error.csv: {len(ph_rows)} rows, expected {len(ts)}")
        for k in _strided(min(len(ph_rows), len(ts))):
            cells = _cells(ph_rows[k], list(range(1, 17)))
            if not (_time_ok(ph_rows[k][0], ts[k], oracle.omega_L)
                    and np.all((cells >= 0.0) & (cells <= 1.0))):
                problems.append(f"photonic_error.csv row {k}: bad time or cell outside [0, 1]")
    return problems


def check_outputs(case: Case, out: Path) -> list[str]:
    """Every problem found in one sample's output directory."""
    names = expected_files(case)
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return [f"missing output {name}" for name in missing]
    problems = []
    if case.seed == DEFAULT_SEED and not case.tiny:
        recorded = json.loads(DIGESTS.read_text())[case.workload]
        actual = digests(out, recorded)
        problems += [f"{name}: SHA-256 differs from the recorded digest"
                     for name in recorded if actual[name] != recorded[name]]
    oracle, ts = Oracle(case), times(case)
    check = {"sweep": check_sweep, "hist": check_hist, "compare": check_mc}[case.command]
    try:
        problems += check(case, out, oracle, ts)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
