"""The written statistics against 50-digit arithmetic that follows the physics.

tests/reference.py repeats the grid path's float operations one time at a
time, so it proves the grid equals the per-point code, not that either
equals the physics.  This module computes each row's statistics again with
``mpmath`` at 50 digits, from the row's float inputs alone: its time t and
the config's alpha, beta_B, omega_L and omega_int.  Delta is exact from the
float frequencies, and the phase Delta t is exact from the float t, so the
rounding of fl(Delta * t) counts as the program's error, not as the input's.

Units: hbar = 1, times and frequencies as the config gives them.  The energy
of |ab> is (omega_L / 2)(z_a + z_b) with z_0 = -1 and z_1 = +1, and the
package writes it in units of omega_L / 2, the labels -2, 0, 0, +2 of
|00>, |01>, |10>, |11>; so dE = E_fin - E_in is in those units too.

The physics of one row:
  - the Gibbs populations of the product input, each qubit's
    p(z) = e^{-beta omega_L z} / Z: alpha and 1 - alpha for the control
    (beta_A is defined so), and 1 / (1 + e^{+-2 beta_B omega_L}) for the
    target;
  - the gate leaves |00> and |01> alone and rotates |10> <-> |11> with the
    transition probability s = (omega_int / 2 Delta)^2 sin^2(Delta t);
  - the joint table j[in, fin] = p_in[in] * P(fin | in);
  - the raw dE moments sum_{in, fin} j[in, fin] (E_fin - E_in)^h.

Each check compares ``SweepGrid.joint`` (the ``j_*`` columns of sweep.csv)
and ``SweepGrid.de_moments`` (``dE_m1..dE_m5``) with it on a config's 200
times.  The relative error is taken over the cells whose exact value is a
normal float; the absolute error over every cell, so that a cell the program
sets to 0 below the smallest normal population is held by it.  The bounds
were fixed before the first run, at twice the worst errors that a prototype
of this oracle measured, and ``BOUNDS`` gives the worst of this module's
first run beside each.
"""

import mpmath
import numpy as np
import pytest

from gate_energetics import sweep
from gate_energetics.config import RunConfig
from gate_energetics.model import ModelParams, ThermalSpec

MOMENTS = 5
LABELS = (-2, 0, 0, 2)  # E of |00>, |01>, |10>, |11> in units of omega_L / 2

CONFIGS = {
    "default": RunConfig(),
    "(0.3, 7)": RunConfig(model=ModelParams(omega_L=0.3, omega_int=7.0)),
    "omega_L = 3": RunConfig(model=ModelParams(omega_L=3.0)),
    "alpha = 0.7, beta_B = 0.1": RunConfig(thermal=ThermalSpec(alpha=0.7, beta_B=0.1)),
    "alpha = 1e-6, beta_B = 3": RunConfig(thermal=ThermalSpec(alpha=1e-6, beta_B=3.0)),
    "omega_L = 2000": RunConfig(model=ModelParams(omega_L=2000.0)),
    "t_min = 1e4": RunConfig(t_min=1e4, t_max=1e4 + 3),
}

# the bound of each error, and beside it the worst of the first run.  The
# relative error is the same for j_* and every dE_m* order: the phase of s
# dominates both.  The long window's is the phase error of fl(Delta * t),
# which grows with Delta t; it is recorded here, not excused
BOUNDS = {
    #                               relative            absolute, j_*       absolute, dE_m*
    #                               bound    worst      bound    worst      bound    worst
    "default":                   ((1.2e-13, 6.0e-14), (9.8e-16, 4.9e-16), (2.2e-14, 1.1e-14)),
    "(0.3, 7)":                  ((7.2e-13, 3.6e-13), (8.6e-16, 4.3e-16), (2.2e-14, 1.1e-14)),
    "omega_L = 3":               ((1.26e-13, 6.3e-14), (9.0e-16, 4.5e-16), (2.6e-14, 1.3e-14)),
    "alpha = 0.7, beta_B = 0.1": ((1.2e-13, 6.0e-14), (3.4e-16, 1.7e-16), (7.0e-15, 3.5e-15)),
    "alpha = 1e-6, beta_B = 3":  ((1.2e-13, 6.0e-14), (1.52e-15, 7.6e-16), (4.8e-14, 2.4e-14)),
    "omega_L = 2000":            ((3.4e-11, 1.7e-11), (1.2e-15, 6.0e-16), (4.2e-17, 2.1e-17)),
    "t_min = 1e4":               ((4.0e-9, 2.0e-9), (3.8e-12, 1.9e-12), (8.4e-11, 4.2e-11)),
}


def exact_rows(cfg: RunConfig, times: list[float]):
    """For each float time of ``times``, the 16 cells of j[in, fin],
    row-major, and the dE moments of orders 1..MOMENTS, at the working
    precision."""
    mp = mpmath.mp
    w_l, w_int = mp.mpf(cfg.model.omega_L), mp.mpf(cfg.model.omega_int)
    delta = mp.sqrt(w_l**2 + w_int**2) / 2
    alpha = mp.mpf(cfg.thermal.alpha)
    x = 2 * mp.mpf(cfg.thermal.beta_B) * w_l
    p_a, p_b = (alpha, 1 - alpha), (1 / (1 + mp.exp(-x)), 1 / (1 + mp.exp(x)))
    p_in = [p_a[a] * p_b[b] for a in (0, 1) for b in (0, 1)]
    for t in times:
        s = (w_int / (2 * delta)) ** 2 * mp.sin(delta * mp.mpf(t)) ** 2
        # P(fin | in): |00> and |01> stay, |10> <-> |11> with probability s
        moves = {(0, 0): 1, (1, 1): 1, (2, 2): 1 - s, (3, 3): 1 - s, (2, 3): s, (3, 2): s}
        joint = [p_in[i] * moves.get((i, f), 0) for i in range(4) for f in range(4)]
        moments = [
            mp.fsum(joint[4 * i + f] * (LABELS[f] - LABELS[i]) ** h
                    for i in range(4) for f in range(4))
            for h in range(1, MOMENTS + 1)
        ]
        yield joint, moments


def errors(computed: np.ndarray, exact: list) -> tuple[float, float]:
    """The worst relative error over the cells whose exact value is a normal
    float, and the worst absolute error over every cell; every computed
    cell must be finite, which no comparison below would catch."""
    assert np.isfinite(computed).all(), computed
    rel = absolute = 0.0
    for x, r in zip(computed.ravel().tolist(), exact):
        err = abs(mpmath.mpf(x) - r)
        absolute = max(absolute, float(err))
        if abs(r) >= np.finfo(float).tiny:
            rel = max(rel, float(err / abs(r)))
    return rel, absolute


@pytest.mark.parametrize("name", list(CONFIGS))
def test_joint_and_de_moments_hold_their_digits_against_50_digit_physics(name):
    cfg = CONFIGS[name]
    (grid,) = sweep._blocks(cfg, cfg.time_grid())
    assert len(grid.t) == 200 and cfg.moments_max >= MOMENTS
    worst = [0.0] * 4  # relative j, relative dE, absolute j, absolute dE
    with mpmath.workdps(50):
        for i, (joint, moments) in enumerate(exact_rows(cfg, grid.t.tolist())):
            rel_j, abs_j = errors(grid.joint[i], joint)
            rel_e, abs_e = errors(grid.de_moments[i, :MOMENTS], moments)
            worst = [max(w, e) for w, e in zip(worst, (rel_j, rel_e, abs_j, abs_e))]
    (rel, _), (abs_j, _), (abs_e, _) = BOUNDS[name]
    measured = dict(zip(("rel j", "rel dE", "abs j", "abs dE"), worst))
    assert worst[0] <= rel and worst[1] <= rel, measured
    assert worst[2] <= abs_j and worst[3] <= abs_e, measured
