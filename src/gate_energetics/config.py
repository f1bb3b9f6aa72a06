"""Run configuration and the flat key/value config-file format.

Config files hold one ``key = value`` assignment per line; blank lines and
lines starting with ``#`` are ignored.  Nested sections use dotted keys
(``photonic.T_H = 0.985``).  Unknown and repeated keys are errors.

``RunConfig`` holds the physics parameters in three plain records:
``ModelParams`` (omega_L, omega_int), ``ThermalSpec`` (alpha, beta_B) and
``OpticalParams`` (the ``photonic.*`` keys, each the attribute of the same
name).  ``RunConfig.validate``, which each command of ``sweep`` calls first, is
the one place that range-checks a setting: the records' fields first, then the
rules that span the run.  Every rejection is a ``ConfigError`` whose message is
``<key>: <rule>``, which the CLI prints as ``config error: <key>: <rule>``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import MAX_FREQUENCY, ModelParams, ThermalSpec
from .photonic import OpticalParams

DEFAULT_T_MAX = 3.0 * math.pi / math.sqrt(26.0)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


@dataclass
class RunConfig:
    """All knobs of the sweep, histogram and comparison runs, each with one
    way in: ``photonic`` is set by ``compare --photonic`` alone, and every
    other field, ``seed`` and ``samples`` included, by the config file."""

    t_min: float = 0.0
    t_max: float = DEFAULT_T_MAX
    n_points: int = 200
    moments_max: int = 5
    hist_times: tuple[float, ...] = (0.31, 0.62)
    samples: int = 10**6
    seed: int = 42
    photonic: bool = False
    model: ModelParams = field(default_factory=ModelParams)
    thermal: ThermalSpec = field(default_factory=ThermalSpec)
    optical: OpticalParams = field(default_factory=OpticalParams)

    @property
    def step(self) -> float:
        return (self.t_max - self.t_min) / self.n_points

    def validate(self) -> None:
        """Check every range rule, the physics fields first; the first rule that
        fails raises a ConfigError naming its key.  Every command calls it first."""

        def require(ok: bool, key: str, rule: str) -> None:
            if not ok:
                raise ConfigError(f"{key}: {rule}")

        model, thermal, optical = self.model, self.thermal, self.optical
        bound = f"{MAX_FREQUENCY:.3g}"
        require(0.0 < model.omega_L < MAX_FREQUENCY, "omega_L", f"must lie in (0, {bound})")
        require(0.0 <= model.omega_int < MAX_FREQUENCY, "omega_int", f"must lie in [0, {bound})")
        # a subnormal Delta keeps too few bits for omega_L / 2 Delta <= 1
        require(
            model.delta >= sys.float_info.min,
            "omega_L",
            "must make Delta = hypot(omega_L, omega_int) / 2 a normal float",
        )
        require(0.0 < thermal.alpha < 1.0, "alpha", "must lie in (0, 1)")
        # the Landauer bound needs a positive beta
        require(0.0 < thermal.beta_B < math.inf, "beta_B", "must be finite and positive")
        for name in ("T_H", "T_V", "atten_H"):
            require(0.0 <= getattr(optical, name) <= 1.0, f"photonic.{name}", "must lie in [0, 1]")
        require(0.0 <= optical.eps < 1.0, "photonic.eps", "must lie in [0, 1)")
        window = "t_min, t_max"
        require(
            math.isfinite(self.t_min) and math.isfinite(self.t_max) and self.t_min < self.t_max,
            window,
            "must be finite with t_min < t_max",
        )
        # above 2**53 the grid's indices are no longer exact doubles
        require(2 <= self.n_points <= 2**53, "n_points", "must lie in [2, 2**53]")
        require(math.isfinite(self.step), window, "the grid step overflows")
        # the propagator takes cos, sin and exp of Delta t and omega_L t <= 2 Delta t
        largest_phase = 2.0 * model.delta * max(abs(self.t_min), abs(self.t_max))
        require(math.isfinite(largest_phase), window, "the phase Delta t overflows")
        # the dE moments take 4.0**h, which is finite up to h = 511 (2^1022)
        require(1 <= self.moments_max <= 511, "moments_max", "must lie in [1, 511]")
        require(
            all(math.isfinite(t) for t in self.hist_times) and len(self.hist_times) > 0,
            "hist_times",
            "must be a non-empty list of finite times",
        )
        # Generator.multinomial counts in int64
        require(1 <= self.samples < 2**63, "samples", "must lie in [1, 2**63)")
        require(0 <= self.seed < 2**64, "seed", "must lie in [0, 2**64)")

    def time_grid(self) -> np.ndarray:
        """Uniform sweep grid over the half-open interval [t_min, t_max).

        The half-open convention keeps the grid free of the exact period
        endpoint, so peak searches land on the first oscillation rather
        than tying with the repeated extremum at t_max.  A grid that numpy
        cannot allocate is a ``ConfigError``, and so is a step of at most
        1e-11 of the largest |t|, whose times the 12 significant digits of
        the CSV cells may print alike (or that repeat as floats); a larger
        step prints each time apart, the rounding of the grid included.
        """
        try:
            t = self.t_min + self.step * np.arange(self.n_points)
        except MemoryError as exc:
            raise ConfigError(f"n_points: {self.n_points} times: {exc}") from None
        if not self.step > 1.0001e-11 * max(abs(self.t_min), abs(self.t_max)):
            raise ConfigError(
                f"t_min, t_max: {self.n_points} times in [{self.t_min!r}, {self.t_max!r})"
                " do not increase strictly at 12 significant digits"
            )
        return t

    def hist_grid(self) -> np.ndarray:
        """The ``hist_times``, each of which must lie in [t_min, t_max]."""
        for t in self.hist_times:
            if not self.t_min <= t <= self.t_max:
                raise ConfigError(
                    f"hist_times: {t} outside [{self.t_min:.6g}, {self.t_max:.6g}]"
                )
        return np.asarray(self.hist_times, dtype=float)


def _parse_times(raw: str) -> tuple[float, ...]:
    parts = [part.strip() for part in raw.split(",")]
    if "" in parts:
        raise ValueError(f"empty entry in {raw!r}")
    return tuple(map(float, parts))


# run-level key, which is its RunConfig attribute -> parser
_RUN_KEYS = {
    "t_min": float,
    "t_max": float,
    "n_points": int,
    "moments_max": int,
    "hist_times": _parse_times,
    "samples": int,
    "seed": int,
}

# RunConfig attribute -> (key prefix, the record of those keys)
_PARTS = {
    "model": ("", ModelParams),
    "thermal": ("", ThermalSpec),
    "optical": ("photonic.", OpticalParams),
}

# physics key -> (RunConfig attribute, field); every physics field is a float
_PHYSICS_KEYS = {
    prefix + f.name: (part, f.name) for part, (prefix, cls) in _PARTS.items() for f in fields(cls)
}


def parse_config(path: str | Path) -> RunConfig:
    """Read a config file on top of the defaults.  Unknown or repeated keys are errors."""
    run: dict = {}
    physics: dict[str, dict] = {part: {} for part in _PARTS}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _RUN_KEYS:
            attr, parse, target = key, _RUN_KEYS[key], run
        elif key in _PHYSICS_KEYS:
            part, attr = _PHYSICS_KEYS[key]
            parse, target = float, physics[part]
        else:
            raise ConfigError(f"unknown config key: {key!r}")
        if attr in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            target[attr] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    for part, (_, cls) in _PARTS.items():
        run[part] = cls(**physics[part])
    return RunConfig(**run)
