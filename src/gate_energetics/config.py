"""Run configuration and the flat key/value config-file format.

Config files hold one ``key = value`` assignment per line; blank lines and
lines starting with ``#`` are ignored.  Nested sections use dotted keys
(``photonic.T_H = 0.985``).  Unknown and repeated keys are errors.

Each physics parameter is range-checked once, by the object that owns it:
``ModelParams`` (omega_L, omega_int), ``ThermalSpec`` (alpha, beta_B) and
``OpticalParams`` (the ``photonic.*`` keys, each the attribute of the same
name).  ``RunConfig`` holds those objects, and its ``validate`` checks the
rules that span the run and one rule of a single field, ``beta_B > 0``,
which the Landauer bound needs and ``ThermalSpec`` does not ask.  Every
rejection is a ``ConfigError`` whose message starts with the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import ModelParams, ThermalSpec
from .photonic import OpticalParams
from .sampler import SampleConfig

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
        """Check the run-level rules; the physics objects checked their own fields."""

        def require(ok: bool, key: str, message: str) -> None:
            if not ok:
                raise ConfigError(f"{key}: {message}")

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
        largest_phase = 2.0 * self.model.delta * max(abs(self.t_min), abs(self.t_max))
        require(math.isfinite(largest_phase), window, "the phase Delta t overflows")
        # the dE moments take 4.0**h, which is finite up to h = 511 (2^1022)
        require(1 <= self.moments_max <= 511, "moments_max", "must lie in [1, 511]")
        require(
            all(math.isfinite(t) for t in self.hist_times) and len(self.hist_times) > 0,
            "hist_times",
            "must be a non-empty list of finite times",
        )
        # ThermalSpec allows beta_B = 0; the Landauer bound needs a positive beta
        require(self.thermal.beta_B > 0, "beta_B", "must be positive")
        _build("samples", SampleConfig, n_samples=self.samples)
        _build("seed", SampleConfig, seed=self.seed)

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


def _build(key: str, factory, **kwargs):
    """``factory(**kwargs)``, with a ValueError reported as a ConfigError naming ``key``."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_times(raw: str) -> tuple[float, ...]:
    parts = [part.strip() for part in raw.split(",")]
    if "" in parts:
        raise ValueError(f"empty entry in {raw!r}")
    return tuple(map(float, parts))


# run-level key -> (RunConfig attribute, parser)
_RUN_KEYS = {
    "t_min": ("t_min", float),
    "t_max": ("t_max", float),
    "n_points": ("n_points", int),
    "moments_max": ("moments_max", int),
    "hist_times": ("hist_times", _parse_times),
    "samples": ("samples", int),
    "seed": ("seed", int),
}

# RunConfig attribute -> (key prefix, the class that owns and checks those keys)
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
    seen: set[str] = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in _RUN_KEYS:
            attr, parse = _RUN_KEYS[key]
            target = run
        elif key in _PHYSICS_KEYS:
            part, attr = _PHYSICS_KEYS[key]
            parse, target = float, physics[part]
        else:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            target[attr] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    for part, (prefix, cls) in _PARTS.items():
        try:
            run[part] = cls(**physics[part])
        except ValueError as exc:
            # each constructor's message starts with the field name
            raise ConfigError(f"{prefix}{exc}") from None
    return RunConfig(**run)
