"""Scenario configuration: defaults, file parsing, validation, echo.

Config files are line-oriented ``key = value`` entries under ``[section]``
headers.  Unknown sections or keys are hard errors so typos cannot
silently fall back to defaults; every effective run echoes its full
configuration back out so results stay reproducible from the output
directory alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from sectrack.channel import MAX_BEAMS, ChannelConfig
from sectrack.geometry import Position, ZoneConfig


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


SCENARIO_NAMES = (
    "detection",
    "multi-target",
    "trajectory",
    "switching",
    "energy",
    "friendliness",
    "all",
)


@dataclass
class ScenarioConfig:
    # [sim]
    area_side: float = 400.0
    node_count: int = 60
    malicious_count: int = 4
    sectors: int = 4
    duration: float = 500.0
    sample_interval: float = 5.0
    master_seed: int = 1
    scenario: str = "all"
    seeds: int = 50
    trials: int = 100_000
    # [channel]
    c: float = 3.0e8
    range_limit: float = 250.0
    sigma_t: float = 5.0e-9
    e_total: float = 1.0
    beta: float = 0.06
    # [sfv]
    j_max: int = 4
    reauth_interval: float = 25.0
    rtt_bucket: float = 1.0e-5
    n_keys: int = 4
    p_wh: float = 0.0
    p_i: float = 0.0
    p_r: float = 0.0
    auth_duration: float = 2.0
    # [zone]
    alpha: float = 0.5
    rho_min: float = 5.0
    rho_max: float = 150.0
    eps_gap: float = 2.0
    # [mobility]
    v_min: float = 1.0
    v_max: float = 10.0
    model: str = "random_waypoint"
    lane_spacing: float = 40.0
    heading: float = 0.0

    # Programmatic-only scenario construction hooks; never read from files.
    placements: dict[int, Position] | None = field(default=None, repr=False)
    static_ids: frozenset[int] | None = field(default=None, repr=False)
    inject_failures: tuple[tuple[float, int], ...] = field(default=(), repr=False)

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            c=self.c,
            range_limit=self.range_limit,
            sigma_t=self.sigma_t,
            e_total=self.e_total,
            beta=self.beta,
        )

    def zone_config(self) -> ZoneConfig:
        return ZoneConfig(
            alpha=self.alpha,
            rho_min=self.rho_min,
            rho_max=self.rho_max,
        )

    def sample_times(self) -> tuple[float, ...]:
        """Tracking instants k * sample_interval for k >= 1, none past duration."""
        n = math.floor(self.duration / self.sample_interval + 1e-9)
        return tuple(self.sample_interval * k for k in range(1, n + 1))

    def lane_start(self, lane: int) -> Position:
        """Default start of the parallel-path target on lane `lane`."""
        return Position(
            self.area_side * 0.1,
            self.area_side / 2.0 + (lane - (self.malicious_count - 1) / 2.0) * self.lane_spacing,
        )


SECTIONS: dict[str, tuple[str, ...]] = {
    "sim": (
        "area_side",
        "node_count",
        "malicious_count",
        "sectors",
        "duration",
        "sample_interval",
        "master_seed",
        "scenario",
        "seeds",
        "trials",
    ),
    "channel": ("c", "range_limit", "sigma_t", "e_total", "beta"),
    "sfv": (
        "j_max",
        "reauth_interval",
        "rtt_bucket",
        "n_keys",
        "p_wh",
        "p_i",
        "p_r",
        "auth_duration",
    ),
    "zone": ("alpha", "rho_min", "rho_max", "eps_gap"),
    "mobility": ("v_min", "v_max", "model", "lane_spacing", "heading"),
}

_DEFAULTS = ScenarioConfig()
_FILE_KEYS = tuple(key for keys in SECTIONS.values() for key in keys)
_INT_KEYS = {key for key in _FILE_KEYS if type(getattr(_DEFAULTS, key)) is int}
_STR_KEYS = {key for key in _FILE_KEYS if type(getattr(_DEFAULTS, key)) is str}
_FLOAT_KEYS = tuple(key for key in _FILE_KEYS if type(getattr(_DEFAULTS, key)) is float)


def _coerce(key: str, raw: str, where: str) -> Any:
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        kind = "integer" if key in _INT_KEYS else "number"
        raise ConfigError(f"{where}: key '{key}' expects an {kind}, got '{raw}'") from None


def parse_config(
    path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
) -> ScenarioConfig:
    """Build the effective config from a file plus flag overrides.

    `overrides` maps ``section.key`` to raw string values and wins over
    the file; defaults fill everything else.  Unknown keys and malformed
    lines are reported with their location.
    """
    values: dict[str, Any] = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        section = None
        for lineno, line in enumerate(p.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", ";")):
                continue
            where = f"{p}:{lineno}"
            if stripped.startswith("[") and stripped.endswith("]"):
                section = stripped[1:-1].strip()
                if section not in SECTIONS:
                    raise ConfigError(f"{where}: unknown section [{section}]")
                continue
            if "=" not in stripped:
                raise ConfigError(f"{where}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if section is None:
                raise ConfigError(f"{where}: key '{key}' appears before any [section]")
            if key not in SECTIONS[section]:
                raise ConfigError(f"{where}: unknown key '{key}' in section [{section}]")
            values[key] = _coerce(key, raw, where)

    for dotted, raw in (overrides or {}).items():
        sec, _, key = dotted.partition(".")
        if sec not in SECTIONS or key not in SECTIONS[sec]:
            raise ConfigError(f"override: unknown key '{dotted}'")
        values[key] = _coerce(key, raw, f"override {dotted}")

    cfg = ScenarioConfig(**values)
    validate(cfg)
    return cfg


def validate(cfg: ScenarioConfig) -> None:
    # nan passes every ordered comparison below, and inf runs forever.
    for name in _FLOAT_KEYS:
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"'{name}' must be a finite number, got {getattr(cfg, name)}")

    def positive(name: str) -> None:
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"'{name}' must be positive, got {getattr(cfg, name)}")

    for name in (
        "area_side",
        "node_count",
        "sectors",
        "duration",
        "sample_interval",
        "seeds",
        "trials",
        "j_max",
        "reauth_interval",
        "rtt_bucket",
        "n_keys",
        "rho_min",
        "rho_max",
        "eps_gap",
        "c",
    ):
        positive(name)
    if cfg.malicious_count < 0:
        raise ConfigError(f"'malicious_count' must be nonnegative, got {cfg.malicious_count}")
    if cfg.malicious_count >= cfg.node_count:
        raise ConfigError(
            f"'malicious_count' ({cfg.malicious_count}) must be below "
            f"'node_count' ({cfg.node_count})"
        )
    if cfg.sectors > MAX_BEAMS:
        raise ConfigError(
            f"'sectors' ({cfg.sectors}) must not exceed the channel model's "
            f"{MAX_BEAMS} beams"
        )
    for name in ("alpha", "lane_spacing"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"'{name}' must be nonnegative, got {getattr(cfg, name)}")
    if cfg.v_min < 0 or cfg.v_max < 0:
        raise ConfigError("'v_min' and 'v_max' must be nonnegative")
    if cfg.v_min > cfg.v_max:
        raise ConfigError(
            f"'v_min' ({cfg.v_min}) must not exceed 'v_max' ({cfg.v_max})"
        )
    for name in ("p_wh", "p_i", "p_r"):
        v = getattr(cfg, name)
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"'{name}' must be in [0, 1], got {v}")
    if cfg.rho_min > cfg.rho_max:
        raise ConfigError(
            f"'rho_min' ({cfg.rho_min}) must not exceed 'rho_max' ({cfg.rho_max})"
        )
    if cfg.sample_interval > cfg.duration:
        # Efficiency is the share of the tracking instants k * sample_interval
        # inside the run, so a run needs at least one.
        raise ConfigError(
            f"'sample_interval' ({cfg.sample_interval}) must not exceed "
            f"'duration' ({cfg.duration})"
        )
    if cfg.scenario not in SCENARIO_NAMES:
        raise ConfigError(
            f"'scenario' must be one of {', '.join(SCENARIO_NAMES)}; got '{cfg.scenario}'"
        )
    if cfg.model not in ("random_waypoint", "parallel_path"):
        raise ConfigError(f"'model' must be random_waypoint or parallel_path, got '{cfg.model}'")
    if cfg.auth_duration < 0:
        raise ConfigError(f"'auth_duration' must be nonnegative, got {cfg.auth_duration}")
    if not 0 <= cfg.master_seed < 1 << 64:
        # Stream seeds keep only the low 64 bits, so a wider seed would
        # silently run as another one.
        raise ConfigError(f"'master_seed' must be in [0, 2**64 - 1], got {cfg.master_seed}")
    if cfg.model == "parallel_path":
        _check_lane_starts(cfg)
    try:
        cfg.channel_config()  # re-runs the channel invariants (beta bound etc.)
    except ValueError as exc:
        raise ConfigError(f"[channel] {exc}") from None


def _check_lane_starts(cfg: ScenarioConfig) -> None:
    # Lanes go to the moving targets in id order, as the engine assigns them;
    # a placed target starts where it is placed instead.
    static_ids = cfg.static_ids or frozenset()
    placements = cfg.placements or {}
    lane = 0
    for nid in range(cfg.node_count - cfg.malicious_count, cfg.node_count):
        if nid in static_ids:
            continue
        x, y = cfg.lane_start(lane)  # x is a tenth of the way across, always inside
        if nid not in placements and not 0.0 <= y <= cfg.area_side:
            raise ConfigError(
                f"parallel_path lane {lane} would start at ({x:g}, {y:g}), outside the "
                f"{cfg.area_side:g} m area; reduce 'lane_spacing' ({cfg.lane_spacing:g}) "
                f"or 'malicious_count' ({cfg.malicious_count})"
            )
        lane += 1


def echo_config(cfg: ScenarioConfig, path: str | Path) -> Path:
    """Write the effective config; parsing it back reproduces cfg exactly."""
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            v = getattr(cfg, key)
            lines.append(f"{key} = {v!r}" if isinstance(v, float) else f"{key} = {v}")
        lines.append("")
    out = Path(path)
    out.write_text("\n".join(lines))
    return out
