"""Scenario configuration: defaults, file parsing, validation, echo.

Config files are line-oriented ``key = value`` entries under ``[section]``
headers.  Unknown sections or keys are hard errors so typos cannot
silently fall back to defaults; every effective run echoes its full
configuration back out so results stay reproducible from the output
directory alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from sectrack.channel import MAX_BEAMS, ChannelConfig
from sectrack.cipher import DEFAULT_RTT_BUCKET
from sectrack.geometry import Position, ZoneConfig
from sectrack.protocol import AdversaryModel


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


def _key(section: str, default: Any, bound: str = "") -> Any:
    """A file key under [section]; `bound` is "positive", "nonnegative" or none."""
    if bound not in ("", "positive", "nonnegative"):
        raise ValueError(f"unknown bound {bound!r}")
    return field(default=default, metadata={"section": section, "bound": bound})


@dataclass
class ScenarioConfig:
    """Every scenario parameter.

    Each file key is declared once, by ``_key(section, default, bound)``;
    SECTIONS, the parser's types and validate's one-sided checks are read
    from those declarations.
    """

    area_side: float = _key("sim", 400.0, "positive")
    node_count: int = _key("sim", 60, "positive")
    malicious_count: int = _key("sim", 4, "nonnegative")
    sectors: int = _key("sim", 4, "positive")
    duration: float = _key("sim", 500.0, "positive")
    sample_interval: float = _key("sim", 5.0, "positive")
    master_seed: int = _key("sim", 1)
    scenario: str = _key("sim", "all")
    seeds: int = _key("sim", 50, "positive")
    trials: int = _key("sim", 100_000, "positive")
    # ChannelConfig checks these.
    c: float = _key("channel", ChannelConfig.c)
    range_limit: float = _key("channel", ChannelConfig.range_limit)
    sigma_t: float = _key("channel", ChannelConfig.sigma_t)
    e_total: float = _key("channel", ChannelConfig.e_total)
    beta: float = _key("channel", ChannelConfig.beta)
    j_max: int = _key("sfv", 4, "positive")
    reauth_interval: float = _key("sfv", 25.0, "positive")
    rtt_bucket: float = _key("sfv", DEFAULT_RTT_BUCKET, "positive")
    n_keys: int = _key("sfv", 4, "positive")
    # AdversaryModel checks these.
    p_wh: float = _key("sfv", AdversaryModel.p_wh)
    p_i: float = _key("sfv", AdversaryModel.p_i)
    p_r: float = _key("sfv", AdversaryModel.p_r)
    auth_duration: float = _key("sfv", 2.0, "nonnegative")
    alpha: float = _key("zone", ZoneConfig.alpha, "nonnegative")
    rho_min: float = _key("zone", ZoneConfig.rho_min, "positive")
    rho_max: float = _key("zone", ZoneConfig.rho_max, "positive")
    eps_gap: float = _key("zone", 2.0, "positive")
    v_min: float = _key("mobility", 1.0, "nonnegative")
    v_max: float = _key("mobility", 10.0, "nonnegative")
    model: str = _key("mobility", "random_waypoint")
    lane_spacing: float = _key("mobility", 40.0, "nonnegative")
    heading: float = _key("mobility", 0.0)

    # Programmatic-only scenario construction hooks; never read from files.
    placements: dict[int, Position] = field(default_factory=dict, repr=False)
    static_ids: frozenset[int] = field(default=frozenset(), repr=False)
    inject_failures: tuple[tuple[float, int], ...] = field(default=(), repr=False)

    def _build(self, model: type) -> Any:
        """The sub-model whose fields are the keys of the same names."""
        return model(**{f.name: getattr(self, f.name) for f in fields(model)})

    def channel_config(self) -> ChannelConfig:
        return self._build(ChannelConfig)

    def zone_config(self) -> ZoneConfig:
        return self._build(ZoneConfig)

    def adversary_model(self) -> AdversaryModel:
        return self._build(AdversaryModel)

    def sample_times(self) -> tuple[float, ...]:
        """Tracking instants k * sample_interval for k >= 1, none past duration."""
        n = math.floor(self.duration / self.sample_interval + 1e-9)
        return tuple(self.sample_interval * k for k in range(1, n + 1))


_FILE_KEYS = tuple(f for f in fields(ScenarioConfig) if "section" in f.metadata)
SECTIONS: dict[str, tuple[str, ...]] = {
    section: tuple(f.name for f in _FILE_KEYS if f.metadata["section"] == section)
    for section in dict.fromkeys(f.metadata["section"] for f in _FILE_KEYS)
}
_TYPES = {f.name: type(f.default) for f in _FILE_KEYS}


def _coerce(key: str, raw: str, where: str) -> Any:
    raw = raw.strip()
    kind = _TYPES[key]
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        name = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: key '{key}' expects {name}, got '{raw}'") from None


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
    for f in _FILE_KEYS:
        v, bound = getattr(cfg, f.name), f.metadata["bound"]
        # nan passes every ordered comparison, and inf runs forever.
        if type(f.default) is float and not math.isfinite(v):
            raise ConfigError(f"'{f.name}' must be a finite number, got {v}")
        if bound == "positive" and v <= 0 or bound == "nonnegative" and v < 0:
            raise ConfigError(f"'{f.name}' must be {bound}, got {v}")
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
    if cfg.v_min > cfg.v_max:
        raise ConfigError(
            f"'v_min' ({cfg.v_min}) must not exceed 'v_max' ({cfg.v_max})"
        )
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
    if not 0 <= cfg.master_seed < 1 << 64:
        # Stream seeds keep only the low 64 bits, so a wider seed would
        # silently run as another one.
        raise ConfigError(f"'master_seed' must be in [0, 2**64 - 1], got {cfg.master_seed}")
    # The channel and adversary models check their own keys.
    for section, build in (("channel", cfg.channel_config), ("sfv", cfg.adversary_model)):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None


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
