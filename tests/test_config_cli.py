"""Config parsing, the config's own checks, echo round-trip, and the CLI surface."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sectrack
from sectrack.channel import MAX_BEAMS
from sectrack.cli import main
from sectrack.config import (
    ConfigError,
    SECTIONS,
    ScenarioConfig,
    echo_config,
    parse_config,
)
from sectrack.engine import Engine
from sectrack.geometry import Position


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg == ScenarioConfig()

    def test_defaults_match_reference_deployment(self):
        cfg = ScenarioConfig()
        assert cfg.area_side == 400.0
        assert cfg.node_count == 60
        assert cfg.range_limit == 250.0
        assert cfg.duration == 500.0
        assert cfg.sample_interval == 5.0
        assert cfg.sectors == 4

    def test_sections_and_values(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "[sim]\n"
            "node_count = 30\n"
            "master_seed = 99\n"
            "# comment line\n"
            "[channel]\n"
            "sigma_t = 1e-8\n"
            "[mobility]\n"
            "v_min = 2\n"
            "v_max = 9\n"
        )
        cfg = parse_config(p)
        assert cfg.node_count == 30
        assert cfg.master_seed == 99
        assert cfg.sigma_t == 1e-8
        assert (cfg.v_min, cfg.v_max) == (2.0, 9.0)

    def test_unknown_key_reports_location(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[sim]\nnode_cnt = 30\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:2.*node_cnt"):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[simulation]\n")
        with pytest.raises(ConfigError, match="simulation"):
            parse_config(p)

    def test_key_before_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("node_count = 30\n")
        with pytest.raises(ConfigError, match="before any"):
            parse_config(p)

    def test_line_without_equals_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[sim]\nnode_count 30\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:2: expected 'key = value'$"):
            parse_config(p)

    def test_speed_bound_violation_names_both_keys(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[mobility]\nv_max = 2\nv_min = 5\n")
        with pytest.raises(ConfigError, match=r"v_min.*v_max"):
            parse_config(p)

    def test_probability_bounds(self):
        with pytest.raises(ConfigError, match="p_wh"):
            parse_config(None, {"sfv.p_wh": "1.5"})

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[sim]\nduration = 100\n")
        cfg = parse_config(p, {"sim.duration": "250"})
        assert cfg.duration == 250.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="sim.bogus"):
            parse_config(None, {"sim.bogus": "1"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_sectors_above_max_beams_rejected(self):
        assert parse_config(None, {"sim.sectors": str(MAX_BEAMS)}).sectors == MAX_BEAMS
        with pytest.raises(ConfigError, match=r"'sectors' \(9\) must not exceed .* 8 beams"):
            parse_config(None, {"sim.sectors": str(MAX_BEAMS + 1)})

    def test_negative_alpha_rejected(self):
        assert parse_config(None, {"zone.alpha": "0"}).alpha == 0.0
        with pytest.raises(ConfigError, match="'alpha' must be nonnegative, got -0.1"):
            parse_config(None, {"zone.alpha": "-0.1"})

    def test_negative_lane_spacing_rejected(self):
        with pytest.raises(ConfigError, match="'lane_spacing' must be nonnegative, got -5"):
            parse_config(None, {"mobility.lane_spacing": "-5"})

    def test_master_seed_outside_u64_rejected(self):
        for ok in (0, 2**64 - 1):
            assert parse_config(None, {"sim.master_seed": str(ok)}).master_seed == ok
        for bad in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ConfigError, match=rf"'master_seed' must be in .*, got {bad}$"):
                parse_config(None, {"sim.master_seed": str(bad)})

    def test_negative_auth_duration_names_its_key(self):
        with pytest.raises(ConfigError, match=r"^'auth_duration' must be nonnegative, got -1.0$"):
            parse_config(None, {"sfv.auth_duration": "-1"})

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_floats_rejected(self, raw):
        for section, keys in SECTIONS.items():
            for key in keys:
                if isinstance(getattr(ScenarioConfig(), key), float):
                    with pytest.raises(ConfigError, match=f"'{key}' must be a finite number"):
                        parse_config(None, {f"{section}.{key}": raw})

    @pytest.mark.parametrize("key", ["range_limit", "sigma_t", "e_total", "beta"])
    def test_channel_invariant_is_a_config_error_naming_the_key(self, key):
        with pytest.raises(ConfigError, match=rf"\[channel\] {key} must"):
            parse_config(None, {f"channel.{key}": "-5"})

    @pytest.mark.parametrize(
        "dotted, raw, message",
        [
            ("channel.c", "0", r"^\[channel\] c must be positive"),
            ("sfv.p_i", "1.01", r"^\[sfv\] p_i must be in \[0, 1\], got 1.01$"),
            ("mobility.v_min", "-1", r"^'v_min' must be nonnegative, got -1.0$"),
            ("mobility.v_max", "-1", r"^'v_max' must be nonnegative, got -1.0$"),
            # Cross-key refusals, each against the other key's default.
            (
                "sim.malicious_count",
                "60",
                r"^'malicious_count' \(60\) must be below 'node_count' \(60\)$",
            ),
            ("zone.rho_min", "200", r"^'rho_min' \(200.0\) must not exceed 'rho_max' \(150.0\)$"),
            ("mobility.v_min", "12", r"^'v_min' \(12.0\) must not exceed 'v_max' \(10.0\)$"),
            (
                "sim.sample_interval",
                "600",
                r"^'sample_interval' \(600.0\) must not exceed 'duration' \(500.0\)$",
            ),
            ("sim.scenario", "tracking", r"^'scenario' must be one of .*; got 'tracking'$"),
            (
                "mobility.model",
                "brownian",
                r"^'model' must be random_waypoint or parallel_path, got 'brownian'$",
            ),
        ],
    )
    def test_each_refusal_names_its_key(self, dotted, raw, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(None, {dotted: raw})
        # Made directly, the config refuses the same value with the same message.
        key = dotted.partition(".")[2]
        typed = type(getattr(ScenarioConfig(), key))(raw)
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**{key: typed})

    def test_a_config_cannot_change(self):
        cfg = ScenarioConfig()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_a_config_cannot_change_in_place(self):
        layout = {1: Position(10.0, 20.0)}
        cfg = ScenarioConfig(placements=layout)
        layout[2] = Position(30.0, 40.0)  # the config holds its own copy
        with pytest.raises(TypeError):
            cfg.placements[1] = Position(0.0, 0.0)
        assert dict(cfg.placements) == {1: Position(10.0, 20.0)}
        assert cfg.placements.get(2) is None
        moved = dataclasses.replace(cfg, placements={**cfg.placements, 1: Position(0.0, 0.0)})
        assert moved != cfg and dataclasses.replace(moved, placements=cfg.placements) == cfg

    def test_a_config_can_be_hashed(self):
        assert hash(ScenarioConfig()) == hash(parse_config())
        other = parse_config(None, {"sim.master_seed": "2"})
        assert {ScenarioConfig(), parse_config(), other} == {ScenarioConfig(), other}
        # The hash leaves placements out; equality still compares them.
        a = ScenarioConfig(placements={1: Position(10.0, 20.0)})
        b = ScenarioConfig(placements={1: Position(10.0, 21.0)})
        assert a != b and hash(a) == hash(b) and len({a, b}) == 2

    @pytest.mark.parametrize(
        "dotted, key, expected",
        [("sim.node_count", "node_count", "an integer"), ("sim.duration", "duration", "a number")],
    )
    def test_a_non_numeric_value_names_the_type(self, dotted, key, expected):
        with pytest.raises(ConfigError) as refused:
            parse_config(None, {dotted: "x"})
        assert str(refused.value) == f"override {dotted}: key '{key}' expects {expected}, got 'x'"

    def test_any_nonnegative_lane_spacing_is_accepted(self):
        # Only trajectory lays out lanes, and it caps the spacing to fit.
        wide = {"mobility.model": "parallel_path", "mobility.lane_spacing": "140"}
        cfg = parse_config(None, wide)
        assert (cfg.model, cfg.lane_spacing) == ("parallel_path", 140.0)

    def test_every_accepted_sector_count_runs(self):
        for sectors in range(1, MAX_BEAMS + 1):
            cfg = ScenarioConfig(node_count=8, malicious_count=1, sectors=sectors, duration=30.0)
            Engine(cfg).run()

    def test_echo_roundtrip_exact(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "sim.master_seed": "123456789",
                "channel.sigma_t": "7.25e-9",
                "sfv.p_i": "0.125",
                "mobility.v_max": "17.5",
            },
        )
        path = echo_config(cfg, tmp_path / "effective.cfg")
        assert parse_config(path) == cfg


class TestCli:
    def test_python_dash_m_entry_point(self, tmp_path):
        # The package's own directory first, so the subprocess imports this tree.
        paths = [str(Path(sectrack.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        out = tmp_path / "energy"
        proc = subprocess.run(
            [sys.executable, "-m", "sectrack", "--scenario", "energy", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs = {"detection", "efficiency", "trajectory", "switching", "energy", "friendliness"}
        assert {p.name for p in out.glob("*.csv")} == {f"{name}.csv" for name in csvs}

    def test_energy_scenario(self, tmp_path):
        out = tmp_path / "energy"
        assert main(["--scenario", "energy", "--out", str(out)]) == 0
        rows = (out / "energy.csv").read_text().splitlines()
        assert rows[0] == "m_beams,energy"
        assert len(rows) == 9
        energies = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(energies, energies[1:]))
        assert (out / "effective.cfg").exists()

    def test_detection_scenario_against_bound(self, tmp_path):
        import math

        out = tmp_path / "detection"
        assert main([
            "--scenario", "detection", "--out", str(out),
            "--trials", "20000", "--master-seed", "5",
        ]) == 0
        rows = (out / "detection.csv").read_text().splitlines()[1:]
        assert len(rows) == 125 * 4
        for row in rows:
            p_wh, p_i, p_r, n, closed, mc = row.split(",")
            closed, mc = float(closed), float(mc)
            bound = 4.0 * math.sqrt(closed * (1.0 - closed) / 20000)
            assert abs(closed - mc) <= max(bound, 1e-12)

    def test_friendliness_scenario_writes_events(self, tmp_path):
        out = tmp_path / "friend"
        assert main(["--scenario", "friendliness", "--out", str(out)]) == 0
        body = (out / "friendliness.csv").read_text()
        assert "reauth_fail" in body and "track_resume" in body

    def test_config_file_via_flag(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[sim]\nscenario = energy\n[channel]\nbeta = 0.1\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
        row2 = (out / "energy.csv").read_text().splitlines()[2]
        assert row2 == "2,0.45"  # (1/2) * (1 - 0.1)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--scenario", "bogus"], "'scenario'"),
            (["--master-seed", "x"], "'master_seed'"),
            (["--trials", "1.5"], "'trials'"),
            (["--set", "nonsense"], "'nonsense'"),
        ],
        ids=["scenario", "master_seed", "trials", "set"],
    )
    def test_unknown_scenario_rejected(self, tmp_path, capsys, argv, named):
        # A bad flag value is refused like a bad --set: one config error line.
        assert main([*argv, "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:") and named in line
        assert not any(tmp_path.iterdir())

    def test_flags_set_their_keys(self, tmp_path):
        out = tmp_path / "out"
        argv = ["--master-seed", "7", "--trials", "123", "--scenario", "energy"]
        assert main([*argv, "--out", str(out)]) == 0
        cfg = parse_config(out / "effective.cfg")
        assert (cfg.master_seed, cfg.trials, cfg.scenario) == (7, 123, "energy")

    def test_a_flag_wins_over_a_set_of_its_key(self, tmp_path):
        out = tmp_path / "out"
        argv = ["--scenario", "energy", "--set", "sim.trials=5", "--trials", "7"]
        assert main([*argv, "--out", str(out)]) == 0
        assert parse_config(out / "effective.cfg").trials == 7

    def test_bad_set_flag(self, tmp_path):
        assert main(["--set", "nonsense", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            "sim.duration=nan",
            "sim.duration=inf",
            "channel.range_limit=-5",
            "sim.duration=3",
            "channel.e_total=0",
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, override):
        key = override.split("=")[0].split(".")[1]
        assert main(["--scenario", "switching", "--out", str(tmp_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not any(tmp_path.iterdir())

    def test_master_seed_above_u64_writes_nothing(self, tmp_path, capsys):
        # 2**64 + 1 would otherwise run as master seed 1.
        argv = ["--scenario", "energy", "--out", str(tmp_path), "--master-seed", str(2**64 + 1)]
        assert main(argv) == 2
        assert "'master_seed'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", ["friendliness", "all"])
    def test_area_too_small_for_the_friendliness_layout(self, tmp_path, capsys, scenario):
        argv = ["--scenario", scenario, "--out", str(tmp_path), "--set", "sim.area_side=79"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "80 m" in err
        assert not any(tmp_path.iterdir())

    def test_output_failure_goes_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "a_file"
        out.write_text("")
        assert main(["--scenario", "energy", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("output failure in scenario 'energy':")
        assert captured.out == ""

    def test_set_flag_validation_error(self, tmp_path):
        assert main([
            "--scenario", "energy", "--out", str(tmp_path),
            "--set", "mobility.v_min=9", "--set", "mobility.v_max=2",
        ]) == 2
