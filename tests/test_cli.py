"""Command-line interface: argument handling, exit codes, and byte-identical
outputs for identical seeds."""

import numpy as np
import pytest

from mbfuse.cli import main
from mbfuse.errors import ConfigError, IntractableFusionError
import mbfuse.cli as cli_mod
import mbfuse.sim as sim_mod
from mbfuse.mb import MotionModel, Rectangle, SensorModel
from mbfuse.sim import ObjectBirth, ScenarioConfig


def tiny_scenario(seed=1, **overrides) -> ScenarioConfig:
    region = Rectangle(-500.0, 500.0, -500.0, 500.0)
    motion = MotionModel.ncv(dt=1.0, sigma_v=5.0, p_survival=0.98)
    sensor = SensorModel.position_sensor(
        sigma_eps=10.0, p_detect=0.95, clutter_rate=10.0, region=region
    )
    base = dict(
        name="tiny",
        region=region,
        duration=6,
        births=(ObjectBirth(0, 6, np.array([-100.0, 0.0, 5.0, 0.0])),),
        motion=motion,
        sensors=(sensor, sensor),
        adjacency=(frozenset({1}), frozenset({0})),
        fusion_node=0,
        base_seed=seed,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture
def fast_scenarios(monkeypatch):
    """Route scenario names to a tiny configuration so CLI tests stay quick."""

    def fake_build(name, scale="desk", seed=1):
        if name not in ("scenario1", "scenario2"):
            raise ConfigError(f"unknown scenario {name!r}")
        return tiny_scenario(seed=seed)

    monkeypatch.setattr(cli_mod, "build_scenario", fake_build)
    return fake_build


class TestRun:
    def test_writes_results_and_timings(self, fast_scenarios, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["run", "--runs", "2", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").is_file()
        assert (out / "timings.csv").is_file()
        captured = capsys.readouterr()
        assert "mean fused OSPA" in captured.out

    def test_identical_seeds_byte_identical_csv(self, fast_scenarios, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--runs", "2", "--seed", "7", "--out", str(a)]) == 0
        assert main(["run", "--runs", "2", "--seed", "7", "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_different_seed_changes_results(self, fast_scenarios, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--runs", "2", "--seed", "1", "--out", str(a)]) == 0
        assert main(["run", "--runs", "2", "--seed", "2", "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()


class TestExitCodes:
    def test_intractable_maps_to_4(self, fast_scenarios, monkeypatch, tmp_path):
        def boom(*a, **k):
            raise IntractableFusionError("too many hypotheses", count=10, cap=1)

        monkeypatch.setattr(cli_mod, "run_montecarlo", boom)
        assert main(["run", "--runs", "1", "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("command", ["bench-counts", "bound-check"])
    @pytest.mark.parametrize(
        "option", [("--runs", "0"), ("--runs", "-3"), ("--gamma", "nan"), ("--gamma", "-1"),
                   ("--gamma", "0")],
        ids="=".join,
    )
    def test_bad_runs_or_gamma_maps_to_2(self, command, option, capsys):
        assert main([command, *option]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bench-counts", "bound-check"])
    def test_negative_seed_maps_to_2(self, command, tmp_path, capsys):
        # numpy's seeding used to raise an uncaught ValueError.
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert main([command, "--seed", "-1", *out]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompareOracle:
    def test_reports_gap(self, fast_scenarios, capsys):
        assert main(["compare-oracle", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "exact fusion (no gate, subset DP)" in out and "max per-step gap" in out


class TestBenchCounts:
    def test_prints_count_table(self, capsys):
        assert main(["bench-counts", "--runs", "5", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n1,n2,N_H,N_distinct,N_H_prod,N_H_sum"
        assert len(lines) == 6
        for line in lines[1:]:
            n1, n2, n_h, n_dist, n_prod, n_sum = map(int, line.split(","))
            assert n_sum <= n_prod <= n_dist <= n_h or n_dist <= n_h

    def test_rows_cover_both_orientations(self, monkeypatch, capsys):
        reports = []
        fuse = cli_mod.pgci_fuse

        def recording(mb1, mb2, w, gamma):
            # The diagnostics of the instance's own clustered fusion.
            fused, r = fuse(mb1, mb2, w, gamma)
            reports.append((len(mb1), len(mb2), r.n_h, r.n_h_distinct, r.n_h_truncated,
                            r.n_h_clustered))
            return fused, r

        monkeypatch.setattr(cli_mod, "pgci_fuse", recording)
        assert main(["bench-counts", "--runs", "20"]) == 0
        rows = [tuple(map(int, line.split(",")))
                for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert rows == reports
        assert any(n1 > n2 for n1, n2, *_ in rows)


class TestBoundCheck:
    def test_bound_holds_on_random_instances(self, monkeypatch, capsys):
        sizes = []
        fuse = cli_mod.naive_gci_mb_fuse

        def recording(mb1, mb2, w, **kwargs):
            sizes.append((len(mb1), len(mb2)))
            return fuse(mb1, mb2, w, **kwargs)

        monkeypatch.setattr(cli_mod, "naive_gci_mb_fuse", recording)
        assert main(["bound-check", "--runs", "50", "--seed", "2"]) == 0
        assert "bound holds" in capsys.readouterr().out
        # Both orientations are drawn: some instances swap roles.
        assert len(sizes) == 50
        assert any(n1 > n2 for n1, n2 in sizes)
        assert any(n1 < n2 for n1, n2 in sizes)

    def test_violated_bound_maps_to_5(self, monkeypatch, capsys):
        # 3 is a numerical failure; a violated bound has its own code.
        monkeypatch.setattr(cli_mod, "l1_error_bound", lambda *a: (0.5, 0.25))
        assert main(["bound-check", "--runs", "3"]) == 5
        assert "BOUND VIOLATED" in capsys.readouterr().out

    def test_tiny_bound_violated_by_2x_maps_to_5(self, monkeypatch, capsys):
        # The margin is relative: an absolute 1e-12 used to pass this pair.
        monkeypatch.setattr(cli_mod, "l1_error_bound", lambda *a: (2e-12, 1e-12))
        assert main(["bound-check", "--runs", "3"]) == 5
        assert "BOUND VIOLATED" in capsys.readouterr().out

    def test_infinite_gamma_discards_nothing(self, capsys):
        assert main(["bound-check", "--gamma", "inf", "--runs", "5"]) == 0
        assert "worst exact/bound ratio 0.000e+00" in capsys.readouterr().out
