"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.pes == 576
        assert args.frequency_mhz == 700.0

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "alexnet", "--batch", "8", "--traffic"])
        assert args.network == "alexnet"
        assert args.batch == 8
        assert args.traffic

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "resnet50"])

    def test_sweep_axes(self):
        args = build_parser().parse_args(["sweep", "frequency"])
        assert args.axis == "frequency"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "voltage"])

    def test_removed_backend_flag_is_a_usage_error(self, capsys):
        """A stale ``--kernel-backend`` fails loudly with a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--kernel-backend", "numpy", "info"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro") and "repro: error:" in err

    def test_removed_window_flag_is_a_usage_error(self, capsys):
        """Sweeps coalesce without a timed window: a stale ``--window-ms``
        fails loudly with one error line, it is not ignored."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--window-ms", "4"])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == ["repro: error: unrecognized arguments: --window-ms 4"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--sim", "functional", "--network", "alexnet",
         "--workers", "2"],
        ["run", "alexnet", "--engine", "functional-vectorized",
         "--workers", "2"],
    ], ids=["verify", "run"])
    def test_removed_workers_flag_is_a_usage_error(self, argv, capsys):
        """Functional verification is serial: ``--workers`` on ``verify``
        and ``run`` fails loudly with a usage error, it is not ignored."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err

    def test_map_still_takes_workers(self):
        args = build_parser().parse_args(["map", "--workers", "2"])
        assert args.workers == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "806.4" in out and "K=11" in out

    def test_unmappable_chain_is_a_one_line_user_error(self):
        """A kernel larger than the chain exits 2 with one line, no traceback."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--pes", "64", "map",
             "--network", "alexnet"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "repro: error: conv1: kernel 11x11 needs 121 PEs but the chain "
            "has only 64"]

    def test_info_with_custom_chain(self, capsys):
        assert main(["--pes", "288", "--frequency-mhz", "350", "info"]) == 0
        out = capsys.readouterr().out
        assert "288 PEs" in out

    def test_run_lenet(self, capsys):
        assert main(["run", "lenet5", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "LeNet-5" in out and "fps" in out

    def test_run_with_traffic(self, capsys):
        assert main(["run", "cifar10", "--batch", "2", "--traffic"]) == 0
        out = capsys.readouterr().out
        assert "Memory traffic" in out

    def test_sweep_batch(self, capsys):
        assert main(["sweep", "batch", "--network", "lenet5"]) == 0
        assert "fps vs batch size" in capsys.readouterr().out

    def test_sweep_pes(self, capsys):
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4"]) == 0
        assert "pes sweep" in capsys.readouterr().out

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_verify_functional_tiny_cross_checks_backends(self, capsys):
        assert main(["verify", "--sim", "functional"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "[both]" in out

    def test_verify_functional_network(self, capsys):
        assert main(["verify", "--sim", "functional", "--network", "lenet5"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "[vectorized]" in out and "pool1" in out

    def test_verify_negative_seed_is_a_one_line_user_error(self, capsys):
        assert main(["verify", "--sim", "functional", "--network", "lenet5",
                     "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: error: seed must be >= 0, got -1\n"

    def test_verify_cycle_rejects_network_flag(self, capsys):
        assert main(["verify", "--network", "lenet5"]) == 2
        assert "--sim functional" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "lenet5", "--engine", "cycle", "--mode", "detailed"], "--mode"),
        (["run", "lenet5", "--engine", "analytical", "--algorithm", "winograd"],
         "--algorithm"),
        (["verify", "--algorithm", "winograd"], "--algorithm"),
        (["verify", "--network", "lenet5"], "--network"),
        (["map", "--network", "lenet5", "--strategy", "greedy", "--samples", "9"],
         "--samples"),
        (["map", "--network", "lenet5", "--strategy", "exhaustive",
          "--iterations", "500"], "--iterations"),
    ], ids=["run-mode", "run-algorithm", "verify-algorithm", "verify-network",
            "map-samples", "map-iterations"])
    def test_flag_conflict_is_one_repro_error_line(self, argv, flag, capsys):
        """Flag conflicts share the single ``repro: error:`` form of every
        library-detected user error: one stderr line, exit code 2."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro: error: {flag} ")


class TestEngineCommands:
    def test_engines_lists_registry(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "analytical" in out and "cycle" in out and "baseline-eyeriss" in out

    def test_run_detailed_mode(self, capsys):
        assert main(["run", "lenet5", "--batch", "2", "--mode", "detailed"]) == 0
        assert "analytical-detailed" in capsys.readouterr().out

    def test_run_through_cycle_engine(self, capsys):
        assert main(["run", "lenet5", "--batch", "1", "--engine", "cycle"]) == 0
        assert "cycle" in capsys.readouterr().out

    def test_run_rejects_conflicting_mode_and_engine(self, capsys):
        assert main(["run", "lenet5", "--engine", "cycle", "--mode", "detailed"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert main(["run", "lenet5", "--engine", "analytical-detailed",
                     "--mode", "paper"]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert main(["run", "lenet5", "--engine", "analytical-detailed",
                     "--mode", "detailed", "--batch", "1"]) == 0
        capsys.readouterr()

    def test_run_json_record(self, capsys):
        assert main(["run", "lenet5", "--batch", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["engine"] == "analytical"
        assert record["metrics"]["fps"] > 0

    def test_sweep_parallel_json_matches_serial(self, capsys, tmp_path):
        # distinct cache dirs so the parallel invocation really evaluates
        # in workers instead of replaying the serial run's cache entries
        args = ["sweep", "pes", "--network", "lenet5", "--batch", "4", "--json"]
        assert main(args + ["--cache-dir", str(tmp_path / "serial")]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--cache-dir", str(tmp_path / "par"), "--parallel"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["points"] == parallel["points"]

    def test_sweep_batch_honors_global_config(self, capsys):
        assert main(["sweep", "batch", "--network", "lenet5", "--json"]) == 0
        default = json.loads(capsys.readouterr().out)["fps_by_batch"]
        assert main(["--pes", "288", "sweep", "batch", "--network", "lenet5",
                     "--json"]) == 0
        small = json.loads(capsys.readouterr().out)["fps_by_batch"]
        assert small["128"] < default["128"]

    def test_cache_env_var_enables_default_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4",
                     "--json"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("*.json"))) > 0
        # --no-cache must suppress it again
        for stale in tmp_path.glob("*.json"):
            stale.unlink()
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4",
                     "--json", "--no-cache"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_sweep_through_cycle_engine(self, capsys):
        assert main(["sweep", "batch", "--network", "lenet5", "--engine",
                     "cycle", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "cycle"
        assert len(payload["fps_by_batch"]) > 0

    def test_experiments_json_headline(self, capsys):
        assert main(["experiments", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-headline/1"
        assert payload["headline"]["peak_gops"] == pytest.approx(806.4)

    def test_verify_scalar_backend(self, capsys):
        assert main(["verify", "--backend", "scalar"]) == 0
        assert "PASSED" in capsys.readouterr().out


class TestGridCommands:
    def test_sweep_grid_pareto_alexnet(self, capsys):
        assert main(["sweep", "--grid", "pe=128:1152:32,freq=200:1000:50",
                     "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "561 design points" in out
        assert "Pareto frontier" in out
        assert "analytical-batch" in out

    def test_sweep_grid_json_has_nonempty_pareto(self, capsys):
        assert main(["sweep", "--grid", "pe=128:1152:64,freq=200:1000:200",
                     "--pareto", "--network", "alexnet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "analytical-batch"
        assert payload["n_points"] > 0
        assert len(payload["pareto"]["points"]) > 0

    def test_sweep_grid_top_k(self, capsys):
        assert main(["sweep", "--grid", "pe=128:576:64", "--top", "3",
                     "--network", "lenet5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["top"]["metric"] == "gops_per_watt"
        assert len(payload["top"]["points"]) == 3

    def test_sweep_rejects_axis_and_grid_together(self, capsys):
        assert main(["sweep", "pes", "--grid", "pe=128:256:64"]) == 2
        assert "not both" in capsys.readouterr().err
        assert main(["sweep"]) == 2
        assert "need a sweep axis" in capsys.readouterr().err

    def test_sweep_grid_rejects_parallel(self, capsys):
        assert main(["sweep", "--grid", "pe=128:256:64", "--parallel"]) == 2
        assert "axis sweeps only" in capsys.readouterr().err

    def test_sweep_rejects_workers_with_jobs_alias(self, capsys):
        assert main(["sweep", "pes", "--workers", "2", "--jobs", "2"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: give either --workers or its legacy alias --jobs, "
            "not both\n")

    def test_sweep_grid_upgrades_detailed_engine(self, capsys):
        assert main(["sweep", "--grid", "pe=128:256:64", "--network", "lenet5",
                     "--engine", "analytical-detailed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "analytical-batch-detailed"

    def test_top_ranks_lower_is_better_metrics_ascending(self, capsys):
        assert main(["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                     "--top", "3", "--metric", "power_w", "--json"]) == 0
        points = json.loads(capsys.readouterr().out)["top"]["points"]
        powers = [p["Power (W)"] for p in points]
        assert powers == sorted(powers)  # best = lowest power first

    def test_pareto_respects_metric_direction_in_objectives(self, capsys):
        # fps is higher-is-better: with a single maximised objective the
        # frontier collapses to the fastest point(s), not the slowest
        assert main(["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                     "--pareto", "--objectives", "fps", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        frontier_fps = {p["fps"] for p in payload["pareto"]["points"]}
        assert len(frontier_fps) == 1
        assert main(["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                     "--top", "1", "--metric", "fps", "--json"]) == 0
        best = json.loads(capsys.readouterr().out)["top"]["points"][0]["fps"]
        assert frontier_fps == {best}

    def test_pareto_command_defaults(self, capsys):
        assert main(["pareto", "--network", "lenet5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pareto"]["points"]) > 0

    def test_grid_sweep_uses_cache(self, capsys, tmp_path):
        args = ["sweep", "--grid", "pe=128:576:64", "--network", "lenet5",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "1 hits" in second


class TestNetworksCommand:
    def test_lists_the_zoo(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out and "vgg16" in out and "MACs/image" in out

    def test_json_statistics(self, capsys):
        assert main(["networks", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alexnet"]["conv_layers"] == 5
        assert payload["alexnet"]["conv_macs_per_image"] == 665_784_864
        assert payload["vgg16"]["conv_layers"] == 13
        assert payload["lenet5"]["total_weights"] > payload["lenet5"]["conv_weights"]


class TestMapCommand:
    def test_map_lenet_exhaustive(self, capsys):
        assert main(["map", "--network", "lenet5", "--objective", "latency",
                     "--strategy", "exhaustive", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "objective=latency" in out and "baseline" in out

    def test_map_json_with_verification(self, capsys):
        assert main(["map", "--network", "lenet5", "--objective", "throughput",
                     "--strategy", "exhaustive", "--batch", "4", "--verify",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective_value"] <= payload["baseline_objective_value"]
        assert payload["verification"]["passed"]
        assert len(payload["layers"]) == 2

    def test_map_anneal_is_seed_deterministic(self, capsys):
        args = ["map", "--network", "lenet5", "--objective", "energy",
                "--strategy", "anneal", "--batch", "4", "--seed", "3",
                "--iterations", "32", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_map_rejects_inapplicable_strategy_knobs(self, capsys):
        assert main(["map", "--network", "lenet5", "--strategy", "exhaustive",
                     "--iterations", "500"]) == 2
        assert "--iterations" in capsys.readouterr().err
        assert main(["map", "--network", "lenet5", "--strategy", "greedy",
                     "--samples", "9"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_map_uses_the_search_cache(self, capsys, tmp_path):
        args = ["map", "--network", "lenet5", "--objective", "latency",
                "--strategy", "exhaustive", "--batch", "4",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cached" in capsys.readouterr().out


class TestCacheCommands:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "pes", "--network", "lenet5", "--batch", "4",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 7" in out and cache_dir in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 7 cached records" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_cache_env_var_location(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_stats_on_empty_cache_dir_keeps_that_dir(self, capsys, tmp_path):
        # RunCache defines __len__, so an *empty* cache is falsy; the command
        # must not let truthiness chaining swap a --cache-dir selection for
        # the default root
        cache_dir = str(tmp_path / "empty-cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir,
                     "--cache-max-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert cache_dir in out
        assert "entries    : 0" in out
        assert "16.0 MiB" in out
