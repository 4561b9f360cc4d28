"""`repro.bench`: grid configs, trajectory emission, regression compare."""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.api.cli import main
from repro.bench.grid import GridConfig, run_series
from repro.errors import WorkloadError

REPO = Path(__file__).resolve().parent.parent

TINY_GRID = {
    "name": "tiny",
    "repeat": 1,
    "series": [{
        "key": "one",
        "benchmarks": ["gsmdec"],
        "variants": ["mdc/prefclus"],
        "machines": ["baseline"],
        "scale": 0.05,
    }],
}


def _series_cell(wall=1.0, cps=100.0, frontend=0.5, specs=1,
                 cycles=1000, ops=500, dig="abc"):
    return {
        "wall_seconds": wall, "cycles_per_second": cps,
        "frontend_seconds": frontend, "specs": specs,
        "total_cycles": cycles, "issued_ops": ops,
        "records_digest": dig,
    }


def _trajectory(**series):
    return {"schema": 1, "grid": "t", "repeat": 1, "series": series}


class TestGridConfig:
    def test_parses_series_with_defaults(self):
        config = GridConfig.from_dict(TINY_GRID)
        assert config.name == "tiny"
        assert config.repeat == 1
        (series,) = config.series
        assert series.key == "one"
        assert series.plan()  # resolvable into a non-empty Plan

    def test_scenario_sampler_resolves_at_parse_time(self):
        data = {
            "name": "s",
            "series": [{
                "key": "sampled",
                "scenarios": {"seed": 3, "count": 2,
                              "families": ["gather"]},
            }],
        }
        first = GridConfig.from_dict(data).series[0].benchmarks
        second = GridConfig.from_dict(data).series[0].benchmarks
        assert len(first) == 2
        assert first == second  # seeded: a pure function of the config
        assert all(name.startswith("scn-") for name in first)

    @pytest.mark.parametrize("broken", [
        {},  # no name/series
        {"name": "x", "series": []},  # empty
        {"name": "x", "series": [{"key": "a"}]},  # no benchmarks/sampler
        {"name": "x", "series": [  # duplicate keys
            {"key": "a", "benchmarks": ["gsmdec"]},
            {"key": "a", "benchmarks": ["g721dec"]},
        ]},
        dict(TINY_GRID, retired=["one"]),  # retired key is still live
        dict(TINY_GRID, retired="gone"),  # retired is not a list
        dict(TINY_GRID, retired=[1]),  # retired entry is not a key
        dict(TINY_GRID, retired=[""]),  # retired entry is empty
    ])
    def test_malformed_configs_raise_workload_error(self, broken):
        with pytest.raises(WorkloadError):
            GridConfig.from_dict(broken)

    def test_load_rejects_missing_and_non_json_files(self, tmp_path):
        with pytest.raises(WorkloadError):
            GridConfig.load(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(WorkloadError):
            GridConfig.load(bad)

    def test_default_grid_config_is_valid(self):
        config = GridConfig.load(REPO / "benchmarks/grids/default.json")
        assert config.name == "default"
        assert len(config.series) >= 3

    def test_retired_defaults_to_empty(self):
        config = GridConfig.from_dict(TINY_GRID)
        assert config.retired == []
        assert bench.run_grid(config)["retired"] == []

    def test_default_grid_retires_the_surrogate_series(self):
        config = GridConfig.load(REPO / "benchmarks/grids/default.json")
        assert config.retired == ["surrogate-guided"]
        assert "surrogate-guided" not in {s.key for s in config.series}

    def test_committed_trajectory_matches_the_default_grid(self):
        """The committed ``BENCH_default.json`` was produced by the grid
        config as it stands: same live series, same retired keys."""
        config = GridConfig.load(REPO / "benchmarks/grids/default.json")
        trajectory = bench.load_trajectory(REPO / "BENCH_default.json")
        assert sorted(trajectory["series"]) == sorted(
            s.key for s in config.series)
        assert trajectory["retired"] == config.retired


class TestRunSeries:
    def test_deterministic_fields_are_reproducible(self):
        series = GridConfig.from_dict(TINY_GRID).series[0]
        first = run_series(series, repeat=1)
        second = run_series(series, repeat=1)
        for name in bench.grid.DETERMINISTIC_FIELDS:
            assert first[name] == second[name], name
        assert first["specs"] == 1
        assert first["total_cycles"] > 0
        assert first["wall_seconds"] > 0

    def test_frontend_seconds_is_the_median_over_repeats(self,
                                                         monkeypatch):
        """Front-end time is a median over repeats, like wall time, not
        the last repeat's reading."""
        readings = iter([0.0, 5.0, 5.0, 6.0, 6.0, 100.0])  # 5, 1, 94 s

        class Counters:
            def frontend_seconds(self):
                return next(readings)

        monkeypatch.setattr(bench.grid, "stage_counters", Counters)
        series = GridConfig.from_dict(TINY_GRID).series[0]
        assert run_series(series, repeat=3)["frontend_seconds"] == 5.0

    @pytest.mark.parametrize("per_repeat, median", [
        ([7.0], 7.0),
        ([2.0, 4.0], 3.0),
        ([4.0, 1.0, 3.0, 100.0], 3.5),
    ])
    def test_frontend_seconds_median_by_repeat_count(self, monkeypatch,
                                                     per_repeat, median):
        readings = []
        clock = 0.0
        for seconds in per_repeat:
            readings += [clock, clock + seconds]
            clock += seconds
        readings = iter(readings)

        class Counters:
            def frontend_seconds(self):
                return next(readings)

        monkeypatch.setattr(bench.grid, "stage_counters", Counters)
        series = GridConfig.from_dict(TINY_GRID).series[0]
        result = run_series(series, repeat=len(per_repeat))
        assert result["frontend_seconds"] == median
        assert len(result["wall_seconds_all"]) == len(per_repeat)

    def test_run_grid_copies_the_retired_keys(self):
        config = GridConfig.from_dict(dict(TINY_GRID, retired=["gone"]))
        assert bench.run_grid(config)["retired"] == ["gone"]


class TestEmission:
    def test_write_load_round_trip_and_csv(self, tmp_path):
        trajectory = _trajectory(one=_series_cell())
        trajectory["grid"] = "tiny"
        paths = bench.write_trajectory(trajectory, tmp_path)
        assert paths["json"].name == "BENCH_tiny.json"
        assert bench.load_trajectory(paths["json"]) == trajectory
        lines = paths["csv"].read_text().splitlines()
        assert lines[0].startswith("series,wall_seconds")
        assert lines[1].startswith("one,1.000000")

    def test_write_creates_the_out_dir(self, tmp_path):
        """``repro bench run --out-dir bench-smoke`` in a fresh checkout
        must not lose a finished run to a missing directory."""
        trajectory = _trajectory(one=_series_cell())
        trajectory["grid"] = "tiny"
        paths = bench.write_trajectory(trajectory, tmp_path / "a" / "b")
        assert bench.load_trajectory(paths["json"]) == trajectory
        assert paths["csv"].is_file()

    def test_write_load_round_trip_keeps_retired(self, tmp_path):
        trajectory = dict(_trajectory(one=_series_cell()), retired=["gone"])
        paths = bench.write_trajectory(trajectory, tmp_path)
        assert bench.load_trajectory(paths["json"])["retired"] == ["gone"]

    def test_load_rejects_non_trajectory_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(WorkloadError):
            bench.load_trajectory(path)

    def test_render_mentions_every_series(self):
        text = bench.render(_trajectory(one=_series_cell(),
                                        two=_series_cell()))
        assert "one" in text and "two" in text


class TestCompare:
    def test_identical_trajectories_are_clean(self):
        t = _trajectory(one=_series_cell())
        result = bench.compare(t, t)
        assert result.ok
        assert not result.notes and not result.improvements

    def test_injected_slowdown_is_a_regression(self):
        prev = _trajectory(one=_series_cell(wall=1.0))
        cur = _trajectory(one=_series_cell(wall=1.5))
        result = bench.compare(cur, prev, threshold=0.15)
        assert not result.ok
        assert "one.wall_seconds" in result.regressions[0]
        assert "+50.0%" in result.regressions[0]

    def test_threshold_absorbs_small_noise(self):
        prev = _trajectory(one=_series_cell(wall=1.0))
        cur = _trajectory(one=_series_cell(wall=1.1))
        assert bench.compare(cur, prev, threshold=0.15).ok

    def test_throughput_drop_is_a_regression_speedup_an_improvement(self):
        prev = _trajectory(one=_series_cell(cps=100.0))
        drop = bench.compare(_trajectory(one=_series_cell(cps=50.0)), prev)
        assert any("cycles_per_second" in r for r in drop.regressions)
        fast = bench.compare(
            _trajectory(one=_series_cell(wall=0.5, cps=100.0)),
            _trajectory(one=_series_cell(wall=1.0, cps=100.0)))
        assert fast.ok and fast.improvements

    def test_missing_series_is_a_regression_new_series_a_note(self):
        prev = _trajectory(one=_series_cell())
        cur = _trajectory(two=_series_cell())
        result = bench.compare(cur, prev)
        assert any("disappeared" in r for r in result.regressions)
        assert any("new series" in n for n in result.notes)

    def test_retired_series_is_a_note_other_losses_still_regress(self):
        prev = _trajectory(one=_series_cell(), gone=_series_cell(),
                           lost=_series_cell())
        cur = dict(_trajectory(one=_series_cell()), retired=["gone"])
        result = bench.compare(cur, prev)
        assert result.regressions == [
            "lost: series disappeared from the current trajectory"
        ]
        assert any(n.startswith("gone: retired") for n in result.notes)
        del prev["series"]["lost"]
        assert bench.compare(cur, prev).ok

    def test_retirement_is_declared_by_the_current_trajectory(self):
        """A key the *previous* trajectory retired does not excuse a
        series the current one lost."""
        prev = dict(_trajectory(one=_series_cell(), gone=_series_cell()),
                    retired=["gone"])
        result = bench.compare(_trajectory(one=_series_cell()), prev)
        assert result.regressions == [
            "gone: series disappeared from the current trajectory"
        ]

    def test_retiring_a_series_the_previous_never_had_is_silent(self):
        t = _trajectory(one=_series_cell())
        result = bench.compare(dict(t, retired=["never"]), t)
        assert result.ok
        assert not result.notes

    def test_deterministic_drift_is_a_note_not_a_failure(self):
        prev = _trajectory(one=_series_cell(cycles=1000))
        cur = _trajectory(one=_series_cell(cycles=2000))
        result = bench.compare(cur, prev)
        assert result.ok
        assert any("total_cycles" in n for n in result.notes)

    def test_sub_epsilon_timings_are_ignored(self):
        prev = _trajectory(one=_series_cell(wall=1e-4, frontend=1e-4))
        cur = _trajectory(one=_series_cell(wall=9e-4, frontend=9e-4))
        assert bench.compare(cur, prev).ok


class TestCli:
    @pytest.fixture
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(TINY_GRID))
        return path

    def test_bench_run_emits_trajectory_and_csv(self, tmp_path,
                                                grid_file, capsys):
        rc = main(["bench", "run", "--grid", str(grid_file),
                   "--repeat", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench grid tiny" in out
        bench_json = tmp_path / "BENCH_tiny.json"
        assert bench_json.exists()
        assert (tmp_path / "BENCH_tiny.csv").exists()
        trajectory = json.loads(bench_json.read_text())
        assert trajectory["schema"] == bench.BENCH_SCHEMA
        assert trajectory["series"]["one"]["specs"] == 1

    def test_bench_compare_fails_on_injected_slowdown(self, tmp_path,
                                                      grid_file, capsys):
        main(["bench", "run", "--grid", str(grid_file),
              "--repeat", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        current = tmp_path / "BENCH_tiny.json"

        # Same file against itself: clean.
        assert main(["bench", "compare", str(current),
                     "--against", str(current)]) == 0
        assert "no regressions" in capsys.readouterr().out

        # Inject a 2x slowdown into a copy of the previous trajectory —
        # i.e. the current run is 2x slower than it.
        slowed = json.loads(current.read_text())
        slowed["series"]["one"]["wall_seconds"] /= 2.0
        slowed["series"]["one"]["cycles_per_second"] *= 2.0
        previous = tmp_path / "BENCH_prev.json"
        previous.write_text(json.dumps(slowed))
        rc = main(["bench", "compare", str(current),
                   "--against", str(previous)])
        assert rc == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_bench_compare_passes_the_committed_retirement(self, tmp_path,
                                                            capsys):
        """The committed trajectory against one that still carried the
        ``surrogate-guided`` series: retired, not lost."""
        current = REPO / "BENCH_default.json"
        previous = json.loads(current.read_text())
        del previous["retired"]
        previous["series"]["surrogate-guided"] = _series_cell()
        prev_path = tmp_path / "BENCH_prev.json"
        prev_path.write_text(json.dumps(previous))
        assert main(["bench", "compare", str(current),
                     "--against", str(prev_path)]) == 0
        assert "surrogate-guided: retired" in capsys.readouterr().out

    def test_bench_compare_missing_file_is_a_clean_error(self, tmp_path,
                                                         capsys):
        rc = main(["bench", "compare", str(tmp_path / "nope.json"),
                   "--against", str(tmp_path / "nope2.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_verbs_reject_bad_files(self, tmp_path, capsys):
        assert main(["obs", "trace", str(tmp_path / "no.json")]) == 2
        assert main(["obs", "metrics", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
