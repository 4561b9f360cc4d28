"""CLI smoke tests — in-process via ``main(argv)`` plus one true
``python -m repro`` subprocess round trip."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestListCommand:
    def test_lists_benchmarks_variants_configs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "epicdec" in out
        assert "mdc/prefclus" in out
        assert "nobal+reg" in out
        assert "figures: 6, 7, 9" in out


class TestRunCommand:
    def test_run_writes_table_json_csv(self, tmp_path, capsys):
        json_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"
        rc = main([
            "run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gsmdec" in out and "mdc/prefclus" in out

        records = json.loads(json_path.read_text())
        assert len(records) == 1
        assert records[0]["benchmark"] == "gsmdec"
        assert records[0]["loops"]

        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("benchmark,loop,variant")
        assert len(lines) == 1 + len(records[0]["loops"])

    def test_unknown_benchmark_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["run", "doesnotexist", "--scale", "0.1",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_variant_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["run", "gsmdec", "-v", "bogus", "--scale", "0.1",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_machine_config_is_a_clean_error(self, tmp_path,
                                                     capsys):
        rc = main(["run", "gsmdec", "--machine", "doesnotexist",
                   "--scale", "0.1", "--cache-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        info = capsys.readouterr().out
        assert "records   : 1" in info
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_second_run_hits_disk_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
                "--cache-dir", str(cache)]
        main(args)
        first = capsys.readouterr().out
        mtimes = {p: p.stat().st_mtime_ns for p in cache.rglob("*.json")}
        main(args)
        second = capsys.readouterr().out
        assert first == second, "cached rerun must be byte-identical"
        assert mtimes == {
            p: p.stat().st_mtime_ns for p in cache.rglob("*.json")
        }, "cached rerun must not rewrite entries"


class TestCacheArtifactVerbs:
    def _warm(self, tmp_path):
        cache = tmp_path / "cache"
        main(["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
              "--cache-dir", str(cache)])
        return cache

    def test_info_mentions_artifacts(self, tmp_path, capsys):
        cache = self._warm(tmp_path)
        capsys.readouterr()
        main(["cache", "info", "--cache-dir", str(cache)])
        assert "artifacts :" in capsys.readouterr().out

    def test_clear_clears_both_stores(self, tmp_path, capsys):
        cache = self._warm(tmp_path)
        assert list((cache / "artifacts").rglob("*.json"))
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 cached records" in out
        assert "artifacts" in out
        assert not [p for p in cache.rglob("*.json")
                    if "artifacts" not in p.parts]
        assert not list((cache / "artifacts").rglob("*.json"))

    def test_prune_requires_and_parses_age(self, tmp_path, capsys):
        import os
        import time

        from repro.api.cli import parse_age

        assert parse_age("90") == 90.0
        assert parse_age("30m") == 1800.0
        assert parse_age("12h") == 43200.0
        assert parse_age("7d") == 7 * 86400.0
        for bad in ("soon", "nan", "inf", "-5", "nand"):
            with pytest.raises(Exception):
                parse_age(bad)

        cache = self._warm(tmp_path)
        capsys.readouterr()
        rc = main(["cache", "prune", "--cache-dir", str(cache)])
        assert rc == 2, "prune without --older-than is a clean error"
        capsys.readouterr()

        capsys.readouterr()
        rc = main(["cache", "prune", "--older-than", "soonish",
                   "--cache-dir", str(cache)])
        assert rc == 2, "malformed --older-than is a clean error"
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

        stale = time.time() - 3 * 86400
        record_entries = [p for p in cache.rglob("*.json")
                          if "artifacts" not in p.parts]
        assert record_entries
        for path in record_entries:
            os.utime(path, (stale, stale))
        assert main(["cache", "prune", "--older-than", "1d",
                     "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 records" in out
        assert "pruned 0 artifacts" in out
        assert not [p for p in cache.rglob("*.json")
                    if "artifacts" not in p.parts]
        # Artifact files were fresh, so they all survive.
        assert list((cache / "artifacts").rglob("*.json"))


#: Files older versions kept in the cache directory, beside the stores:
#: surrogate models, run journals and the persisted shard index.
LEFTOVERS = {
    "surrogate": "surrogate/model-0123abcd.json",
    "journal": "journal/0123abcd.jsonl",
    "index-meta": "index.meta",
}


@pytest.mark.parametrize("leftover", sorted(LEFTOVERS))
class TestFilesOlderVersionsLeftBehind:
    """Files an older version left in the cache directory are not part
    of any store: the cache verbs neither count nor remove them."""

    def _cache_with(self, tmp_path, leftover):
        cache = tmp_path / "cache"
        main(["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
              "--cache-dir", str(cache)])
        old = cache / LEFTOVERS[leftover]
        old.parent.mkdir(exist_ok=True)
        old.write_text("{}")
        return cache, old

    def test_info_reports_only_the_stores(self, tmp_path, capsys, leftover):
        cache, _ = self._cache_with(tmp_path, leftover)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        labels = [line.split(":")[0].strip() for line in out.splitlines()]
        assert labels == ["cache dir", "records", "artifacts", "size",
                          "version"]
        assert "records   : 1" in out

    def test_clear_leaves_it_alone(self, tmp_path, capsys, leftover):
        cache, old = self._cache_with(tmp_path, leftover)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2, "one line per store"
        assert out[0].startswith("removed 1 cached records")
        assert old.read_text() == "{}"

    def test_prune_leaves_it_alone(self, tmp_path, capsys, leftover):
        import os
        import time

        cache, old = self._cache_with(tmp_path, leftover)
        stale = time.time() - 3 * 86400
        for path in cache.rglob("*"):
            os.utime(path, (stale, stale))
        capsys.readouterr()
        assert main(["cache", "prune", "--older-than", "1d",
                     "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2, "one line per store"
        assert out[0].startswith("pruned 1 records")
        assert old.read_text() == "{}"


class TestRetiredFlags:
    @pytest.mark.parametrize("argv", [
        ["surrogate"],
        ["surrogate", "train"],
        ["scenarios", "sweep", "--budget", "5"],
        ["scenarios", "sweep", "--surrogate", "latest"],
        ["scenarios", "sweep", "--explore-frac", "0.2"],
        ["scenarios", "sweep", "--surrogate-seed", "1"],
        ["run", "gsmdec", "--resume"],
        ["scenarios", "sweep", "--resume"],
        ["cache", "artifacts"],
    ])
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestScenarioErrorPaths:
    def test_report_on_an_empty_store_is_clean_and_nonzero(self, tmp_path,
                                                           capsys):
        rc = main(["scenarios", "report", "--seed", "1", "--count", "2",
                   "--cache-dir", str(tmp_path / "empty")])
        assert rc == 1, "an absent sweep is not a passed check"
        out = capsys.readouterr().out
        assert "DIFFERENTIAL CHECK INCOMPLETE" in out
        assert "repro scenarios sweep" in out

    def test_bad_machine_name_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["scenarios", "sweep", "--count", "1",
                   "--machine", "gen-bogus", "--scale", "0.1",
                   "--cache-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestCheckScheduleCommand:
    """``repro check schedule`` compiles a cross; each compile's check
    stage decides its verdict."""

    ARGV = ["check", "schedule", "gsmdec", "-v", "mdc/prefclus",
            "-v", "ddgt/mincoms"]

    def test_a_clean_cross_is_verified(self, capsys):
        assert main(self.ARGV) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verdict: all schedules verified"
        # gsmdec's two loops under each variant.
        assert len(lines) == 5
        assert all(line.endswith(" clean") for line in lines[:-1])

    def test_a_finding_fails_the_run_and_is_printed(self, capsys,
                                                    monkeypatch):
        import repro.sched.stages as stages
        from repro.sched.lint import LintFinding

        assert main(self.ARGV) == 0
        clean = capsys.readouterr().out.splitlines()[:-1]
        monkeypatch.setattr(
            stages, "lint_compilation",
            lambda result: [LintFinding("resource", "seeded overcommit")],
        )
        assert main(self.ARGV) == 1
        lines = capsys.readouterr().out.splitlines()
        # Each cell keeps its II and reports its finding under it.
        expected = []
        for line in clean:
            expected += [line[:-len("clean")] + "1 finding(s)",
                         "    [resource] seeded overcommit"]
        assert lines == expected + ["verdict: 4 finding(s)"]


class TestFigureCommand:
    def test_figure7_small_subset(self, tmp_path, capsys):
        out_file = tmp_path / "figure7.txt"
        rc = main([
            "figure", "7", "--benchmarks", "gsmdec", "--scale", "0.1",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out_file),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Figure 7" in text
        assert out_file.read_text().strip() in text


class TestModuleInvocation:
    def test_python_dash_m_repro_list(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, check=True, env=env,
        )
        assert "mdc/prefclus" in out.stdout

    def test_console_entry_point_metadata(self):
        """pyproject must wire the `repro` script to repro.api.cli:main."""
        text = (Path(__file__).resolve().parent.parent /
                "pyproject.toml").read_text()
        assert 'repro = "repro.api.cli:main"' in text
