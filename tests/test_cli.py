import contextlib
import io
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from firesim import cli, pool, scenario
from firesim.analytics import load_sentiment_summaries
from firesim.scenario import ConfigError, config_from_dict, dumps_config


def _read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def _small_config(tmp_path, **overrides) -> Path:
    data = {"graph": {"n": 300, "m": 3},
            "attack": {"bots": 60},
            "run": {"ticks": 60}}
    data.update(overrides)
    path = tmp_path / "small.json"
    path.write_text(dumps_config(config_from_dict(data)))
    return path


# -- plumbing ---------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == "firesim 0.1.0"


def test_parse_seed_range():
    assert cli._parse_seed_range("3..5") == [3, 4, 5]
    assert cli._parse_seed_range("7") == [7]
    assert cli._parse_seed_range("0..0") == [0]
    with pytest.raises(ConfigError):
        cli._parse_seed_range("5..3")
    with pytest.raises(ConfigError):
        cli._parse_seed_range("a..b")
    with pytest.raises(ConfigError):
        cli._parse_seed_range("1-4")
    with pytest.raises(ConfigError):
        cli._parse_seed_range("-2..-1")
    with pytest.raises(ConfigError):
        cli._parse_seed_range("-1..3")


def test_out_root_env_sets_default_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
    cfg_path = _small_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "root" / "run" / "run_metadata.json").exists()


# -- exit codes --------------------------------------------------------------------

def test_config_and_preset_conflict_is_exit_2(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    code = cli.main(["run", "--config", str(cfg_path), "--preset", "organic_only",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"graph": {"n": -5}}', "graph.n"),
    # Infinity once ran to a report of NaN rows and non-JSON metadata
    ('{"agents": {"gamma_direct": Infinity}}', "agents.gamma_direct: must be a finite number, got inf"),
    # json.loads once ended this in a RecursionError traceback with exit 1
    ("[" * 100_000, "config is nested too deeply to parse"),
    # json.loads once ended this in a ValueError traceback with exit 1
    pytest.param('{"graph": {"n": %s}}' % ("1" * 5000),
                 "config holds an integer of more than 4300 digits", id="5000-digits"),
    # float() once ended these in an OverflowError traceback with exit 1
    pytest.param('{"agents": {"beta": %s}}' % ("1" * 400),
                 "agents.beta: must be a finite number, got 111111111111111111...1",
                 id="past-float"),
    pytest.param('{"agents": {"class_multipliers": {"social": 1%s}}}' % ("0" * 400),
                 "agents.class_multipliers.social: must be a finite number",
                 id="past-float-in-a-mapping"),
])
def test_invalid_config_is_exit_2_and_writes_nothing(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_missing_config_file_is_exit_3(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_bad_seed_range_is_exit_2(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    code = cli.main(["batch", "--config", str(cfg_path), "--seeds", "9..1",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["batch", "compare"])
def test_seed_range_past_the_cap_is_exit_2_before_any_seed_list(monkeypatch, tmp_path,
                                                                  capsys, command):
    """The range is checked from its ends, so even a billion seeds are
    refused without building their list."""
    monkeypatch.setattr(cli, "MAX_SEEDS", 10)
    assert cli._parse_seed_range("5..14") == list(range(5, 15))
    monkeypatch.setattr(cli, "range", lambda *args: pytest.fail("seed list built"), raising=False)
    argv = [command, "--seeds", "0..1000000000", "--out", str(tmp_path / "out")]
    if command == "compare":
        argv += ["--toggle", "ransom_paid"]
    assert cli.main(argv) == 2
    assert "'0..1000000000' names 1000000001 seeds; at most 10" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["batch", "compare"])
def test_unwritable_out_is_exit_3_before_any_seed_runs(monkeypatch, tmp_path, capsys,
                                                         command):
    """``--out`` naming a regular file is probed once, before the first seed."""
    builds = []
    monkeypatch.setattr(cli, "build_from_seed", lambda *args: builds.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [command, "--config", str(_small_config(tmp_path)), "--seeds", "0..3",
            "--out", str(blocker)]
    if command == "compare":
        argv += ["--toggle", "retarget_bots"]
    assert cli.main(argv) == 3
    assert "i/o error" in capsys.readouterr().err
    assert builds == []
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["run", "--config", "{neg}"],
    ["batch", "--seeds=-2..-1"],
    ["compare", "--seeds=-1..0", "--toggle", "ransom_paid"],
])
def test_negative_seed_is_exit_2_and_writes_nothing(tmp_path, capsys, argv):
    neg = tmp_path / "neg.json"
    neg.write_text('{"run": {"seed": -1}}')
    out = tmp_path / "out"
    argv = [a.replace("{neg}", str(neg)) for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and ("negative seed" in err or "run.seed" in err)
    assert not out.exists() or not any(out.iterdir())


def test_missing_archive_is_exit_3(tmp_path, capsys):
    code = cli.main(["analyze", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    capsys.readouterr()


def test_corrupt_archive_is_exit_4(tmp_path, capsys):
    archive = tmp_path / "bad.csv"
    rows = ["timestamp,author_id,author_created_at,surface,valence"]
    rows += ["junk,junk,junk,junk,junk"] * 8 + ["100,7,50,general_stream,-0.5"]
    archive.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 4
    assert "archive error" in capsys.readouterr().err
    assert not any(out.glob("analysis.json"))


def test_empty_archive_is_exit_4(tmp_path, capsys):
    archive = tmp_path / "empty.csv"
    archive.write_text("")
    assert cli.main(["analyze", str(archive), "--out", str(tmp_path / "out")]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("bad_row", [b"100,7,50,\xff\xfe,-0.5",
                                     b"100,7,50," + b"x" * 131_073 + b",-0.5"],
                         ids=["not-utf8", "field-over-limit"])
def test_unreadable_archive_is_exit_4(tmp_path, capsys, bad_row):
    """Bytes that are not UTF-8, or a field over the CSV reader's limit."""
    archive = tmp_path / "bad.csv"
    archive.write_bytes(b"timestamp,author_id,author_created_at,surface,valence\n"
                        b"100,7,50,general_stream,-0.5\n" + bad_row + b"\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 4
    assert "archive error" in capsys.readouterr().err
    assert not any(out.glob("analysis.json"))


def _kappa_config(tmp_path, kappa: float) -> Path:
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps({"analytics": {"kappa": kappa}}))
    return path


# a large kappa also drives the proxy down to its floor, which warns once per run
_FLOOR_WARNING = pytest.mark.filterwarnings("ignore:financial proxy clamped:UserWarning")


@_FLOOR_WARNING
def test_financial_proxy_overflow_is_exit_4_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(_kappa_config(tmp_path, 1e200)), "--seed", "0",
                     "--out", str(out)])
    assert code == 4
    assert "run error: financial proxy value inf" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@_FLOOR_WARNING
def test_financial_proxy_overflow_is_a_seed_error_in_batch_and_compare(tmp_path, capsys):
    cfg = str(_kappa_config(tmp_path, 1e200))
    assert cli.main(["batch", "--config", cfg, "--seeds", "0..1",
                     "--out", str(tmp_path / "batch")]) == 4
    assert cli.main(["compare", "--config", cfg, "--seeds", "0", "--toggle", "defense_playbook",
                     "--out", str(tmp_path / "compare")]) == 4
    capsys.readouterr()
    batch = json.loads((tmp_path / "batch" / "batch_summary.json").read_text())
    compare = json.loads((tmp_path / "compare" / "compare_summary.json").read_text())
    assert [e["seed"] for e in batch["errors"]] == [0, 1] and batch["outcomes"] == []
    assert [e["seed"] for e in compare["errors"]] == [0]
    for error in batch["errors"] + compare["errors"]:
        assert error["error"].startswith("FinancialOverflowError: ")


@_FLOOR_WARNING
def test_large_finite_financial_proxy_still_runs(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(_kappa_config(tmp_path, 1e6)), "--seed", "0",
                     "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    final = json.loads((out / "run_metadata.json").read_text())["outcome"]["final_financial_value"]
    assert final == pytest.approx(2.1e173, rel=0.01)


def test_analyze_counts_tick_outside_int64_as_malformed(tmp_path, capsys):
    rows = ["timestamp,author_id,author_created_at,surface,valence",
            "100000000000000000000,7,50,general_stream,-0.5"]
    rows += [f"{100 + i},{i},50,general_stream,-0.5" for i in range(3)]
    archive = tmp_path / "big.csv"
    archive.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "analysis.json").read_text())
    assert (payload["rows"], payload["malformed"], payload["posts"]) == (4, 1, 3)
    assert payload["base_tick"] == 100


def test_analyze_tick_span_outside_int64_is_exit_4(tmp_path, capsys):
    archive = tmp_path / "span.csv"
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\n"
                       "-9000000000000000000,7,50,general_stream,-0.5\n"
                       "9000000000000000000,8,50,general_stream,-0.5\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 4
    assert "span more than" in capsys.readouterr().err
    assert not any(out.glob("analysis.json"))


def test_analyze_tick_span_over_the_cap_is_exit_4(tmp_path, capsys):
    """One volume row per tick of the span: a 51-row archive reaching tick
    3,600,000 is refused before any row is allocated or any file written."""
    rows = ["timestamp,author_id,author_created_at,surface,valence"]
    rows += [f"{i},{i},0,general_stream,-0.5" for i in range(50)]
    rows.append("3600000,99,0,general_stream,-0.5")
    archive = tmp_path / "wide.csv"
    archive.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 4
    assert f"span more than {cli.MAX_TICK_SPAN:,} ticks" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_analyze_help_lists_no_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["analyze", "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert "--config" in text and "--seed" not in text


def test_analyze_without_a_fit_writes_strict_json(tmp_path, capsys):
    """Two posts 30 ticks apart leave a forecast tail with one nonzero tick,
    so there is no fit and no finite relative RMSE to write."""
    archive = tmp_path / "sparse.csv"
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\n"
                       "0,7,0,general_stream,-0.5\n"
                       "30,8,0,general_stream,-0.5\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 0
    capsys.readouterr()

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads((out / "analysis.json").read_text(), parse_constant=reject)
    assert payload["forecast"]["relative_rmse"] is None
    assert payload["forecast"]["classification"] == "random"


def test_analyze_forecast_past_float_range_writes_null(tmp_path, capsys):
    """A rising post-peak tail projected 5,000 ticks ahead leaves float range:
    those values are written as null, not raised as OverflowError."""
    rows = ["timestamp,author_id,author_created_at,surface,valence"]
    for tick, volume in enumerate((10, 1, 5, 10)):
        rows += [f"{tick},{tick * 100 + k},0,general_stream,-0.5" for k in range(volume)]
    archive = tmp_path / "rising.csv"
    archive.write_text("\n".join(rows) + "\n")
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text(json.dumps({"analytics": {"forecast_horizon": 5000,
                                                  "forecast_window": 4}}))
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    forecast = json.loads((out / "analysis.json").read_text(),
                          parse_constant=reject)["forecast"]
    values = forecast["values"]
    assert len(values) == 5000 and forecast["decay_rate"] > 1.0
    assert values[0] > 10.0 and values[-1] is None
    first_null = values.index(None)
    assert all(isinstance(v, float) for v in values[:first_null])
    assert values[first_null:] == [None] * (5000 - first_null)


# -- determinism --------------------------------------------------------------------

def test_run_twice_is_byte_identical(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert _read_tree(out_a) == _read_tree(out_b)


def test_seed_override_changes_the_world(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert _read_tree(out_a)["history.csv"] != _read_tree(out_b)["history.csv"]


_RUN_OUTCOME = cli._run_outcome


def _outcome_failing_on_seed_2(cfg, seed):
    """``cli._run_outcome`` that raises on seed 2 (at module level, so that a
    pool can pickle it)."""
    if seed == 2:
        raise RuntimeError("seed 2 fails")
    return _RUN_OUTCOME(cfg, seed)


def test_batch_parallelism_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    cfg_path = _small_config(tmp_path)
    for failing in (False, True):
        if failing:  # a failed seed's error row, traceback and all, is the same too
            monkeypatch.setattr(cli, "_run_outcome", _outcome_failing_on_seed_2)
        out_a, out_b = tmp_path / f"serial-{failing}", tmp_path / f"parallel-{failing}"
        code = 4 if failing else 0
        assert cli.main(["batch", "--config", str(cfg_path), "--seeds", "0..3",
                         "--out", str(out_a)]) == code
        assert cli.main(["batch", "--config", str(cfg_path), "--seeds", "0..3",
                         "--parallelism", "2", "--out", str(out_b)]) == code
        capsys.readouterr()
        assert (out_a / "batch_summary.json").read_bytes() == \
            (out_b / "batch_summary.json").read_bytes()
    summary = json.loads((out_b / "batch_summary.json").read_text())
    [error] = summary["errors"]
    assert [o["seed"] for o in summary["outcomes"]] == [0, 1, 3]
    assert (error["seed"], error["error"]) == (2, "RuntimeError: seed 2 fails")
    assert error["traceback"].startswith("Traceback (most recent call last):")
    assert error["traceback"].rstrip().endswith("RuntimeError: seed 2 fails")
    assert "_outcome_failing_on_seed_2" in error["traceback"]


@pytest.mark.parametrize("cpus,parallelism,tasks,expected", [
    (2, 10_000, 100, 2),   # a huge --parallelism is capped at the CPUs
    (8, 4, 3, 3),          # no more workers than tasks
    (8, 4, 100, 4),
    (None, 6, 100, 1),     # unknown CPU count: run serially
    (2, 1, 100, 1),
])
def test_pool_size_is_clamped(monkeypatch, cpus, parallelism, tasks, expected):
    monkeypatch.setattr(pool.os, "cpu_count", lambda: cpus)
    assert pool.pool_size(parallelism, tasks) == expected


# -- payload shapes --------------------------------------------------------------------

def test_batch_summary_structure(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["batch", "--config", str(cfg_path), "--seeds", "0..2",
                     "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "ok=3 failed=0" in stdout
    payload = json.loads((out / "batch_summary.json").read_text())
    assert payload["schema_version"] == 1 and payload["command"] == "batch"
    assert payload["seeds"] == [0, 1, 2]
    assert [o["seed"] for o in payload["outcomes"]] == [0, 1, 2]
    assert payload["errors"] == []
    aggregate = payload["aggregate"]
    assert 0.0 <= aggregate["ignited_rate"] <= 1.0
    stats = aggregate["total_posts"]
    assert stats["ci95_low"] <= stats["mean"] <= stats["ci95_high"]
    assert stats["n"] == 3


def test_compare_summary_structure(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg_path), "--toggle", "ransom_paid",
                     "--seeds", "0..1", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "compare_summary.json").read_text())
    assert payload["toggle"] == "ransom_paid"
    assert len(payload["pairs"]) == 2 and payload["errors"] == []
    for pair in payload["pairs"]:
        assert set(pair) == {"seed", "on", "off", "delta"}
        assert pair["delta"]["ransom_paid_total"] == pytest.approx(
            pair["on"]["ransom_paid_total"] - pair["off"]["ransom_paid_total"])
        # the paying arm books the ransom, the refusing arm never does
        assert pair["on"]["ransom_paid_total"] > 0.0
        assert pair["off"]["ransom_paid_total"] == 0.0
    summary = payload["summary"]["ransom_paid_total"]
    assert summary["positive"] == 2 and summary["negative"] == 0
    assert set(summary) >= {"mean", "ci95_low", "ci95_high", "n",
                            "positive", "negative", "ties", "p_greater", "p_less"}


def test_compare_builds_one_world_per_seed(monkeypatch):
    """Both arms of a pair run on the world their seed builds once."""
    built = []
    generate = scenario.generate_scale_free
    monkeypatch.setattr(scenario, "generate_scale_free",
                        lambda *args: built.append(args) or generate(*args))
    cfg = config_from_dict({"graph": {"n": 300}, "attack": {"bots": 60},
                            "run": {"ticks": 40}})
    payload = cli.compare_toggle(cfg, "defense_playbook", [0, 1], parallelism=1)
    assert len(payload["pairs"]) == 2 and payload["errors"] == []
    assert len(built) == 2


def test_unknown_toggle_rejected_by_parser(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["compare", "--config", str(cfg_path), "--toggle", "nonsense",
                  "--seeds", "0..1", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_binomial_tails_match_scipy():
    from scipy.stats import binom  # what binomtest evaluates for p = 1/2

    for n in range(1, 201):
        k = np.arange(n + 1)
        greater = binom.sf(k - 1, n, 0.5)
        less = binom.cdf(k, n, 0.5)
        for successes in range(n + 1):
            ours = cli._binomial_tails(successes, n)
            assert abs(ours[0] - greater[successes]) <= 1e-12, (successes, n)
            assert abs(ours[1] - less[successes]) <= 1e-12, (successes, n)
    assert cli._binomial_tails(3, 3) == (0.125, 1.0)
    assert cli._binomial_tails(0, 2) == (1.0, 0.25)


def test_outputs_follow_the_umask(tmp_path, capsys):
    cfg_path = _small_config(tmp_path)
    archive = _engineered_archive(tmp_path)
    old = os.umask(0o022)
    try:
        assert cli.main(["batch", "--config", str(cfg_path), "--seeds", "0",
                         "--out", str(tmp_path / "batch")]) == 0
        assert cli.main(["compare", "--config", str(cfg_path), "--seeds", "0",
                         "--toggle", "ransom_paid", "--out", str(tmp_path / "compare")]) == 0
        assert cli.main(["analyze", str(archive), "--out", str(tmp_path / "analyze")]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    written = {p.relative_to(tmp_path).as_posix(): stat.S_IMODE(p.stat().st_mode)
               for d in ("batch", "compare", "analyze") for p in (tmp_path / d).iterdir()}
    assert written == {
        "batch/batch_summary.json": 0o644,
        "compare/compare_summary.json": 0o644,
        "analyze/analysis.json": 0o644,
        "analyze/sentiment_windows.csv": 0o644,
        "analyze/volume.csv": 0o644,
    }


# -- analyze -----------------------------------------------------------------------------

def _engineered_archive(tmp_path, window=24) -> Path:
    """Five sentiment windows; the fourth is dominated by backlash."""
    rows = ["timestamp,author_id,author_created_at,surface,valence"]
    author = 0
    for w in range(5):
        valence = -0.8 if w == 3 else 0.4
        # decaying volume: 16, 12, 8, 6, 4 posts per window
        for i in range([16, 12, 8, 6, 4][w]):
            tick = w * window + (i % window)
            rows.append(f"{tick},{author},{-9000 + author},general_stream,{valence + (i % 3) * 0.01}")
            author += 1
    path = tmp_path / "archive.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_analyze_windows_and_outputs(tmp_path, capsys):
    archive = _engineered_archive(tmp_path)
    cfg_path = tmp_path / "daily.json"
    cfg_path.write_text('{"analytics": {"sentiment_window": 24}}')
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["posts"] == 46 and payload["malformed"] == 0
    assert len(payload["windows"]) == 5
    compounds = [w["compound"] for w in payload["windows"]]
    assert sum(1 for c in compounds if c < 0) == 1 and compounds[3] < 0
    # ancient author accounts: nothing should look artificial
    assert payload["verdict"]["artificial_score"] == 0.0
    assert payload["forecast"]["classification"] in ("predictable", "random")

    rows = load_sentiment_summaries((out / "sentiment_windows.csv").read_text())
    assert [r.compound for r in rows] == compounds
    volume_lines = (out / "volume.csv").read_text().splitlines()
    assert volume_lines[0] == "tick,posts"
    total = sum(int(line.split(",")[1]) for line in volume_lines[1:])
    assert total == 46


def test_analyze_flags_young_accounts(tmp_path, capsys):
    rows = ["timestamp,author_id,author_created_at,surface,valence"]
    for i in range(30):
        rows.append(f"{100 + i},{i},{95 + i % 3},general_stream,-0.6")
    archive = tmp_path / "young.csv"
    archive.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["verdict"]["artificial_score"] == 1.0


def test_analyze_verdict_keeps_the_last_stamp_of_a_repeated_author(tmp_path, capsys):
    """Author 7 holds two of the first six posts with different creation
    stamps: the later row's stamp is the one aged.  Pinned before the
    detector took parallel id and stamp columns."""
    rows = ["1006,11,1006,general_stream,-0.5",
            "1002,7,-3000,company_page,-0.4",
            "1000,7,990,general_stream,-0.6",
            "1004,9,996,,-0.3",
            "1030,12,1029,general_stream,0.2",
            "1001,8,-5000,company_page,0.1",
            "1003,9,995,general_stream,-0.7",
            "1005,10,1000,general_stream,-0.2"]
    archive = tmp_path / "archive.csv"
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\n"
                       + "\n".join(rows) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"defense": {"detect_first_k": 6, "age_threshold": 48}}')
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    verdict = json.loads((out / "analysis.json").read_text())["verdict"]
    assert verdict == {
        "artificial_score": 0.5, "db_matched": [],
        "evidence": {"10": 30, "7": 4030, "8": 6030, "9": 34},
        "flagged": [9, 10], "note": "only 4 of 6 requested early posts available",
        "requested": 6, "sample_size": 4}


def test_analyze_header_only_archive_is_ok(tmp_path, capsys):
    archive = tmp_path / "empty_but_valid.csv"
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", str(archive), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["posts"] == 0 and payload["windows"] == []
    assert payload["verdict"] is None and payload["forecast"] is None


# -- the config front door ----------------------------------------------------------

_PRESET_TEXTS = [dumps_config(scenario.expand_preset(name)).encode()
                 for name in sorted(scenario.PRESETS)]
_FIELDS = [(section, name) for section, fields in json.loads(_PRESET_TEXTS[0]).items()
           if isinstance(fields, dict) for name in fields]
_LONG_INTEGER = b"1" * 5000
_LONG_KEY = b'"' + b"k" * 200_000 + b'"'
# bytes a broken or hostile config file may hold; each is spliced into a
# preset's text or stands as a field's value
_JUNK = st.sampled_from([
    _LONG_INTEGER, b"1" * 400, b"1" + b"0" * 400 + b".0", b"-" + b"9" * 4000,
    _LONG_KEY, b'"' + b"s" * 200_000 + b'"', b"[" + b"1," * 100_000 + b"1]",
    b"\xef\xbb\xbf", b"\x00", b"\xff\xfe", b"\xc3", b"\xed\xa0\x80", b'"\\ud800"',
    b"NaN", b"-Infinity", b"1e999", b"null", b"true", b"{}", b"[]", b'{"a": 1, "a": 2}',
    b"{" + _LONG_KEY + b": 1}", b'"kind"', b"}", b"]", b",", b":"])
_DEEP = st.integers(1, 100_000).flatmap(lambda depth: st.sampled_from([
    b"[" * depth + b"1" + b"]" * depth, b'{"a": ' * depth + b"1" + b"}" * depth, b"[" * depth]))


@st.composite
def _config_bytes(draw):
    """Config file bytes: a preset's text cut, spliced with another, or with
    junk put in; or junk as one field's value, key or the whole file."""
    text, other = draw(st.sampled_from(_PRESET_TEXTS)), draw(st.sampled_from(_PRESET_TEXTS))
    junk = draw(_JUNK | _DEEP)
    at = draw(st.integers(0, len(text)))
    section, name = draw(st.sampled_from(_FIELDS))
    return draw(st.sampled_from([
        text[:at],
        text[:at] + other[draw(st.integers(0, len(other))):],
        text[:at] + junk + text[at:],
        b'{"%s": {"%s": %s}}' % (section.encode(), name.encode(), junk),
        b'{"%s": {%s: 1}}' % (section.encode(), junk),
        b'{"%s": {"%s": {%s: 1}}}' % (section.encode(), name.encode(), junk),
        b"\xef\xbb\xbf" + text,
        text[:-1] + b', "%s": {}}' % section.encode(),
        junk,
    ]))


@given(data=_config_bytes())
@example(data=b'{"graph": {"n": %s}}' % _LONG_INTEGER)
@example(data=b'{"graph": {%s: 1}}' % _LONG_KEY)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_any_config_file_ends_in_a_report_or_a_short_config_error(data):
    """``analyze`` resolves ``--config`` as ``run`` does but builds no
    world: whatever the file holds, it writes the whole report (exit 0) or
    names the fault in a few hundred bytes (exit 2) and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive, config, out = tmp / "archive.csv", tmp / "config.json", tmp / "out"
        archive.write_text("timestamp,author_id,author_created_at,surface,valence\n"
                           "0,1,-9000,general_stream,0.5\n1,2,-9000,company_page,-0.5\n"
                           "2,3,-1,general_stream,0.1\n")
        config.write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", str(archive), "--config", str(config),
                             "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2) and "Traceback" not in err
        assert len(err.encode("utf-8", "backslashreplace")) <= 1000, err[:300]
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert written == (["analysis.json", "sentiment_windows.csv", "volume.csv"]
                           if code == 0 else [])


# -- integers the engine keeps in int64 or draws with -----------------------------------

_PAST_INT64 = 10 ** 30 - 1


@pytest.mark.parametrize("section,name,value", [
    ("agents", "max_posts_per_user", _PAST_INT64),
    ("contagion", "trend_samples", _PAST_INT64),
    ("attack", "bot_creation_age", _PAST_INT64),
    ("defense", "support_creation_age", _PAST_INT64),
    ("run", "user_creation_min", -_PAST_INT64),
], ids=lambda v: v if isinstance(v, str) else "past-int64")
def test_integer_past_int64_is_a_config_error(tmp_path, capsys, section, name, value):
    """Each of these once reached an int64 array or a numpy draw, and ``run``
    ended in an OverflowError or ValueError traceback with exit 1."""
    data = {"graph": {"n": 200}, "attack": {"bots": 20}, "run": {"ticks": 30},
            # the supporting-bots cohort is the one made support_creation_age old
            "defense": {"enabled": True,
                        "playbook": [{"kind": "supporting_bots", "trigger_tick": 1}]}}
    data.setdefault(section, {})[name] = value
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{name}: must " in err and "Traceback" not in err
    assert not out.exists()


# -- the reputation DB front door ---------------------------------------------------------

_RUN_FILES = ["financial.csv", "history.csv", "run_metadata.json", "sentiment_windows.csv"]
# run_metadata.json of the small DB run below is about 7.3 KB
_METADATA_BYTES = 16_384


def _run_with_db(directory: Path, db_bytes: bytes) -> list[dict]:
    """``run`` of a 300-user, 30-tick world whose shared account database
    policy arms at tick 1 and reads ``db_bytes``: the db_unavailable events
    of the whole report it writes."""
    db, config, out = directory / "accounts.tsv", directory / "config.json", directory / "out"
    db.write_bytes(db_bytes)
    config.write_text(json.dumps({
        "graph": {"n": 300}, "attack": {"bots": 20}, "run": {"ticks": 30},
        "defense": {"enabled": True, "db_path": str(db), "playbook": [
            {"kind": "shared_account_database", "trigger_tick": 1}]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == _RUN_FILES
    metadata = out / "run_metadata.json"
    assert metadata.stat().st_size <= _METADATA_BYTES
    return [event for event in json.loads(metadata.read_text(encoding="utf-8"))["events"]
            if event["kind"] == "db_unavailable"]


@pytest.mark.parametrize("db_bytes,reason", [
    # once quoted whole: run_metadata.json grew to 2,007,407 bytes
    (b"x" * 2_000_000 + b"\n", ":1: expected account_id, last_seen_tick and campaign_id "
                               "separated by tabs, got 'xxx"),
    # once "'utf-8' codec can't decode byte 0xff in position 42", naming neither
    (b"account_id\tlast_seen_tick\tcampaign_id\n7\t100\tspring\n42\t50\tspr\xffing\n",
     ":3: not UTF-8 text"),
], ids=["long-line", "not-utf8"])
def test_a_bad_reputation_db_is_named_briefly_in_a_whole_report(tmp_path, db_bytes, reason):
    [event] = _run_with_db(tmp_path, db_bytes)
    assert event["reason"].startswith(str(tmp_path / "accounts.tsv") + reason)
    assert len(event["reason"]) <= len(str(tmp_path)) + 200


@given(st.lists(st.sampled_from([b"7\t100\tspring\n", b"\t", b"\n", b"\r\n", b"42", b"x" * 5000,
                                 b"\xff", b"\xc3\xa9", b"account_id\tlast_seen_tick\tcampaign_id\n"]),
                max_size=12).map(b"".join))
@settings(max_examples=15, deadline=None)
def test_any_reputation_db_bytes_end_in_a_whole_report(db_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        for event in _run_with_db(Path(tmp), db_bytes):
            assert len(event["reason"]) <= len(tmp) + 200
