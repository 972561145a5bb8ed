"""Tests for the benchmark's own parts: span arithmetic, oracles, checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import archive
import oracles
import tracing
import worker
from firesim import cli
from firesim.scenario import build_from_seed, default_config


def span(sid, parent, name, start, end, trace="t"):
    return (sid, parent, trace, name, start, end)


# -- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [span(1, 0, "child", 10, 30), span(2, 0, "child", 40, 50),
             span(3, 1, "grandchild", 12, 20), span(0, -1, "root", 0, 100)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 70, 1: 12, 2: 10, 3: 8}


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [span(0, -1, "root", 0, 100), span(1, 0, "a", 10, 40),
             span(2, 0, "b", 30, 60), span(3, 0, "c", 90, 120)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_layer_metrics_total_counts_outermost_span_only():
    # expand_preset calls default_config: the nested span must not add twice
    spans = [span(0, -1, "cli.main", 0, 1_000_000_000),
             span(1, 0, "scenario.expand_preset", 0, 400_000_000),
             span(2, 1, "scenario.default_config", 0, 100_000_000),
             span(3, 0, "scenario.default_config", 500_000_000, 600_000_000)]
    got = tracing.layer_metrics(spans, Counter({"socialgraph.edges": 10}), operations=2)
    assert got["scenario.config_s"] == {"value": pytest.approx(0.25), "unit": "s"}
    assert got["socialgraph.edges"]["value"] == 5
    assert got["scenario.builds"]["value"] == 0
    assert set(got) == {name for name, *_ in tracing.LAYER_METRICS}


def test_tracer_records_fork_steps_apart_and_restores_originals(tmp_path):
    original = cli.build_from_seed
    tracer = tracing.Tracer()
    tracer.trace_id = "op0"
    tracer.install()
    try:
        assert cli.build_from_seed is not original
        code = cli.main(["compare", "--preset", "defended_baseline", "--toggle",
                         "defense_playbook", "--seeds", "0..1", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.build_from_seed is original
    names = Counter(s[3] for s in tracer.spans)
    ticks = default_config().run.ticks
    assert names["scenario.build_simulation"] == 4
    assert names[tracing.STEP] == 4 * ticks
    assert names[tracing.FORK_STEP] > 0
    assert names["contagion.Simulation.fork_bots_dormant"] == names["agents.AccountTable.copy"]
    by_id = {s[0]: s for s in tracer.spans}
    for s in tracer.spans:
        if s[3] == tracing.FORK_STEP:
            assert by_id[s[1]][3] == tracing.STEP
    assert {s[2] for s in tracer.spans} == {"op0", "op0/seed0", "op0/seed1"}
    assert tracer.counts["socialgraph.follower_lookups"] > 0


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    emitted.update({"import.total_s": "s", "trace.overhead_pct": "%"})
    emitted.update({name: "s" for name, _ in worker.IMPORT_GROUPS})
    assert listed == emitted


def test_import_times_groups_by_top_level_package():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1000 |       1000 |   numpy.core\n"
              "import time:      2000 |       5000 | scipy\n"
              "import time:       500 |        500 |     firesim.cli\n"
              "import time:       100 |        100 | json\n")
    got = worker.import_times(stderr)
    assert got == pytest.approx({"import.total_s": 0.0036, "import.numpy_s": 0.001,
                                 "import.scipy_s": 0.002, "import.firesim_s": 0.0005})


# -- oracles on small inputs -----------------------------------------------------

def test_binomial_tails_match_scipy_and_hand_values():
    from scipy.stats import binomtest
    assert oracles.binomial_tails(3, 3) == (0.125, 1.0)
    assert oracles.binomial_tails(0, 4) == (1.0, 1 / 16)
    for n in range(1, 41):
        for k in range(n + 1):
            greater, less = oracles.binomial_tails(k, n)
            assert abs(greater - binomtest(k, n, alternative="greater").pvalue) <= 1e-12
            assert abs(less - binomtest(k, n, alternative="less").pvalue) <= 1e-12


def test_bin_windows_matches_a_loop_over_posts():
    rng = np.random.default_rng(5)
    ticks = np.sort(rng.integers(0, 50, 400))
    vals = rng.uniform(-1, 1, 400)
    vals[:5] = [0.05, -0.05, 0.0, 0.050001, -0.050001]  # band edges
    got = oracles.bin_windows(ticks, vals, 57, width=20, band=0.05, alpha=15.0)
    assert [w["end_tick"] for w in got] == [20, 40, 57]
    for w in got:
        inside = [v for t, v in zip(ticks, vals) if w["start_tick"] <= t < w["end_tick"]]
        n = len(inside)
        s = math.fsum(inside)
        assert w["post_count"] == n
        assert w["negative"] == sum(v < -0.05 for v in inside) / n
        assert w["positive"] == sum(v > 0.05 for v in inside) / n
        assert w["compound"] == pytest.approx(s / math.sqrt(s * s + 15.0), abs=1e-12)
    empty = oracles.bin_windows(np.array([1]), np.array([0.5]), 40, width=20,
                                band=0.05, alpha=15.0)[1]
    assert (empty["post_count"], empty["negative"], empty["compound"]) == (0, None, 0.0)


def test_archive_truth_is_what_analyze_reports(tmp_path):
    text, truth = archive.generate(3, 600)
    assert truth.rows == 600 + 36 + 24 and len(text.splitlines()) == truth.rows + 1
    path = tmp_path / "archive.csv"
    path.write_text(text, encoding="utf-8")
    config = tmp_path / "analyze.json"
    config.write_text(json.dumps(archive.analysis_config()))
    out = tmp_path / "out"
    assert cli.main(["analyze", str(path), "--config", str(config), "--out", str(out)]) == 0
    expected = truth.expected()
    assert 0.0 < expected["artificial_score"] < 1.0
    assert oracles.check_analysis(out, expected) == []

    volume = out / "volume.csv"
    volume.write_text(volume.read_text() + f"{expected['span']},0\n")  # one tick too many
    assert any("volume.csv" in p and "ticks" in p for p in oracles.check_analysis(out, expected))

    result = json.loads((out / "analysis.json").read_text())
    result["duplicates"] += 1
    (out / "analysis.json").write_text(json.dumps(result))
    assert any("duplicates" in p for p in oracles.check_analysis(out, expected))


def test_archive_is_a_function_of_the_seed():
    assert archive.generate(7, 300)[0] == archive.generate(7, 300)[0]
    assert archive.generate(7, 300)[0] != archive.generate(8, 300)[0]


# -- the checks reject corrupted outputs -------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    cfg = default_config()
    sim = build_from_seed(cfg, 4)
    sim.run(cfg.run.ticks)
    out = tmp_path_factory.mktemp("report")
    assert cli.main(["run", "--seed", "4", "--out", str(out)]) == 0
    windows, per_tick = oracles.storm_expectations(sim)
    return out, windows, per_tick, cfg.run.ticks


def _corrupt(src, tmp_path, name, edit):
    dst = tmp_path / "corrupt"
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_storm_report_passes_its_checks(small_report):
    out, windows, per_tick, ticks = small_report
    assert oracles.check_storm_report(out, windows, per_tick, ticks) == []


def _bump_organic_on_first_tick(text):
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)  # organic_posts
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, edit, needle", [
    ("sentiment_windows.csv",
     lambda t: t.replace(t.splitlines()[1].rsplit(",", 1)[1], "-0.5"), "compound"),
    ("sentiment_windows.csv", lambda t: t.splitlines()[0] + "\n", "windows"),
    ("history.csv", _bump_organic_on_first_tick, "organic + bot"),
    ("financial.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "financial.csv"),
])
def test_storm_checks_reject_a_corrupted_report(small_report, tmp_path, name, edit, needle):
    out, windows, per_tick, ticks = small_report
    bad = _corrupt(out, tmp_path, name, edit)
    problems = oracles.check_storm_report(bad, windows, per_tick, ticks)
    assert any(needle in p for p in problems), problems


def test_compare_checks_accept_real_and_reject_corrupted_summaries(tmp_path):
    assert cli.main(["compare", "--preset", "defended_baseline", "--toggle",
                     "defense_playbook", "--seeds", "0..3", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    seeds = [0, 1, 2, 3]
    assert oracles.check_compare(summary, seeds) == (set(), [])

    wrong_delta = json.loads(json.dumps(summary))
    wrong_delta["pairs"][1]["delta"]["peak_total_posts"] += 1.0
    bad, problems = oracles.check_compare(wrong_delta, seeds)
    assert 1 in bad and any("on - off" in p for p in problems)

    wrong_p = json.loads(json.dumps(summary))
    metric = next(m for m, s in wrong_p["summary"].items() if s["p_greater"] is not None)
    wrong_p["summary"][metric]["p_greater"] += 1e-9
    bad, problems = oracles.check_compare(wrong_p, seeds)
    assert bad == set(seeds) and any("p-values" in p for p in problems)

    missing = json.loads(json.dumps(summary))
    missing["pairs"].pop()
    bad, problems = oracles.check_compare(missing, seeds)
    assert bad and any("one per seed" in p for p in problems)
