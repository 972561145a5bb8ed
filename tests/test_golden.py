"""Golden sha256 digests of CLI outputs for fixed seeds and a fixed archive.

The `run` and `batch` digests were recorded before the counterfactual fork
became a generic deep copy; the `analyze` digests were recorded before the
archive windows moved onto the array kernel.  Any refactor of the engine,
the fork or the report writers must leave these bytes unchanged; a change
that moves them on purpose has to re-record the tables and say why.
``scripts/golden_digests.py`` recomputes every table below.
"""

import contextlib
import hashlib
import io
import json
import os
from datetime import datetime, timezone

import pytest

from firesim import cli

RUN_DIGESTS = {
    ("default", 0): {
        "financial.csv": "662aa58b9d8b2f440b39372a28fcd3a303c998ed7493b4fa9c81261bd47bf0f2",
        "history.csv": "a6e6310588ea9e8132c5ccdfb081ed1540139b4543a34924805343a5be2185b4",
        "run_metadata.json": "0419bc454343e9e89ac5982de5e719928a393dd841b1bb8ea2610a1e78bd6002",
        "sentiment_windows.csv": "103cbb24038740fdbf5fde5972664176eb6e1623d6365f671a4d40842ee7c301",
    },
    ("default", 3): {
        "financial.csv": "f8e0d8d5b7fcdb04307981c7de455953f176913d36feab4edbd91de952767bc6",
        "history.csv": "e8a44df2574265834e195f1e249032f00f6a8c2f69a2d18404a0a865080f3037",
        "run_metadata.json": "de59572fda05f1002136fbfb23e4918ff2fc445268e7a8cdad5a2c8e59560081",
        "sentiment_windows.csv": "bbb3a5ff6e5186ea67184c2153748e99d221639e36e0182e9648bd2dfdb85780",
    },
    ("defended_baseline", 0): {
        "financial.csv": "9611feb0d17537b103b55b8d6c6876d191d5a24939f361a45d5934bda6d9bf23",
        "history.csv": "8b4f64d5e1efa57cad8ae6f74d9b2e27688016f4aef3948309c564fbf02a4f4e",
        "run_metadata.json": "b366f15fde110af9583fcf5421318d3ada41b1ac1bb000a8c61bcd7d3df4898f",
        "sentiment_windows.csv": "468d109f0cbeaa47978dbc07ff233344d8e5e575c6e44d842bd07722d4d663b0",
    },
    ("defended_baseline", 3): {
        "financial.csv": "abfee4fb34d666ea8eb6ab25baef603e5036ed274bc9c10a8b69a751ebe5fda0",
        "history.csv": "dc1307c4eb025e97e53b22943733cf9221cd8653c145beff62d1ef85de85d7bd",
        "run_metadata.json": "dc3a49495846358f77eb9152f03bf4f22bf0da9dec988f7d21efc14d2d16a99f",
        "sentiment_windows.csv": "0002173c4845a30d4ad250c042a1a5798fe1a97f6d96313f8bb29d600ad5e43d",
    },
}

# `batch --seeds 0..3` on the default config
BATCH_SEEDS = "0..3"
BATCH_DIGEST = "7800061731e2aecfdd247014b21a7f80e40ac6a53437e43a5f3f4a20e154b398"

# `analyze` of the archive ``write_analyze_inputs`` writes
ANALYZE_DIGESTS = {
    "analysis.json": "51e970f64b3c3708e706e128a0e3afb685f6a653a7a0e72db1539c5a1091329c",
    "sentiment_windows.csv": "a64d838df9c8f735a2bf1f3d2d7400639d03cb9b404319b2b4789b4379090f39",
    "volume.csv": "4dbd47968042953ccdd4b5301bd3539c218bc87da7acaf2367c500797f1e6c32",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _main(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, argv


def run_digests(preset: str, seed: int, out_dir) -> dict[str, str]:
    argv = ["run", "--seed", str(seed), "--out", str(out_dir)]
    if preset != "default":
        argv += ["--preset", preset]
    _main(argv)
    return {p.name: _sha256(p) for p in out_dir.iterdir()}


def batch_digest(out_dir) -> str:
    _main(["batch", "--seeds", BATCH_SEEDS, "--out", str(out_dir)])
    return _sha256(out_dir / "batch_summary.json")


def _iso(tick: int, naive: bool = False) -> str:
    stamp = datetime.fromtimestamp(tick * 3600, tz=timezone.utc)
    return stamp.replace(tzinfo=None).isoformat() if naive else \
        stamp.isoformat().replace("+00:00", "Z")


def write_analyze_inputs(directory):
    """An archive with two bursts one empty window apart, plus its config.

    Rows are out of tick order and mix integer ticks with ISO timestamps
    (with and without a zone); the archive has exact duplicates, blank and
    named surfaces, valences on the neutral band's edges, and malformed
    rows.  Windows are 24 ticks wide, so ticks base+24..base+47 are empty.
    """
    base = 480_000
    rows = []
    for k in range(30):
        burst = 0 if k < 18 else 1
        tick = base + (k * 7) % 20 + burst * 50
        author = 100 + (k * 13) % 23
        created = base + 60 if k % 3 == 0 else tick - 5000
        surface = ("", "general_stream", "company_page",
                   f"employee_profile:{7 + k % 4}")[k % 4]
        valence = (-0.9, -0.1, 0.1, 0.35, -0.45, 0.0, 0.6, -0.25, 1.0)[k % 9]
        stamp = _iso(tick, naive=k % 5 == 1) if k % 5 in (1, 3) else str(tick)
        rows.append(f"{stamp},{author},{created},{surface},{valence}")
    rows += [rows[4], rows[21], rows[4]]  # exact duplicates
    rows += [f"{base + 3},101,{base},company_page",  # four columns
             f"{base + 4},102,{base},company_page,1.5",  # valence out of range
             f"soon,103,{base},general_stream,0.2"]  # unparseable timestamp
    rows.reverse()
    archive = directory / "archive.csv"
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\n"
                       + "\n".join(rows) + "\n", encoding="utf-8")
    config = directory / "analyze.json"
    config.write_text(json.dumps({
        "analytics": {"sentiment_window": 24, "neutral_band": 0.1,
                      "forecast_window": 6},
        "defense": {"detect_first_k": 8, "age_threshold": 48}}), encoding="utf-8")
    return archive, config


def analyze_digests(work_dir) -> dict[str, str]:
    """Digests of `analyze` run from ``work_dir``, so that the archive path
    recorded in analysis.json is the same relative name every time."""
    write_analyze_inputs(work_dir)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        _main(["analyze", "archive.csv", "--config", "analyze.json", "--out", "out"])
    finally:
        os.chdir(cwd)
    return {p.name: _sha256(p) for p in (work_dir / "out").iterdir()}


@pytest.mark.parametrize("preset,seed", sorted(RUN_DIGESTS))
def test_run_report_digests(tmp_path, preset, seed):
    assert run_digests(preset, seed, tmp_path) == RUN_DIGESTS[(preset, seed)]


def test_batch_summary_digest(tmp_path):
    assert batch_digest(tmp_path) == BATCH_DIGEST


def test_analyze_digests(tmp_path):
    assert analyze_digests(tmp_path) == ANALYZE_DIGESTS
