"""Golden sha256 digests of CLI outputs for fixed seeds and a fixed archive.

The `run` and `batch` digests were recorded before the counterfactual fork
became a generic deep copy; the `analyze` digests were recorded before the
archive windows moved onto the array kernel, the edge-case `analyze`
digests before archive ingest moved from rows to columns, and the
`run --config` digests before the follower graph became a CSR built in
chunks, and the `compare` digests before the tick engine's kernels
(`Simulation.step`, `bot_emit_arrays`, `draw_organic_valence`,
`stress_step`) were rewritten to make fewer numpy calls per tick.  The
``weak-bots`` and ``mismatched-playbook`` digests, the only cases that
emit ``topic_exhausted``, ``policy_mismatch_skipped``, ``db_unavailable``
and ``policy_no_effect``, were recorded before the quiet-window,
topic-choice and policy-match rules each moved behind one function.  The
``paid-offers`` digests, the only case that pays an offer (six
``bots_flipped`` events, then a part-flipped cohort sent dormant), were
recorded before the run state kept twice (last tick's posts, stand-down,
startup events, the arming table, the silencing of attack cohorts) was
cut to one record each.  The storm-scale digests (``n50000`` and the
``WORLD_CSR_DIGESTS`` of the 50k follower graph, with and without bot
followers) were recorded before ``SocialGraph.add_edges`` built the CSR
from one sorted key array and the sentiment windows were counted by
slice.  The quoted `analyze` digests (every cell quoted, and each quoting
form ``csv.reader`` reads) were recorded while a quoted range was still
read by ``csv.reader``, before quoted records moved onto the byte
kernels.  Any refactor of the engine, the fork or the
report writers must leave these bytes unchanged; a change that moves them
on purpose has to re-record the tables and say why.
``scripts/golden_digests.py`` recomputes every table below.

The draws behind these bytes (the chunked ``integers`` draw, the
scalar-rate Poisson draw, ``np.unique`` against ``np.sort``) were checked
only on the numpy release named by ``DIGESTS_NUMPY``; a failure under
another release may be that release's doing, not a regression.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
from datetime import datetime, timezone

import numpy as np
import pytest

from firesim import analytics, cli
from firesim.scenario import build_world, config_from_dict

# the numpy release every digest below was recorded on
DIGESTS_NUMPY = "2.4.6"
_RECORDED_ON = (f"digests recorded on numpy {DIGESTS_NUMPY}; "
                f"this run has numpy {np.__version__}")

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

# `run --config` on worlds big enough that the graph build spans many
# chunks, one of them with bot follower edges added in one batch
RUN_CONFIGS = {
    "n5000": {"graph": {"n": 5000}},
    "n50000": {"graph": {"n": 50000}},
    "n2000-bot-followers": {"graph": {"n": 2000, "bot_follower_fraction": 0.05}},
    # a campaign too weak to catch: three topics tried, exhausted, then aborted
    "weak-bots": {"attack": {"bots": 10, "bot_posting_rate": 0.3, "spread_patience": 12},
                  "run": {"ticks": 200}},
    # policies that miss the topic's class, a database with no path, and a
    # partner cohort that stands down, re-arms and stands down again
    "mismatched-playbook": {"defense": {"enabled": True, "playbook": [
        {"kind": "shared_account_database"},
        {"kind": "distance_from_partner", "trigger_stage": "peak"},
        {"kind": "apology_and_continue"},
        {"kind": "partner_assistance"},
        {"kind": "dialogue_engagement", "trigger_tick": 5}]}},
    # both offers paid: the service flips 20 bots a tick from tick 6, then
    # extortion sends the part-flipped cohort dormant at tick 12
    "paid-offers": {"attack": {"action_schedule": [[6, "defence_as_a_service"],
                                                   [12, "extortion"]],
                               "ransom": {"force_outcome": "pay"},
                               "service": {"force_outcome": "pay"}}},
}

CONFIG_RUN_DIGESTS = {
    ("mismatched-playbook", 0): {
        "financial.csv": "448ba97f8b7d9fb8f973ae7199c609c666f3fe57a9ea8e300669925e9866a3bd",
        "history.csv": "a42cac0c4d956ee6ef6c85689026b7f84cfba7ce6f5db767be69eb14f788d9e8",
        "run_metadata.json": "450a78a8269c83677520e4ad22090e5942f3b494c29668936f40ff607dfcfe3b",
        "sentiment_windows.csv": "b6848a39eb0ffed4e052c9ecd3c716436fe876e0526331c371780ed9c7d5237f",
    },
    ("n2000-bot-followers", 0): {
        "financial.csv": "dbf25c6bbe812941d62d86de1645d3be12cd55949522166168d0ab147f410ed4",
        "history.csv": "60b0e4f61ab7ae7d6c05c36f4c0bb9364e02862172b4c1aa3cf397892b62c1da",
        "run_metadata.json": "e0aa4d11b302770cf52d2f4a6beccef2558d5b2c8de954d6357099744a970590",
        "sentiment_windows.csv": "cf2baf6d89ad05b836fec2e66fe2b712ecf1697105182095a3dbda5cfbcc0fde",
    },
    ("n5000", 0): {
        "financial.csv": "c50982cb3a3c27804644d951e5a8f469189f7d5c4b532ab27102e6431324c89e",
        "history.csv": "4438e90d6aa1bd7357b46778761d32ee40dc4c037a5429fee611cff4f75d94ec",
        "run_metadata.json": "02cf34e2eb53b7bdf7b3c7d6b551b0c17a364770f931bb24ad452a1446971aae",
        "sentiment_windows.csv": "cb68dcc654710dd6cbe501935a4411abff747112906be603bf0207ea66296f15",
    },
    ("n5000", 2): {
        "financial.csv": "b784a761b3a87f457bb36c715ba5d3bd1c80d356578a9764bd976890d29d6b53",
        "history.csv": "cf8787b198f22e14e0af69110042b78997413159fd97246b5a91afb4b68f1b76",
        "run_metadata.json": "4c6de9c6805f928b3ba8b7812cc354c772fcc1fe8be573b5e25847da782a1d8a",
        "sentiment_windows.csv": "b909a60d9374fff3b9deea1e47484f01b37cf0f6cf078fdfa24cfbcf1df1ee32",
    },
    ("n50000", 0): {
        "financial.csv": "131a209e4a0d5d7dfadc5b80e4d55bb81ae714396b510b2ba7ae8d74a5f5a15b",
        "history.csv": "a67d8816b6a0a2019b6cc3ba7ec332868a21e01204e9a6146b292e7ff7bff0ec",
        "run_metadata.json": "371989211fd454ea9885a39bdecf9a11799814a5217d1bdc9b942a75cbd5316d",
        "sentiment_windows.csv": "902d91d3d05767c365145470870ea9074460d952439ba22548116042773909d3",
    },
    ("paid-offers", 0): {
        "financial.csv": "b4b0ede688fdd6a26e996d4b3841d9f02db169d665c5479aa91601ed4209568e",
        "history.csv": "142bd9f6c3f8a6f8fdbbcd2208b63ee3e3156d4a370762e5f78e3825889b1fb6",
        "run_metadata.json": "02c56403221bdffc5442bd13f086cf5c5eabc35065efcb2ce5d5c99c58ca1292",
        "sentiment_windows.csv": "1a8ae9648ba34d965defa53e8c3dd056e96c5d153739ce111ba3c27030e42303",
    },
    ("weak-bots", 2): {
        "financial.csv": "64ac19ae4258d8cee4a1898906bfc499f22785b02e85c606267094b3c082f2c6",
        "history.csv": "6ab6c31b2c44fcc2c8dc66a520641f1ca9948fbc752fe05f3a916570de96f505",
        "run_metadata.json": "18e540f690a79267d4016e42ff030b67c416b63264c3077f0250b8f442383d69",
        "sentiment_windows.csv": "1b670dd0f9a050f1e7c0cad4927f42ecbce9cd727a18d43f66b1bba2fa23e26f",
    },
}

# sha256 of the `indptr` bytes then the `indices` bytes of `follower_csr()`
# for `build_world` of each config at seed 0: the storm-scale graph, and the
# same graph with 200 bots that each draw followers from every user
WORLD_CSR_CONFIGS = {
    "n50000": {"graph": {"n": 50000}},
    "n50000-bot-followers": {"graph": {"n": 50000, "bot_follower_fraction": 0.05}},
}

WORLD_CSR_DIGESTS = {
    "n50000": "e4746fb698fc0b32dc57f8ab7a5b89c5b8e1e8edbe1f52d424a3c1de683af111",
    "n50000-bot-followers": "6bc62136c7a98465e26dba728c9d1f225781d35483d854f0f19d67cd583f75df",
}

# `batch --seeds 0..3` on the default config
BATCH_SEEDS = "0..3"
BATCH_DIGEST = "7800061731e2aecfdd247014b21a7f80e40ac6a53437e43a5f3f4a20e154b398"

# `compare --preset P --toggle T --seeds S`: compare_summary.json
COMPARE_DIGESTS = {
    ("defended_baseline", "defense_playbook", "0..4"):
        "b6a0f81add4f2c89b466421b2e904266d0d88c5aa38d23881153d1e64ebabfa7",
    ("rapid_massive", "retarget_bots", "0..4"):
        "f9c013a2d1b1dcd00aba34ef062a41b292acd39f69772bd2a837bbb7283b96fa",
    ("defended_baseline", "ransom_paid", "0..4"):
        "90171ac789613f059e276a99b6c8b533412e51229f73d00b8eef5ad2498a175b",
    ("defended_baseline", "flip_bots", "0..4"):
        "01425cdd360f69813b2becf01f073768ff88792f023167550767fb19e8592158",
}

# `analyze` of the archive ``write_analyze_inputs`` writes
ANALYZE_DIGESTS = {
    "analysis.json": "51e970f64b3c3708e706e128a0e3afb685f6a653a7a0e72db1539c5a1091329c",
    "sentiment_windows.csv": "a64d838df9c8f735a2bf1f3d2d7400639d03cb9b404319b2b4789b4379090f39",
    "volume.csv": "4dbd47968042953ccdd4b5301bd3539c218bc87da7acaf2367c500797f1e6c32",
}

# `analyze` of the archive ``write_analyze_edge_inputs`` writes
ANALYZE_EDGE_DIGESTS = {
    "analysis.json": "6aaf6c48f06e937f63afceb8510d0ceecff2a7765392c4d5a5b18f0a689039c1",
    "sentiment_windows.csv": "e006afd9b4a064d9d84455744843ce04f1892bc13a46786f3b48f4d3f2d910f5",
    "volume.csv": "557a05ddd1cb58c8eabf9a93d2e4d9783ed49d2ffca5a146c1edf3ba98c69e62",
}

# `analyze` of the archive ``write_analyze_quoted_inputs`` writes
ANALYZE_QUOTED_DIGESTS = {
    "analysis.json": "51e970f64b3c3708e706e128a0e3afb685f6a653a7a0e72db1539c5a1091329c",
    "sentiment_windows.csv": "a64d838df9c8f735a2bf1f3d2d7400639d03cb9b404319b2b4789b4379090f39",
    "volume.csv": "4dbd47968042953ccdd4b5301bd3539c218bc87da7acaf2367c500797f1e6c32",
}

# `analyze` of the archive ``write_analyze_quirks_inputs`` writes
ANALYZE_QUIRKS_DIGESTS = {
    "analysis.json": "047e1bc10f79421235c31923ede2819e81093bb382f2ac66c39efa474a8e37e5",
    "sentiment_windows.csv": "15bb4b3d6a12abee83396f7cebabcc1744bc220feedfef68f38974be7eb2bcee",
    "volume.csv": "5aa0eff16ac0bd27a51a0469eb2dfc38785799f85c25c3486153e8adea16d199",
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


def config_run_digests(name: str, seed: int, work_dir) -> dict[str, str]:
    """Digests of `run --config` on ``RUN_CONFIGS[name]``, run in ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / "config.json"
    config.write_text(json.dumps(RUN_CONFIGS[name]), encoding="utf-8")
    out_dir = work_dir / "out"
    _main(["run", "--config", str(config), "--seed", str(seed), "--out", str(out_dir)])
    return {p.name: _sha256(p) for p in out_dir.iterdir()}


def world_csr_digest(name: str) -> str:
    """Digest of the follower CSR of ``build_world(WORLD_CSR_CONFIGS[name])``."""
    indptr, indices = build_world(config_from_dict(WORLD_CSR_CONFIGS[name])).graph.follower_csr()
    digest = hashlib.sha256(indptr.tobytes())
    digest.update(indices.tobytes())
    return digest.hexdigest()


def batch_digest(out_dir) -> str:
    _main(["batch", "--seeds", BATCH_SEEDS, "--out", str(out_dir)])
    return _sha256(out_dir / "batch_summary.json")


def compare_digest(preset: str, toggle: str, seeds: str, out_dir) -> str:
    _main(["compare", "--preset", preset, "--toggle", toggle, "--seeds", seeds,
           "--out", str(out_dir)])
    return _sha256(out_dir / "compare_summary.json")


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


def write_analyze_edge_inputs(directory):
    """An archive of the cell forms ingest must read exactly as before.

    CRLF line endings and the ``text_score`` header.  Stamps with ``Z``,
    naive space-separated stamps, fractional seconds and ``+-HH:MM``
    offsets, the ``:30`` ones crossing midnight and New Year; 2024-02-29
    is valid, while 2023-02-29, hour 24, second 60 and offset +24:00 are
    not.  Integer cells with a sign, an underscore or padding; a ``-0.0``
    row before its ``0.0`` duplicate, which also spells the tick
    differently; ties on the earliest tick; one quoted field that holds a
    comma; creation stamps near the end so the detector flags someone.
    """
    rows = [
        "2023-12-31T23:45:00+05:30,11,2023-11-01T00:00:00Z,company_page,-0.6",
        "2024-01-01T03:10:00+05:30,12,472000,general_stream,-0.35",
        "2023-12-31T18:00:00Z,13,2024-02-28T20:00:00+05:30,,-0.8",
        "2023-12-31T20:40:00-09:30,14,2024-02-29 06:00:00,employee_profile:4,0.05",
        "2023-12-31T18:59:59.999999Z,15,472100,general_stream,0.1",
        "2024-01-01 12:00:00,+7,473000,company_page,-0.0",
        "473364,7,473000,,0.0",
        "2024-01-01T12:30:00+00:00,7_0,473000,general_stream,0.0",
        " 2024-01-02 00:00:01 , 42 ,+473100,  company_page  ,0.25",
        "2024-01-03T10:00:00Z,16,2024-02-29T23:00:00-00:30,company_page,-0.45",
        "2024-01-03T10:59:59Z,16,2024-02-29T23:00:00-00:30,,-0.45",
        "2024-01-04T08:15:30.250000Z,17,473200,employee_profile:9,-0.9",
        "2024-01-04 08:15:30.5,18,473200,general_stream,0.6",
        "2024-01-15T23:50:00-03:30,19,474000,company_page,-0.1",
        "2024-01-16T00:20:00+09:30,20,474000,company_page,0.1000001",
        "+473760,21,474000,general_stream,-1.0",
        "47_3761,22,474000,general_stream,1.0",
        " 473762 ,23,474000,company_page,-0.7",
        "2024-02-10T05:00:00-08:00,24,474500,general_stream,-0.55",
        "2024-02-29T12:00:00Z,25,2024-02-27T00:00:00Z,general_stream,-0.65",
        "2024-02-29T23:30:00-00:30,26,2024-02-28T12:00:00+09:30,company_page,0.3",
        "2024-02-29T23:45:00,27,2024-03-01T00:00:00Z,,-0.2",
        "2023-02-29T00:00:00Z,28,474000,general_stream,-0.3",
        "2024-01-05T24:00:00Z,29,474000,general_stream,-0.3",
        "2024-01-05T23:59:60Z,30,474000,general_stream,-0.3",
        "2024-01-05T00:00:00+24:00,31,474000,general_stream,-0.3",
        '2024-01-05T00:00:00Z,32,474000,"company_page,inc",-0.3',
    ]
    rows += [f"{473400 + 37 * k},{100 + k % 9},{473000 + 30 * k},"
             f"{('', 'company_page', 'general_stream')[k % 3]},{(k % 7 - 3) / 4}"
             for k in range(24)]
    archive = directory / "archive.csv"
    text = "\r\n".join(
        ["timestamp,author_id,author_created_at,surface,text_score"] + rows) + "\r\n"
    archive.write_bytes(text.encode("utf-8"))
    config = directory / "analyze.json"
    config.write_text(json.dumps({
        "analytics": {"sentiment_window": 168, "neutral_band": 0.1,
                      "forecast_window": 6},
        "defense": {"detect_first_k": 8, "age_threshold": 48}}), encoding="utf-8")
    return archive, config


def write_analyze_quoted_inputs(directory):
    """The archive of ``write_analyze_inputs`` with every cell quoted
    (``csv.QUOTE_ALL``), plus its config."""
    archive, config = write_analyze_inputs(directory)
    rows = list(csv.reader(archive.read_text(encoding="utf-8").splitlines()))
    with open(archive, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    return archive, config


def write_analyze_quirks_inputs(directory):
    """The archive of ``write_analyze_inputs`` with a quoted header and rows
    in each quoting form ``csv.reader`` reads, plus its config.

    Cells hold ``""``, a quoted ``,``, a quoted ``\\n`` and ``\\r\\n``, a
    quote mid-field (``a"b``, a literal character), text after a closing
    quote (``"a"b``) and doubled quotes; some records end in CRLF, one row
    repeats an earlier one fully quoted, and the last record's quote is
    never closed.
    """
    archive, config = write_analyze_inputs(directory)
    _, *lines = archive.read_text(encoding="utf-8").splitlines()
    base = 480_000
    quirks = [
        f'"{base + 1}","101","{base - 50}","company_page","-0.5"',
        f'{base + 2},"","{base}",general_stream,0.2',  # an empty author: malformed
        f'{base + 3},102,{base},"",0.45',  # an empty surface: the general stream
        f'{base + 4},103,{base},"company_page,inc",-0.3',
        f'"{base + 5}\n",104,{base},general_stream,"0.25\n"',
        f'{base + 6},"\r\n105",{base},company_page,-0.75',
        f'{base + 7},106,{base},company"page,-0.2',
        f'{base + 8},1"07,{base},general_stream,0.3',
        f'{base + 9},108,{base},general_stream,"-0".5',  # reads -0.5
        f'"4800"11,109,{base},"company"_page,0.15',  # reads 480011 and company_page
        f'{base + 12},110,{base},"employee_profile:""4""",-0.6',
        f'{base + 13},111,{base},"""",0.6',
        '"' + lines[5].replace(",", '","') + '"',  # a duplicate
    ]
    records = lines[:10] + quirks[:7] + lines[10:25] + quirks[7:] + lines[25:]
    text = '"timestamp","author_id",author_created_at,"surface","valence"\n'
    text += "".join(record + ("\r\n" if k % 4 == 1 else "\n") for k, record in enumerate(records))
    text += f'{base + 14},112,{base},company_page,"0.35'
    archive.write_bytes(text.encode("utf-8"))
    return archive, config


def analyze_digests(work_dir, write_inputs=write_analyze_inputs) -> dict[str, str]:
    """Digests of `analyze` run from ``work_dir``, so that the archive path
    recorded in analysis.json is the same relative name every time."""
    write_inputs(work_dir)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        _main(["analyze", "archive.csv", "--config", "analyze.json", "--out", "out"])
    finally:
        os.chdir(cwd)
    return {p.name: _sha256(p) for p in (work_dir / "out").iterdir()}


@pytest.mark.parametrize("preset,seed", sorted(RUN_DIGESTS))
def test_run_report_digests(tmp_path, preset, seed):
    assert run_digests(preset, seed, tmp_path) == RUN_DIGESTS[(preset, seed)], _RECORDED_ON


@pytest.mark.parametrize("name,seed", sorted(CONFIG_RUN_DIGESTS))
def test_config_run_report_digests(tmp_path, name, seed):
    assert config_run_digests(name, seed, tmp_path) == CONFIG_RUN_DIGESTS[(name, seed)], \
        _RECORDED_ON


@pytest.mark.parametrize("name", sorted(WORLD_CSR_DIGESTS))
def test_world_csr_digests(name):
    assert world_csr_digest(name) == WORLD_CSR_DIGESTS[name], _RECORDED_ON


def test_batch_summary_digest(tmp_path):
    assert batch_digest(tmp_path) == BATCH_DIGEST, _RECORDED_ON


@pytest.mark.parametrize("preset,toggle,seeds", sorted(COMPARE_DIGESTS))
def test_compare_summary_digest(tmp_path, preset, toggle, seeds):
    assert compare_digest(preset, toggle, seeds, tmp_path) == \
        COMPARE_DIGESTS[(preset, toggle, seeds)], _RECORDED_ON


def test_analyze_digests(tmp_path):
    assert analyze_digests(tmp_path) == ANALYZE_DIGESTS, _RECORDED_ON


def test_analyze_edge_digests(tmp_path):
    assert analyze_digests(tmp_path, write_analyze_edge_inputs) == ANALYZE_EDGE_DIGESTS, \
        _RECORDED_ON


def test_analyze_quoted_digests(tmp_path):
    assert analyze_digests(tmp_path, write_analyze_quoted_inputs) == ANALYZE_QUOTED_DIGESTS, \
        _RECORDED_ON


def test_analyze_quirks_digests(tmp_path):
    assert analyze_digests(tmp_path, write_analyze_quirks_inputs) == ANALYZE_QUIRKS_DIGESTS, \
        _RECORDED_ON


# an archive that holds a quote is one range
@pytest.mark.parametrize("write_inputs,digests,ranges", [
    (write_analyze_inputs, ANALYZE_DIGESTS, 3),
    (write_analyze_edge_inputs, ANALYZE_EDGE_DIGESTS, 1),
    (write_analyze_quoted_inputs, ANALYZE_QUOTED_DIGESTS, 1),
    (write_analyze_quirks_inputs, ANALYZE_QUIRKS_DIGESTS, 1),
])
def test_analyze_digests_with_the_split_forced(tmp_path, monkeypatch, write_inputs, digests,
                                               ranges):
    """The same bytes when ingest cuts any archive into one range per CPU."""
    monkeypatch.setattr(analytics.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(analytics, "_MIN_RANGE_BYTES", 64)
    assert analyze_digests(tmp_path, write_inputs) == digests, _RECORDED_ON
    assert len(analytics._byte_ranges(tmp_path / "archive.csv")) == ranges
