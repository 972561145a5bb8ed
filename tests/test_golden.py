"""Golden sha256 digests of CLI outputs for fixed seeds.

The digests were recorded before the counterfactual fork became a generic
deep copy.  Any refactor of the engine, the fork or the report writers must
leave these bytes unchanged; a change that moves them on purpose has to
re-record the table and say why.
"""

import hashlib

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
BATCH_DIGEST = "7800061731e2aecfdd247014b21a7f80e40ac6a53437e43a5f3f4a20e154b398"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset,seed", sorted(RUN_DIGESTS))
def test_run_report_digests(tmp_path, capsys, preset, seed):
    argv = ["run", "--seed", str(seed), "--out", str(tmp_path)]
    if preset != "default":
        argv += ["--preset", preset]
    assert cli.main(argv) == 0
    capsys.readouterr()
    got = {p.name: _sha256(p) for p in tmp_path.iterdir()}
    assert got == RUN_DIGESTS[(preset, seed)]


def test_batch_summary_digest(tmp_path, capsys):
    assert cli.main(["batch", "--seeds", "0..3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "batch_summary.json") == BATCH_DIGEST
