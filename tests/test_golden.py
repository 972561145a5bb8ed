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
kernels.  ``RNG_CALL_DIGESTS`` (every call made on an engine generator in
each `run`, `run --config`, `batch` and `compare` case, and each
generator's final state) and the ``organic_only``, ``recurrence-topic``
and ``scapegoat-backfire`` cases, the only ones with seed posters, a
non-neutral recurrence multiplier and a non-neutral activation multiplier,
were recorded before ``Simulation.step`` pushed exposure per post, kept
the never-activated users as an index and kept the susceptibilities per
topic.  The JSON digests of the `run`, `run --config`, `batch` and
`compare` cases were re-recorded when three config fields that shaped
nothing (two roster labels and a severity switch never turned off) left
the config echo, and nothing else in those files moved.  The span
`analyze` digests (ticks over 65,536 hours apart, from a negative first
tick, with ties scattered through the file) were recorded while `analyze`
ordered the posts with one stable sort of the int64 ticks and dedup
grouped rows with a stable sort, before both sorts changed.  The
``scheduled-actions`` digests, the only case that skips an action (one
scheduled while the plan still picks its topic) and counts insider-threat
candidates, were recorded while a topic's failure class was still an enum
member in the config.  Any refactor of
the engine, the fork or the report writers must leave these bytes
unchanged; a change that moves them on purpose has to re-record the
tables and say why.
``scripts/golden_digests.py`` recomputes every table below.

The draws behind these bytes (the chunked ``integers`` draw, the
scalar-rate Poisson draw, ``np.unique`` against ``np.sort``) were checked
only on the numpy release named by ``DIGESTS_NUMPY``; a failure under
another release may be that release's doing, not a regression.
"""

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
from datetime import datetime, timezone

import numpy as np
import pytest

from firesim import analytics, cli, contagion
from firesim.scenario import build_world, config_from_dict

# the numpy release every digest below was recorded on
DIGESTS_NUMPY = "2.4.6"
_RECORDED_ON = (f"digests recorded on numpy {DIGESTS_NUMPY}; "
                f"this run has numpy {np.__version__}")

RUN_DIGESTS = {
    ("default", 0): {
        "financial.csv": "662aa58b9d8b2f440b39372a28fcd3a303c998ed7493b4fa9c81261bd47bf0f2",
        "history.csv": "a6e6310588ea9e8132c5ccdfb081ed1540139b4543a34924805343a5be2185b4",
        "run_metadata.json": "a8d2cab2e03478dfefa6d8fcacac89152306fe322681365355309fdca87f6c1a",
        "sentiment_windows.csv": "103cbb24038740fdbf5fde5972664176eb6e1623d6365f671a4d40842ee7c301",
    },
    ("default", 3): {
        "financial.csv": "f8e0d8d5b7fcdb04307981c7de455953f176913d36feab4edbd91de952767bc6",
        "history.csv": "e8a44df2574265834e195f1e249032f00f6a8c2f69a2d18404a0a865080f3037",
        "run_metadata.json": "bc171ce6bd2d2e4af356c43e7ee7e7eb5d05c8235b69f41028fec770df742eeb",
        "sentiment_windows.csv": "bbb3a5ff6e5186ea67184c2153748e99d221639e36e0182e9648bd2dfdb85780",
    },
    ("defended_baseline", 0): {
        "financial.csv": "9611feb0d17537b103b55b8d6c6876d191d5a24939f361a45d5934bda6d9bf23",
        "history.csv": "8b4f64d5e1efa57cad8ae6f74d9b2e27688016f4aef3948309c564fbf02a4f4e",
        "run_metadata.json": "5c24b96882a88bc136c5dd96983d18694d6d8f7a9f656e6fd9fe1347461e07a2",
        "sentiment_windows.csv": "468d109f0cbeaa47978dbc07ff233344d8e5e575c6e44d842bd07722d4d663b0",
    },
    ("defended_baseline", 3): {
        "financial.csv": "abfee4fb34d666ea8eb6ab25baef603e5036ed274bc9c10a8b69a751ebe5fda0",
        "history.csv": "dc1307c4eb025e97e53b22943733cf9221cd8653c145beff62d1ef85de85d7bd",
        "run_metadata.json": "9efa0ce8145b48bacca1d61e902493bcadcb732cac5fb410b1bdab827c314257",
        "sentiment_windows.csv": "0002173c4845a30d4ad250c042a1a5798fe1a97f6d96313f8bb29d600ad5e43d",
    },
    ("organic_only", 0): {
        "financial.csv": "24de5c133f0577a1b99a86ffe3966260785c7d1489dd0a10bc3faa9e9688392a",
        "history.csv": "6f27a9d1fbdf7c795b4942280ba76071af6485274e07511644c23b6828e63957",
        "run_metadata.json": "f90b74b33750aa2086353632aeec12a94d438854a562541f0bcd4405a38090a8",
        "sentiment_windows.csv": "c9a65195547ea8fe3ebe03879195a328e87df3ee8125345b29a752d0bf08ab90",
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
    # managers pass stress on to employees, and a short smoothing window with
    # a high low-water mark drops the storm from peak straight to minor
    "manager-transfer-minor": {"graph": {"n": 500}, "agents": {"manager_transfer": 0.2},
                               "contagion": {"smoothing_window": 2, "stage_low": 20}},
    # a same-class firestorm two years back boosts every activation about 1.5x
    "recurrence-topic": {"graph": {"n": 2000}, "company_history": [
        {"topic_id": "recall-2022", "failure_class": "product_service", "tick": -17500}]},
    # the company blames a partner at the peak: activations halve, and the
    # backfire draw always lands
    "scapegoat-backfire": {"graph": {"n": 2000}, "defense": {
        "enabled": True, "scapegoat_backfire_probability": 1.0,
        "playbook": [{"kind": "scapegoat", "trigger_stage": "peak"}]}},
    # an action scheduled while the plan still picks its topic is skipped,
    # and two insider threats count their candidates under worker focus
    "scheduled-actions": {"attack": {"action_schedule": [[0, "human_error_exploit"],
                                                         [15, "insider_threat"],
                                                         [16, "insider_threat"]]}},
}

CONFIG_RUN_DIGESTS = {
    ("manager-transfer-minor", 0): {
        "financial.csv": "883318b66eba729edd80f0f3bdf47e221cd51fd7f0e43fbe777daa1e21db5db8",
        "history.csv": "68d7738aaaf1874dc5b29465d7190a3d31805d29280be1f7503f435f98815d82",
        "run_metadata.json": "65d8fc4013dbc1db1f8b9a1d0da18137569e887bb5f8c9beb1755e31b705e7a1",
        "sentiment_windows.csv": "6c5628f7ea3221af2df30261957b90bf42c092fdd44f251b996e3b3b57f92183",
    },
    ("manager-transfer-minor", 1): {
        "financial.csv": "a045784fcd0f558aabce43feecd5e40a2b1b15819c58e8d388413d5ae694cbd2",
        "history.csv": "0531301b1d19d1120dbdc457838baa97f5b5b733f248c81b7ee47cdcb566aac4",
        "run_metadata.json": "5258d03dce082bcab890e3c068e02b4c75336cd7404aaf6a76610b2024803399",
        "sentiment_windows.csv": "98705029913589ee6ce9a44a2eb32f4c0b0e902f1e8137f8b24fc5c54185c638",
    },
    ("manager-transfer-minor", 2): {
        "financial.csv": "e89514885443ddb33e0d57d9a197a5263ebae6beeac0d9c117e718db66a42617",
        "history.csv": "1dd47cb7ed4250b3d7de53cfe110dfffa3a048f4b3c1ca2e51190acbda1a5af5",
        "run_metadata.json": "76ea2943cc8f98bb8b9799508028c25a70056585aeae6b7197b92899e1d2275f",
        "sentiment_windows.csv": "60720c7b66ed02f557672d674af2dc9148c3a4edf000b8387a5bf2438846ab62",
    },
    ("mismatched-playbook", 0): {
        "financial.csv": "448ba97f8b7d9fb8f973ae7199c609c666f3fe57a9ea8e300669925e9866a3bd",
        "history.csv": "a42cac0c4d956ee6ef6c85689026b7f84cfba7ce6f5db767be69eb14f788d9e8",
        "run_metadata.json": "ec17dbc7acea300c128303c12833d9eee12a52a279bcd9b6a94f8cb495af7287",
        "sentiment_windows.csv": "b6848a39eb0ffed4e052c9ecd3c716436fe876e0526331c371780ed9c7d5237f",
    },
    ("n2000-bot-followers", 0): {
        "financial.csv": "dbf25c6bbe812941d62d86de1645d3be12cd55949522166168d0ab147f410ed4",
        "history.csv": "60b0e4f61ab7ae7d6c05c36f4c0bb9364e02862172b4c1aa3cf397892b62c1da",
        "run_metadata.json": "f565281c3c5de0a953d5aabdc89e29a601cf75cbfd625b97fb9059c94241c294",
        "sentiment_windows.csv": "cf2baf6d89ad05b836fec2e66fe2b712ecf1697105182095a3dbda5cfbcc0fde",
    },
    ("n5000", 0): {
        "financial.csv": "c50982cb3a3c27804644d951e5a8f469189f7d5c4b532ab27102e6431324c89e",
        "history.csv": "4438e90d6aa1bd7357b46778761d32ee40dc4c037a5429fee611cff4f75d94ec",
        "run_metadata.json": "06b3efa4cc5231666ed4ec350ff92bc761c50c56b2dc8e7b742529908144fbe0",
        "sentiment_windows.csv": "cb68dcc654710dd6cbe501935a4411abff747112906be603bf0207ea66296f15",
    },
    ("n5000", 2): {
        "financial.csv": "b784a761b3a87f457bb36c715ba5d3bd1c80d356578a9764bd976890d29d6b53",
        "history.csv": "cf8787b198f22e14e0af69110042b78997413159fd97246b5a91afb4b68f1b76",
        "run_metadata.json": "f364fcc73be71c403d50d31580f61188542a5167d64481bde2f0265799747362",
        "sentiment_windows.csv": "b909a60d9374fff3b9deea1e47484f01b37cf0f6cf078fdfa24cfbcf1df1ee32",
    },
    ("n50000", 0): {
        "financial.csv": "131a209e4a0d5d7dfadc5b80e4d55bb81ae714396b510b2ba7ae8d74a5f5a15b",
        "history.csv": "a67d8816b6a0a2019b6cc3ba7ec332868a21e01204e9a6146b292e7ff7bff0ec",
        "run_metadata.json": "3881d95c4fcc131c4439493cbafbaa635c21e4464322572307694a69120460ea",
        "sentiment_windows.csv": "902d91d3d05767c365145470870ea9074460d952439ba22548116042773909d3",
    },
    ("paid-offers", 0): {
        "financial.csv": "b4b0ede688fdd6a26e996d4b3841d9f02db169d665c5479aa91601ed4209568e",
        "history.csv": "142bd9f6c3f8a6f8fdbbcd2208b63ee3e3156d4a370762e5f78e3825889b1fb6",
        "run_metadata.json": "0c5536fcf993fc7a87e4640e30bca0609fa19b672aea6234e0964181d00ab3b5",
        "sentiment_windows.csv": "1a8ae9648ba34d965defa53e8c3dd056e96c5d153739ce111ba3c27030e42303",
    },
    ("recurrence-topic", 0): {
        "financial.csv": "ecd856997d1362e8f292736bd16bf0da0418db5aeef3258a7fce069573801245",
        "history.csv": "279f10b7bcc57f903845ec728a8c21a0ee77c5029de669a5ae1b802325312577",
        "run_metadata.json": "900d73d8ab0046c93051c3f0bf83be0025450c957cc62dcecb5113063c5885c1",
        "sentiment_windows.csv": "3322a30f2781f6e4a28c7d7105236ffd50527dcdf25cd8021731d67a0fb6b719",
    },
    ("scapegoat-backfire", 0): {
        "financial.csv": "62046a74a1f38e852ec31b2d2b0c00b588e30fce14ef9c923a7bac5d9cf156bc",
        "history.csv": "59c52a9145a35facd05362cfb5d59b0e0018e72eaa21ea3007cc429003a22e24",
        "run_metadata.json": "b941aadc9c4d87cebd6adb9ea5dfa81f9d33392936eabb2406717cec4f0dcdab",
        "sentiment_windows.csv": "43ac9e5eb77799b60a3613de151d8f979536d33a1d738e11861dcbb33f0f96ec",
    },
    ("scheduled-actions", 0): {
        "financial.csv": "d8c2f89aa5fb84b507ceeb570829400a78fd6beb1b1b9bed7eab43c9c5d0d0b5",
        "history.csv": "5189a45aba98ae925752a4216ea58ca18fffd9208e8bbd1f5751a16a5748a35b",
        "run_metadata.json": "c5687fb896279aa213661d7a6011f17cf3dd7463eeec3b39cc94d16de4fe5a52",
        "sentiment_windows.csv": "7b0cc04d072d5bb62fe8d9d2854efc1d6e483e2cbe46b014ca23142c2c4f4892",
    },
    ("weak-bots", 2): {
        "financial.csv": "64ac19ae4258d8cee4a1898906bfc499f22785b02e85c606267094b3c082f2c6",
        "history.csv": "6ab6c31b2c44fcc2c8dc66a520641f1ca9948fbc752fe05f3a916570de96f505",
        "run_metadata.json": "323f3294afc6abe8926a9176fa18f46f465cdda1f047b988c593e957a211ff2a",
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
BATCH_DIGEST = "0f5f5237ee804ae8e33dcd93fe07271479e9f0e44e3c41a8462220677476cb38"

# `compare --preset P --toggle T --seeds S`: compare_summary.json
COMPARE_DIGESTS = {
    ("defended_baseline", "defense_playbook", "0..4"):
        "3205efb8be1f62df21b1dbc37b16e6b8e37eba3831ae1497db8612d98f3b090d",
    ("rapid_massive", "retarget_bots", "0..4"):
        "158712685a2274c1feba10e7b26dbff64aefc61e51b940f8d20482eedd0a2dca",
    ("defended_baseline", "ransom_paid", "0..4"):
        "a00af5b368ef026cb40041b7fbac340977b806854cc814fdc523b9cb895e5ae7",
    ("defended_baseline", "flip_bots", "0..4"):
        "c120f22a68a055faea0d3a59976ac07d545d78089ae53221b24bc6a1c4e4a032",
}


def rng_call_cases() -> list[tuple]:
    """Every `run`, `run --config`, `batch` and `compare` case above, as
    ``(command, *parameters)``."""
    return sorted([("run", *key) for key in RUN_DIGESTS]
                  + [("config", *key) for key in CONFIG_RUN_DIGESTS]
                  + [("batch", BATCH_SEEDS)]
                  + [("compare", *key) for key in COMPARE_DIGESTS])


# `rng_call_digest` of each case in ``rng_call_cases()``
RNG_CALL_DIGESTS = {
    ("batch", "0..3"):
        "7795d6a503675914cecc1164ebe2c47129e155b63a3c35d317988ca9833fd9f7",
    ("compare", "defended_baseline", "defense_playbook", "0..4"):
        "3c5cc2f68f3358fffb423bfc2681fc387065468928674c6a4d5329420840cc57",
    ("compare", "defended_baseline", "flip_bots", "0..4"):
        "1ed4b99c56fe0dec8477fe47b5614e97c4f74cf6ffcb780e882641696c68f29e",
    ("compare", "defended_baseline", "ransom_paid", "0..4"):
        "c2402d04137ba429272b4a507baa791cfef33f3a998871755d36f3b9b66d9c5b",
    ("compare", "rapid_massive", "retarget_bots", "0..4"):
        "be5f9de81f677d2560fde11c25ad53ff8d7008b992674c93e2dbbabe18b24cb9",
    ("config", "manager-transfer-minor", 0):
        "ff271a61ed1cc7e7ccd742fe40a6b199de616de53b25363c0364bbe56a0f7439",
    ("config", "manager-transfer-minor", 1):
        "3899d22652f01545b83394b5f2a5c9469625d46680c68327283711c57c809fdf",
    ("config", "manager-transfer-minor", 2):
        "05ec4cfbd8124e7bc8d96e47f30d9b6b5b2ce80542d511004aee98e4e0178b48",
    ("config", "mismatched-playbook", 0):
        "34ce3a12ed1ee41dfe0889978aefcf07d6a47a261bd71781f6a71b7936fff07b",
    ("config", "n2000-bot-followers", 0):
        "117a3ad1ea871477d2806b9db6ebcec0e474044ed820a80945b0bac128057bbd",
    ("config", "n5000", 0):
        "82dcdef2ccf7bd7d26005255c5d675ea1cbda4d95a1dee14cf3a5b153c26f88c",
    ("config", "n5000", 2):
        "fcea754913730e98a8786d4ccddd7519765d2ac7631abb15974a1b47b3d47d85",
    ("config", "n50000", 0):
        "8779d5f3f8d86677d3a98df5ef204bbe502ce95cda348c650a72c72d12aea512",
    ("config", "paid-offers", 0):
        "edcf728ab8ca6f334d2ce550b086e0f09ed982c87837b440b46630f57d76bd14",
    ("config", "recurrence-topic", 0):
        "d08a25a1263828becf3f75e7b48da5bbd63a3be9fba0ca7da390951db1fc3564",
    ("config", "scapegoat-backfire", 0):
        "bc5520a8d21375f50689363123b01d247bfb7d81d334209aaaa3f11687d26617",
    ("config", "scheduled-actions", 0):
        "515e2cd33566094c1300cc6175e3943862de1f087d79f881e3fb5471dd402364",
    ("config", "weak-bots", 2):
        "c74f7f2a75b5c601edb4ede8b5f01d41283a7a84fb4691939f3e60e65665834e",
    ("run", "default", 0):
        "3a264acbe74854c44313f49cb67df922ff345607cec61c674d108bac38dff6c2",
    ("run", "default", 3):
        "ce7ea2765d1b7f0cb9397dfe86fa9d5acbd6fee7997844ef8f3039def3489d70",
    ("run", "defended_baseline", 0):
        "e0822e2ac68fb8933117320ec400a682011bacce3ae78b7e3e7671f00ad14739",
    ("run", "defended_baseline", 3):
        "0060faf2b217e59b7e0c5ddf7a91e29536c0ab94cc2e26e0b166c1adb9b71ab7",
    ("run", "organic_only", 0):
        "7ec1bee1b6633b6d52bd9fcbbd0a669afe124114a66eef40c0981a1670acd74d",
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

# `analyze` of the archive ``write_analyze_span_inputs`` writes
ANALYZE_SPAN_DIGESTS = {
    "analysis.json": "8a302229aa8392524044204079df74b75dbc6fd75ea48740f94c198127715d83",
    "sentiment_windows.csv": "1468cde064341b433c4d9e567ef7a87cd13857a36bbbd4c4902aa1f2e5e21fec",
    "volume.csv": "024c318f37c62229999699d1656e21eeb0fd96bd95cd343fd6450b78ffc6a94d",
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


class RecordingRng:
    """A stand-in for a run's ``Generator`` that logs every method call, then
    makes it.  Forks deep-copy the run state, the generator with it, so a
    deep copy wraps a copy of the generator and logs into the same list;
    each entry names the wrapper it came from by its position in ``proxies``."""

    def __init__(self, rng: np.random.Generator, log: list, proxies: list):
        self._rng, self._log, self._index = rng, log, len(proxies)
        self._proxies = proxies
        proxies.append(self)

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):
            return method

        def call(*args, **kwargs):
            self._log.append((self._index, name, _canonical(args),
                              _canonical(sorted(kwargs.items()))))
            return method(*args, **kwargs)
        return call

    def __deepcopy__(self, memo) -> "RecordingRng":
        return RecordingRng(copy.deepcopy(self._rng, memo), self._log, self._proxies)


def _canonical(value) -> str:
    """An argument as text: arrays by dtype, shape and bytes, numpy scalars
    as the Python numbers they equal."""
    if isinstance(value, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"array({value.dtype.str}, {value.shape}, {data})"
    if isinstance(value, np.generic):
        return repr(value.item())
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_canonical(v) for v in value) + ")"
    return repr(value)


@contextlib.contextmanager
def recorded_engine_rngs():
    """Wrap the generator of every ``Simulation`` built inside the block in a
    ``RecordingRng``; yields the shared call log and the wrappers."""
    log, proxies = [], []
    init = contagion.Simulation.__init__

    def recording_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        sim.rng = RecordingRng(sim.rng, log, proxies)

    contagion.Simulation.__init__ = recording_init
    try:
        yield log, proxies
    finally:
        contagion.Simulation.__init__ = init


def rng_call_digest(case: tuple, work_dir) -> str:
    """sha256 of the engine generators' call log for one golden case, each
    call as (wrapper, method, arguments, keywords), then the final
    bit-generator state of every wrapper in the order they were made."""
    command, *params = case
    with recorded_engine_rngs() as (log, proxies):
        if command == "run":
            run_digests(*params, work_dir)
        elif command == "config":
            config_run_digests(*params, work_dir)
        elif command == "batch":
            batch_digest(work_dir)
        else:
            compare_digest(*params, work_dir)
    digest = hashlib.sha256()
    for entry in log:
        digest.update(f"{entry}\n".encode())
    for proxy in proxies:
        digest.update(f"{proxy.bit_generator.state}\n".encode())
    return digest.hexdigest()


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


def write_analyze_span_inputs(directory):
    """An archive whose ticks span 90,000 hours from a negative first tick,
    plus its config.

    Its tick offsets (4,464 and 70,000; 65,535 and 65,536) order otherwise
    by their low 16 bits than in full.  Each tick holds six rows scattered
    through the file, so the early posters the detector reads (the six rows
    at the first tick and two of the six at the next) and each window's
    valence sums depend on ties keeping file order.  Exact duplicates sit
    far from their first copy, and the cells the kernels refuse repeat
    their spellings: padded authors and stamps and ``1e-1`` valences that
    the scalar converters accept, and ``yesterday``, ``user-7``, ``n/a``
    and ``1.5`` that make a row malformed.
    """
    low = -30_000
    offsets = (0, 1, 4_464, 5_000, 30_000, 65_535, 65_536, 65_537, 70_000, 90_000)
    last = low + offsets[-1]
    rows = []
    for k in range(60):
        tick = low + offsets[(k * 7) % len(offsets)]
        author = 200 + (k * 11) % 17
        created = last - 10 if k % 4 == 0 else low - 1000 - k
        valence = (0.1, 0.2, 0.3, -0.7, 0.45, -0.15, 1.0, -1.0, 0.05)[k % 9]
        stamp = _iso(tick, naive=k % 6 == 2) if k % 3 == 2 else str(tick)
        rows.append(f"{stamp},{author},{created},general_stream,{valence}")
    rows += [rows[2], rows[41], rows[8]]  # exact duplicates, far from their first copy
    rows += [f" {low + 5_000} ,201,{low},company_page,0.25",
             f"{low + 70_000}, 205 ,{low},,-0.35",
             f" {low + 70_000} ,205,{low},company_page,1e-1",
             f"{low + 1}, 205 ,{low},general_stream,1e-1"]
    rows += [f"yesterday,210,{low},general_stream,0.1",
             f"{low + 1},user-7,{low},general_stream,0.1",
             f"{low + 1},211,{low},general_stream,n/a",
             f"{low + 2},212,{low},general_stream,1.5"] * 2
    rows.insert(30, rows.pop())  # one malformed row mid-file
    archive = directory / "archive.csv"
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\n"
                       + "\n".join(rows) + "\n", encoding="utf-8")
    config = directory / "analyze.json"
    config.write_text(json.dumps({
        "analytics": {"sentiment_window": 168, "neutral_band": 0.1,
                      "forecast_window": 6},
        "defense": {"detect_first_k": 8, "age_threshold": 48}}), encoding="utf-8")
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


def test_every_engine_case_has_an_rng_call_digest():
    assert sorted(RNG_CALL_DIGESTS) == rng_call_cases()


@pytest.mark.parametrize("case", sorted(RNG_CALL_DIGESTS))
def test_rng_call_log_digests(tmp_path, case):
    """The same generator calls, in the same order, with the same arguments
    and sizes, leaving every generator in the same state."""
    assert rng_call_digest(case, tmp_path) == RNG_CALL_DIGESTS[case], _RECORDED_ON


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


def test_analyze_span_digests(tmp_path):
    assert analyze_digests(tmp_path, write_analyze_span_inputs) == ANALYZE_SPAN_DIGESTS, \
        _RECORDED_ON


# an archive that holds a quote is one range
@pytest.mark.parametrize("write_inputs,digests,ranges", [
    (write_analyze_inputs, ANALYZE_DIGESTS, 3),
    (write_analyze_edge_inputs, ANALYZE_EDGE_DIGESTS, 1),
    (write_analyze_quoted_inputs, ANALYZE_QUOTED_DIGESTS, 1),
    (write_analyze_quirks_inputs, ANALYZE_QUIRKS_DIGESTS, 1),
    (write_analyze_span_inputs, ANALYZE_SPAN_DIGESTS, 3),
])
def test_analyze_digests_with_the_split_forced(tmp_path, monkeypatch, write_inputs, digests,
                                               ranges):
    """The same bytes when ingest cuts any archive into one range per CPU."""
    monkeypatch.setattr(analytics.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(analytics, "_MIN_RANGE_BYTES", 64)
    assert analyze_digests(tmp_path, write_inputs) == digests, _RECORDED_ON
    assert len(analytics._byte_ranges(tmp_path / "archive.csv")) == ranges
