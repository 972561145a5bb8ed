"""Recompute the golden digest tables of tests/test_golden.py.

Runs every case the test module lists (the `run` presets and seeds, the
`run --config` configs and seeds, the `batch` seed range, the `compare`
toggles, the `analyze` archives and the follower CSR of the world
configs) and prints RUN_DIGESTS, CONFIG_RUN_DIGESTS, WORLD_CSR_DIGESTS,
BATCH_DIGEST, COMPARE_DIGESTS, RNG_CALL_DIGESTS (the engine generators'
call log of each `run`, `run --config`, `batch` and `compare` case) and
the tables of ANALYZE_TABLES as Python literals.  Run it on the commit
before a change to record the digests the change must keep.  A new case
is a key added to its table (with an empty value, for the `run` tables);
its call-log digest follows from the key.

Usage: PYTHONPATH=src python3 scripts/golden_digests.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import test_golden  # noqa: E402

# (table, the test_golden function that writes its archive)
ANALYZE_TABLES = (("ANALYZE_DIGESTS", "write_analyze_inputs"),
                  ("ANALYZE_EDGE_DIGESTS", "write_analyze_edge_inputs"),
                  ("ANALYZE_QUOTED_DIGESTS", "write_analyze_quoted_inputs"),
                  ("ANALYZE_QUIRKS_DIGESTS", "write_analyze_quirks_inputs"),
                  ("ANALYZE_SPAN_DIGESTS", "write_analyze_span_inputs"))


def _digest_lines(digests: dict, indent: str) -> None:
    for file_name, digest in sorted(digests.items()):
        print(f'{indent}"{file_name}": "{digest}",')


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        work = Path(work)
        runs = {(preset, seed): test_golden.run_digests(preset, seed, work / f"run-{preset}-{seed}")
                for preset, seed in sorted(test_golden.RUN_DIGESTS)}
        config_runs = {(name, seed): test_golden.config_run_digests(
                           name, seed, work / f"config-run-{name}-{seed}")
                       for name, seed in sorted(test_golden.CONFIG_RUN_DIGESTS)}
        world_csrs = {name: test_golden.world_csr_digest(name)
                      for name in sorted(test_golden.WORLD_CSR_DIGESTS)}
        batch = test_golden.batch_digest(work / "batch")
        compares = {(preset, toggle, seeds): test_golden.compare_digest(
                        preset, toggle, seeds, work / f"compare-{preset}-{toggle}")
                    for preset, toggle, seeds in sorted(test_golden.COMPARE_DIGESTS)}
        rng_calls = {case: test_golden.rng_call_digest(case, work / f"rng-calls-{k}")
                     for k, case in enumerate(test_golden.rng_call_cases())}
        analyze = {}
        for table, writer in ANALYZE_TABLES:
            (work / table).mkdir()
            analyze[table] = test_golden.analyze_digests(work / table,
                                                         getattr(test_golden, writer))

    print("RUN_DIGESTS = {")
    for (preset, seed), digests in runs.items():
        print(f'    ("{preset}", {seed}): {{')
        _digest_lines(digests, " " * 8)
        print("    },")
    print("}")
    print()
    print("CONFIG_RUN_DIGESTS = {")
    for (name, seed), digests in config_runs.items():
        print(f'    ("{name}", {seed}): {{')
        _digest_lines(digests, " " * 8)
        print("    },")
    print("}")
    print()
    print("WORLD_CSR_DIGESTS = {")
    _digest_lines(world_csrs, " " * 4)
    print("}")
    print()
    print(f"# `batch --seeds {test_golden.BATCH_SEEDS}` on the default config")
    print(f'BATCH_DIGEST = "{batch}"')
    print()
    print("# `compare --preset P --toggle T --seeds S`: compare_summary.json")
    print("COMPARE_DIGESTS = {")
    for (preset, toggle, seeds), digest in compares.items():
        print(f'    ("{preset}", "{toggle}", "{seeds}"):')
        print(f'        "{digest}",')
    print("}")
    print()
    print("# `rng_call_digest` of each case in ``rng_call_cases()``")
    print("RNG_CALL_DIGESTS = {")
    for case, digest in rng_calls.items():
        key = ", ".join(f'"{part}"' if isinstance(part, str) else str(part) for part in case)
        print(f"    ({key}):")
        print(f'        "{digest}",')
    print("}")
    for table, writer in ANALYZE_TABLES:
        print()
        print(f"# `analyze` of the archive ``{writer}`` writes")
        print(f"{table} = {{")
        _digest_lines(analyze[table], " " * 4)
        print("}")


if __name__ == "__main__":
    main()
