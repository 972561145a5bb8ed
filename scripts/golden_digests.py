"""Recompute the golden digest tables of tests/test_golden.py.

Runs every case the test module lists (the `run` presets and seeds, the
`batch` seed range and the `analyze` archive) and prints RUN_DIGESTS,
BATCH_DIGEST and ANALYZE_DIGESTS as Python literals.  Run it on the commit
before a change to record the digests the change must keep.

Usage: PYTHONPATH=src python3 scripts/golden_digests.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import test_golden  # noqa: E402


def _digest_lines(digests: dict, indent: str) -> None:
    for file_name, digest in sorted(digests.items()):
        print(f'{indent}"{file_name}": "{digest}",')


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        work = Path(work)
        runs = {(preset, seed): test_golden.run_digests(preset, seed, work / f"run-{preset}-{seed}")
                for preset, seed in sorted(test_golden.RUN_DIGESTS)}
        batch = test_golden.batch_digest(work / "batch")
        (work / "analyze").mkdir()
        analyze = test_golden.analyze_digests(work / "analyze")

    print("RUN_DIGESTS = {")
    for (preset, seed), digests in runs.items():
        print(f'    ("{preset}", {seed}): {{')
        _digest_lines(digests, " " * 8)
        print("    },")
    print("}")
    print()
    print(f"# `batch --seeds {test_golden.BATCH_SEEDS}` on the default config")
    print(f'BATCH_DIGEST = "{batch}"')
    print()
    print("# `analyze` of the archive ``write_analyze_inputs`` writes")
    print("ANALYZE_DIGESTS = {")
    _digest_lines(analyze, " " * 4)
    print("}")


if __name__ == "__main__":
    main()
