"""Count the lines of src/firesim that the golden cases reach.

Runs the cases tests/test_golden.py lists (the `run` presets and seeds, the
`run --config` configs and seeds, the follower CSR of the world configs,
the `batch` seed range, the `compare` toggles and the `analyze` archives),
through the functions scripts/golden_digests.py calls, under the stdlib
``trace`` line counter.  The counter starts before firesim is first
imported, so module-level lines count.  The call-log digests re-run the
same cases with a recording generator, so they reach nothing more and are
left out.

Prints how many executable lines of src/firesim the cases reach, then each
line they do not reach, less the allowlist: lines that need no digest
because they only raise a named error, import for type checking alone, or
serve only the benchmark tracer (``PostLog.posts_between``).  A line the
cases miss can change its output with every digest still green.

Usage: PYTHONPATH=src python3 scripts/golden_reach.py [--case LABEL ...]
"""

import argparse
import ast
import collections
import dis
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "firesim"
sys.path.insert(0, str(ROOT / "tests"))


def _cases() -> dict:
    """label -> run(work_dir) for every case, importing firesim on first call."""
    import golden_digests
    import test_golden as g

    cases = {}
    for preset, seed in sorted(g.RUN_DIGESTS):
        cases[f"run:{preset}:{seed}"] = lambda w, p=preset, s=seed: g.run_digests(p, s, w)
    for name, seed in sorted(g.CONFIG_RUN_DIGESTS):
        cases[f"config:{name}:{seed}"] = lambda w, n=name, s=seed: g.config_run_digests(n, s, w)
    for name in sorted(g.WORLD_CSR_DIGESTS):
        cases[f"csr:{name}"] = lambda w, n=name: g.world_csr_digest(n)
    cases[f"batch:{g.BATCH_SEEDS}"] = g.batch_digest
    for preset, toggle, seeds in sorted(g.COMPARE_DIGESTS):
        cases[f"compare:{preset}:{toggle}:{seeds}"] = \
            lambda w, c=(preset, toggle, seeds): g.compare_digest(*c, w)
    for _, writer in golden_digests.ANALYZE_TABLES:
        cases[f"analyze:{writer}"] = \
            lambda w, f=getattr(g, writer): g.analyze_digests(w, f)
    return cases


def _run_cases(labels: list[str]) -> None:
    cases = _cases()
    unknown = sorted(set(labels) - set(cases))
    if unknown:
        raise SystemExit(f"unknown case {unknown[0]!r}; cases are:\n  " + "\n  ".join(cases))
    with tempfile.TemporaryDirectory(prefix="golden-reach-") as work:
        for k, label in enumerate(labels or cases):
            (Path(work) / str(k)).mkdir()
            cases[label](Path(work) / str(k))


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that start an instruction of its code objects."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += (const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def allowed_lines(path: Path) -> dict[int, str]:
    """line -> the reason it needs no golden digest."""
    allowed = {}

    def allow(nodes, reason: str) -> None:
        for node in nodes:
            allowed.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), reason))

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            allow([node], "only raises a named error")
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            allow(node.body, "a type-only import")
        elif isinstance(node, ast.ClassDef) and node.name == "PostLog":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "posts_between":
                    allow(method.body, "the benchmark tracer's oracle; no command calls it")
    return allowed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--case", action="append", default=[], metavar="LABEL",
                        help="run only this case (repeatable), e.g. config:weak-bots:2")
    args = parser.parse_args()

    # no ``ignoredirs``: ``trace`` caches its ignore verdict by module name, so
    # the first ignored ``__init__.py`` would hide firesim's own
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(_run_cases, args.case)
    reached = {}
    for (filename, line), _ in tracer.results().counts.items():
        reached.setdefault(Path(filename).resolve(), set()).add(line)

    total = hit = 0
    missed, reasons = [], collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        lines, allowed = executable_lines(path), allowed_lines(path)
        reasons.update(allowed[line] for line in lines & set(allowed))
        lines -= set(allowed)
        got = lines & reached.get(path.resolve(), set())
        total, hit = total + len(lines), hit + len(got)
        source = path.read_text(encoding="utf-8").splitlines()
        missed += [f"{path.name}:{line}: {source[line - 1].strip()}" for line in sorted(lines - got)]
    print(f"golden cases reach {hit:,} of {total:,} executable lines in src/firesim; "
          f"{total - hit:,} unreached")
    print("allowlisted: " + "; ".join(f"{count} {reason}" for reason, count in reasons.items()))
    for entry in missed:
        print(f"  {entry}")


if __name__ == "__main__":
    main()
