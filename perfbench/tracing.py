"""Span tracer that wraps firesim's public functions by name.

Each wrapped call records a span (id, parent id, trace id, name, start,
end).  Spans stay in memory until the run ends.  A name is patched in every
firesim module that holds it, so a function is traced whichever namespace
its caller looks it up in (``from .scenario import build_from_seed`` binds a
second name in ``cli``).  Hot lookups are counted without a span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (span name, module, attribute path).  The span name is "<layer>.<function>".
SPANNED = (
    ("cli.main", "firesim.cli", "main"),
    ("cli.cmd_run", "firesim.cli", "cmd_run"),
    ("cli.cmd_compare", "firesim.cli", "cmd_compare"),
    ("cli.cmd_analyze", "firesim.cli", "cmd_analyze"),
    ("cli.compare_toggle", "firesim.cli", "compare_toggle"),
    ("cli.run_metrics", "firesim.cli", "run_metrics"),
    ("cli._sign_test", "firesim.cli", "_sign_test"),
    ("cli._write_json_atomic", "firesim.cli", "_write_json_atomic"),
    ("cli._write_text_atomic", "firesim.cli", "_write_text_atomic"),
    ("scenario.load_config", "firesim.scenario", "load_config"),
    ("scenario.expand_preset", "firesim.scenario", "expand_preset"),
    ("scenario.default_config", "firesim.scenario", "default_config"),
    ("scenario.build_from_seed", "firesim.scenario", "build_from_seed"),
    ("scenario.build_simulation", "firesim.scenario", "build_simulation"),
    ("socialgraph.generate_scale_free", "firesim.socialgraph", "generate_scale_free"),
    ("socialgraph.build_roster", "firesim.socialgraph", "build_roster"),
    ("socialgraph.overlay_company", "firesim.socialgraph", "overlay_company"),
    # the account table is defined in socialgraph but holds the agents' state
    ("agents.AccountTable.real_users", "firesim.socialgraph", "AccountTable.real_users"),
    ("agents.AccountTable.copy", "firesim.socialgraph", "AccountTable.copy"),
    ("agents.bot_emit_arrays", "firesim.agents", "bot_emit_arrays"),
    ("agents.susceptibility_terms", "firesim.agents", "susceptibility_terms"),
    ("agents.activation_probability", "firesim.agents", "activation_probability"),
    ("agents.draw_organic_valence", "firesim.agents", "draw_organic_valence"),
    ("agents.stress_step", "firesim.agents", "stress_step"),
    ("agents.saturate", "firesim.agents", "saturate"),
    ("contagion.Simulation.run", "firesim.contagion", "Simulation.run"),
    ("contagion.Simulation.step", "firesim.contagion", "Simulation.step"),
    ("contagion.Simulation.fork_bots_dormant", "firesim.contagion",
     "Simulation.fork_bots_dormant"),
    ("contagion.PostLog.posts_between", "firesim.contagion", "PostLog.posts_between"),
    ("contagion.SimHistory.to_csv_text", "firesim.contagion", "SimHistory.to_csv_text"),
    ("attack.advance_plan", "firesim.attack", "advance_plan"),
    ("attack.execute_action", "firesim.attack", "execute_action"),
    ("defense.run_playbook_tick", "firesim.defense", "run_playbook_tick"),
    ("defense.apply_policy", "firesim.defense", "apply_policy"),
    ("defense.detect_artificial", "firesim.defense", "detect_artificial"),
    ("analytics.emit_report", "firesim.analytics", "emit_report"),
    ("analytics.run_metadata", "firesim.analytics", "run_metadata"),
    ("analytics.run_outcome", "firesim.analytics", "run_outcome"),
    ("analytics.sentiment_windows_for_run", "firesim.analytics", "sentiment_windows_for_run"),
    ("analytics.aggregate_window", "firesim.analytics", "aggregate_window"),
    ("analytics.financial_csv_text", "firesim.analytics", "financial_csv_text"),
    ("analytics.ingest_archive", "firesim.analytics", "ingest_archive"),
    ("analytics.classify_run_cascade", "firesim.analytics", "classify_run_cascade"),
)

# Called hundreds of thousands of times per storm: counted, never spanned.
COUNTED = (
    ("socialgraph.follower_lookups", "firesim.socialgraph", "SocialGraph.follower_array"),
)

STEP = "contagion.Simulation.step"
# A step called while another step is open is a counterfactual fork's step.
FORK_STEP = "contagion.fork_step"

# How a metric is read off the spans: "self" sums self time, "total" sums
# the outermost spans among the names, "calls" counts spans.  Counters
# come from result hooks.  Every figure is per operation.
LAYER_METRICS = (
    ("cli.analyze_self_s", "s", "self", ("cli.cmd_analyze",)),
    ("cli.compare_self_s", "s", "self", ("cli.compare_toggle", "cli.run_metrics")),
    ("cli.sign_test_s", "s", "total", ("cli._sign_test",)),
    ("cli.write_s", "s", "total", ("cli._write_json_atomic", "cli._write_text_atomic")),
    ("scenario.config_s", "s", "total",
     ("scenario.load_config", "scenario.expand_preset", "scenario.default_config")),
    ("scenario.build_self_s", "s", "self", ("scenario.build_simulation",)),
    ("scenario.builds", "count", "calls", ("scenario.build_simulation",)),
    ("socialgraph.generate_s", "s", "total", ("socialgraph.generate_scale_free",)),
    ("socialgraph.roster_s", "s", "total",
     ("socialgraph.build_roster", "socialgraph.overlay_company")),
    ("socialgraph.edges", "count", "counter", ()),
    ("socialgraph.follower_lookups", "count", "counter", ()),
    ("agents.accounts_s", "s", "total", ("agents.AccountTable.real_users",)),
    ("agents.kernel_s", "s", "total",
     ("agents.bot_emit_arrays", "agents.susceptibility_terms",
      "agents.activation_probability", "agents.draw_organic_valence",
      "agents.stress_step", "agents.saturate")),
    ("agents.table_copies", "count", "calls", ("agents.AccountTable.copy",)),
    ("contagion.step_self_s", "s", "self", (STEP,)),
    ("contagion.steps", "count", "calls", (STEP,)),
    ("contagion.fork_s", "s", "total",
     ("contagion.Simulation.fork_bots_dormant", FORK_STEP)),
    ("contagion.forks", "count", "calls", ("contagion.Simulation.fork_bots_dormant",)),
    ("contagion.fork_steps", "count", "calls", (FORK_STEP,)),
    ("contagion.posts_between_s", "s", "total", ("contagion.PostLog.posts_between",)),
    ("contagion.posts_materialised", "count", "counter", ()),
    ("contagion.history_csv_s", "s", "total", ("contagion.SimHistory.to_csv_text",)),
    ("contagion.posts_simulated", "count", "counter", ()),
    ("attack.advance_s", "s", "total", ("attack.advance_plan",)),
    ("attack.actions", "count", "calls", ("attack.execute_action",)),
    ("defense.playbook_s", "s", "total", ("defense.run_playbook_tick",)),
    ("defense.policies_applied", "count", "calls", ("defense.apply_policy",)),
    ("defense.detect_s", "s", "total", ("defense.detect_artificial",)),
    ("analytics.sentiment_s", "s", "total", ("analytics.sentiment_windows_for_run",)),
    ("analytics.aggregate_window_s", "s", "total", ("analytics.aggregate_window",)),
    ("analytics.metadata_s", "s", "total", ("analytics.run_metadata",)),
    ("analytics.financial_csv_s", "s", "total", ("analytics.financial_csv_text",)),
    ("analytics.emit_self_s", "s", "self", ("analytics.emit_report",)),
    ("analytics.report_bytes", "bytes", "counter", ()),
    ("analytics.outcome_s", "s", "total", ("analytics.run_outcome",)),
    ("analytics.ingest_s", "s", "total", ("analytics.ingest_archive",)),
    ("analytics.rows", "count", "counter", ()),
    ("analytics.duplicates", "count", "counter", ()),
    ("analytics.malformed", "count", "counter", ()),
    ("analytics.forecast_s", "s", "total", ("analytics.classify_run_cascade",)),
)


def _edges(c: Counter, result) -> None:
    c["socialgraph.edges"] += result.graph.edge_count


def _posts_simulated(c: Counter, result) -> None:
    c["contagion.posts_simulated"] += sum(result.history.total_posts)


def _posts_materialised(c: Counter, result) -> None:
    c["contagion.posts_materialised"] += len(result)


def _report_bytes(c: Counter, result) -> None:
    c["analytics.report_bytes"] += sum(path.stat().st_size for path in result)


def _ingested(c: Counter, result) -> None:
    c["analytics.rows"] += result.total_rows
    c["analytics.duplicates"] += result.duplicate_count
    c["analytics.malformed"] += result.malformed_count


# Counters read off a call's result, at the boundary where the work happens.
RESULT_COUNTERS = {
    "scenario.build_simulation": _edges,
    "contagion.Simulation.run": _posts_simulated,
    "contagion.PostLog.posts_between": _posts_materialised,
    "analytics.emit_report": _report_bytes,
    "analytics.ingest_archive": _ingested,
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.counts: Counter = Counter()
        self.trace_id = ""
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter_ns
        on_result = RESULT_COUNTERS.get(name)
        is_step = name == STEP
        sets_trace = name == "cli.run_metrics"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            parent = -1
            if stack:
                parent, parent_name = stack[-1]
                if is_step and parent_name in (STEP, FORK_STEP):
                    span_name = FORK_STEP
            sid = self._next_id
            self._next_id = sid + 1
            saved_trace = self.trace_id
            if sets_trace:  # both arms of a seed pair share one trace id
                self.trace_id = f"{saved_trace.split('/')[0]}/seed{args[1]}"
            stack.append((sid, span_name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.trace_id, span_name, start, end))
                self.trace_id = saved_trace
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every target in place; ``uninstall`` puts the originals back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path in SPANNED:
            self._patch(module, path, lambda fn, n=name: self._wrap(fn, n))
        for name, module, path in COUNTED:
            self._patch(module, path, lambda fn, n=name: self._count(fn, n))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make) -> None:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:  # a method: replace it on its class, keeping its descriptor kind
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "firesim" or mod_name.startswith("firesim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _trace, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _trace, _name, start, end in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, counts: Counter, operations: int) -> dict[str, dict]:
    """Every LAYER_METRICS figure per operation, as {name: {"value", "unit"}}."""
    if operations < 1:
        raise ValueError("need at least one traced operation")
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    out = {}
    for metric, unit, kind, names in LAYER_METRICS:
        wanted = set(names)
        if kind == "counter":
            value = counts.get(metric, 0)
        elif kind == "calls":
            value = sum(1 for s in spans if s[3] in wanted)
        elif kind == "self":
            value = sum(selfs[s[0]] for s in spans if s[3] in wanted) / 1e9
        else:
            value = 0
            for s in spans:
                if s[3] not in wanted:
                    continue
                parent = by_id.get(s[1])
                while parent is not None and parent[3] not in wanted:
                    parent = by_id.get(parent[1])
                if parent is None:  # outermost among the named spans
                    value += s[5] - s[4]
            value /= 1e9
        out[metric] = {"value": value / operations, "unit": unit}
    return out


def write_spans(spans, path) -> None:
    """One CSV row per span, in the order the spans closed."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span_id,parent_id,trace_id,name,start_ns,end_ns,self_ns\n")
        for sid, parent, trace, name, start, end in spans:
            fh.write(f"{sid},{parent},{trace},{name},{start},{end},{selfs[sid]}\n")
