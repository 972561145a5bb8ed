"""Deterministic agent-based simulator of organised social-media firestorms
against companies: scale-free follower graphs, staged bot campaigns, employee
stress, defense playbooks, and sentiment/financial analytics.

The names below load their module on first use (PEP 562), so importing one
module, ``firesim.socialgraph`` say, loads no other.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("agents", "BotCohort BotMode CompanyState FailureClass Post SurfaceKind TargetTopic"),
    ("analytics", "CascadeClass CascadeForecast CorruptArchiveError FinancialOverflowError "
                  "FinancialProxy SentimentSummary aggregate_window compound_score emit_report "
                  "ingest_archive predict_cascade run_outcome update_financial_proxy"),
    ("attack", "ActionKind ActionOutcome AttackPlan IMPACT_MATRIX ImpactVector PlanStage "
               "SequencingError advance_plan execute_action select_topic"),
    ("contagion", "Simulation StageTracker World regulator_visibility"),
    ("defense", "FirestormVerdict PastFirestorm PolicyKind PolicyMismatchError "
                "detect_artificial load_reputation_db recurrence_boost"),
    ("scenario", "ConfigError PRESETS PolicySpec ScenarioConfig build_from_seed "
                 "build_simulation build_world default_config dumps_config expand_preset "
                 "load_config loads_config"),
    ("socialgraph", "AccountKind AccountTable SocialGraph generate_scale_free"),
) for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
