"""Deterministic agent-based simulator of organised social-media firestorms
against companies: scale-free follower graphs, staged bot campaigns, employee
stress, defense playbooks, and sentiment/financial analytics.
"""

__version__ = "0.1.0"

from .agents import (BotCohort, BotMode, CompanyState, FailureClass, Post,
                     SurfaceKind, TargetTopic)
from .analytics import (CascadeClass, CascadeForecast, CorruptArchiveError,
                        FinancialProxy, SentimentSummary, aggregate_window,
                        compound_score, emit_report, ingest_archive,
                        predict_cascade, run_outcome, update_financial_proxy)
from .attack import (ActionKind, ActionOutcome, AttackPlan, IMPACT_MATRIX,
                     ImpactVector, PlanStage, SequencingError, advance_plan,
                     execute_action, select_topic)
from .contagion import Simulation, StageTracker, World, regulator_visibility
from .defense import (AccountReputationDB, FirestormVerdict, PastFirestorm,
                      PolicyKind, PolicyMismatchError, detect_artificial,
                      recurrence_boost)
from .scenario import (ConfigError, PRESETS, PolicySpec, ScenarioConfig,
                       build_from_seed, build_simulation, build_world,
                       default_config, dumps_config, expand_preset, load_config,
                       loads_config)
from .socialgraph import (AccountKind, AccountTable, CompanyRoster, SocialGraph,
                          generate_scale_free)

__all__ = [
    "__version__",
    "BotCohort", "BotMode", "CompanyState", "FailureClass", "Post",
    "SurfaceKind", "TargetTopic",
    "CascadeClass", "CascadeForecast", "CorruptArchiveError", "FinancialProxy",
    "SentimentSummary", "aggregate_window", "compound_score", "emit_report",
    "ingest_archive", "predict_cascade", "run_outcome", "update_financial_proxy",
    "ActionKind", "ActionOutcome", "AttackPlan", "IMPACT_MATRIX",
    "ImpactVector", "PlanStage", "SequencingError", "advance_plan",
    "execute_action", "select_topic",
    "Simulation", "StageTracker", "World", "regulator_visibility",
    "AccountReputationDB", "FirestormVerdict", "PastFirestorm", "PolicyKind",
    "PolicyMismatchError", "detect_artificial", "recurrence_boost",
    "ConfigError", "PRESETS", "PolicySpec", "ScenarioConfig", "build_from_seed",
    "build_simulation", "build_world", "default_config", "dumps_config",
    "expand_preset", "load_config", "loads_config",
    "AccountKind", "AccountTable", "CompanyRoster", "SocialGraph",
    "generate_scale_free",
]
