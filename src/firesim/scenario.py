"""Scenario configuration: schema, strict loading, presets, and sim wiring.

Every free parameter in the package lives here as a frozen dataclass
field with its default.  Loading is strict: unknown keys and out-of-range
values are errors naming the offending field, so a typo cannot silently
change a Monte Carlo batch.  ``build_simulation`` turns a validated
config into a ready engine with a fully deterministic seed tree.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import attack, defense
from .agents import FailureClass, TargetTopic
from .contagion import FirestormStage, Simulation, World
from .defense import PastFirestorm, PolicyKind
from .socialgraph import (AccountKind, AccountTable, build_roster,
                          generate_scale_free, overlay_company)


class ConfigError(ValueError):
    """A scenario config failed schema or domain validation."""


FAILURE_CLASS_NAMES = tuple(fc.value for fc in FailureClass)
ACTION_NAMES = tuple(kind.value for kind in attack.ActionKind)
STAGE_NAMES = tuple(stage.value for stage in FirestormStage)
POLICY_NAMES = tuple(kind.value for kind in PolicyKind)

# Bots whose follower coins are drawn in one block: at n = 50k, 16 rows of
# doubles are 6.4 MB, where all 200 bots of a storm at once were 80 MB.
BOT_COIN_BLOCK_ROWS = 16

# Mean posts per account per hourly tick: one a minute is past any account,
# and it keeps a tick's post arrays (and numpy's Poisson mean) bounded.
MAX_POSTING_RATE = 60.0


@dataclass(frozen=True)
class GraphConfig:
    n: int = 1000
    m: int = 3
    coworker_fraction: float = 0.3
    # bots reach users through trending by default; >0 wires follow edges
    bot_follower_fraction: float = 0.0


@dataclass(frozen=True)
class RosterConfig:
    company_id: str = "company-0"
    employees: int = 24
    managers: int = 6
    manager_roles: tuple[str, ...] = ("ceo", "cco", "ciso")
    security_posture: float = 0.9


@dataclass(frozen=True)
class AgentConfig:
    beta: float = 10.0
    theta: float = 0.7
    posting_rate: float = 0.35
    max_posts_per_user: int = 6
    organic_company_page_fraction: float = 0.3
    base_negative_weight: float = 0.7
    class_multipliers: dict[str, float] = field(default_factory=lambda: {
        "social": 1.1, "communication": 0.9, "product_service": 1.0})
    stress_decay: float = 0.08
    gamma_direct: float = 0.3
    gamma_ambient: float = 0.01
    half_saturation: float = 10.0
    stress_compliance_weight: float = 0.6
    severity_scales_direct_gain: bool = True
    manager_transfer: float = 0.0


@dataclass(frozen=True)
class ContagionConfig:
    trend_samples: int = 4
    trend_saturation: float = 1200.0
    fire_threshold: float = 15.0
    fire_window: int = 12
    extinguish_eps: float = 2.0
    extinguish_window: int = 12
    stage_low: float = 5.0
    stage_high: float = 40.0
    smoothing_window: int = 12


@dataclass(frozen=True)
class RansomConfig:
    amount: float = 150000.0
    base_willingness: float = 0.6
    amount_scale: float = 200000.0
    reliability: float = 0.8
    force_outcome: str | None = None  # None | "pay" | "refuse"


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = True
    bots: int = 200
    bot_posting_rate: float = 1.0
    bot_creation_age: int = 48
    valence_noise: float = 0.2
    class_weights: dict[str, float] = field(default_factory=lambda: {
        "social": 1.0, "communication": 1.0, "product_service": 1.0})
    spread_patience: int = 72
    campaign_budget: int = 96
    worker_focus_enabled: bool = True
    retarget_ramp: int = 12
    retarget_top_k: int = 12
    target_weights: tuple[float, float, float] = (0.4, 0.4, 0.2)
    stress_open_threshold: float = 0.35
    final_action: str = "human_error_exploit"
    action_probabilities: dict[str, float] = field(default_factory=lambda: {
        "dos": 0.9, "physical_action": 0.7, "offering_help": 0.35})
    reputation_shocks: dict[str, float] = field(default_factory=lambda: {
        "human_error_exploit": 0.08, "dos": 0.05, "physical_action": 0.03,
        "offering_help": 0.04, "insider_threat": 0.05})
    downtime_ticks: dict[str, int] = field(default_factory=lambda: {
        "dos": 12, "physical_action": 6, "human_error_exploit": 6,
        "insider_threat": 4})
    insider_stress_min: float = 0.7
    insider_pride_max: float = 0.3
    insider_rate_per_candidate: float = 0.15
    ransom: RansomConfig = field(default_factory=RansomConfig)
    service: RansomConfig = field(default_factory=lambda: RansomConfig(
        amount=60000.0, base_willingness=0.5, amount_scale=200000.0,
        reliability=0.9))
    flip_fraction: float = 0.1
    action_schedule: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    trigger_tick: int | None = None
    trigger_stage: str | None = None


@dataclass(frozen=True)
class DefenseConfig:
    enabled: bool = False
    playbook: tuple[PolicySpec, ...] = ()
    detect_first_k: int = 20
    age_threshold: int = 720
    db_path: str | None = None
    prepared_bots: int = 25
    partner_defenders: int = 8
    support_posting_rate: float = 0.8
    support_creation_age: int = 8760
    training_posture_boost: float = 0.05
    scapegoat_transfer: float = 0.5
    scapegoat_backfire_probability: float = 0.2
    scapegoat_backfire_penalty: float = 0.05
    dialogue_follower_gain: int = 200
    dialogue_convert_fraction: float = 0.05
    mitigation_factors: dict[str, float] = field(default_factory=lambda: {
        "social": 0.5, "communication": 0.5, "product_service": 0.5})
    recurrence_gain: float = 0.5
    recurrence_tau: float = 720.0
    recurrence_period: int = 17520  # two years of hourly ticks


@dataclass(frozen=True)
class AnalyticsConfig:
    neutral_band: float = 0.05
    compound_alpha: float = 15.0
    sentiment_window: int = 720
    kappa: float = 1.0
    # half the lost value returns in roughly 60 days of hourly ticks
    recovery_rho: float = 0.00048
    value_base: float = 100.0
    value_floor: float = 1.0
    reputation_volume_weight: float = 0.004
    reputation_half_saturation: float = 50.0
    reputation_recovery: float = 0.002
    downtime_reputation_penalty: float = 0.003
    forecast_window: int = 24
    forecast_horizon: int = 24
    predictable_rmse: float = 0.2


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    ticks: int = 168
    initial_organic_posters: int = 0
    user_creation_min: int = -20000
    user_creation_max: int = -2000


DEFAULT_TOPICS: tuple[TargetTopic, ...] = (
    TargetTopic("broken-product", FailureClass.PRODUCT_SERVICE, 0.8,
                (0.5, 0.4, 0.6, 0.5, 0.7)),
    TargetTopic("ceo-scandal", FailureClass.SOCIAL, 0.7,
                (0.55, 0.35, 0.65, 0.45, 0.75)),
    TargetTopic("tone-deaf-apology", FailureClass.COMMUNICATION, 0.6,
                (0.6, 0.3, 0.5, 0.4, 0.6)),
)


@dataclass(frozen=True)
class ScenarioConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    roster: RosterConfig = field(default_factory=RosterConfig)
    agents: AgentConfig = field(default_factory=AgentConfig)
    contagion: ContagionConfig = field(default_factory=ContagionConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    analytics: AnalyticsConfig = field(default_factory=AnalyticsConfig)
    run: RunConfig = field(default_factory=RunConfig)
    topics: tuple[TargetTopic, ...] = DEFAULT_TOPICS
    company_history: tuple[PastFirestorm, ...] = ()

    def to_dict(self) -> dict:
        return _encode(self)


# -- the config codec ----------------------------------------------------------
# ``_decode`` checks JSON data against the dataclass field annotations and
# ``_encode`` walks a dataclass back into JSON data; errors name the path.

_SCALARS = {bool: ("true/false", bool), int: ("an integer", int),
            float: ("a number", (int, float)), str: ("a string", str)}


def _type_error(path: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{path}: expected {expected}, got {value!r}")


@functools.cache
def _field_specs(cls) -> dict:
    """name -> (annotation, default or MISSING) for a config dataclass."""
    hints = typing.get_type_hints(cls)
    specs = {}
    for f in dataclasses.fields(cls):
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        specs[f.name] = (hints[f.name], default)
    return specs


def _decode_section(cls, data, path: str, base=None):
    """``cls`` from ``data``; left-out keys keep ``base``'s values, or the class defaults."""
    where = path or "config"
    if not isinstance(data, dict):
        raise _type_error(where, "a mapping", data)
    specs = _field_specs(cls)
    unknown = sorted(set(data) - set(specs))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key '{unknown[0]}'; expected one of {sorted(specs)}")
    for name, (_, default) in specs.items():
        if default is dataclasses.MISSING and name not in data and base is None:
            raise ConfigError(f"{where}: missing key '{name}'")
    kwargs = {}
    for name, value in data.items():
        tp, default = specs[name]
        if base is not None:
            default = getattr(base, name)
        kwargs[name] = _decode(tp, value, default, f"{path}.{name}" if path else name)
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _decode(tp, value, default, path: str):
    """Check ``value`` against the annotation ``tp``; return the field value."""
    if dataclasses.is_dataclass(tp):  # a section, or a list item without a default
        return _decode_section(tp, value, path, default)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return _decode(inner, value, default, path)
    if origin is dict:  # any number per key, merged over the default
        if not isinstance(value, dict):
            raise _type_error(path, "a mapping", value)
        merged = dict(default)
        for key, item in value.items():
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise _type_error(f"{path}.{key}", "a number", item)
            merged[key] = item if args[1] is int and isinstance(item, int) else float(item)
        return merged
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _type_error(path, "a list", value)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise _type_error(path, f"a list of {len(args)} items", value)
        return tuple(_decode(arg, item, None, f"{path}[{i}]")
                     for i, (arg, item) in enumerate(zip(args, value)))
    if issubclass(tp, enum.Enum):
        names = [member.value for member in tp]
        if value not in names:
            raise ConfigError(f"{path}: {value!r} not in {names}")
        return tp(value)
    expected, accepted = _SCALARS[tp]
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
        raise _type_error(path, expected, value)
    return float(value) if tp is float else value


def _encode(value):
    """Dataclasses become mappings, tuples lists and enums their values."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, enum.Enum):
        return value.value
    return value


def config_from_dict(data: dict) -> ScenarioConfig:
    return validate_config(_decode_section(ScenarioConfig, data, ""))


# -- domain validation -------------------------------------------------------

def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_unit(value: float, path: str) -> None:
    _check(0.0 <= value <= 1.0, path, f"value {value!r} outside [0, 1]")


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    g, r, a, c = cfg.graph, cfg.roster, cfg.agents, cfg.contagion
    atk, d, an, run = cfg.attack, cfg.defense, cfg.analytics, cfg.run

    _check(g.n >= 1, "graph.n", f"population {g.n} must be >= 1")
    _check(g.m >= 1, "graph.m", f"attachment count {g.m} must be >= 1")
    _check(g.n >= g.m, "graph.n", f"population {g.n} must be >= graph.m ({g.m})")
    _check_unit(g.coworker_fraction, "graph.coworker_fraction")
    _check_unit(g.bot_follower_fraction, "graph.bot_follower_fraction")

    _check(r.employees >= 0, "roster.employees", "must be >= 0")
    _check(r.managers >= 0, "roster.managers", "must be >= 0")
    _check(r.employees + r.managers >= 1, "roster.employees",
           "roster needs at least one member (employees + managers >= 1)")
    _check(r.employees + r.managers <= g.n, "roster.employees",
           f"roster of {r.employees + r.managers} exceeds graph.n ({g.n})")
    _check_unit(r.security_posture, "roster.security_posture")

    _check(a.beta > 0, "agents.beta", f"steepness {a.beta!r} must be > 0")
    _check_unit(a.theta, "agents.theta")
    _check(0 < a.posting_rate <= MAX_POSTING_RATE, "agents.posting_rate",
           f"must lie in (0, {MAX_POSTING_RATE}]")
    _check(a.max_posts_per_user >= 1, "agents.max_posts_per_user", "must be >= 1")
    _check_unit(a.organic_company_page_fraction, "agents.organic_company_page_fraction")
    _check_unit(a.base_negative_weight, "agents.base_negative_weight")
    _check(set(a.class_multipliers) == set(FAILURE_CLASS_NAMES),
           "agents.class_multipliers",
           f"keys must be exactly {sorted(FAILURE_CLASS_NAMES)}")
    for key, value in a.class_multipliers.items():
        _check(value >= 0, f"agents.class_multipliers.{key}", "must be >= 0")
    _check_unit(a.stress_decay, "agents.stress_decay")
    _check(a.gamma_ambient >= 0, "agents.gamma_ambient", "must be >= 0")
    _check(a.gamma_direct > a.gamma_ambient, "agents.gamma_direct",
           f"direct mention pressure (gamma_direct={a.gamma_direct!r}) must exceed "
           f"ambient pressure (gamma_ambient={a.gamma_ambient!r})")
    _check(a.half_saturation > 0, "agents.half_saturation", "must be > 0")
    _check_unit(a.stress_compliance_weight, "agents.stress_compliance_weight")
    _check_unit(a.manager_transfer, "agents.manager_transfer")

    _check(c.trend_samples >= 0, "contagion.trend_samples", "must be >= 0")
    _check(c.trend_saturation > 0, "contagion.trend_saturation", "must be > 0")
    _check(c.extinguish_eps > 0, "contagion.extinguish_eps", "must be > 0")
    _check(c.fire_threshold >= c.extinguish_eps, "contagion.fire_threshold",
           f"fire_threshold ({c.fire_threshold!r}) must be >= extinguish_eps "
           f"({c.extinguish_eps!r}) so ignition and extinguishment cannot overlap")
    _check(c.fire_window >= 1, "contagion.fire_window", "must be >= 1")
    _check(c.extinguish_window >= 1, "contagion.extinguish_window", "must be >= 1")
    _check(c.stage_low >= 0, "contagion.stage_low", "must be >= 0")
    _check(c.stage_low < c.stage_high, "contagion.stage_low",
           f"stage_low ({c.stage_low!r}) must be below stage_high ({c.stage_high!r})")
    _check(c.smoothing_window >= 1, "contagion.smoothing_window", "must be >= 1")

    _check(atk.bots >= 0, "attack.bots", "must be >= 0")
    _check(0 <= atk.bot_posting_rate <= MAX_POSTING_RATE, "attack.bot_posting_rate",
           f"must lie in [0, {MAX_POSTING_RATE}]")
    _check(atk.bot_creation_age >= 0, "attack.bot_creation_age", "must be >= 0")
    _check_unit(atk.valence_noise, "attack.valence_noise")
    _check(set(atk.class_weights) == set(FAILURE_CLASS_NAMES),
           "attack.class_weights", f"keys must be exactly {sorted(FAILURE_CLASS_NAMES)}")
    _check(atk.spread_patience >= 1, "attack.spread_patience", "must be >= 1")
    _check(atk.campaign_budget >= 1, "attack.campaign_budget", "must be >= 1")
    _check(atk.retarget_ramp >= 0, "attack.retarget_ramp", "must be >= 0")
    _check(atk.retarget_top_k >= 1, "attack.retarget_top_k", "must be >= 1")
    _check(all(w >= 0 for w in atk.target_weights) and sum(atk.target_weights) > 0,
           "attack.target_weights", "weights must be >= 0 and not all zero")
    _check_unit(atk.stress_open_threshold, "attack.stress_open_threshold")
    _check(atk.final_action in ACTION_NAMES, "attack.final_action",
           f"{atk.final_action!r} not in {list(ACTION_NAMES)}")
    for key, value in atk.action_probabilities.items():
        _check(key in ACTION_NAMES, f"attack.action_probabilities.{key}",
               f"unknown action; expected one of {list(ACTION_NAMES)}")
        _check_unit(value, f"attack.action_probabilities.{key}")
    for key, value in atk.reputation_shocks.items():
        _check(key in ACTION_NAMES, f"attack.reputation_shocks.{key}", "unknown action")
        _check_unit(value, f"attack.reputation_shocks.{key}")
    for key, value in atk.downtime_ticks.items():
        _check(key in ACTION_NAMES, f"attack.downtime_ticks.{key}", "unknown action")
        _check(value >= 0, f"attack.downtime_ticks.{key}", "must be >= 0")
    _check_unit(atk.insider_stress_min, "attack.insider_stress_min")
    _check_unit(atk.insider_pride_max, "attack.insider_pride_max")
    _check(atk.insider_rate_per_candidate >= 0,
           "attack.insider_rate_per_candidate", "must be >= 0")
    for label, ransom in (("attack.ransom", atk.ransom), ("attack.service", atk.service)):
        _check(ransom.amount > 0, f"{label}.amount", "must be > 0")
        _check_unit(ransom.base_willingness, f"{label}.base_willingness")
        _check(ransom.amount_scale > 0, f"{label}.amount_scale", "must be > 0")
        _check_unit(ransom.reliability, f"{label}.reliability")
        _check(ransom.force_outcome in (None, "pay", "refuse"),
               f"{label}.force_outcome", "must be null, 'pay', or 'refuse'")
    _check(0 < atk.flip_fraction <= 1, "attack.flip_fraction", "must lie in (0, 1]")
    for i, (tick, action) in enumerate(atk.action_schedule):
        _check(tick >= 0, f"attack.action_schedule[{i}].tick", "must be >= 0")
        _check(action in ACTION_NAMES, f"attack.action_schedule[{i}].action",
               f"{action!r} not in {list(ACTION_NAMES)}")

    for i, spec in enumerate(d.playbook):
        path = f"defense.playbook[{i}]"
        _check(spec.kind in POLICY_NAMES, f"{path}.kind",
               f"{spec.kind!r} not in {list(POLICY_NAMES)}")
        _check(not (spec.trigger_tick is not None and spec.trigger_stage is not None),
               path, "set trigger_tick or trigger_stage, not both")
        if spec.trigger_tick is not None:
            _check(spec.trigger_tick >= 0, f"{path}.trigger_tick", "must be >= 0")
        if spec.trigger_stage is not None:
            _check(spec.trigger_stage in STAGE_NAMES, f"{path}.trigger_stage",
                   f"{spec.trigger_stage!r} not in {list(STAGE_NAMES)}")
    _check(d.detect_first_k >= 1, "defense.detect_first_k", "must be >= 1")
    _check(d.age_threshold >= 1, "defense.age_threshold", "must be >= 1")
    _check(d.prepared_bots >= 0, "defense.prepared_bots", "must be >= 0")
    _check(d.partner_defenders >= 0, "defense.partner_defenders", "must be >= 0")
    _check(0 <= d.support_posting_rate <= MAX_POSTING_RATE, "defense.support_posting_rate",
           f"must lie in [0, {MAX_POSTING_RATE}]")
    _check(d.support_creation_age >= 0, "defense.support_creation_age", "must be >= 0")
    _check_unit(d.training_posture_boost, "defense.training_posture_boost")
    _check_unit(d.scapegoat_transfer, "defense.scapegoat_transfer")
    _check_unit(d.scapegoat_backfire_probability, "defense.scapegoat_backfire_probability")
    _check_unit(d.scapegoat_backfire_penalty, "defense.scapegoat_backfire_penalty")
    _check(d.dialogue_follower_gain >= 0, "defense.dialogue_follower_gain", "must be >= 0")
    _check_unit(d.dialogue_convert_fraction, "defense.dialogue_convert_fraction")
    _check(set(d.mitigation_factors) == set(FAILURE_CLASS_NAMES),
           "defense.mitigation_factors", f"keys must be exactly {sorted(FAILURE_CLASS_NAMES)}")
    for key, value in d.mitigation_factors.items():
        _check(0 < value <= 1, f"defense.mitigation_factors.{key}",
               "must lie in (0, 1]; mitigation never raises severity")
    _check(d.recurrence_gain >= 0, "defense.recurrence_gain", "must be >= 0")
    _check(d.recurrence_tau > 0, "defense.recurrence_tau", "must be > 0")
    _check(d.recurrence_period >= 0, "defense.recurrence_period", "must be >= 0")

    _check(an.neutral_band >= 0, "analytics.neutral_band", "must be >= 0")
    _check(an.compound_alpha > 0, "analytics.compound_alpha", "must be > 0")
    _check(an.sentiment_window >= 1, "analytics.sentiment_window", "must be >= 1")
    _check(an.kappa >= 0, "analytics.kappa", "must be >= 0")
    _check(0 <= an.recovery_rho < 1, "analytics.recovery_rho", "must lie in [0, 1)")
    _check(an.value_base > 0, "analytics.value_base", "must be > 0")
    _check(0 < an.value_floor <= an.value_base, "analytics.value_floor",
           "must be > 0 and <= value_base")
    _check(an.reputation_volume_weight >= 0, "analytics.reputation_volume_weight",
           "must be >= 0")
    _check(an.reputation_half_saturation > 0, "analytics.reputation_half_saturation",
           "must be > 0")
    _check(an.reputation_recovery >= 0, "analytics.reputation_recovery", "must be >= 0")
    _check(an.downtime_reputation_penalty >= 0,
           "analytics.downtime_reputation_penalty", "must be >= 0")
    _check(an.forecast_window >= 2, "analytics.forecast_window", "must be >= 2")
    _check(an.forecast_horizon >= 1, "analytics.forecast_horizon", "must be >= 1")
    _check(an.predictable_rmse > 0, "analytics.predictable_rmse", "must be > 0")

    _check(run.seed >= 0, "run.seed", f"seed {run.seed} must be >= 0")
    _check(run.ticks >= 1, "run.ticks", "must be >= 1")
    _check(run.initial_organic_posters >= 0, "run.initial_organic_posters", "must be >= 0")
    _check(run.initial_organic_posters <= g.n, "run.initial_organic_posters",
           f"cannot exceed graph.n ({g.n})")
    _check(run.user_creation_min <= run.user_creation_max, "run.user_creation_min",
           "must be <= run.user_creation_max")
    _check(run.user_creation_max <= 0, "run.user_creation_max",
           "organic accounts must predate the run (tick <= 0)")

    _check(len(cfg.topics) >= 1, "topics", "at least one topic is required")
    ids = [t.topic_id for t in cfg.topics]
    _check(len(ids) == len(set(ids)), "topics", "topic ids must be unique")
    for i, past in enumerate(cfg.company_history):
        _check(past.failure_class in FAILURE_CLASS_NAMES,
               f"company_history[{i}].failure_class",
               f"{past.failure_class!r} not in {list(FAILURE_CLASS_NAMES)}")
    return cfg


# -- loading -----------------------------------------------------------------

def loads_config(text: str) -> ScenarioConfig:
    """Parse a JSON config string; empty text means all defaults."""
    if not text.strip():
        return config_from_dict({})
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return config_from_dict(data)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    return loads_config(text)


def dumps_config(cfg: ScenarioConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


# -- presets -----------------------------------------------------------------

def _rapid_massive() -> ScenarioConfig:
    cfg = default_config()
    return replace(cfg, attack=replace(cfg.attack, bots=200, bot_posting_rate=1.2,
                                       retarget_ramp=6))


def _permanent_few_accounts() -> ScenarioConfig:
    cfg = default_config()
    return replace(
        cfg,
        attack=replace(cfg.attack, bots=15, bot_posting_rate=0.3,
                       spread_patience=10_000_000, campaign_budget=10_000_000),
        run=replace(cfg.run, ticks=336))


def _organic_only() -> ScenarioConfig:
    cfg = default_config()
    return replace(
        cfg,
        attack=replace(cfg.attack, enabled=False, bots=0),
        run=replace(cfg.run, initial_organic_posters=6))


def _defended_baseline() -> ScenarioConfig:
    cfg = default_config()
    # Trigger on "peak" rather than "triggering": orchestrated storms blow up
    # within a tick or two, so the tracker can jump straight past triggering.
    playbook = (
        PolicySpec(kind="internal_training"),
        PolicySpec(kind="supporting_bots", trigger_stage="peak"),
        PolicySpec(kind="halt_product_and_review", trigger_stage="peak"),
        PolicySpec(kind="dialogue_engagement", trigger_stage="calming"),
    )
    return replace(cfg, defense=replace(cfg.defense, enabled=True, playbook=playbook))


PRESETS = {
    "rapid_massive": _rapid_massive,
    "permanent_few_accounts": _permanent_few_accounts,
    "organic_only": _organic_only,
    "defended_baseline": _defended_baseline,
}


def expand_preset(name: str) -> ScenarioConfig:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}") from None
    return validate_config(builder())


# -- wiring ------------------------------------------------------------------

def build_world(config: ScenarioConfig) -> World:
    """Build the frozen world of ``config``'s seed: what no tick changes.

    The seed tree is spawned in a fixed order (graph, accounts, roster,
    bots, posters, engine) so that changing the bot cohort leaves the
    graph, the population, and the roster untouched for the same seed.
    The cohorts the playbook names get their rows whether or not defense
    is enabled (dormant rows without edges), so both arms of every
    ``compare`` toggle name the same world.
    """
    validate_config(config)
    root = np.random.SeedSequence(config.run.seed)
    ss_graph, ss_accounts, ss_roster, ss_bots, ss_posters, ss_engine = root.spawn(6)

    graph = generate_scale_free(config.graph.n, config.graph.m, ss_graph)
    accounts = AccountTable.real_users(
        config.graph.n, np.random.default_rng(ss_accounts),
        creation_min=config.run.user_creation_min,
        creation_max=config.run.user_creation_max)
    rng_roster = np.random.default_rng(ss_roster)
    roster = build_roster(
        graph, accounts, company_id=config.roster.company_id,
        employees=config.roster.employees, managers=config.roster.managers,
        manager_roles=config.roster.manager_roles, rng=rng_roster)
    overlay_company(graph, accounts, roster,
                    coworker_fraction=config.graph.coworker_fraction, rng=rng_roster)

    rng_bots = np.random.default_rng(ss_bots)
    cohorts: list[tuple[str, list[int]]] = []
    if config.attack.enabled and config.attack.bots > 0:
        members = accounts.append_bots(
            config.attack.bots, creation_tick=-config.attack.bot_creation_age)
        graph.add_nodes(len(members))
        if config.graph.bot_follower_fraction > 0:
            # row b holds bot b's coin per user: the doubles of one
            # rng_bots.random(n) call per bot, in bot order, drawn a block
            # of bots at a time so the coins never all sit in memory
            bots, users = [], []
            for first in range(0, len(members), BOT_COIN_BLOCK_ROWS):
                rows = min(BOT_COIN_BLOCK_ROWS, len(members) - first)
                coins = rng_bots.random((rows, config.graph.n))
                bot, user = np.nonzero(coins < config.graph.bot_follower_fraction)
                bots.append(bot + first)
                users.append(user)
            graph.add_edges(np.concatenate(users),
                            np.asarray(members)[np.concatenate(bots)])
        cohorts.append(("attack-0", members))

    d = config.defense
    named = {spec.kind for spec in d.playbook}
    for policy, count, cohort_id in (
            (PolicyKind.SUPPORTING_BOTS, d.prepared_bots, defense.SUPPORT_COHORT_ID),
            (PolicyKind.PARTNER_ASSISTANCE, d.partner_defenders, defense.PARTNER_COHORT_ID)):
        if policy.value in named and count > 0:
            members = accounts.append_bots(count, creation_tick=-d.support_creation_age)
            graph.add_nodes(count)
            cohorts.append((cohort_id, members))

    seed_posters: list[int] = []
    if config.run.initial_organic_posters > 0:
        rng_posters = np.random.default_rng(ss_posters)
        pool = np.flatnonzero(accounts.kind == AccountKind.REAL_USER)
        picked = rng_posters.choice(pool, size=min(config.run.initial_organic_posters,
                                                   len(pool)), replace=False)
        seed_posters = sorted(int(i) for i in picked)
    return World(graph, accounts, roster, cohorts, seed_posters, ss_engine)


def build_simulation(config: ScenarioConfig, world: World | None = None) -> Simulation:
    """A ready-to-run engine for ``config`` on ``world`` (default: ``build_world(config)``)."""
    sim = Simulation(validate_config(config), world or build_world(config))
    if sim.plan is None:
        topic = attack.select_topic(list(config.topics), config.attack.class_weights)
        boost = defense.recurrence_boost(config.company_history, topic, 0,
                                         config.defense)
        sim.set_topic(topic, recurrence_multiplier=boost)
    return sim


def build_from_seed(config: ScenarioConfig, seed: int,
                    world: World | None = None) -> Simulation:
    return build_simulation(replace(config, run=replace(config.run, seed=seed)), world)
