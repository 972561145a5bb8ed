"""Scenario configuration: schema, strict loading, presets, and sim wiring.

Every free parameter in the package lives here as a frozen dataclass
field with its default and, in its metadata, its own bound.  Loading is
strict: unknown keys and out-of-range values are errors naming the
offending field, so a typo cannot silently change a Monte Carlo batch.
A ``ScenarioConfig`` checks itself when it is made, so every config is
valid: decoded, default, preset or ``replace()``d.  Presets are config
dicts.  ``build_simulation`` turns a config into a ready engine with a
fully deterministic seed tree.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analytics, attack, defense
from .agents import _SHORT, FailureClass, TargetTopic, short_repr
from .contagion import FirestormStage, Simulation, World
from .defense import PastFirestorm, PolicyKind
from .socialgraph import (AccountKind, AccountTable, SocialGraph, build_roster,
                          generate_scale_free, overlay_company)


class ConfigError(ValueError):
    """A scenario config failed schema or domain validation."""


def _at(path: str, key) -> str:
    """``path.key``, or ``path[<short repr>]`` for a key that is not a short name."""
    plain = isinstance(key, str) and key.isidentifier() and len(key) <= _SHORT.maxstring
    return f"{path}.{key}" if plain else f"{path}[{short_repr(key)}]"


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

# Ticks a fire-point fork may run (a week of hourly ticks): the watch forks
# at most once per tick, so a run takes at most ticks * this many fork steps.
MAX_FIRE_WINDOW = 168

# Ticks a cascade forecast may project (a year of hourly ticks): a forecast
# holds one value per projected tick, and ``analyze`` writes each of them.
MAX_FORECAST_HORIZON = 8_760

# Ticks a run may take (a year of hourly ticks): every tick steps the whole
# population, so a run's time grows with this bound.
MAX_TICKS = 8_760

# Posts one account may make in a run: as many as posting at the highest
# rate for the longest run.  The engine keeps what is left in int64.
MAX_POSTS_PER_USER = int(MAX_POSTING_RATE) * MAX_TICKS

# Trending posts a fresh user is drawn against per tick (numpy's binomial
# count): a million is past any storm, and the count fits a C long.
MAX_TREND_SAMPLES = 1_000_000

# Hours an account may predate the run (over a century): creation ticks are
# int64 and the ages made from them stay far inside it.
MAX_ACCOUNT_AGE = 1_000_000


# -- single-field rules -------------------------------------------------------
# A field's rule sits in its metadata; ``_check_fields`` applies them all.

@dataclass(frozen=True)
class Bound:
    """The numeric rule ``lo <= value <= hi``: a ``None`` end is unbounded,
    an open end strict.  Outside every bound but ``Bound()`` lies NaN."""
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo is None or (value > self.lo if self.lo_open else value >= self.lo))
                and (self.hi is None or (value < self.hi if self.hi_open else value <= self.hi)))

    def __str__(self) -> str:
        if self.hi is None:
            return f"must be {'>' if self.lo_open else '>='} {self.lo}"
        if self.lo is None:
            return f"must be {'<' if self.hi_open else '<='} {self.hi}"
        return (f"must lie in {'(' if self.lo_open else '['}{self.lo}, "
                f"{self.hi}{')' if self.hi_open else ']'}")


@dataclass(frozen=True)
class Keys:
    """The rule of a mapping: its keys are among ``names`` (all of them if
    ``exact``) and each of its values lies in ``value``."""
    names: tuple[str, ...]
    value: Bound
    exact: bool = False


NON_NEGATIVE, POSITIVE, AT_LEAST_1, UNIT = Bound(0), Bound(0, lo_open=True), Bound(1), Bound(0, 1)


def _rule(rule, default=dataclasses.MISSING, **kwargs):
    """A config field with ``rule``: a ``Bound`` (of each item, for a tuple),
    a ``Keys``, or a tuple of the names it may take."""
    return field(default=default, metadata={"rule": rule}, **kwargs)


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_fields(value, path: str, rule=None) -> None:
    """Apply ``rule`` to ``value``, or to each item of a tuple, and each
    field's own rule inside a config dataclass; ``None`` is skipped and
    NaN or an infinity is never a value."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number, got {short_repr(value)}")
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            _check_fields(item, f"{path}[{i}]", rule)
    elif value is None:
        return
    elif isinstance(rule, Bound):
        if value not in rule:
            raise ConfigError(f"{path}: {rule}, got {short_repr(value)}")
    elif isinstance(rule, Keys):
        if rule.exact and set(value) != set(rule.names):
            raise ConfigError(f"{path}: keys must be exactly {sorted(rule.names)}")
        for key, item in value.items():
            if key not in rule.names:
                raise ConfigError(f"{_at(path, key)}: unknown key; "
                                  f"expected one of {list(rule.names)}")
            _check_fields(item, _at(path, key), rule.value)
    elif rule is not None:
        if value not in rule:
            raise ConfigError(f"{path}: {short_repr(value)} not in {list(rule)}")
    elif dataclasses.is_dataclass(value):
        for name, (_, _, field_rule) in _field_specs(type(value)).items():
            _check_fields(getattr(value, name), f"{path}.{name}" if path else name, field_rule)


@dataclass(frozen=True)
class GraphConfig:
    n: int = _rule(AT_LEAST_1, 1000)
    m: int = _rule(AT_LEAST_1, 3)
    coworker_fraction: float = _rule(UNIT, 0.3)
    # bots reach users through trending by default; >0 wires follow edges
    bot_follower_fraction: float = _rule(UNIT, 0.0)


@dataclass(frozen=True)
class RosterConfig:
    company_id: str = "company-0"
    employees: int = _rule(NON_NEGATIVE, 24)
    managers: int = _rule(NON_NEGATIVE, 6)
    manager_roles: tuple[str, ...] = ("ceo", "cco", "ciso")
    security_posture: float = _rule(UNIT, 0.9)


@dataclass(frozen=True)
class AgentConfig:
    beta: float = _rule(POSITIVE, 10.0)
    theta: float = _rule(UNIT, 0.7)
    posting_rate: float = _rule(Bound(0, MAX_POSTING_RATE, lo_open=True), 0.35)
    max_posts_per_user: int = _rule(Bound(1, MAX_POSTS_PER_USER), 6)
    organic_company_page_fraction: float = _rule(UNIT, 0.3)
    base_negative_weight: float = _rule(UNIT, 0.7)
    class_multipliers: dict[str, float] = _rule(
        Keys(FAILURE_CLASS_NAMES, NON_NEGATIVE, exact=True), default_factory=lambda: {
            "social": 1.1, "communication": 0.9, "product_service": 1.0})
    stress_decay: float = _rule(UNIT, 0.08)
    gamma_direct: float = 0.3
    gamma_ambient: float = _rule(NON_NEGATIVE, 0.01)
    half_saturation: float = _rule(POSITIVE, 10.0)
    stress_compliance_weight: float = _rule(UNIT, 0.6)
    severity_scales_direct_gain: bool = True
    manager_transfer: float = _rule(UNIT, 0.0)


@dataclass(frozen=True)
class ContagionConfig:
    trend_samples: int = _rule(Bound(0, MAX_TREND_SAMPLES), 4)
    trend_saturation: float = _rule(POSITIVE, 1200.0)
    fire_threshold: float = 15.0
    fire_window: int = _rule(Bound(1, MAX_FIRE_WINDOW), 12)
    extinguish_eps: float = _rule(POSITIVE, 2.0)
    extinguish_window: int = _rule(AT_LEAST_1, 12)
    stage_low: float = _rule(NON_NEGATIVE, 5.0)
    stage_high: float = 40.0
    smoothing_window: int = _rule(AT_LEAST_1, 12)


@dataclass(frozen=True)
class RansomConfig:
    amount: float = _rule(POSITIVE, 150000.0)
    base_willingness: float = _rule(UNIT, 0.6)
    amount_scale: float = _rule(POSITIVE, 200000.0)
    reliability: float = _rule(UNIT, 0.8)
    force_outcome: str | None = _rule(("pay", "refuse"), None)


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = True
    bots: int = _rule(NON_NEGATIVE, 200)
    bot_posting_rate: float = _rule(Bound(0, MAX_POSTING_RATE), 1.0)
    bot_creation_age: int = _rule(Bound(0, MAX_ACCOUNT_AGE), 48)
    valence_noise: float = _rule(UNIT, 0.2)
    class_weights: dict[str, float] = _rule(
        Keys(FAILURE_CLASS_NAMES, Bound(), exact=True), default_factory=lambda: {
            "social": 1.0, "communication": 1.0, "product_service": 1.0})
    spread_patience: int = _rule(AT_LEAST_1, 72)
    campaign_budget: int = _rule(AT_LEAST_1, 96)
    worker_focus_enabled: bool = True
    retarget_ramp: int = _rule(NON_NEGATIVE, 12)
    retarget_top_k: int = _rule(AT_LEAST_1, 12)
    target_weights: tuple[float, float, float] = _rule(UNIT, (0.4, 0.4, 0.2))  # relative
    stress_open_threshold: float = _rule(UNIT, 0.35)
    final_action: str = _rule(ACTION_NAMES, "human_error_exploit")
    action_probabilities: dict[str, float] = _rule(Keys(ACTION_NAMES, UNIT), default_factory=lambda: {
        "dos": 0.9, "physical_action": 0.7, "offering_help": 0.35})
    reputation_shocks: dict[str, float] = _rule(Keys(ACTION_NAMES, UNIT), default_factory=lambda: {
        "human_error_exploit": 0.08, "dos": 0.05, "physical_action": 0.03,
        "offering_help": 0.04, "insider_threat": 0.05})
    downtime_ticks: dict[str, int] = _rule(Keys(ACTION_NAMES, NON_NEGATIVE), default_factory=lambda: {
        "dos": 12, "physical_action": 6, "human_error_exploit": 6,
        "insider_threat": 4})
    insider_stress_min: float = _rule(UNIT, 0.7)
    insider_pride_max: float = _rule(UNIT, 0.3)
    insider_rate_per_candidate: float = _rule(NON_NEGATIVE, 0.15)
    ransom: RansomConfig = field(default_factory=RansomConfig)
    service: RansomConfig = field(default_factory=lambda: RansomConfig(
        amount=60000.0, base_willingness=0.5, amount_scale=200000.0,
        reliability=0.9))
    flip_fraction: float = _rule(Bound(0, 1, lo_open=True), 0.1)
    action_schedule: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class PolicySpec:
    kind: str = _rule(POLICY_NAMES)
    trigger_tick: int | None = _rule(NON_NEGATIVE, None)
    trigger_stage: str | None = _rule(STAGE_NAMES, None)


@dataclass(frozen=True)
class DefenseConfig:
    enabled: bool = False
    playbook: tuple[PolicySpec, ...] = ()
    detect_first_k: int = _rule(AT_LEAST_1, 20)
    age_threshold: int = _rule(AT_LEAST_1, 720)
    db_path: str | None = None
    prepared_bots: int = _rule(NON_NEGATIVE, 25)
    partner_defenders: int = _rule(NON_NEGATIVE, 8)
    support_posting_rate: float = _rule(Bound(0, MAX_POSTING_RATE), 0.8)
    support_creation_age: int = _rule(Bound(0, MAX_ACCOUNT_AGE), 8760)
    training_posture_boost: float = _rule(UNIT, 0.05)
    scapegoat_transfer: float = _rule(UNIT, 0.5)
    scapegoat_backfire_probability: float = _rule(UNIT, 0.2)
    scapegoat_backfire_penalty: float = _rule(UNIT, 0.05)
    dialogue_follower_gain: int = _rule(NON_NEGATIVE, 200)
    dialogue_convert_fraction: float = _rule(UNIT, 0.05)
    mitigation_factors: dict[str, float] = _rule(  # mitigation never raises severity
        Keys(FAILURE_CLASS_NAMES, Bound(0, 1, lo_open=True), exact=True), default_factory=lambda: {
            "social": 0.5, "communication": 0.5, "product_service": 0.5})
    recurrence_gain: float = _rule(NON_NEGATIVE, 0.5)
    recurrence_tau: float = _rule(POSITIVE, 720.0)
    recurrence_period: int = _rule(NON_NEGATIVE, 17520)  # two years of hourly ticks


@dataclass(frozen=True)
class AnalyticsConfig:
    neutral_band: float = _rule(NON_NEGATIVE, 0.05)
    compound_alpha: float = _rule(POSITIVE, 15.0)
    sentiment_window: int = _rule(AT_LEAST_1, 720)
    kappa: float = _rule(NON_NEGATIVE, 1.0)
    # half the lost value returns in roughly 60 days of hourly ticks
    recovery_rho: float = _rule(Bound(0, 1, hi_open=True), 0.00048)
    value_base: float = _rule(POSITIVE, 100.0)
    value_floor: float = _rule(POSITIVE, 1.0)
    reputation_volume_weight: float = _rule(NON_NEGATIVE, 0.004)
    reputation_half_saturation: float = _rule(POSITIVE, 50.0)
    reputation_recovery: float = _rule(NON_NEGATIVE, 0.002)
    downtime_reputation_penalty: float = _rule(NON_NEGATIVE, 0.003)
    forecast_window: int = _rule(Bound(2), 24)
    forecast_horizon: int = _rule(Bound(1, MAX_FORECAST_HORIZON), 24)
    predictable_rmse: float = _rule(POSITIVE, 0.2)


@dataclass(frozen=True)
class RunConfig:
    seed: int = _rule(NON_NEGATIVE, 0)
    ticks: int = _rule(Bound(1, MAX_TICKS), 168)
    initial_organic_posters: int = _rule(NON_NEGATIVE, 0)
    user_creation_min: int = _rule(Bound(-MAX_ACCOUNT_AGE), -20000)
    user_creation_max: int = _rule(Bound(hi=0), -2000)  # organic accounts predate the run


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

    def __post_init__(self):
        """Every config is valid once made: each field against its own
        rule, then the rules that relate fields."""
        _check_fields(self, "")
        g, r, a, c = self.graph, self.roster, self.agents, self.contagion
        atk, an, run = self.attack, self.analytics, self.run

        population = g.n + atk.bots + sum(getattr(self.defense, size)
                                          for _, size, _ in defense.ARMING_POLICIES.values())
        _check(population < 2**31, "graph.n",
               f"population {short_repr(population)} (graph.n plus every bot and defender "
               "cohort) must fit the post log's int32 account ids (< 2**31)")
        # from here on graph.n is short enough to quote
        _check(g.n >= g.m, "graph.n", f"population {g.n} must be >= graph.m ({short_repr(g.m)})")
        _check(r.employees + r.managers >= 1, "roster.employees",
               "roster needs at least one member (employees + managers >= 1)")
        _check(r.employees + r.managers <= g.n, "roster.employees",
               f"roster of {short_repr(r.employees + r.managers)} exceeds graph.n ({g.n})")
        _check(a.gamma_direct > a.gamma_ambient, "agents.gamma_direct",
               f"direct mention pressure (gamma_direct={a.gamma_direct!r}) must exceed "
               f"ambient pressure (gamma_ambient={a.gamma_ambient!r})")
        _check(c.fire_threshold >= c.extinguish_eps, "contagion.fire_threshold",
               f"fire_threshold ({c.fire_threshold!r}) must be >= extinguish_eps "
               f"({c.extinguish_eps!r}) so ignition and extinguishment cannot overlap")
        _check(c.stage_low < c.stage_high, "contagion.stage_low",
               f"stage_low ({c.stage_low!r}) must be below stage_high ({c.stage_high!r})")
        _check(sum(atk.target_weights) > 0, "attack.target_weights", "weights must not all be zero")
        for i, (tick, action) in enumerate(atk.action_schedule):
            _check(tick >= 0, f"attack.action_schedule[{i}].tick", "must be >= 0")
            _check(action in ACTION_NAMES, f"attack.action_schedule[{i}].action",
                   f"{short_repr(action)} not in {list(ACTION_NAMES)}")
        for i, spec in enumerate(self.defense.playbook):
            _check(spec.trigger_tick is None or spec.trigger_stage is None,
                   f"defense.playbook[{i}]", "set trigger_tick or trigger_stage, not both")
        _check(an.value_floor <= an.value_base, "analytics.value_floor",
               f"must be <= value_base ({an.value_base!r})")
        _check(run.initial_organic_posters <= g.n, "run.initial_organic_posters",
               f"cannot exceed graph.n ({g.n})")
        _check(run.user_creation_min <= run.user_creation_max, "run.user_creation_min",
               "must be <= run.user_creation_max")
        _check(len(self.topics) >= 1, "topics", "at least one topic is required")
        ids = [t.topic_id for t in self.topics]
        _check(len(ids) == len(set(ids)), "topics", "topic ids must be unique")
        for i, past in enumerate(self.company_history):
            _check(past.failure_class in FAILURE_CLASS_NAMES,
                   f"company_history[{i}].failure_class",
                   f"{short_repr(past.failure_class)} not in {list(FAILURE_CLASS_NAMES)}")

    def to_dict(self) -> dict:
        return _encode(self)


# -- the config codec ----------------------------------------------------------
# ``_decode`` checks JSON data against the dataclass field annotations and
# ``_encode`` walks a dataclass back into JSON data; errors name the path.

_SCALARS = {bool: ("true/false", bool), int: ("an integer", int),
            float: ("a number", (int, float)), str: ("a string", str)}


def _type_error(path: str, expected: str, value) -> ConfigError:
    return ConfigError(f"{path}: expected {expected}, got {short_repr(value)}")


@functools.cache
def _field_specs(cls) -> dict:
    """name -> (annotation, default or MISSING, rule or None) for a config dataclass."""
    hints = typing.get_type_hints(cls)
    specs = {}
    for f in dataclasses.fields(cls):
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        specs[f.name] = (hints[f.name], default, f.metadata.get("rule"))
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
            f"{where}: unknown key {short_repr(unknown[0])}; expected one of {sorted(specs)}")
    for name, (_, default, _) in specs.items():
        if default is dataclasses.MISSING and name not in data and base is None:
            raise ConfigError(f"{where}: missing key '{name}'")
    kwargs = {}
    for name, value in data.items():
        tp, default, _ = specs[name]
        if base is not None:
            default = getattr(base, name)
        kwargs[name] = _decode(tp, value, default, f"{path}.{name}" if path else name)
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except ConfigError:
        raise  # a ScenarioConfig names its own paths
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
        for key, item in value.items():  # an int-valued mapping also takes floats, as floats
            merged[key] = _decode(args[1] if type(item) is int else float, item, None,
                                  _at(path, key))
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
            raise ConfigError(f"{path}: {short_repr(value)} not in {names}")
        return tp(value)
    expected, accepted = _SCALARS[tp]
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
        raise _type_error(path, expected, value)
    if tp is float and not abs(value) <= sys.float_info.max:  # NaN, inf, or an int past them
        raise ConfigError(f"{path}: must be a finite number, got {short_repr(value)}")
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
    return _decode_section(ScenarioConfig, data, "")


# -- loading -----------------------------------------------------------------

def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's mapping; a key given twice is a ``ConfigError``, as
    the last copy would otherwise win unseen."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config: repeated key {short_repr(key)}")
        data[key] = value
    return data


def loads_config(text: str) -> ScenarioConfig:
    """Parse a JSON config string; empty text means all defaults."""
    if not text.strip():
        return config_from_dict({})
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise  # a repeated key, named by ``_unique_keys``
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except ValueError:  # the only other one: int() refuses a literal this long
        raise ConfigError(f"config holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None
    return config_from_dict(data)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    return loads_config(text)


def dumps_config(cfg: ScenarioConfig) -> str:
    return analytics.json_text(cfg.to_dict())


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


# -- presets -----------------------------------------------------------------

# Trigger on "peak" rather than "triggering": orchestrated storms blow up
# within a tick or two, so the tracker can jump straight past triggering.
REACTIVE_PLAYBOOK = (
    {"kind": "internal_training"},
    {"kind": "supporting_bots", "trigger_stage": "peak"},
    {"kind": "halt_product_and_review", "trigger_stage": "peak"},
)

# Each preset is the override a config file would hold.
PRESETS = {
    "rapid_massive": {"attack": {"bots": 200, "bot_posting_rate": 1.2, "retarget_ramp": 6}},
    "permanent_few_accounts": {
        "attack": {"bots": 15, "bot_posting_rate": 0.3,
                   "spread_patience": 10_000_000, "campaign_budget": 10_000_000},
        "run": {"ticks": 336}},
    "organic_only": {"attack": {"enabled": False, "bots": 0},
                     "run": {"initial_organic_posters": 6}},
    "defended_baseline": {"defense": {"enabled": True, "playbook": [
        *REACTIVE_PLAYBOOK, {"kind": "dialogue_engagement", "trigger_stage": "calming"}]}},
}


def expand_preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {short_repr(name)}; expected one of {sorted(PRESETS)}")
    return config_from_dict(PRESETS[name])


# -- wiring ------------------------------------------------------------------

# What ``build_world`` reads of a config, beside the cohorts the playbook
# names; ``defense.enabled`` is not read, so both arms of a toggle share a world.
_WORLD_FIELDS = ("run.seed", "run.user_creation_min", "run.user_creation_max",
                 "run.initial_organic_posters", "graph.n", "graph.m", "graph.coworker_fraction",
                 "graph.bot_follower_fraction", "roster.employees", "roster.managers",
                 "attack.enabled", "attack.bots", "attack.bot_creation_age",
                 *(f"defense.{size}" for _, size, _ in defense.ARMING_POLICIES.values()),
                 "defense.support_creation_age")


def _world_key(config: ScenarioConfig) -> dict:
    """Path -> value of every config value that shapes ``config``'s world."""
    key = {path: functools.reduce(getattr, path.split("."), config) for path in _WORLD_FIELDS}
    key["defense.playbook"] = tuple(sorted({spec.kind for spec in config.defense.playbook}
                                           & {kind.value for kind in defense.ARMING_POLICIES}))
    return key


def build_world(config: ScenarioConfig) -> World:
    """Build the frozen world of ``config``'s seed: what no tick changes.

    The seed tree is spawned in a fixed order (graph, accounts, roster,
    bots, posters, engine) so that changing the bot cohort leaves the
    graph, the population, and the roster untouched for the same seed.
    The cohorts the playbook names get their rows whether or not defense
    is enabled (dormant rows without edges), so both arms of every
    ``compare`` toggle name the same world.  The account table is sized
    once for every cohort, and the graph is built once from every edge batch.
    """
    key = _world_key(config)
    root = np.random.SeedSequence(config.run.seed)
    ss_graph, ss_accounts, ss_roster, ss_bots, ss_posters, ss_engine = root.spawn(6)
    n = config.graph.n

    # (cohort id, size, creation tick) of each bot cohort, in build order
    attack_bots = config.attack.bots if config.attack.enabled else 0
    specs = [("attack-0", attack_bots, -config.attack.bot_creation_age)] if attack_bots else []
    d = config.defense
    specs += [(cohort_id, getattr(d, size), -d.support_creation_age)
              for kind, (cohort_id, size, _) in defense.ARMING_POLICIES.items()
              if kind.value in key["defense.playbook"] and getattr(d, size) > 0]
    starts = itertools.accumulate((count for _, count, _ in specs), initial=n)
    cohorts = [(cohort_id, range(start, start + count))
               for (cohort_id, count, _), start in zip(specs, starts)]

    edges = [generate_scale_free(n, config.graph.m, ss_graph)]
    accounts = AccountTable.real_users(
        n, np.random.default_rng(ss_accounts),
        creation_min=config.run.user_creation_min,
        creation_max=config.run.user_creation_max,
        bots=[(count, created) for _, count, created in specs])
    rng_roster = np.random.default_rng(ss_roster)
    managers, employees = build_roster(accounts, employees=config.roster.employees,
                                       managers=config.roster.managers, rng=rng_roster)
    edges.append(overlay_company(accounts, managers, employees,
                                 coworker_fraction=config.graph.coworker_fraction,
                                 rng=rng_roster))

    if attack_bots and config.graph.bot_follower_fraction > 0:
        rng_bots = np.random.default_rng(ss_bots)
        # row b holds bot b's coin per user: the doubles of one
        # rng_bots.random(n) call per bot, in bot order, drawn a block of
        # bots at a time so the coins never all sit in memory; int32 halves
        # what each block's edges hold until the graph is built
        for first in range(0, attack_bots, BOT_COIN_BLOCK_ROWS):
            rows = min(BOT_COIN_BLOCK_ROWS, attack_bots - first)
            bot, user = np.nonzero(rng_bots.random((rows, n))
                                   < config.graph.bot_follower_fraction)
            edges.append((user.astype(np.int32), (bot + n + first).astype(np.int32)))
    graph = SocialGraph(len(accounts), edges)

    seed_posters: list[int] = []
    if config.run.initial_organic_posters > 0:
        rng_posters = np.random.default_rng(ss_posters)
        pool = np.flatnonzero(accounts.kind == AccountKind.REAL_USER)
        picked = rng_posters.choice(pool, size=min(config.run.initial_organic_posters,
                                                   len(pool)), replace=False)
        seed_posters = sorted(int(i) for i in picked)
    return World(graph, accounts, managers, employees, cohorts, seed_posters, ss_engine, key)


def build_simulation(config: ScenarioConfig, world: World | None = None) -> Simulation:
    """A ready-to-run engine for ``config`` on ``world`` (default: ``build_world(config)``);
    a world built for another config is a ``ConfigError`` naming the first field that differs."""
    world = world or build_world(config)
    key = _world_key(config)
    if world.key != key:
        path = next(path for path in key if world.key[path] != key[path])
        raise ConfigError(f"{path}: the world was built for {short_repr(world.key[path])}, "
                          f"not {short_repr(key[path])}")
    sim = Simulation(config, world)
    if sim.plan is None:
        sim.choose_topic(0)
    return sim


def build_from_seed(config: ScenarioConfig, seed: int,
                    world: World | None = None) -> Simulation:
    return build_simulation(replace(config, run=replace(config.run, seed=seed)), world)
