"""Behavioural rules for the simulated population.

Three account populations share one graph: organic users who react to what
they see, company staff whose stress and procedure compliance respond to
targeted pressure, and bot cohorts driven by an attack (or defense) plan.
All randomness flows through explicitly passed generators so runs replay
bit-for-bit.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from enum import Enum, IntEnum, StrEnum
from typing import TYPE_CHECKING

import numpy as np

from .socialgraph import AccountId, read_only

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import AgentConfig

# A config may hold a million-item list or a 200,000-character key where a
# number belongs, and a reputation DB a line of millions of characters, so
# ``short_repr`` cuts each value, key or line an error quotes.
_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxother = 60
short_repr = _SHORT.repr


# A config field's numeric rule; it sits here, beside ``short_repr``, so that
# a topic can take one (``scenario`` imports this module).
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


class FailureClass(StrEnum):
    """What kind of corporate failure a topic hangs on.  A member equals,
    and hashes as, its name: a config holds the name."""

    SOCIAL = "social"
    COMMUNICATION = "communication"
    PRODUCT_SERVICE = "product_service"


# the names a failure class field may take, as its config rule
FAILURE_CLASS_NAMES = tuple(fc.value for fc in FailureClass)


class SurfaceKind(IntEnum):
    COMPANY_PAGE = 0
    EMPLOYEE_PROFILE = 1
    GENERAL_STREAM = 2


@dataclass(frozen=True)
class Surface:
    """Where a post lands; employee profiles carry the target account."""

    kind: SurfaceKind
    target: AccountId | None = None

    def __post_init__(self):
        if self.kind is SurfaceKind.EMPLOYEE_PROFILE and self.target is None:
            raise ValueError("employee profile surface needs a target account")
        if self.kind is not SurfaceKind.EMPLOYEE_PROFILE and self.target is not None:
            raise ValueError("only employee profile surfaces carry a target")

    @classmethod
    def from_text(cls, text: str) -> "Surface":
        if text.startswith("employee_profile:"):
            return cls(SurfaceKind.EMPLOYEE_PROFILE, int(text.split(":", 1)[1]))
        try:
            return cls(SurfaceKind[text.upper()])
        except KeyError:
            raise ValueError(f"unknown surface {text!r}") from None


COMPANY_PAGE = Surface(SurfaceKind.COMPANY_PAGE)
GENERAL_STREAM = Surface(SurfaceKind.GENERAL_STREAM)


@dataclass(frozen=True)
class TargetTopic:
    """A grievance candidate the attacker can try to ignite."""

    topic_id: str
    # each field's rule (the names it may take, or the bound of each
    # component, for appeal), as a config field's: a topic is checked as
    # part of its config (see ``scenario._valid``)
    failure_class: str = field(metadata={"rule": FAILURE_CLASS_NAMES})
    severity: float = field(metadata={"rule": Bound(0, 1)})
    appeal: tuple[float, float, float, float, float] = field(metadata={"rule": Bound(0, 1)})


@dataclass(frozen=True)
class Post:
    author: AccountId
    tick: int
    topic_id: str
    surface: Surface
    valence: float  # [-1, 1]
    organic: bool

    def __post_init__(self):
        if not -1.0 <= self.valence <= 1.0:
            raise ValueError("valence must lie in [-1, 1]")


class BotMode(Enum):
    DORMANT = "dormant"
    ATTACK = "attack"
    DEFEND = "defend"


# Enum members bound once: class attribute lookups go through
# ``EnumType.__getattr__``, which is slow on the per-tick path.
_DORMANT = BotMode.DORMANT
_DEFEND = BotMode.DEFEND

# What a silent cohort emits; every caller gets these same length-0 arrays.
NO_TARGETS = np.empty(0, dtype=np.intp)
EMPTY_EMISSION = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0, dtype=np.int8), NO_TARGETS)


@dataclass
class BotCohort:
    """A block of coordinated accounts posting on schedule.

    ``defending`` counts members (taken from the front of ``members``) that
    have been flipped to supportive posting; the rest follow ``mode``.
    Retargeting linearly shifts post surfaces from the company page to the
    configured employee profiles over ``retarget_ramp`` ticks.
    """

    cohort_id: str
    members: np.ndarray  # read-only intp ids; forks and replace() share it
    posting_rate: float
    mode: BotMode = BotMode.DORMANT
    defending: int = 0
    retarget_targets: tuple[AccountId, ...] = ()
    retarget_start: int | None = None
    retarget_ramp: int = 0

    def __post_init__(self):
        members = self.members
        if not (isinstance(members, np.ndarray) and members.dtype == np.intp
                and not members.flags.writeable):
            self.members = read_only(np.array(members, dtype=np.intp))

    def employee_share(self, tick: int) -> float:
        """Fraction of attack posts aimed at employee profiles this tick."""
        if self.retarget_start is None or not self.retarget_targets or tick < self.retarget_start:
            return 0.0
        if self.retarget_ramp <= 0:
            return 1.0
        return min(1.0, (tick - self.retarget_start) / self.retarget_ramp)


@dataclass
class CompanyState:
    """Mutable company-side state the firestorm acts on."""

    security_posture: float
    reputation: float = 1.0
    downtime_remaining: int = 0
    data_exfiltrated: bool = False
    ransom_paid_total: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.security_posture <= 1.0:
            raise ValueError("security_posture must lie in [0, 1]")


# -- organic reaction ------------------------------------------------------

def _logistic(x):
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the exact limit 0
        return 1.0 / (1.0 + np.exp(-x))


def alignment_scores(ocean: np.ndarray, topic: TargetTopic) -> np.ndarray:
    """Mean trait-weighted appeal, one score in [0, 1] per account row."""
    appeal = np.asarray(topic.appeal, dtype=np.float64)
    return np.atleast_2d(ocean) @ appeal / len(appeal)


def susceptibility_terms(ocean: np.ndarray, topic: TargetTopic, cfg: "AgentConfig") -> np.ndarray:
    """Logistic alignment factor, before severity and class weighting."""
    return _logistic(cfg.beta * (alignment_scores(ocean, topic) - cfg.theta))


def activation_probability(susceptibility_value, exposure) -> np.ndarray:
    """Independent per-post trials: 1 - (1 - s)^exposure, for s in [0, 1]."""
    # power's float64 loop casts integer arguments itself
    return 1.0 - np.power(1.0 - susceptibility_value, exposure)


def draw_organic_valence(failure_class: str, rng: np.random.Generator,
                         cfg: "AgentConfig", size: int) -> np.ndarray:
    """Mixture of a negative and a mildly positive uniform component.

    The negative mass is the configured base weight scaled by the failure
    class multiplier, so classes that grip harder also skew angrier.
    """
    w_neg = clip_unit(cfg.base_negative_weight * cfg.class_multipliers[failure_class])
    pick_neg = rng.random(size) < w_neg
    spread = 0.8 * rng.random(size)
    spread += np.where(pick_neg, -1.0, -0.2)
    return spread


# -- bot posting -----------------------------------------------------------

def bot_emit_arrays(cohort: BotCohort, tick: int, topic: TargetTopic,
                    rng: np.random.Generator, *, noise: float):
    """Vectorised cohort emission: (authors, valences, surface kinds, targets),
    with one target per profile post, in post order.

    Attack members push ``-severity`` (plus bounded noise), shifting from the
    company page toward the retarget profiles once a ramp is active; flipped
    or defending members push ``+severity`` onto the company page.  Dormant
    cohorts emit nothing and consume no randomness; an empty emission is the
    shared length-0 ``EMPTY_EMISSION``.
    """
    if cohort.mode is _DORMANT or len(cohort.members) == 0:
        return EMPTY_EMISSION
    counts = rng.poisson(cohort.posting_rate, size=len(cohort.members))
    total = int(counts.sum())
    if total == 0:
        return EMPTY_EMISSION
    authors = cohort.members.repeat(counts)
    # flipped members lead ``members``, so their posts lead ``authors``
    if cohort.mode is _DEFEND:
        flipped = total
    elif cohort.defending:
        flipped = int(counts[:cohort.defending].sum())
    else:
        flipped = 0
    valence = noise * (2.0 * rng.random(total) - 1.0)
    if flipped:
        valence[:flipped] += topic.severity
    if flipped < total:
        valence[flipped:] -= topic.severity
    if topic.severity + abs(noise) > 1.0:  # else no valence can leave [-1, 1]
        np.clip(valence, -1.0, 1.0, out=valence)
    share = cohort.employee_share(tick)
    if share > 0.0:
        to_profile = rng.random(total) < share
        to_profile[:flipped] = False
        picks = rng.integers(len(cohort.retarget_targets), size=total)
        surface_kind = to_profile.astype(np.int8)  # profile is 1, page is 0
        targets = np.asarray(cohort.retarget_targets, dtype=np.intp)[picks[to_profile]]
    else:
        surface_kind = np.zeros(total, dtype=np.int8)  # SurfaceKind.COMPANY_PAGE
        targets = NO_TARGETS
    return authors, valence, surface_kind, targets


# -- worker pressure -------------------------------------------------------

def saturate(x, half: float):
    """x / (x + half): 0 at 0, half-effect at ``half``, asymptote 1.

    A Python float stays a Python float (the same IEEE division numpy
    does); anything else comes back as a float64 array.
    """
    if type(x) is not float:
        x = np.asarray(x, dtype=np.float64)
    return x / (x + half)


def clip_unit(x: float) -> float:
    """``float(np.clip(x, 0.0, 1.0))`` for a Python float, NaN and -0.0 included."""
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def stress_step(stress, mentions, ambient, cfg: "AgentConfig",
                direct_gain: float | None = None) -> np.ndarray:
    """Vector stress update: decayed old stress plus saturating pressure.

    A scalar ``mentions`` or ``ambient`` applies to every row alike.
    """
    gain = cfg.gamma_direct if direct_gain is None else direct_gain
    out = np.multiply(stress, 1.0 - cfg.stress_decay, dtype=np.float64)
    out += gain * saturate(mentions, cfg.half_saturation)
    out += cfg.gamma_ambient * saturate(ambient, cfg.half_saturation)
    return out.clip(0.0, 1.0)
