"""Discrete-tick spread engine and firestorm lifecycle detectors.

One tick is one hour of platform time.  Per tick: bot cohorts post, every
inactive user's exposure is counted (posts from followed accounts plus a
trending-stream sample, both lagged one tick), activation is rolled per
exposed user, active posters keep posting until their per-topic budget runs
out, worker stress and company state update, then the attack plan and any
defense playbook advance.

The fire point is established counterfactually: clone the full state, force
every bot cohort dormant, and check that organic volume alone stays above
threshold for a configured window.  The clone shares the frozen world, so
forking is cheap enough to run online at candidate ticks.
"""

from __future__ import annotations

import copy
import itertools
import operator
from dataclasses import replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import agents, analytics, attack, defense
from .agents import BotMode, CompanyState, SurfaceKind, TargetTopic
from .socialgraph import AccountKind, AccountTable, CompanyRoster, SocialGraph, read_only

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig


class FirestormStage(Enum):
    LATENT = "latent"
    TRIGGERING = "triggering"
    PEAK = "peak"
    CALMING = "calming"
    MINOR = "minor"


# Enum members bound once: class attribute lookups go through
# ``EnumType.__getattr__``, which is slow on the per-tick path.
_LATENT = FirestormStage.LATENT
_TRIGGERING = FirestormStage.TRIGGERING
_PEAK = FirestormStage.PEAK
_CALMING = FirestormStage.CALMING
_MINOR = FirestormStage.MINOR
_PAGE_KIND = np.int8(SurfaceKind.COMPANY_PAGE)
_STREAM_KIND = np.int8(SurfaceKind.GENERAL_STREAM)


HISTORY_COLUMNS = (
    "tick", "total_posts", "organic_posts", "bot_posts", "company_page_posts",
    "employee_profile_posts", "general_stream_posts", "mean_valence",
    "active_organic_posters", "mean_stress", "max_stress", "reputation",
    "financial_value", "stage",
)

_history_columns = operator.attrgetter(*HISTORY_COLUMNS)


class SimHistory:
    """Per-tick aggregate trace, kept as parallel columns."""

    def __init__(self):
        for col in HISTORY_COLUMNS:
            setattr(self, col, [])

    def __len__(self) -> int:
        return len(self.tick)

    def append_row(self, *values) -> None:
        """Append one record given in ``HISTORY_COLUMNS`` order."""
        if len(values) != len(HISTORY_COLUMNS):
            raise ValueError(f"history row has {len(values)} values, "
                             f"expected {len(HISTORY_COLUMNS)}")
        for column, value in zip(_history_columns(self), values):
            column.append(value)

    def __deepcopy__(self, memo) -> "SimHistory":
        out = SimHistory.__new__(SimHistory)
        for col in HISTORY_COLUMNS:
            setattr(out, col, list(getattr(self, col)))
        return out

    def quiet(self, column: str, window: int, eps: float) -> bool:
        """Whether the last ``window`` values of ``column`` all lie below ``eps``
        (never with fewer recorded): the one rule behind extinction, topic
        exhaustion and the support cohorts' stand-down."""
        values = getattr(self, column)
        # the newest value settles most calls
        return len(values) >= window and values[-1] < eps and max(values[-window:]) < eps

    # -- persistence: round-trips losslessly ---------------------------------

    def to_csv_text(self) -> str:
        return analytics.csv_text(",".join(HISTORY_COLUMNS), zip(*_history_columns(self)))


class PostLog:
    """Compact per-tick post arrays: 13 bytes a post, plus 8 a profile target.

    ``ticks[t]`` holds tick t's ``(authors, valences, surface_kinds,
    profile_targets)`` arrays: int32 authors, float64 valences and int8
    kinds in emission order, and one target per profile post, in the same
    order; reports read these arrays directly.  A post is organic exactly
    when its author is not a bot, so the flag is read off ``kind``, the
    world's read-only account-kind column.  ``posts_between`` materialises
    ``Post`` objects; no command calls it, and it stays for the tests and
    for the benchmark tracer, which wraps it by name.
    """

    def __init__(self, kind: np.ndarray):
        self.kind = kind
        self.ticks: list[tuple] = []
        self.topic_ids: list[str] = []

    def append_tick(self, topic_id, authors, valences, surface_kinds,
                    profile_targets) -> None:
        self.ticks.append((authors.astype(np.int32), valences, surface_kinds, profile_targets))
        self.topic_ids.append(topic_id)

    def first_authors(self, k: int) -> list[int]:
        """Authors of the first k posts in emission order (all, if fewer)."""
        out: list[int] = []
        for authors, *_ in self.ticks:
            if len(out) >= k:
                break
            out.extend(authors[:k - len(out)].tolist())
        return out

    def posts_between(self, t0: int, t1: int) -> list[agents.Post]:
        """Posts with t0 <= tick < t1."""
        posts = []
        for t in range(max(t0, 0), min(t1, len(self.ticks))):
            authors, valences, skinds, targets = self.ticks[t]
            organic = self.kind[authors] != AccountKind.BOT
            topic = self.topic_ids[t]
            profile_targets = iter(targets.tolist())
            for i in range(len(authors)):
                if skinds[i] == SurfaceKind.EMPLOYEE_PROFILE:
                    surface = agents.Surface(SurfaceKind.EMPLOYEE_PROFILE, next(profile_targets))
                elif skinds[i] == SurfaceKind.GENERAL_STREAM:
                    surface = agents.GENERAL_STREAM
                else:
                    surface = agents.COMPANY_PAGE
                posts.append(agents.Post(
                    author=int(authors[i]), tick=t, topic_id=topic, surface=surface,
                    valence=float(valences[i]), organic=bool(organic[i])))
        return posts


# -- lifecycle classification ----------------------------------------------

class StageTracker:
    """Forward state machine over the smoothed volume curve."""

    def __init__(self, *, low: float, high: float):
        if not low < high:
            raise ValueError("stage thresholds must satisfy low < high")
        self.low = low
        self.high = high
        self.stage = _LATENT
        self._prev: float | None = None

    def update(self, smoothed: float) -> FirestormStage:
        slope = 0.0 if self._prev is None else smoothed - self._prev
        self._prev = smoothed
        s, low, high = self.stage, self.low, self.high
        if s is _LATENT or s is _MINOR:
            if smoothed >= high:
                self.stage = _PEAK
            elif smoothed >= low and slope > 0:
                self.stage = _TRIGGERING
        elif s is _TRIGGERING:
            if smoothed >= high:
                self.stage = _PEAK
            elif smoothed < low:
                self.stage = _LATENT
        elif s is _PEAK:
            if smoothed < low:
                self.stage = _MINOR
            elif smoothed < high and slope < 0:
                self.stage = _CALMING
        elif s is _CALMING:
            if smoothed >= high:
                self.stage = _PEAK
            elif smoothed < low:
                self.stage = _MINOR
        return self.stage


def regulator_visibility(page: Sequence[int]) -> list[float]:
    """Company-page volume at each tick relative to its running maximum so far.

    One running maximum, and each value an int / int division: at tick t it
    is ``page[t] / max(page[:t + 1])``, or 0.0 while that maximum is 0.
    """
    return [0.0 if peak == 0 else count / peak
            for count, peak in zip(page, itertools.accumulate(page, max))]


# -- the engine --------------------------------------------------------------

ACTIVATABLE = (AccountKind.REAL_USER, AccountKind.EMPLOYEE)


class World:
    """What no tick writes, built once per seed by ``scenario.build_world``
    and shared by reference by every run on it: both arms of a ``compare``
    pair and every fire-point fork.  Its arrays are read-only, the account
    table's static columns included; a run copies the writable ``stress``.
    ``key`` maps the path of each config value it was built from to the value.
    """

    def __init__(self, graph: SocialGraph, accounts: AccountTable, roster: CompanyRoster,
                 cohort_members: Sequence[tuple[str, Sequence[int]]],
                 seed_posters: Sequence[int], engine_seed: np.random.SeedSequence, key: dict):
        if graph.n_nodes != len(accounts):
            raise ValueError("graph and account table disagree on population size")
        if not (roster.employees or roster.managers):
            raise ValueError("company roster has no members")
        self.graph = graph
        self.accounts = accounts.freeze()
        self.roster = roster
        self.roster_ids, self.manager_ids, self.employee_ids = (
            read_only(np.array(ids, dtype=np.intp))
            for ids in (roster.members, roster.managers, roster.employees))
        self.can_activate = read_only(np.isin(accounts.kind, ACTIVATABLE))
        # (cohort id, member ids) per bot cohort, in build order
        self.cohort_members = tuple((cohort_id, read_only(np.array(members, dtype=np.intp)))
                                    for cohort_id, members in cohort_members)
        self.seed_posters = tuple(seed_posters)
        self.engine_seed = engine_seed
        self.key = key


class Simulation:
    """One run's mutable state on a shared ``World``, plus the tick loop.

    Built by ``scenario.build_simulation``.  The fire point is found online,
    by phase 8's watch.  A fixed seed replays bit for bit, so a fresh build
    stepped to the same tick holds the same state.
    """

    def __init__(self, config: "ScenarioConfig", world: World):
        self.cfg = config
        self.world = world
        self.graph = world.graph  # world parts that callers read off a run
        self.roster_ids = world.roster_ids
        self.accounts = world.accounts.copy()
        self.company = CompanyState(security_posture=config.roster.security_posture,
                                    page_followers=1000)
        atk, dfn = config.attack, config.defense
        self.cohorts = [agents.BotCohort(cohort_id, members, dfn.support_posting_rate
                                         if cohort_id in defense.DEFEND_COHORT_IDS
                                         else atk.bot_posting_rate)
                        for cohort_id, members in world.cohort_members]
        self.plan = attack.AttackPlan() if atk.enabled else None
        self.events: list[dict] = []
        self.playbook = defense.build_runtime(dfn, self.events) if dfn.enabled else None
        self.rng = np.random.default_rng(world.engine_seed)

        n = len(self.accounts)
        self.tick = 0
        self.topic: TargetTopic | None = None
        self.logistic_term: np.ndarray | None = None
        self.class_multiplier = 1.0
        self.severity = 0.0
        self.activation_multiplier = 1.0
        self.recurrence_multiplier = 1.0

        self.active = np.zeros(n, dtype=bool)
        self.activated_ever = np.zeros(n, dtype=bool)
        self.defender = np.zeros(n, dtype=bool)
        self.remaining = np.full(n, config.agents.max_posts_per_user, dtype=np.int64)

        self.prev_authors = np.empty(0, dtype=np.intp)  # one entry per post of last tick

        self.history = SimHistory()
        self.post_log = PostLog(world.accounts.kind)
        self.tracker = StageTracker(low=config.contagion.stage_low,
                                    high=config.contagion.stage_high)
        self.financial = analytics.FinancialProxy(base=config.analytics.value_base,
                                                  floor=config.analytics.value_floor)
        self._prev_reputation = self.company.reputation

        self.fire_point: int | None = None
        self.onset: int | None = None
        self.extinguished_tick: int | None = None
        self.watch_fire_point = True

    # -- topic wiring --------------------------------------------------------

    def choose_topic(self, tick: int, excluded: Sequence[str] = ()) -> TargetTopic:
        """Install the most promising topic not in ``excluded`` (NoTopicError
        when none is left) with its recurrence boost at ``tick``, and
        precompute per-account alignment; returns the topic."""
        cfg = self.cfg
        topic = attack.select_topic(list(cfg.topics), cfg.attack.class_weights, excluded)
        self.topic = topic
        self.severity = topic.severity
        self.class_multiplier = cfg.agents.class_multipliers[topic.failure_class.value]
        self.logistic_term = agents.susceptibility_terms(self.accounts.ocean, topic, cfg.agents)
        self.recurrence_multiplier = defense.recurrence_boost(cfg.company_history, topic, tick,
                                                              cfg.defense)
        # freshly selected topics reset the organic pool only in that users
        # who burned out on a previous topic stay out
        if self.world.seed_posters:
            idx = np.array(self.world.seed_posters, dtype=np.intp)
            self.active[idx] = True
            self.activated_ever[idx] = True
        return topic

    def susceptibilities(self, users=slice(None)) -> np.ndarray:
        """Per-post flip probability in [0, 1] of ``users`` (default: everyone)."""
        return (self.logistic_term[users] * self.severity * self.class_multiplier).clip(0.0, 1.0)

    # -- tick loop -----------------------------------------------------------

    def run(self, ticks: int) -> "Simulation":
        return self.run_until(self.tick + ticks)

    def run_until(self, tick: int) -> "Simulation":
        while self.tick < tick:
            self.step()
        return self

    def step(self) -> None:
        """Advance the world one tick through its nine numbered phases.

        RNG contract: a fixed seed replays bit for bit, so whatever shortcut
        a phase takes, it makes the same generator calls in the same order,
        with the same sizes and arguments.  That includes draws whose result
        is thrown away: a retarget pick is drawn for every bot post, flipped
        or not, and kept only for posts sent to a profile.

        State invariant: ``active`` implies ``activated_ever`` (every path
        that activates a user sets both), ``remaining`` never goes below 0,
        and a never-activated user keeps all ``max_posts_per_user`` (>= 1).
        Phase 2 relies on the first: the users it may activate are the
        never-activated ones, with no test for ``active``; phase 3 relies
        on the last, with no test for a spent budget.
        """
        t = self.tick
        cfg = self.cfg
        acc = self.accounts
        world = self.world
        n = len(acc)
        topic = self.topic
        parts: list[tuple] = []  # (authors, valences, skinds, profile targets)

        # 1) bot cohorts post
        if topic is not None:
            noise = cfg.attack.valence_noise
            for cohort in self.cohorts:
                emission = agents.bot_emit_arrays(cohort, t, topic, self.rng, noise=noise)
                if len(emission[0]):
                    parts.append(emission)

        # 2) exposure to last tick's posts
        fresh_exposure = None
        prev_total = len(self.prev_authors)
        if topic is not None and prev_total > 0:
            # each of last tick's authors pushes its post count along its
            # follower row; the counts are integers, so the float sums are
            # exact in any order
            indptr, indices = world.graph.follower_csr()
            prev = np.bincount(self.prev_authors, minlength=n)
            pushers = (prev != 0).nonzero()[0]  # a bool array takes nonzero's fast path
            starts = indptr[pushers]
            lens = indptr[pushers + 1] - starts
            ends = lens.cumsum()
            positions = (starts - (ends - lens)).repeat(lens) + np.arange(ends[-1])
            exposure = np.bincount(indices[positions], weights=prev[pushers].repeat(lens),
                                   minlength=n)
            # never activated: by the invariant this also rules out the
            # active users, and phase 3's deactivations cannot change it
            fresh = (world.can_activate & ~self.activated_ever).nonzero()[0]
            if len(fresh):
                p_trend = min(1.0, prev_total / cfg.contagion.trend_saturation)
                fresh_exposure = exposure[fresh] + self.rng.binomial(
                    cfg.contagion.trend_samples, p_trend, size=len(fresh))

        # 3) organic posting: ongoing actives, then fresh activations
        organic_n = 0
        if topic is not None:
            active_idx = self.active.nonzero()[0]
            if len(active_idx):
                counts = self.rng.poisson(cfg.agents.posting_rate, size=len(active_idx))
                left = self.remaining[active_idx]
                np.minimum(counts, left, out=counts)
                left -= counts
                self.remaining[active_idx] = left
                self.active[active_idx] = left > 0
                organic_authors = active_idx.repeat(counts)
            else:
                organic_authors = active_idx

            if fresh_exposure is not None:
                keep = fresh_exposure > 0
                cand = fresh[keep]
                if len(cand):
                    p = agents.activation_probability(self.susceptibilities(cand),
                                                      fresh_exposure[keep])
                    # x * 1.0 is x, so a neutral multiplier is skipped
                    if self.recurrence_multiplier != 1.0:
                        p *= self.recurrence_multiplier
                    if self.activation_multiplier != 1.0:
                        p *= self.activation_multiplier
                    # u < clip(p, 0, 1) is u < p for any u in [0, 1)
                    new_idx = cand[self.rng.random(len(cand)) < p]
                    if len(new_idx):
                        self.activated_ever[new_idx] = True
                        left = self.remaining[new_idx] - 1
                        self.remaining[new_idx] = left
                        self.active[new_idx] = left > 0
                        organic_authors = np.concatenate([organic_authors, new_idx])

            k = len(organic_authors)
            if k:
                defmask = self.defender[organic_authors]
                if not defmask.any():
                    vals = agents.draw_organic_valence(
                        topic.failure_class, self.rng, cfg.agents, size=k)
                    on_page = self.rng.random(k) < cfg.agents.organic_company_page_fraction
                    skind = (~on_page).astype(np.int8) * _STREAM_KIND  # page is 0
                else:
                    vals = np.empty(k)
                    plain = (~defmask).nonzero()[0]
                    if len(plain):
                        vals[plain] = agents.draw_organic_valence(
                            topic.failure_class, self.rng, cfg.agents, size=len(plain))
                    helpers = defmask.nonzero()[0]
                    vals[helpers] = 0.2 + 0.7 * self.rng.random(len(helpers))
                    skind = np.full(k, _STREAM_KIND, dtype=np.int8)
                    if len(plain):
                        on_page = (self.rng.random(len(plain))
                                   < cfg.agents.organic_company_page_fraction)
                        skind[plain[on_page]] = _PAGE_KIND
                    skind[helpers] = _PAGE_KIND
                parts.append((organic_authors, vals, skind, agents.NO_TARGETS))
                organic_n = k

        # collapse the tick's posts
        if len(parts) == 1:
            authors, valences, skinds, targets = parts[0]
        elif parts:
            authors, valences, skinds, targets = (
                np.concatenate(column) for column in zip(*parts))
        else:
            authors, valences, skinds, targets = agents.EMPTY_EMISSION

        total = len(authors)
        page_n, profile_n, stream_n = np.bincount(skinds, minlength=3).tolist()
        negative = valences < 0.0

        # 4) worker stress from targeted mentions and ambient page negativity
        roster = world.roster_ids
        ag = cfg.agents
        if profile_n:  # one target per profile post
            mentions = np.bincount(targets, minlength=n)[roster]
        else:
            mentions = 0.0
        ambient = (float(np.count_nonzero(negative & (skinds == _PAGE_KIND)))
                   if page_n else 0.0)
        gain = ag.gamma_direct
        if ag.severity_scales_direct_gain and topic is not None:
            gain *= self.severity
        acc.stress[roster] = agents.stress_step(
            acc.stress[roster], mentions, ambient, ag, direct_gain=gain)
        if ag.manager_transfer > 0.0 and len(world.manager_ids):
            mgr_stress = acc.stress[world.manager_ids]
            spill = ag.manager_transfer * float(np.add.reduce(mgr_stress) / len(mgr_stress))
            emp = world.employee_ids
            acc.stress[emp] = np.clip(acc.stress[emp] + spill, 0.0, 1.0)

        # 5) defense playbook (reacts to the state visible so far)
        if self.playbook is not None:
            self.events.extend(defense.run_playbook_tick(self, self.playbook))

        # 6) onset bookkeeping and reputation drift
        negative_posts = int(np.count_nonzero(negative))
        contagion = cfg.contagion
        if self.onset is None and total > 0:
            self.onset = t

        an = cfg.analytics
        comp = self.company
        rep = comp.reputation
        rep -= an.reputation_volume_weight * agents.saturate(
            float(negative_posts), an.reputation_half_saturation)
        if comp.downtime_remaining > 0:
            rep -= an.downtime_reputation_penalty
            comp.downtime_remaining -= 1
        rep += an.reputation_recovery * (1.0 - rep)
        comp.reputation = agents.clip_unit(float(rep))

        # 7) financial proxy (action shocks land via next tick's delta),
        #    history row, extinguishment, and exposure buffer roll
        analytics.update_financial_proxy(
            self.financial, comp.reputation - self._prev_reputation, None,
            kappa=an.kappa, rho=an.recovery_rho)
        self._prev_reputation = comp.reputation

        history = self.history
        w = contagion.smoothing_window
        lo = max(0, t - w + 1)
        # integer totals, so this equals a float cumulative-sum difference
        smoothed = (sum(history.total_posts[lo:t]) + total) / (t + 1 - lo)
        stage = self.tracker.update(smoothed)
        roster_stress = acc.stress[roster]
        history.append_row(
            t, total, organic_n, total - organic_n, page_n, profile_n, stream_n,
            float(np.add.reduce(valences) / total) if total else 0.0,
            int(np.count_nonzero(self.active)),
            # ndarray.mean is add.reduce over the count
            float(np.add.reduce(roster_stress) / len(roster)),
            float(np.maximum.reduce(roster_stress)),
            comp.reputation, self.financial.value, stage.value)
        self.post_log.append_tick(
            topic.topic_id if topic else "", authors, valences, skinds, targets)
        # extinguished once every tick of a window since onset was quiet
        window = contagion.extinguish_window
        if (self.onset is not None and self.extinguished_tick is None
                and t - self.onset >= window - 1
                and history.quiet("total_posts", window, contagion.extinguish_eps)):
            self.extinguished_tick = t - window + 1
            self.events.append({"tick": t, "kind": "extinguished",
                                "start": self.extinguished_tick})

        self.prev_authors = authors
        self.tick = t + 1

        # 8) fire-point watch on the fully rolled state: the fork here is
        #    bit-identical to one taken from a fresh build at run_until(t + 1)
        if (self.watch_fire_point and self.fire_point is None and topic is not None
                and organic_n >= contagion.fire_threshold):
            if self._sustains_without_bots(contagion.fire_window, contagion.fire_threshold):
                self.fire_point = t
                self.events.append({"tick": t, "kind": "fire_point"})

        # 9) attack plan advances last; pre-fire-point stages draw no RNG, so
        #    the watch above sees the same stream such a replay would
        if self.plan is not None:
            self.events.extend(attack.advance_plan(self.plan, self, cfg.attack, t))

    # -- counterfactual forking ----------------------------------------------

    def fork_bots_dormant(self) -> "Simulation":
        """Clone the run with every cohort silenced and plans frozen.

        The config and the world, with every part it holds, are shared;
        the rest is deep-copied, an identically-positioned RNG included, so
        stepping the fork never disturbs the parent run.  What makes it a
        fork is set afresh: the parent's cohorts replaced as dormant, no plan.
        """
        world = self.world
        memo = {id(obj): obj for obj in (self.cfg, world, *vars(world).values())}
        fresh = {"cohorts": [replace(c, mode=BotMode.DORMANT) for c in self.cohorts],
                 "plan": None, "playbook": None, "post_log": PostLog(world.accounts.kind),
                 "events": [],
                 "watch_fire_point": False}
        fork = Simulation.__new__(Simulation)
        fork.__dict__ = copy.deepcopy(
            {k: v for k, v in vars(self).items() if k not in fresh}, memo)
        fork.__dict__.update(fresh)
        return fork

    def _sustains_without_bots(self, window: int, threshold: float) -> bool:
        """Would organic volume alone stay at ``threshold`` for ``window`` ticks?"""
        fork = self.fork_bots_dormant()
        for _ in range(window):
            fork.step()
            if fork.history.organic_posts[-1] < threshold:
                return False
        return True
