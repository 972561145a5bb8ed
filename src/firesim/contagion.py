"""Discrete-tick spread engine and firestorm lifecycle detectors.

One tick is one hour of platform time.  Per tick: bot cohorts post, every
inactive user's exposure is counted (posts from followed accounts plus a
trending-stream sample, both lagged one tick), activation is rolled per
exposed user, active posters keep posting until their per-topic budget runs
out, worker stress and company state update, then the attack plan and any
defense playbook advance.

The fire point is established counterfactually: clone the full state, force
every bot cohort dormant, and check that organic volume alone stays above
threshold for a configured window.  The clone shares the immutable graph,
so forking is cheap enough to run online at candidate ticks.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import agents, analytics, attack, defense
from .agents import BotMode, CompanyState, SurfaceKind, TargetTopic
from .socialgraph import AccountKind, AccountTable, SocialGraph

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import ScenarioConfig


class FirestormStage(Enum):
    LATENT = "latent"
    TRIGGERING = "triggering"
    PEAK = "peak"
    CALMING = "calming"
    MINOR = "minor"


HISTORY_COLUMNS = (
    "tick", "total_posts", "organic_posts", "bot_posts", "company_page_posts",
    "employee_profile_posts", "general_stream_posts", "mean_valence",
    "active_organic_posters", "mean_stress", "max_stress", "reputation",
    "financial_value", "stage",
)

_INT_COLUMNS = {"tick", "total_posts", "organic_posts", "bot_posts",
                "company_page_posts", "employee_profile_posts",
                "general_stream_posts", "active_organic_posters"}


class SimHistory:
    """Per-tick aggregate trace, kept as parallel columns."""

    def __init__(self):
        for col in HISTORY_COLUMNS:
            setattr(self, col, [])

    def __len__(self) -> int:
        return len(self.tick)

    def append(self, **fields) -> None:
        if set(fields) != set(HISTORY_COLUMNS):
            missing = set(HISTORY_COLUMNS) ^ set(fields)
            raise ValueError(f"history record mismatch on {sorted(missing)}")
        for col, value in fields.items():
            getattr(self, col).append(value)

    def copy(self) -> "SimHistory":
        out = SimHistory.__new__(SimHistory)
        for col in HISTORY_COLUMNS:
            setattr(out, col, list(getattr(self, col)))
        return out

    def __deepcopy__(self, memo) -> "SimHistory":
        return self.copy()

    # -- persistence: round-trips losslessly ---------------------------------

    def to_csv_text(self) -> str:
        lines = [",".join(HISTORY_COLUMNS)]
        for t in range(len(self)):
            row = []
            for col in HISTORY_COLUMNS:
                v = getattr(self, col)[t]
                row.append(repr(v) if isinstance(v, float) else str(v))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "SimHistory":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != ",".join(HISTORY_COLUMNS):
            raise ValueError("unexpected history CSV header")
        out = cls()
        for ln in lines[1:]:
            parts = ln.split(",")
            rec = {}
            for col, raw in zip(HISTORY_COLUMNS, parts):
                if col == "stage":
                    rec[col] = raw
                elif col in _INT_COLUMNS:
                    rec[col] = int(raw)
                else:
                    rec[col] = float(raw)
            out.append(**rec)
        return out


class PostLog:
    """Compact per-tick post arrays.

    ``ticks[t]`` holds tick t's ``(authors, valences, surface_kinds,
    surface_targets, organic)`` arrays in emission order; reports read these
    arrays directly.  ``posts_between`` materialises ``Post`` objects and is
    a helper for tests and the archive boundary, not the report path.
    """

    def __init__(self):
        self.ticks: list[tuple] = []
        self.topic_ids: list[str] = []

    def append_tick(self, topic_id, authors, valences, surface_kinds,
                    surface_targets, organic) -> None:
        self.ticks.append((authors, valences, surface_kinds, surface_targets, organic))
        self.topic_ids.append(topic_id)

    def first_authors(self, k: int) -> list[int]:
        """Authors of the first k posts in emission order."""
        out: list[int] = []
        for authors, *_ in self.ticks:
            for a in authors:
                out.append(int(a))
                if len(out) == k:
                    return out
        return out

    def posts_between(self, t0: int, t1: int) -> list[agents.Post]:
        """Posts with t0 <= tick < t1."""
        posts = []
        for t in range(max(t0, 0), min(t1, len(self.ticks))):
            authors, valences, skinds, stargets, organic = self.ticks[t]
            topic = self.topic_ids[t]
            for i in range(len(authors)):
                if skinds[i] == SurfaceKind.EMPLOYEE_PROFILE:
                    surface = agents.Surface(SurfaceKind.EMPLOYEE_PROFILE, int(stargets[i]))
                elif skinds[i] == SurfaceKind.GENERAL_STREAM:
                    surface = agents.GENERAL_STREAM
                else:
                    surface = agents.COMPANY_PAGE
                posts.append(agents.Post(
                    author=int(authors[i]), tick=t, topic_id=topic, surface=surface,
                    valence=float(valences[i]), organic=bool(organic[i])))
        return posts


# -- lifecycle classification ----------------------------------------------

def smooth_series(values: Sequence[float], window: int) -> np.ndarray:
    """Trailing moving average; causal so live and offline labels agree."""
    if window < 1:
        raise ValueError("smoothing window must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty_like(arr)
    csum = np.concatenate([[0.0], np.cumsum(arr)])
    for t in range(len(arr)):
        lo = max(0, t - window + 1)
        out[t] = (csum[t + 1] - csum[lo]) / (t + 1 - lo)
    return out


class StageTracker:
    """Forward state machine over the smoothed volume curve."""

    def __init__(self, *, low: float, high: float):
        if not low < high:
            raise ValueError("stage thresholds must satisfy low < high")
        self.low = low
        self.high = high
        self.stage = FirestormStage.LATENT
        self._prev: float | None = None

    def update(self, smoothed: float) -> FirestormStage:
        slope = 0.0 if self._prev is None else smoothed - self._prev
        self._prev = smoothed
        s, low, high = self.stage, self.low, self.high
        if s is FirestormStage.LATENT:
            if smoothed >= high:
                self.stage = FirestormStage.PEAK
            elif smoothed >= low and slope > 0:
                self.stage = FirestormStage.TRIGGERING
        elif s is FirestormStage.TRIGGERING:
            if smoothed >= high:
                self.stage = FirestormStage.PEAK
            elif smoothed < low:
                self.stage = FirestormStage.LATENT
        elif s is FirestormStage.PEAK:
            if smoothed < low:
                self.stage = FirestormStage.MINOR
            elif smoothed < high and slope < 0:
                self.stage = FirestormStage.CALMING
        elif s is FirestormStage.CALMING:
            if smoothed >= high:
                self.stage = FirestormStage.PEAK
            elif smoothed < low:
                self.stage = FirestormStage.MINOR
        elif s is FirestormStage.MINOR:
            if smoothed >= high:
                self.stage = FirestormStage.PEAK
            elif smoothed >= low and slope > 0:
                self.stage = FirestormStage.TRIGGERING
        return self.stage


def classify_stage(totals: Sequence[float], tick: int, *, low: float, high: float,
                   window: int) -> FirestormStage:
    """Stage label at ``tick`` given the per-tick volume history."""
    if not 0 <= tick < len(totals):
        raise ValueError(f"tick {tick} outside history of length {len(totals)}")
    smoothed = smooth_series(totals[: tick + 1], window)
    tracker = StageTracker(low=low, high=high)
    stage = FirestormStage.LATENT
    for v in smoothed:
        stage = tracker.update(float(v))
    return stage


def detect_extinguished(totals: Sequence[float], eps: float, window: int) -> int | None:
    """First tick opening a run of ``window`` consecutive ticks below ``eps``."""
    if window < 1:
        raise ValueError("extinguish window must be >= 1")
    run = 0
    for t, v in enumerate(totals):
        run = run + 1 if v < eps else 0
        if run >= window:
            return t - window + 1
    return None


def regulator_visibility(history: SimHistory, tick: int) -> float:
    """Company-page volume now, relative to its running maximum."""
    if not 0 <= tick < len(history):
        raise ValueError(f"tick {tick} outside history of length {len(history)}")
    page = history.company_page_posts[: tick + 1]
    peak = max(page)
    return 0.0 if peak == 0 else page[tick] / peak


# -- the engine --------------------------------------------------------------

ACTIVATABLE = (AccountKind.REAL_USER, AccountKind.EMPLOYEE)


class Simulation:
    """Full mutable world state plus the tick loop.

    Built by ``scenario.build_simulation``; ``factory`` rebuilds a fresh
    identical instance, which is what offline fire-point detection replays.
    """

    # Attributes no step changes; forks share them by reference.
    SHARED = ("cfg", "graph", "topics", "topic", "logistic_term", "can_activate",
              "roster_ids", "factory", "company.roster")

    def __init__(self, *, config: "ScenarioConfig", graph: SocialGraph,
                 accounts: AccountTable, company: CompanyState,
                 topics: list[TargetTopic], cohorts: list[agents.BotCohort],
                 plan: "attack.AttackPlan | None",
                 playbook: "defense.DefenseRuntime | None",
                 rng: np.random.Generator, seed_posters: list[int],
                 factory: Callable[[], "Simulation"] | None = None):
        self.cfg = config
        self.graph = graph
        self.accounts = accounts
        self.company = company
        self.topics = topics
        self.cohorts = cohorts
        self.plan = plan
        self.playbook = playbook
        self.rng = rng
        self.factory = factory

        n = len(accounts)
        if graph.n_nodes != n:
            raise ValueError("graph and account table disagree on population size")
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
        self.can_activate = np.isin(accounts.kind, ACTIVATABLE)

        self.author_counts_prev = np.zeros(n, dtype=np.int64)
        self.pool_prev = 0
        self.roster_ids = np.array(company.roster.members, dtype=np.intp)

        self.history = SimHistory()
        self.post_log = PostLog()
        self.tracker = StageTracker(low=config.contagion.stage_low,
                                    high=config.contagion.stage_high)
        self.financial = analytics.FinancialProxy(base=config.analytics.value_base,
                                                  floor=config.analytics.value_floor)
        self._prev_reputation = company.reputation

        self.fire_point: int | None = None
        self.onset: int | None = None
        self.extinguished_tick: int | None = None
        self._below_eps_run = 0
        self.events: list[dict] = []
        self.watch_fire_point = True
        self._seed_posters = list(seed_posters)

    # -- topic wiring --------------------------------------------------------

    def set_topic(self, topic: TargetTopic, recurrence_multiplier: float = 1.0) -> None:
        """Install the active topic and precompute per-account alignment."""
        cfg = self.cfg.agents
        self.topic = topic
        self.severity = topic.severity
        self.class_multiplier = cfg.class_multipliers[topic.failure_class.value]
        self.logistic_term = agents.susceptibility_terms(self.accounts.ocean, topic, cfg)
        self.recurrence_multiplier = recurrence_multiplier
        # freshly selected topics reset the organic pool only in that users
        # who burned out on a previous topic stay out
        if self._seed_posters:
            idx = np.array(self._seed_posters, dtype=np.intp)
            self.active[idx] = True
            self.activated_ever[idx] = True

    def susceptibilities(self) -> np.ndarray:
        return np.clip(self.logistic_term * self.severity * self.class_multiplier, 0.0, 1.0)

    # -- tick loop -----------------------------------------------------------

    def organic_count(self, t: int) -> int:
        return self.history.organic_posts[t]

    def run(self, ticks: int) -> "Simulation":
        for _ in range(ticks):
            self.step()
        return self

    def run_until(self, tick: int) -> "Simulation":
        while self.tick < tick:
            self.step()
        return self

    def step(self) -> None:
        t = self.tick
        cfg = self.cfg
        acc = self.accounts
        parts_authors: list[np.ndarray] = []
        parts_valence: list[np.ndarray] = []
        parts_skind: list[np.ndarray] = []
        parts_starget: list[np.ndarray] = []
        parts_organic: list[np.ndarray] = []

        # 1) bot cohorts post
        if self.topic is not None:
            for cohort in self.cohorts:
                a, v, sk, st = agents.bot_emit_arrays(
                    cohort, t, self.topic, self.rng, noise=cfg.attack.valence_noise)
                if len(a):
                    parts_authors.append(a)
                    parts_valence.append(v)
                    parts_skind.append(sk)
                    parts_starget.append(st)
                    parts_organic.append(np.zeros(len(a), dtype=bool))

        # 2) exposure to last tick's posts
        exposure = None
        if self.topic is not None and self.pool_prev > 0:
            # each of last tick's authors pushes its post count along its
            # follower row; the counts are integers, so the float sums are
            # exact in any order
            indptr, indices = self.graph.follower_csr()
            pushers = np.flatnonzero(self.author_counts_prev)
            starts = indptr[pushers]
            lens = indptr[pushers + 1] - starts
            ends = np.cumsum(lens)
            positions = np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1])
            exposure = np.bincount(
                indices[positions], weights=np.repeat(self.author_counts_prev[pushers], lens),
                minlength=len(acc))
            # active implies activated_ever, so phase 3's deactivations leave
            # this mask as it is
            eligible = self.can_activate & ~self.active & ~self.activated_ever
            idx = np.flatnonzero(eligible)
            if len(idx):
                p_trend = min(1.0, self.pool_prev / cfg.contagion.trend_saturation)
                exposure[idx] += self.rng.binomial(cfg.contagion.trend_samples,
                                                   p_trend, size=len(idx))

        # 3) organic posting: ongoing actives, then fresh activations
        if self.topic is not None:
            active_idx = np.flatnonzero(self.active)
            if len(active_idx):
                counts = self.rng.poisson(acc.posting_rate[active_idx])
                counts = np.minimum(counts, self.remaining[active_idx])
                self.remaining[active_idx] -= counts
                self.active[active_idx] &= self.remaining[active_idx] > 0
                emitters = np.repeat(active_idx, counts)
            else:
                emitters = np.empty(0, dtype=np.intp)

            new_idx = np.empty(0, dtype=np.intp)
            if exposure is not None:
                cand = np.flatnonzero(eligible & (exposure > 0) & (self.remaining > 0))
                if len(cand):
                    s = self.susceptibilities()[cand]
                    p = agents.activation_probability(s, exposure[cand])
                    p = np.clip(p * self.recurrence_multiplier * self.activation_multiplier,
                                0.0, 1.0)
                    new_idx = cand[self.rng.random(len(cand)) < p]
                    if len(new_idx):
                        self.active[new_idx] = True
                        self.activated_ever[new_idx] = True
                        self.remaining[new_idx] -= 1
                        self.active[new_idx] &= self.remaining[new_idx] > 0

            organic_authors = np.concatenate([emitters, new_idx]) if len(new_idx) else emitters
            if len(organic_authors):
                defmask = self.defender[organic_authors]
                vals = np.empty(len(organic_authors))
                plain = np.flatnonzero(~defmask)
                if len(plain):
                    vals[plain] = agents.draw_organic_valence(
                        self.topic.failure_class, self.rng, cfg.agents, size=len(plain))
                helpers = np.flatnonzero(defmask)
                if len(helpers):
                    vals[helpers] = 0.2 + 0.7 * self.rng.random(len(helpers))
                skind = np.full(len(organic_authors), SurfaceKind.GENERAL_STREAM,
                                dtype=np.int8)
                if len(plain):
                    on_page = self.rng.random(len(plain)) < cfg.agents.organic_company_page_fraction
                    skind[plain[on_page]] = SurfaceKind.COMPANY_PAGE
                skind[helpers] = SurfaceKind.COMPANY_PAGE
                parts_authors.append(organic_authors.astype(np.intp))
                parts_valence.append(vals)
                parts_skind.append(skind)
                parts_starget.append(np.full(len(organic_authors), -1, dtype=np.intp))
                parts_organic.append(np.ones(len(organic_authors), dtype=bool))

        # collapse the tick's posts
        if parts_authors:
            authors = np.concatenate(parts_authors)
            valences = np.concatenate(parts_valence)
            skinds = np.concatenate(parts_skind)
            stargets = np.concatenate(parts_starget)
            organic_mask = np.concatenate(parts_organic)
        else:
            authors = np.empty(0, dtype=np.intp)
            valences = np.empty(0)
            skinds = np.empty(0, dtype=np.int8)
            stargets = np.empty(0, dtype=np.intp)
            organic_mask = np.empty(0, dtype=bool)

        total = len(authors)
        organic_n = int(organic_mask.sum())
        on_profile = skinds == SurfaceKind.EMPLOYEE_PROFILE
        on_page = skinds == SurfaceKind.COMPANY_PAGE

        # 4) worker stress from targeted mentions and ambient page negativity
        roster = self.roster_ids
        if len(roster):
            mentions = np.zeros(len(acc), dtype=np.float64)
            if on_profile.any():
                np.add.at(mentions, stargets[on_profile], 1.0)
            ambient = float(np.sum(on_page & (valences < 0.0)))
            gain = cfg.agents.gamma_direct
            if cfg.agents.severity_scales_direct_gain and self.topic is not None:
                gain *= self.severity
            acc.stress[roster] = agents.stress_step(
                acc.stress[roster], mentions[roster], ambient, cfg.agents,
                direct_gain=gain)
            if cfg.agents.manager_transfer > 0.0 and self.company.roster.managers:
                mgr = np.array(self.company.roster.managers, dtype=np.intp)
                spill = cfg.agents.manager_transfer * float(acc.stress[mgr].mean())
                emp = np.array(self.company.roster.employees, dtype=np.intp)
                if len(emp):
                    acc.stress[emp] = np.clip(acc.stress[emp] + spill, 0.0, 1.0)

        # 5) defense playbook (reacts to the state visible so far)
        if self.playbook is not None:
            self.events.extend(defense.run_playbook_tick(self, self.playbook))

        # 6) onset / extinguishment bookkeeping and reputation drift
        negative_posts = int(np.sum(valences < 0.0))
        if self.onset is None and total > 0:
            self.onset = t
        if self.onset is not None and self.extinguished_tick is None:
            self._below_eps_run = self._below_eps_run + 1 if total < cfg.contagion.extinguish_eps else 0
            if self._below_eps_run >= cfg.contagion.extinguish_window:
                self.extinguished_tick = t - cfg.contagion.extinguish_window + 1
                self.events.append({"tick": t, "kind": "extinguished",
                                    "start": self.extinguished_tick})

        comp = self.company
        rep = comp.reputation
        rep -= cfg.analytics.reputation_volume_weight * float(
            agents.saturate(negative_posts, cfg.analytics.reputation_half_saturation))
        if comp.downtime_remaining > 0:
            rep -= cfg.analytics.downtime_reputation_penalty
            comp.downtime_remaining -= 1
        rep += cfg.analytics.reputation_recovery * (1.0 - rep)
        comp.reputation = float(np.clip(rep, 0.0, 1.0))

        # 7) financial proxy (action shocks land via next tick's delta),
        #    history row, and exposure buffer roll
        rep_delta = self.company.reputation - self._prev_reputation
        analytics.update_financial_proxy(
            self.financial, rep_delta, None,
            kappa=cfg.analytics.kappa, rho=cfg.analytics.recovery_rho)
        self._prev_reputation = self.company.reputation

        w = cfg.contagion.smoothing_window
        lo = max(0, t - w + 1)
        # integer totals, so this equals a float cumulative-sum difference
        smoothed = (sum(self.history.total_posts[lo:t]) + total) / (t + 1 - lo)
        stage = self.tracker.update(smoothed)
        if len(roster):
            mean_stress = float(acc.stress[roster].mean())
            max_stress = float(acc.stress[roster].max())
        else:
            mean_stress = 0.0
            max_stress = 0.0
        self.history.append(
            tick=t,
            total_posts=total,
            organic_posts=organic_n,
            bot_posts=total - organic_n,
            company_page_posts=int(on_page.sum()),
            employee_profile_posts=int(on_profile.sum()),
            general_stream_posts=int(np.sum(skinds == SurfaceKind.GENERAL_STREAM)),
            mean_valence=float(valences.mean()) if total else 0.0,
            active_organic_posters=int(self.active.sum()),
            mean_stress=mean_stress,
            max_stress=max_stress,
            reputation=self.company.reputation,
            financial_value=self.financial.value,
            stage=stage.value,
        )
        self.post_log.append_tick(
            self.topic.topic_id if self.topic else "", authors, valences,
            skinds, stargets, organic_mask)

        self.author_counts_prev = np.bincount(authors, minlength=len(acc))
        self.pool_prev = total
        self.tick = t + 1

        # 8) fire-point watch on the fully rolled state: the fork here is
        #    bit-identical to one taken by offline replay at run_until(t + 1)
        if (self.watch_fire_point and self.fire_point is None and self.topic is not None
                and organic_n >= cfg.contagion.fire_threshold):
            if self._sustains_without_bots(cfg.contagion.fire_window,
                                           cfg.contagion.fire_threshold):
                self.fire_point = t
                self.events.append({"tick": t, "kind": "fire_point"})

        # 9) attack plan advances last; pre-fire-point stages draw no RNG, so
        #    the watch above sees the same stream offline replay would
        if self.plan is not None:
            for ev in attack.advance_plan(self.plan, self, cfg.attack, t):
                self.events.append(ev)

    # -- counterfactual forking ----------------------------------------------

    def fork_bots_dormant(self) -> "Simulation":
        """Clone the world with every cohort silenced and plans frozen.

        Everything outside ``SHARED`` and the cohorts' read-only member
        arrays is deep-copied, including an identically-positioned RNG, so
        stepping the fork never disturbs the parent run.  What makes it a
        fork is set afresh, never copied.
        """
        memo = {id(obj): obj for obj in operator.attrgetter(*self.SHARED)(self)}
        memo.update((id(c.members), c.members) for c in self.cohorts)
        fresh = {"plan": None, "playbook": None, "post_log": PostLog(), "events": [],
                 "watch_fire_point": False, "_seed_posters": []}
        fork = Simulation.__new__(Simulation)
        fork.__dict__ = copy.deepcopy(
            {k: v for k, v in vars(self).items() if k not in fresh}, memo)
        fork.__dict__.update(fresh)
        fork.cohorts = [replace(c, mode=BotMode.DORMANT) for c in fork.cohorts]
        return fork

    def _sustains_without_bots(self, window: int, threshold: float) -> bool:
        """Would organic volume alone stay at ``threshold`` for ``window`` ticks?"""
        fork = self.fork_bots_dormant()
        for _ in range(window):
            fork.step()
            if fork.history.organic_posts[-1] < threshold:
                return False
        return True


def detect_fire_point(sim: Simulation, window: int | None = None,
                      threshold: float | None = None) -> int | None:
    """First tick whose bot-silenced continuation keeps organic volume up.

    Replays the completed run from scratch (runs are deterministic), pausing
    at each candidate tick with organic volume at or above ``threshold`` to
    fork and test the counterfactual.  Returns None when no candidate
    sustains for ``window`` ticks.
    """
    cfg = sim.cfg.contagion
    window = cfg.fire_window if window is None else window
    threshold = cfg.fire_threshold if threshold is None else threshold
    if sim.factory is None:
        raise ValueError("simulation was built without a replay factory")
    candidates = [t for t, v in enumerate(sim.history.organic_posts) if v >= threshold]
    if not candidates:
        return None
    shadow = sim.factory()
    shadow.watch_fire_point = False
    for t in candidates:
        shadow.run_until(t + 1)
        if shadow._sustains_without_bots(window, threshold):
            return t
    return None
