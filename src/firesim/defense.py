"""Company-side defense: detection, reactive policies, recurrence memory.

Policies live in a playbook (config) and fire on a tick or lifecycle-stage
trigger.  Proactive measures (training, partner support, the shared
account database) take effect at tick 0.  Detection scores how artificial
the early chatter looks from account creation ages, optionally enriched
by a shared database of known campaign accounts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .agents import BotMode, TargetTopic, clip_unit, short_repr

if TYPE_CHECKING:  # pragma: no cover
    from .contagion import Simulation
    from .scenario import DefenseConfig, PolicySpec


class PolicyKind(Enum):
    SUPPORTING_BOTS = "supporting_bots"
    SCAPEGOAT = "scapegoat"
    DIALOGUE_ENGAGEMENT = "dialogue_engagement"
    DISTANCE_FROM_PARTNER = "distance_from_partner"
    APOLOGY_AND_CONTINUE = "apology_and_continue"
    HALT_PRODUCT_AND_REVIEW = "halt_product_and_review"
    INTERNAL_TRAINING = "internal_training"
    PARTNER_ASSISTANCE = "partner_assistance"
    SHARED_ACCOUNT_DATABASE = "shared_account_database"


PROACTIVE_POLICIES = frozenset({
    PolicyKind.INTERNAL_TRAINING,
    PolicyKind.PARTNER_ASSISTANCE,
    PolicyKind.SHARED_ACCOUNT_DATABASE,
})

# Reactive mitigations only work against the failure class they answer.
CLASS_MATCHED_POLICIES = {
    PolicyKind.DISTANCE_FROM_PARTNER: "social",
    PolicyKind.APOLOGY_AND_CONTINUE: "communication",
    PolicyKind.HALT_PRODUCT_AND_REVIEW: "product_service",
}

SUPPORT_COHORT_ID = "defense_support"
PARTNER_COHORT_ID = "defense_partner"

# The defend cohort each arming policy wakes, the ``DefenseConfig`` field
# that sizes it, and why the policy has no effect when that cohort was never
# built.  Partner assistance is proactive, so it is applied at tick 0 only,
# before any cohort can stand down.
ARMING_POLICIES = {
    PolicyKind.SUPPORTING_BOTS: (SUPPORT_COHORT_ID, "prepared_bots", "no prepared support cohort"),
    PolicyKind.PARTNER_ASSISTANCE: (PARTNER_COHORT_ID, "partner_defenders",
                                    "no partner cohort configured"),
}
# The cohorts that defend the company; every other cohort attacks it.
DEFEND_COHORT_IDS = frozenset(cohort_id for cohort_id, _, _ in ARMING_POLICIES.values())


class PolicyMismatchError(ValueError):
    """A class-specific policy was applied against the wrong failure class."""


@dataclass
class FirestormVerdict:
    artificial_score: float
    flagged: list[int]
    evidence: dict[int, int]
    sample_size: int
    requested: int
    db_matched: list[int] = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        # JSON keys are strings; the report writer sorts them
        return {**asdict(self), "evidence": {str(k): v for k, v in self.evidence.items()}}


def detect_artificial(ids: Sequence[int], creation_ticks: Sequence[int], now: int,
                      age_threshold: int, requested: int | None = None) -> FirestormVerdict:
    """Score how bot-like the first posters look from account age alone.

    ``ids[k]`` wrote the k-th early post from an account created at
    ``creation_ticks[k]``; an id that repeats counts once, aged from its
    last stamp.  Score is the exact fraction of distinct early posters
    younger than the threshold at ``now``.  Short samples are used as-is
    with a note.
    """
    requested = len(ids) if requested is None else requested
    ages = {int(i): int(now - c) for i, c in zip(ids, creation_ticks)}
    flagged = sorted(i for i, age in ages.items() if age < age_threshold)
    score = len(flagged) / len(ages) if ages else 0.0
    note = ""
    if len(ages) < requested:
        note = f"only {len(ages)} of {requested} requested early posts available"
    return FirestormVerdict(artificial_score=score, flagged=flagged, evidence=ages,
                            sample_size=len(ages), requested=requested, note=note)


_DB_HEADER = "account_id\tlast_seen_tick\tcampaign_id"


def load_reputation_db(path: str | Path) -> frozenset[int]:
    """The account ids of a shared record of earlier campaigns: a
    tab-separated table (``account_id``, ``last_seen_tick``, ``campaign_id``,
    after an optional header line) that organisations exchange.  The run
    only asks whether an account is listed; a malformed line, or one that
    is not UTF-8, is a ``ValueError`` naming it."""
    ids = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or (line_no == 1 and line == _DB_HEADER):
                continue
            try:
                line.encode()  # a byte that is not UTF-8 was read as a lone surrogate
                account_id, last_seen, _ = line.split("\t")
                int(last_seen)  # checked, not kept
                ids.add(int(account_id))
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{line_no}: not UTF-8 text") from None
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected account_id, last_seen_tick and "
                                 f"campaign_id separated by tabs, got {short_repr(line)}") from None
    return frozenset(ids)


def db_lookup(db: frozenset[int], account_ids: Iterable[int],
              verdict: FirestormVerdict) -> FirestormVerdict:
    """Enrich an age-based verdict with known-campaign matches.

    The combined score is the max of the age score and the matched
    fraction of distinct accounts, so database hits can only raise
    suspicion.
    """
    ids = sorted({int(i) for i in account_ids})
    matched = [i for i in ids if i in db]
    matched_fraction = len(matched) / len(ids) if ids else 0.0
    score = max(verdict.artificial_score, matched_fraction)
    flagged = sorted(set(verdict.flagged) | set(matched))
    return FirestormVerdict(
        artificial_score=score, flagged=flagged, evidence=dict(verdict.evidence),
        sample_size=verdict.sample_size, requested=verdict.requested,
        db_matched=matched, note=verdict.note)


@dataclass(frozen=True)
class PastFirestorm:
    """One remembered firestorm from the company's history."""

    topic_id: str
    failure_class: str
    tick: int


def recurrence_boost(company_history: Sequence[PastFirestorm],
                     candidate_topic: TargetTopic, now: int,
                     cfg: "DefenseConfig") -> float:
    """Activation multiplier from an anniversary of a related firestorm.

    Peaks at ``1 + gain`` when the most recent same-class firestorm lies
    exactly one recurrence period in the past; 1.0 with no related history.
    """
    related = [p for p in company_history
               if p.failure_class == candidate_topic.failure_class.value]
    if not related:
        return 1.0
    past = max(related, key=lambda p: p.tick)
    offset = abs(now - past.tick - cfg.recurrence_period)
    return 1.0 + cfg.recurrence_gain * math.exp(-offset / cfg.recurrence_tau)


@dataclass
class DefenseRuntime:
    """Mutable playbook state carried by one simulation run."""

    pending: list["PolicySpec"]
    verdict: FirestormVerdict | None = None
    db: frozenset[int] | None = None  # the shared database's account ids
    # armed defend cohorts; one whose mode is DORMANT has stood down
    support_active_since: dict[str, int] = field(default_factory=dict)


def build_runtime(cfg: "DefenseConfig", events: list[dict]) -> DefenseRuntime:
    """A new run's playbook state; an unloadable database is booked in ``events``."""
    runtime = DefenseRuntime(pending=list(cfg.playbook))
    if not any(PolicyKind(s.kind) is PolicyKind.SHARED_ACCOUNT_DATABASE for s in cfg.playbook):
        return runtime
    path, reason = cfg.db_path, "no db_path configured"
    if path is not None:
        try:
            runtime.db = load_reputation_db(path)
            return runtime
        except (OSError, ValueError) as err:  # unreadable, not UTF-8 or malformed
            path, reason = str(path), str(err)
    events.append({"tick": 0, "kind": "db_unavailable", "path": path, "reason": reason})
    return runtime


def apply_policy(kind: PolicyKind, sim: "Simulation",
                 runtime: DefenseRuntime) -> dict:
    """Apply one policy to the running simulation; returns the event row.

    Class-specific mitigations raise PolicyMismatchError when aimed at the
    wrong failure class, before they change anything; the per-tick hook
    books that as a ``policy_mismatch_skipped`` event.
    """
    cfg = sim.cfg.defense
    t = sim.tick
    event: dict = {"tick": t, "kind": "policy_applied", "policy": kind.value}

    if kind in CLASS_MATCHED_POLICIES:
        if sim.topic is None or CLASS_MATCHED_POLICIES[kind] != sim.topic.failure_class.value:
            have = "none" if sim.topic is None else sim.topic.failure_class.value
            raise PolicyMismatchError(
                f"{kind.value} answers {CLASS_MATCHED_POLICIES[kind]} failures, "
                f"topic failure class is {have}")
        factor = cfg.mitigation_factors[CLASS_MATCHED_POLICIES[kind]]
        event["severity_before"] = sim.severity
        sim.severity *= factor
        event["severity_after"] = sim.severity

    elif kind in ARMING_POLICIES:
        cohort_id, _, reason = ARMING_POLICIES[kind]
        cohort = next((c for c in sim.cohorts if c.cohort_id == cohort_id), None)
        if cohort is None or len(cohort.members) == 0:
            event["kind"] = "policy_no_effect"
            event["reason"] = reason
        else:
            cohort.mode = BotMode.DEFEND
            cohort.defending = len(cohort.members)
            runtime.support_active_since[cohort_id] = t
            event["cohort_size"] = len(cohort.members)

    elif kind is PolicyKind.SCAPEGOAT:
        sim.activation_multiplier *= 1.0 - cfg.scapegoat_transfer
        event["transfer"] = cfg.scapegoat_transfer
        backfired = bool(sim.rng.random() < cfg.scapegoat_backfire_probability)
        event["backfired"] = backfired
        if backfired:
            sim.company.reputation = clip_unit(
                sim.company.reputation - cfg.scapegoat_backfire_penalty)

    elif kind is PolicyKind.DIALOGUE_ENGAGEMENT:
        gain = int(cfg.dialogue_follower_gain)
        quota = int(round(cfg.dialogue_convert_fraction * gain))
        eligible = np.flatnonzero(sim.world.can_activate & ~sim.defender)
        quota = min(quota, len(eligible))
        if quota > 0:
            picks = np.sort(sim.rng.choice(eligible, size=quota, replace=False))
            sim.defender[picks] = True
            sim.active[picks] = True
            sim.activated_ever[picks] = True
        event["follower_gain"] = gain
        event["converted"] = quota

    elif kind is PolicyKind.INTERNAL_TRAINING:
        before = sim.company.security_posture
        sim.company.security_posture = clip_unit(before + cfg.training_posture_boost)
        event["posture_before"] = before
        event["posture_after"] = sim.company.security_posture

    elif kind is PolicyKind.SHARED_ACCOUNT_DATABASE:
        if runtime.db is None:
            event["kind"] = "policy_no_effect"
            event["reason"] = "database unavailable"
        else:
            event["db_records"] = len(runtime.db)
    return event


def run_playbook_tick(sim: "Simulation", runtime: DefenseRuntime) -> list[dict]:
    """Per-tick defense hook; returns events for the engine log."""
    cfg = sim.cfg.defense
    t = sim.tick
    events: list[dict] = []

    if t == 0:
        for spec in list(runtime.pending):
            if PolicyKind(spec.kind) in PROACTIVE_POLICIES:
                runtime.pending.remove(spec)
                events.append(apply_policy(PolicyKind(spec.kind), sim, runtime))

    _update_verdict(sim, runtime, cfg, events)

    for spec in list(runtime.pending):
        kind = PolicyKind(spec.kind)
        if not _triggered(spec, sim, t):
            continue
        if kind in CLASS_MATCHED_POLICIES and sim.topic is None:
            continue  # a class-specific mitigation waits for a topic
        runtime.pending.remove(spec)
        try:
            events.append(apply_policy(kind, sim, runtime))
        except PolicyMismatchError:
            events.append({
                "tick": t, "kind": "policy_mismatch_skipped", "policy": kind.value,
                "topic_class": sim.topic.failure_class.value,
                "policy_class": CLASS_MATCHED_POLICIES[kind]})

    _update_support_cohorts(sim, runtime, events)
    return events


def _triggered(spec: "PolicySpec", sim: "Simulation", t: int) -> bool:
    if spec.trigger_tick is not None:
        return t >= spec.trigger_tick
    if spec.trigger_stage is not None:
        return sim.tracker.stage.value == spec.trigger_stage
    return True


def _update_verdict(sim: "Simulation", runtime: DefenseRuntime,
                    cfg: "DefenseConfig", events: list[dict]) -> None:
    if runtime.verdict is not None:
        return
    authors = sim.post_log.first_authors(cfg.detect_first_k)
    if len(authors) < cfg.detect_first_k:
        return
    verdict = detect_artificial(authors, sim.accounts.creation_tick[authors].tolist(),
                                sim.tick, cfg.age_threshold, requested=cfg.detect_first_k)
    if runtime.db is not None:
        verdict = db_lookup(runtime.db, authors, verdict)
    runtime.verdict = verdict
    events.append({"tick": sim.tick, "kind": "verdict",
                   "artificial_score": verdict.artificial_score,
                   "flagged": len(verdict.flagged),
                   "db_matched": len(verdict.db_matched)})


def _update_support_cohorts(sim: "Simulation", runtime: DefenseRuntime,
                            events: list[dict]) -> None:
    """Support posters stand down once organic chatter has died off.

    Without this, a defend cohort would keep the total volume above the
    extinguishment floor forever.  They re-arm if the topic flares again.
    """
    t = sim.tick
    window = sim.cfg.contagion.extinguish_window
    eps = sim.cfg.contagion.extinguish_eps
    organic = sim.history.organic_posts  # ticks 0 .. t - 1
    for cohort in sim.cohorts:
        since = runtime.support_active_since.get(cohort.cohort_id)
        if since is None:
            continue
        if cohort.mode is BotMode.DORMANT:  # stood down
            if t > 0 and organic[t - 1] >= eps:
                cohort.mode = BotMode.DEFEND
                runtime.support_active_since[cohort.cohort_id] = t
                events.append({"tick": t, "kind": "support_rearmed",
                               "cohort": cohort.cohort_id})
            continue
        if t - since >= window and sim.history.quiet("organic_posts", window, eps):
            cohort.mode = BotMode.DORMANT
            events.append({"tick": t, "kind": "support_withdrawn",
                           "cohort": cohort.cohort_id})
