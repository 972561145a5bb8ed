"""Attacker playbook: staged campaign plan and the follow-on actions.

The campaign walks a fixed six-stage plan: pick a grievance, amplify it
with bots, watch whether real users carry it, identify exposed workers,
pressure them, then strike.  A campaign that never catches returns to
topic selection (once the failed topic's discussion has died down) until
candidates run out.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import defense
from .agents import BotCohort, BotMode, TargetTopic, clip_unit
from .socialgraph import AccountId, identify_human_targets

if TYPE_CHECKING:  # pragma: no cover
    from .contagion import Simulation
    from .scenario import AttackConfig, RansomConfig


class PlanStage(Enum):
    TOPIC_SELECTION = "topic_selection"
    LATENT_AMPLIFICATION = "latent_amplification"
    SPREAD_WATCH = "spread_watch"
    TARGET_IDENTIFICATION = "target_identification"
    WORKER_FOCUS = "worker_focus"
    CYBER_ATTACK = "cyber_attack"
    DONE = "done"
    ABORTED = "aborted"


def stage_index(stage: PlanStage) -> int:
    """Position of ``stage`` in the plan, in declaration order."""
    return list(PlanStage).index(stage)


class ActionKind(Enum):
    DOS = "dos"
    PHYSICAL_ACTION = "physical_action"
    HUMAN_ERROR_EXPLOIT = "human_error_exploit"
    OFFERING_HELP = "offering_help"
    INSIDER_THREAT = "insider_threat"
    EXTORTION = "extortion"
    DEFENCE_AS_A_SERVICE = "defence_as_a_service"


@dataclass(frozen=True)
class ImpactVector:
    reputation: bool
    confidentiality: bool
    integrity: bool
    availability: bool


# Which security properties each action can touch. Fixed by construction;
# tests pin every row.
IMPACT_MATRIX: dict[ActionKind, ImpactVector] = {
    ActionKind.DOS: ImpactVector(False, False, True, True),
    ActionKind.PHYSICAL_ACTION: ImpactVector(False, False, True, True),
    ActionKind.HUMAN_ERROR_EXPLOIT: ImpactVector(True, True, True, True),
    ActionKind.OFFERING_HELP: ImpactVector(True, False, False, False),
    ActionKind.INSIDER_THREAT: ImpactVector(True, False, False, True),
    ActionKind.EXTORTION: ImpactVector(False, False, False, False),
    ActionKind.DEFENCE_AS_A_SERVICE: ImpactVector(False, False, False, False),
}

# Earliest plan stage at which each action makes sense.
ACTION_MIN_STAGE: dict[ActionKind, PlanStage] = {
    ActionKind.DOS: PlanStage.LATENT_AMPLIFICATION,
    ActionKind.PHYSICAL_ACTION: PlanStage.LATENT_AMPLIFICATION,
    ActionKind.EXTORTION: PlanStage.TOPIC_SELECTION,
    ActionKind.DEFENCE_AS_A_SERVICE: PlanStage.SPREAD_WATCH,
    ActionKind.OFFERING_HELP: PlanStage.WORKER_FOCUS,
    ActionKind.INSIDER_THREAT: PlanStage.WORKER_FOCUS,
    ActionKind.HUMAN_ERROR_EXPLOIT: PlanStage.CYBER_ATTACK,
}


class SequencingError(RuntimeError):
    """An action was attempted before its plan stage was reached."""


class NoTopicError(RuntimeError):
    """Every candidate topic has been tried and excluded."""


@dataclass
class ActionOutcome:
    kind: ActionKind
    tick: int
    success: bool
    probability: float
    impact: ImpactVector
    reputation_drop: float = 0.0
    downtime_ticks: int = 0
    exfiltrated: bool = False
    ransom_paid: float = 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["action"] = out.pop("kind").value
        return out


@dataclass
class AttackPlan:
    """Campaign state; one stage transition at most per tick."""

    stage: PlanStage = PlanStage.TOPIC_SELECTION
    # the initial stage predates the first simulated tick
    stage_entries: list[tuple[str, int]] = field(
        default_factory=lambda: [(PlanStage.TOPIC_SELECTION.value, -1)])
    excluded_topics: list[str] = field(default_factory=list)
    targets: list[AccountId] = field(default_factory=list)
    actions: list[ActionOutcome] = field(default_factory=list)
    abandoned_at: int | None = None
    amplify_started: int | None = None
    flip_active: bool = False

    def enter(self, stage: PlanStage, tick: int) -> dict:
        self.stage = stage
        self.stage_entries.append((stage.value, tick))
        return {"tick": tick, "kind": "stage", "stage": stage.value}


def select_topic(candidates: list[TargetTopic], class_weights: dict[str, float],
                 excluded: list[str] | None = None) -> TargetTopic:
    """Most promising grievance: severity weighted by failure class.

    Deterministic; ties resolve to the lexicographically smallest topic id.
    """
    excluded = excluded or []
    pool = [t for t in candidates if t.topic_id not in excluded]
    if not pool:
        raise NoTopicError("no candidate topics left to ignite")
    return min(pool, key=lambda t: (-t.severity * class_weights.get(t.failure_class, 1.0),
                                    t.topic_id))


def retarget_bots(cohort: BotCohort, targets: list[AccountId], ramp: int,
                  start_tick: int) -> bool:
    """Shift the cohort's fire from the company page to worker profiles.

    Returns False (and leaves the cohort alone) when there is nothing to
    aim at.
    """
    if not targets:
        return False
    cohort.retarget_targets = tuple(int(t) for t in targets)
    cohort.retarget_start = start_tick
    cohort.retarget_ramp = int(ramp)
    return True


def flip_bots(cohort: BotCohort, fraction_per_tick: float) -> int:
    """Flip a fixed slice of the cohort from attack to support per call.

    The slice is ``ceil(fraction * cohort size)`` so any positive fraction
    finishes in at most ``ceil(1 / fraction)`` calls.  No-op on cohorts
    already fully defending.
    """
    if not 0.0 < fraction_per_tick <= 1.0:
        raise ValueError("fraction_per_tick must lie in (0, 1]")
    size = len(cohort.members)
    if cohort.mode is BotMode.DEFEND or cohort.defending >= size:
        return 0
    step = min(math.ceil(fraction_per_tick * size), size - cohort.defending)
    cohort.defending += step
    if cohort.defending >= size:
        cohort.mode = BotMode.DEFEND
        cohort.defending = size
    return step


def ransom_decision(cfg: "RansomConfig", rng: np.random.Generator) -> tuple[bool, float]:
    """Does the victim pay?  Returns (paid, probability used).

    Willingness decays exponentially with the demanded amount; the payment
    probability is willingness times the attacker's perceived reliability.
    ``force_outcome`` pins the result for scripted comparisons.
    """
    willingness = cfg.base_willingness * math.exp(-cfg.amount / cfg.amount_scale)
    p = clip_unit(willingness * cfg.reliability)
    if cfg.force_outcome == "pay":
        return True, p
    if cfg.force_outcome == "refuse":
        return False, p
    return bool(rng.random() < p), p


def execute_action(kind: ActionKind, sim: "Simulation", rng: np.random.Generator,
                   cfg: "AttackConfig") -> ActionOutcome:
    """Resolve one follow-on action against the current company state."""
    plan = sim.plan
    stage = plan.stage if plan is not None else PlanStage.CYBER_ATTACK
    if stage is PlanStage.ABORTED:
        raise SequencingError("campaign aborted; no actions possible")
    if stage_index(stage) < stage_index(ACTION_MIN_STAGE[kind]):
        raise SequencingError(
            f"{kind.value} requires stage {ACTION_MIN_STAGE[kind].value}, "
            f"plan is in {stage.value}")

    company = sim.company
    impact = IMPACT_MATRIX[kind]
    outcome = ActionOutcome(kind=kind, tick=sim.tick, success=False,
                            probability=0.0, impact=impact)

    roster, accounts = sim.roster_ids, sim.accounts
    if kind is ActionKind.HUMAN_ERROR_EXPLOIT:
        # how reliably each staff member follows security procedure at their stress
        compliance = company.security_posture * (
            1.0 - sim.cfg.agents.stress_compliance_weight * accounts.stress[roster])
        p = float(np.mean(1.0 - np.clip(compliance, 0.0, 1.0)))
    elif kind is ActionKind.INSIDER_THREAT:
        count = np.count_nonzero((accounts.stress[roster] > cfg.insider_stress_min)
                                 & (accounts.pride[roster] < cfg.insider_pride_max))
        p = clip_unit(cfg.insider_rate_per_candidate * int(count))
    elif kind in (ActionKind.EXTORTION, ActionKind.DEFENCE_AS_A_SERVICE):
        terms = cfg.ransom if kind is ActionKind.EXTORTION else cfg.service
        outcome.success, outcome.probability = ransom_decision(terms, rng)
        if outcome.success:
            company.ransom_paid_total += terms.amount
            outcome.ransom_paid = terms.amount
            if kind is ActionKind.EXTORTION:
                _silence_attack_cohorts(sim)
            elif plan is not None:
                plan.flip_active = True
        return outcome
    else:
        p = cfg.action_probabilities[kind.value]

    outcome.probability = p
    outcome.success = bool(rng.random() < p)
    if not outcome.success:
        return outcome

    if impact.reputation:
        drop = cfg.reputation_shocks.get(kind.value, 0.0)
        company.reputation = clip_unit(company.reputation - drop)
        outcome.reputation_drop = drop
    # offered help hands access over voluntarily; data walks out with it
    if impact.confidentiality or kind is ActionKind.OFFERING_HELP:
        company.data_exfiltrated = True
        outcome.exfiltrated = True
    if impact.availability:
        downtime = cfg.downtime_ticks.get(kind.value, 0)
        company.downtime_remaining += downtime
        outcome.downtime_ticks = downtime
    return outcome


def advance_plan(plan: AttackPlan, sim: "Simulation", cfg: "AttackConfig",
                 tick: int) -> list[dict]:
    """One plan update for the tick just completed; at most one transition.

    Stages before the fire point never consume RNG, which keeps the
    engine's counterfactual forks aligned with offline replay.
    """
    events: list[dict] = []

    # The botnet runs its paid term from first amplification: completing the
    # plan's objectives does not silence it, only payout, flip, or abandon do.
    budget_spent = (plan.amplify_started is not None
                    and tick - plan.amplify_started >= cfg.campaign_budget)
    if budget_spent and _silence_attack_cohorts(sim):
        events.append({"tick": tick, "kind": "campaign_concluded"})

    live = plan.stage not in (PlanStage.DONE, PlanStage.ABORTED)
    due = [ActionKind(name) for at, name in cfg.action_schedule if at == tick] if live else []
    for kind in due:
        try:
            _record_action(plan, sim, cfg, kind, tick, events)
        except SequencingError as err:
            events.append({"tick": tick, "kind": "action_skipped",
                           "action": kind.value, "reason": str(err)})

    if plan.flip_active:
        _flip_step(plan, sim, cfg, tick, events)

    if not live:
        return events
    if budget_spent:
        done = sim.fire_point is not None
        events.append(plan.enter(PlanStage.DONE if done else PlanStage.ABORTED, tick))
        return events

    stage = plan.stage
    if stage is PlanStage.TOPIC_SELECTION:
        try:
            topic = sim.choose_topic(tick, plan.excluded_topics)
        except NoTopicError:
            events.append(plan.enter(PlanStage.ABORTED, tick))
            _set_attack_mode(sim, BotMode.DORMANT)
            return events
        _set_attack_mode(sim, BotMode.ATTACK)
        plan.abandoned_at = None
        plan.amplify_started = tick
        events.append({"tick": tick, "kind": "topic_selected", "topic": topic.topic_id,
                       "recurrence_multiplier": sim.recurrence_multiplier})
        events.append(plan.enter(PlanStage.LATENT_AMPLIFICATION, tick))
        return events

    if stage in (PlanStage.LATENT_AMPLIFICATION, PlanStage.SPREAD_WATCH):
        if plan.abandoned_at is not None:
            contagion = sim.cfg.contagion
            if sim.history.quiet("total_posts", contagion.extinguish_window,
                                 contagion.extinguish_eps):
                plan.excluded_topics.append(sim.topic.topic_id)
                events.append({"tick": tick, "kind": "topic_exhausted",
                               "topic": sim.topic.topic_id})
                events.append(plan.enter(PlanStage.TOPIC_SELECTION, tick))
            return events
        if stage is PlanStage.LATENT_AMPLIFICATION and sim.history.organic_posts[tick] > 0:
            events.append(plan.enter(PlanStage.SPREAD_WATCH, tick))
            return events
        if stage is PlanStage.SPREAD_WATCH and sim.fire_point is not None:
            events.append(plan.enter(PlanStage.TARGET_IDENTIFICATION, tick))
            plan.targets = identify_human_targets(
                sim.graph, sim.accounts, sim.world.roster_ids, sim.world.manager_ids,
                cfg.retarget_top_k, cfg.target_weights)
            events.append({"tick": tick, "kind": "targets_identified",
                           "targets": [int(i) for i in plan.targets]})
            return events
        started = plan.amplify_started if plan.amplify_started is not None else 0
        if tick - started >= cfg.spread_patience:
            plan.abandoned_at = tick
            _set_attack_mode(sim, BotMode.DORMANT)
            events.append({"tick": tick, "kind": "amplification_abandoned",
                           "topic": sim.topic.topic_id})
        return events

    if stage is PlanStage.TARGET_IDENTIFICATION:
        if cfg.worker_focus_enabled and plan.targets:
            for cohort in _attack_cohorts(sim):
                retarget_bots(cohort, plan.targets, cfg.retarget_ramp, tick)
            events.append({"tick": tick, "kind": "retarget",
                           "ramp": cfg.retarget_ramp,
                           "targets": [int(i) for i in plan.targets]})
        events.append(plan.enter(PlanStage.WORKER_FOCUS, tick))
        return events

    if stage is PlanStage.WORKER_FOCUS:
        mean_stress = float(sim.accounts.stress[sim.roster_ids].mean())
        if mean_stress >= cfg.stress_open_threshold:
            events.append(plan.enter(PlanStage.CYBER_ATTACK, tick))
        return events

    if stage is PlanStage.CYBER_ATTACK:
        _record_action(plan, sim, cfg, ActionKind(cfg.final_action), tick, events)
        events.append(plan.enter(PlanStage.DONE, tick))
        return events

    return events


def _attack_cohorts(sim: "Simulation") -> list[BotCohort]:
    return [c for c in sim.cohorts if c.cohort_id not in defense.DEFEND_COHORT_IDS]


def _silence_attack_cohorts(sim: "Simulation") -> bool:
    """Send every attacking cohort dormant; whether any was attacking.  A
    fully flipped cohort defends and stays so."""
    attacking = [c for c in _attack_cohorts(sim) if c.mode is BotMode.ATTACK]
    for cohort in attacking:
        cohort.mode = BotMode.DORMANT
    return bool(attacking)


def _set_attack_mode(sim: "Simulation", mode: BotMode) -> None:
    for cohort in _attack_cohorts(sim):
        cohort.mode = mode


def _record_action(plan: AttackPlan, sim: "Simulation", cfg: "AttackConfig",
                   kind: ActionKind, tick: int, events: list[dict]) -> None:
    """Resolve ``kind`` now and book it in the plan, the financial markers and ``events``."""
    outcome = execute_action(kind, sim, sim.rng, cfg)
    plan.actions.append(outcome)
    sim.financial.markers.append((tick, kind.value))
    events.append({"tick": tick, "kind": "action", "action": kind.value,
                   "success": outcome.success})


def _flip_step(plan: AttackPlan, sim: "Simulation", cfg: "AttackConfig",
               tick: int, events: list[dict]) -> None:
    # only live attack cohorts flip; dormant bots have nothing to convert
    flipped = 0
    flippable = False
    for cohort in _attack_cohorts(sim):
        if cohort.mode is not BotMode.ATTACK:
            continue
        flipped += flip_bots(cohort, cfg.flip_fraction)
        if cohort.mode is BotMode.ATTACK and cohort.defending < len(cohort.members):
            flippable = True
    if flipped:
        events.append({"tick": tick, "kind": "bots_flipped", "count": flipped})
    if not flippable:
        plan.flip_active = False
